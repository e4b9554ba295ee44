//! Boot checkpoints: frozen machine snapshots for O(1) restart.
//!
//! The paper's availability argument (§4.7) prices every supervised
//! restart: a restarting server re-runs boot *and* replays its
//! environment (configuration, spool, mailbox) before it can serve
//! again. With the compiled-image layer making the code load cheap, the
//! remaining restart cost was exactly that replay — interpreted guest
//! work proportional to the environment. A [`Checkpoint`] removes it:
//! capture a machine once, immediately after its standard boot (memory
//! space, evaluation stack, counters — the whole process image), and
//! every later restart restores the snapshot with a memcpy of the
//! committed region windows instead of re-interpreting initialization.
//! Those windows hold what the guest touched, at page granularity
//! (`foc_memory::addr`): 24 KiB for a booted Apache worker, 16 KiB
//! Sendmail, 60 KiB MC, 164 KiB Mutt, 188 KiB Pine — so a restore is
//! 1–2 µs for Apache and a few tens of µs for Pine, and its cost moves
//! with the guest's globals and boot-time heap, nothing else.
//!
//! Determinism makes this sound: a boot is a pure function of
//! `(image, config, environment)`, so the restored machine is
//! *byte-identical* to the machine a fresh boot would have produced —
//! transcripts, [`foc_memory::SpaceStats`], error-log contents, and
//! manufactured-value positions included. The `checkpoint_equiv` test
//! battery asserts exactly that across all five servers, all five
//! modes, and the §4/§5.1 attack library.
//!
//! Checkpoints are immutable and `Sync`: one `Arc<Checkpoint>` serves
//! concurrent restorers across farm worker threads.

use crate::machine::Machine;

/// A frozen snapshot of a [`Machine`], restorable any number of times.
#[derive(Clone)]
pub struct Checkpoint {
    state: Machine,
}

impl Checkpoint {
    /// Freezes the machine's current state. Usually taken right after a
    /// standard boot, while the state is still the deterministic
    /// function of the boot inputs that makes restoration equivalent to
    /// re-booting.
    pub fn capture(machine: &Machine) -> Checkpoint {
        Checkpoint {
            state: machine.clone(),
        }
    }

    /// Materialises a fresh machine in exactly the captured state.
    pub fn restore(&self) -> Machine {
        self.state.clone()
    }

    /// Read-only view of the frozen state (diagnostics, tests).
    pub fn state(&self) -> &Machine {
        &self.state
    }
}

impl Machine {
    /// Freezes this machine's current state into a [`Checkpoint`] —
    /// convenience for [`Checkpoint::capture`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use foc_memory::Mode;

    #[test]
    fn restored_machine_continues_identically() {
        let src = "int n = 0; int bump() { n += 1; return n; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        m.call("bump", &[]).unwrap();
        let ckpt = m.checkpoint();
        // Diverge the original; the checkpoint must not move.
        m.call("bump", &[]).unwrap();
        let mut r1 = ckpt.restore();
        let mut r2 = ckpt.restore();
        assert_eq!(r1.call("bump", &[]).unwrap(), 2);
        assert_eq!(r2.call("bump", &[]).unwrap(), 2);
        assert_eq!(m.call("bump", &[]).unwrap(), 3);
        assert_eq!(r1.stats().instrs, r2.stats().instrs);
    }

    #[test]
    fn checkpoint_preserves_violation_state() {
        // Manufactured-value positions and the error log are part of the
        // snapshot: a restored machine resumes the 0,1,k sequence where
        // the capture left it.
        let src = "int f() { int xs[2]; xs[0] = 1; return xs[9]; }";
        let config = MachineConfig::with_mode(Mode::FailureOblivious);
        let mut m = Machine::from_source(src, config).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 0);
        let ckpt = m.checkpoint();
        assert_eq!(m.call("f", &[]).unwrap(), 1);
        let mut r = ckpt.restore();
        assert_eq!(r.call("f", &[]).unwrap(), 1, "sequence resumes in step");
        assert_eq!(r.space().error_log().total(), 2);
    }

    #[test]
    fn checkpoints_restore_dead_machines_faithfully() {
        // A checkpoint of a dead machine restores a dead machine — the
        // persistent-trigger case, where a deterministic boot dies and
        // every restore must die-equivalently report the same fault.
        let src = "int f() { return 1 / 0; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        let _ = m.call("f", &[]);
        assert!(m.is_dead());
        let r = m.checkpoint().restore();
        assert!(r.is_dead());
        assert_eq!(r.dead_reason(), m.dead_reason());
    }

    #[test]
    fn checkpoints_are_shareable_across_threads() {
        let src = "int n = 7; int get() { return n; }";
        let m = Machine::from_source(src, MachineConfig::default()).unwrap();
        let ckpt = std::sync::Arc::new(m.checkpoint());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&ckpt);
                std::thread::spawn(move || c.restore().call("get", &[]).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
    }
}
