//! Frozen boots: a booted [`Machine`](crate::Machine) nobody calls.
//!
//! The paper's availability argument (§4.7) prices every supervised
//! restart: a restarting server re-runs boot *and* replays its
//! environment (configuration, spool, mailbox) before it can serve
//! again. `Machine` is `Clone`, and a clone copies the whole process
//! image — memory space, evaluation stack, counters — so a machine that
//! is booted once and then only ever cloned is a checkpoint: every
//! restart is a memcpy of the committed region windows (24 KiB for a
//! booted Apache worker, 188 KiB for Pine; see `foc_memory::addr`)
//! instead of re-interpreted initialization. Behind an `Arc` it is
//! immutable and `Sync`, so one frozen machine serves concurrent
//! restorers across farm worker threads.
//!
//! Determinism makes this sound: a boot is a pure function of
//! `(image, config, environment)`, so the clone is *byte-identical* to
//! the machine a fresh boot would have produced — transcripts, the
//! whole [`crate::Observation`] and manufactured-value positions
//! included. The tests below pin that at the machine level; the harness
//! in `foc-servers/tests/equiv` holds cached boots to cold ones across
//! all five servers, all five modes, and the §4/§5.1 attack library.

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, MachineConfig};
    use foc_memory::Mode;

    #[test]
    fn restored_machine_continues_identically() {
        let src = "int n = 0; int bump() { n += 1; return n; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        m.call("bump", &[]).unwrap();
        let frozen = m.clone();
        // Diverge the original; the frozen clone must not move.
        m.call("bump", &[]).unwrap();
        let mut r1 = frozen.clone();
        let mut r2 = frozen.clone();
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
        let frozen = m.clone();
        assert_eq!(m.call("f", &[]).unwrap(), 1);
        let mut r = frozen.clone();
        assert_eq!(r.call("f", &[]).unwrap(), 1, "sequence resumes in step");
        assert_eq!(r.space().error_log().total(), 2);
    }

    #[test]
    fn checkpoints_restore_dead_machines_faithfully() {
        // A clone of a dead machine is a dead machine — the
        // persistent-trigger case, where a deterministic boot dies and
        // every restore must die-equivalently report the same fault.
        let src = "int f() { return 1 / 0; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        let _ = m.call("f", &[]);
        assert!(m.is_dead());
        let r = m.clone();
        assert!(r.is_dead());
        assert_eq!(r.dead_reason(), m.dead_reason());
    }

    #[test]
    fn checkpoints_are_shareable_across_threads() {
        let src = "int n = 7; int get() { return n; }";
        let m = Machine::from_source(src, MachineConfig::default()).unwrap();
        let frozen = std::sync::Arc::new(m);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&frozen);
                std::thread::spawn(move || Machine::clone(&c).call("get", &[]).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
    }
}
