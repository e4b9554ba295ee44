//! The five servers of the paper's evaluation (§4), re-implemented in
//! MiniC with their documented memory errors, plus request drivers.
//!
//! Each module contains:
//!
//! * the MiniC source of the server, written so the vulnerable code path
//!   matches the paper's description (Mutt's `utf8_to_utf7` is
//!   transliterated from Figure 1);
//! * a Rust driver that boots the server under a chosen [`Mode`], feeds it
//!   legitimate and attack requests, and classifies outcomes;
//! * unit tests asserting the paper's qualitative results per mode.
//!
//! The drivers model one OS process per [`foc_vm::Machine`]: a fault kills
//! the process and all its state; a restart builds a fresh machine and
//! replays initialisation (which may itself fault — the Pine/Mutt/MC
//! situation where the Bounds Check version dies during startup, §4.7).
//!
//! Two things are shared by all five. Every driver request method is one
//! [`Process::call`] (or a short sequence of them), which owns the
//! dead-process answer and the copy-in/free-if-survived marshalling of
//! byte arguments. And [`Process`] and the drivers are `Clone`, so a
//! *frozen boot* is nothing but a booted [`Server`] nobody calls: the
//! boot cache ([`image::boot_checkpoint`]) holds one `Arc<Server>` per
//! `(kind, spec)` and restoring it is `clone()`.

pub mod apache;
pub mod conn;
pub mod farm;
pub mod image;
pub mod latency;
pub mod mc;
pub mod mutt;
pub mod pine;
pub mod sendmail;
pub mod steal;
pub mod supervisor;
pub mod sweep;
pub mod workload;

pub use farm::{Request, Server, ServerEnv};
pub use image::ServerKind;

pub use foc_compiler::ExecTier;

use foc_compiler::ProgramImage;
use foc_memory::{LookupLayer, Mode, TableKind, ValueSequence};
use foc_vm::{Machine, MachineConfig, VmFault};

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The server processed the request; `ret` is its status code and
    /// `output` what it wrote.
    Done {
        /// Guest return value.
        ret: i64,
        /// Bytes the guest emitted while serving the request.
        output: Vec<u8>,
    },
    /// The server process died (segfault, memory-error exit, abort...).
    Crashed(VmFault),
}

impl Outcome {
    /// Whether the request completed without killing the process.
    pub fn survived(&self) -> bool {
        matches!(self, Outcome::Done { .. })
    }

    /// Return code, when the process survived.
    pub fn ret(&self) -> Option<i64> {
        match self {
            Outcome::Done { ret, .. } => Some(*ret),
            Outcome::Crashed(_) => None,
        }
    }

    /// Output bytes, when the process survived.
    pub fn output(&self) -> &[u8] {
        match self {
            Outcome::Done { output, .. } => output,
            Outcome::Crashed(_) => &[],
        }
    }
}

/// A measured request: outcome plus virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measured {
    /// What happened.
    pub outcome: Outcome,
    /// Virtual cycles charged to this request.
    pub cycles: u64,
}

/// Everything that decides how one guest server process is built: the
/// four axes of the mode search-space sweep in one place. The drivers'
/// `boot_spec`/`boot_image_spec` constructors take a full spec; each
/// driver's `boot(mode, ..)` is the one convenience, over the default
/// spec for `mode`. `Hash` because the spec is half of the
/// boot-checkpoint cache key (see [`image::boot_checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BootSpec {
    /// Access policy.
    pub mode: Mode,
    /// Object-table backend.
    pub table: TableKind,
    /// Manufactured-value strategy for invalid reads.
    pub sequence: ValueSequence,
    /// Per-call instruction budget.
    pub fuel: u64,
    /// Execution tier of the booted image. Part of the cache key: the
    /// tiers' boots never alias in the checkpoint cache, matching
    /// their distinct [`foc_compiler::ProgramId`]s.
    pub tier: ExecTier,
    /// Always [`LookupLayer::Table`]. Kept only because the frozen
    /// `bench/` package reads it; goes with the type at the next
    /// `benchmark` revision (ROADMAP).
    pub lookup: LookupLayer,
}

impl BootSpec {
    /// A spec for `kind` under `mode` with the remaining axes at the
    /// shipped default: the paper's cycling sequence, the kind's
    /// standard fuel budget, and the fast path `native`/`flat`
    /// ([`ExecTier::default`], [`TableKind::default`]). Every other
    /// configuration is named in code — [`BootSpec::oracle`] for the
    /// `baseline`/`splay` reference every faster path is proven
    /// against, the `with_*` builders for a single axis. This is the one
    /// place a default is decided: [`farm::FarmConfig::new`],
    /// [`ServerKind::image`], [`Process::boot_source`] and
    /// [`apache::ApachePool::new`] all take theirs from here.
    pub fn new(kind: ServerKind, mode: Mode) -> BootSpec {
        BootSpec::with_budget(mode, kind.fuel())
    }

    /// [`BootSpec::new`] for a guest that is not one of the five
    /// servers and so has no standard budget of its own.
    fn with_budget(mode: Mode, fuel: u64) -> BootSpec {
        BootSpec {
            mode,
            table: TableKind::default(),
            sequence: ValueSequence::default(),
            fuel,
            tier: ExecTier::default(),
            lookup: LookupLayer::Table,
        }
    }

    /// The reference oracle for `kind` under `mode`: the interpreted
    /// `baseline` tier over a `splay` tree, Jones & Kelly's own
    /// structure — the configuration every faster path is proven
    /// observably identical to.
    pub fn oracle(kind: ServerKind, mode: Mode) -> BootSpec {
        BootSpec::new(kind, mode)
            .with_tier(ExecTier::Baseline)
            .with_table(TableKind::Splay)
    }

    /// Same spec on a different object-table backend.
    pub fn with_table(mut self, table: TableKind) -> BootSpec {
        self.table = table;
        self
    }

    /// Same spec with a different manufactured-value strategy.
    pub fn with_sequence(mut self, sequence: ValueSequence) -> BootSpec {
        self.sequence = sequence;
        self
    }

    /// Same spec with a different per-call instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> BootSpec {
        self.fuel = fuel;
        self
    }

    /// Same spec on a different execution tier.
    pub fn with_tier(mut self, tier: ExecTier) -> BootSpec {
        self.tier = tier;
        self
    }
}

/// One argument of a guest call ([`Process::call`]).
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// An integer, passed as is.
    Int(i64),
    /// A byte string, copied NUL-terminated into the guest heap for the
    /// duration of the call and passed by address.
    Str(&'a [u8]),
}

/// The most arguments any server entry point takes.
const MAX_ARGS: usize = 3;

/// Shared plumbing: one guest process running a compiled server.
///
/// `Clone` copies the whole process (see [`Machine`]'s `Clone`): a
/// process that is booted once and afterwards only cloned is a frozen
/// boot, which is all a restart restores from.
#[derive(Clone)]
pub struct Process {
    machine: Machine,
    spec: BootSpec,
}

impl Process {
    /// Boots a shared compiled image from a full [`BootSpec`] — every
    /// sweep axis (mode, object table, value sequence, fuel budget,
    /// execution tier) decided by the caller. This is the
    /// one canonical construction path: every other constructor, here
    /// and in the five drivers, is a thin forwarder into it. The farm's
    /// hot path too: no compilation, just globals/strings allocation —
    /// restarts and pool respawns reuse the interned image.
    ///
    /// # Panics
    ///
    /// Panics when the image fails to load (global region exhaustion —
    /// a harness bug, since the server images are fixed).
    pub fn boot_spec(image: &ProgramImage, spec: &BootSpec) -> Process {
        let config = MachineConfig {
            mem: foc_memory::MemConfig::with_mode(spec.mode)
                .with_table(spec.table)
                .with_sequence(spec.sequence),
            fuel_per_call: spec.fuel,
        };
        let machine = match Machine::load(image.clone(), config) {
            Ok(m) => m,
            Err(e) => panic!("server image failed to load: {e}"),
        };
        Process {
            machine,
            spec: *spec,
        }
    }

    /// Compiles `source` cold on the shipped-default tier and boots it
    /// under the shipped-default spec ([`BootSpec::new`]'s axes) — the
    /// pre-interning path, kept for one-off programs and as the
    /// differential baseline the image-sharing property tests compare
    /// against.
    ///
    /// # Panics
    ///
    /// Panics when the source fails to compile, or the image to load.
    pub fn boot_source(source: &str, mode: Mode, fuel: u64) -> Process {
        let spec = BootSpec::with_budget(mode, fuel);
        let image = match foc_compiler::compile_image_tier(source, spec.tier) {
            Ok(image) => image,
            Err(e) => panic!("server source failed to build: {e}"),
        };
        Process::boot_spec(&image, &spec)
    }

    /// The policy this process runs under.
    pub fn mode(&self) -> Mode {
        self.spec.mode
    }

    /// The object-table backend this process runs on.
    pub fn table(&self) -> TableKind {
        self.spec.table
    }

    /// The full boot spec this process was built from.
    pub fn spec(&self) -> &BootSpec {
        &self.spec
    }

    /// The fuel budget per call.
    pub fn fuel(&self) -> u64 {
        self.spec.fuel
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Whether the process has died.
    pub fn is_dead(&self) -> bool {
        self.machine.is_dead()
    }

    /// Serves one request: calls guest entry point `func`, measuring the
    /// cycles it consumed. The one way a driver reaches its guest.
    ///
    /// A dead process answers with the fault it died of, for 0 cycles,
    /// and nothing else happens. Otherwise each [`Arg::Str`] is copied
    /// into the guest heap in argument order, the entry point runs, and
    /// the copies are freed in the same order *iff the call survived* —
    /// a crash takes the heap with it, and a free on a dead space would
    /// still move [`foc_memory::SpaceStats::frees`].
    ///
    /// # Panics
    ///
    /// Panics on more than three arguments, or when the guest heap
    /// cannot hold the copies (drivers pass tiny request strings; either
    /// is a harness bug).
    pub fn call(&mut self, func: &str, args: &[Arg<'_>]) -> Measured {
        if let Some(fault) = self.machine.dead_reason() {
            return Measured {
                outcome: Outcome::Crashed(fault.clone()),
                cycles: 0,
            };
        }
        let mut raw = [0i64; MAX_ARGS];
        let mut copies = [None; MAX_ARGS];
        for (i, arg) in args.iter().enumerate() {
            raw[i] = match *arg {
                Arg::Int(v) => v,
                Arg::Str(bytes) => {
                    let addr = self
                        .machine
                        .alloc_cstring(bytes)
                        .expect("guest heap exhausted");
                    copies[i] = Some(addr);
                    i64::try_from(addr).expect("guest address fits the i64 argument slot")
                }
            };
        }
        let before = self.machine.stats().cycles;
        let result = self.machine.call(func, &raw[..args.len()]);
        let cycles = self.machine.stats().cycles - before;
        let outcome = match result {
            Ok(ret) => {
                for addr in copies.into_iter().flatten() {
                    // A Standard-mode guest may have smashed the copy's
                    // header and lived; the host `free` then refuses,
                    // and the process carries on as the real one would.
                    let _ = self.machine.free_guest(addr);
                }
                Outcome::Done {
                    ret,
                    output: self.machine.take_output(),
                }
            }
            Err(fault) => Outcome::Crashed(fault),
        };
        Measured { outcome, cycles }
    }
}

/// Mean and sample standard deviation of a series.
pub fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_stddev_basics() {
        let (m, s) = mean_stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935299395).abs() < 1e-9);
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
        assert_eq!(mean_stddev(&[3.0]), (3.0, 0.0));
    }

    /// A guest small enough to read whole: `gap` survives and reports
    /// where its two strings landed, `boom` dies after touching both.
    const CALL_GUEST: &str = "long gap(char *a, char *b) { return b - a; } \
                              long boom(char *a, char *b) { int z = 0; return (a[0] + b[0]) / z; }";

    fn call_guest(mode: Mode) -> Process {
        Process::boot_source(CALL_GUEST, mode, 1_000_000)
    }

    #[test]
    fn a_dead_process_answers_with_the_fault_it_died_of() {
        for mode in [Mode::Standard, Mode::FailureOblivious] {
            let mut p = call_guest(mode);
            let args = [Arg::Str(b"left"), Arg::Str(b"right")];
            let Outcome::Crashed(died_of) = p.call("boom", &args).outcome else {
                panic!("{mode:?}: a division by zero kills the process");
            };
            assert_ne!(died_of, VmFault::MachineDead);
            let space = p.machine().space();
            let (stats, live) = (*space.stats(), space.heap_live());
            let again = p.call("gap", &args);
            assert_eq!(again.outcome, Outcome::Crashed(died_of), "{mode:?}");
            assert_eq!(again.cycles, 0, "{mode:?}");
            let space = p.machine().space();
            assert_eq!(
                (*space.stats(), space.heap_live()),
                (stats, live),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn byte_arguments_are_freed_iff_the_call_survived() {
        for mode in [Mode::Standard, Mode::FailureOblivious] {
            let mut p = call_guest(mode);
            let args = [Arg::Str(b"left"), Arg::Str(b"right")];
            let base = (
                *p.machine().space().stats(),
                p.machine().space().heap_live(),
            );
            assert!(p.call("gap", &args).outcome.survived(), "{mode:?}");
            let space = p.machine().space();
            assert_eq!(space.heap_live(), base.1, "{mode:?}: copies freed");
            assert_eq!(space.stats().mallocs, base.0.mallocs + 2, "{mode:?}");
            assert_eq!(space.stats().frees, base.0.frees + 2, "{mode:?}");
            assert!(!p.call("boom", &args).outcome.survived(), "{mode:?}");
            let space = p.machine().space();
            assert_eq!(space.stats().mallocs, base.0.mallocs + 4, "{mode:?}");
            assert_eq!(space.stats().frees, base.0.frees + 2, "{mode:?}: no free");
            assert_eq!(space.heap_live(), base.1 + 2, "{mode:?}");
        }
    }

    #[test]
    fn byte_arguments_land_in_argument_order() {
        for mode in [Mode::Standard, Mode::FailureOblivious] {
            let mut p = call_guest(mode);
            let gap = p.call("gap", &[Arg::Str(b"left"), Arg::Str(b"right")]);
            let gap = gap.outcome.ret().expect("gap survives");
            assert!(
                gap > 0,
                "{mode:?}: first Str gets the lower address ({gap})"
            );
            // Integers pass through untouched, between the strings too.
            let src = "long pick(char *a, long n, char *b) { return n + (b > a); }";
            let mut p = Process::boot_source(src, mode, 1_000_000);
            let args = [Arg::Str(b"x"), Arg::Int(-7), Arg::Str(b"y")];
            assert_eq!(p.call("pick", &args).outcome.ret(), Some(-6), "{mode:?}");
        }
    }

    #[test]
    fn process_boot_and_request() {
        let mut p = Process::boot_source(
            "int n = 0; int bump() { n++; return n; }",
            Mode::FailureOblivious,
            1_000_000,
        );
        let r1 = p.call("bump", &[]);
        assert_eq!(r1.outcome.ret(), Some(1));
        assert!(r1.cycles > 0);
        let r2 = p.call("bump", &[]);
        assert_eq!(r2.outcome.ret(), Some(2));
    }
}
