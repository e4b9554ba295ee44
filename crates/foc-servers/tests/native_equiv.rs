//! The server layer's equivalence cases, and the contract of lowering
//! per function on first entry.
//!
//! Every [`INPUT_LIBRARY`] entry — benign sessions and the §4/§5.1
//! attacks of all five servers — runs in all five modes at the four
//! tier × table points of the harness's [`equiv::lattice`], one of them
//! booted cold, with manufactured-value strategies and fuel limits
//! swept on top, so a fuel-out point that drifts between tiers shows.
//! The rest pins the artifact: nothing lowered before a function is
//! entered, one artifact per function however many machines, restores
//! or threads enter it.

mod equiv;

use proptest::prelude::*;

use foc_compiler::{compile_image_tier, ExecTier, NativeFunc};
use foc_memory::{Mode, ValueSequence};
use foc_servers::sweep::{INPUT_LIBRARY, TIGHT_FUEL};
use foc_servers::{BootSpec, ServerKind};
use foc_vm::{Machine, MachineConfig};

/// The headline battery: one server × all five modes × its whole input
/// library at its standard fuel budget, at every lattice point. The
/// attack inputs exercise the native regions' cold fault seams: a
/// violation inside a lowered memory access must refund the unexecuted
/// components and leave the same log record, at the same sequence
/// number, with the same manufactured value, as the interpreter — on
/// either table, restored or cold. One test per server, so that MC's
/// longest run (`component-scan` under Redirect, which fuels out)
/// overlaps the others.
fn library_at_every_lattice_point(kind: ServerKind) {
    let mut attacks = 0;
    for input in INPUT_LIBRARY.iter().filter(|i| i.kind == kind) {
        for mode in Mode::ALL {
            let driven = equiv::lattice(input, BootSpec::new(kind, mode));
            if input.attack && mode == Mode::FailureOblivious {
                attacks += 1;
                assert!(
                    driven.violations > 0 || driven.fault.is_some(),
                    "{}/{}: an attack input must be observable",
                    kind.name(),
                    input.name
                );
            }
        }
    }
    assert!(
        attacks > 0,
        "the library must cover {}'s attack",
        kind.name()
    );
}

#[test]
fn pine_library_at_every_lattice_point() {
    library_at_every_lattice_point(ServerKind::Pine);
}

#[test]
fn apache_library_at_every_lattice_point() {
    library_at_every_lattice_point(ServerKind::Apache);
}

#[test]
fn sendmail_library_at_every_lattice_point() {
    library_at_every_lattice_point(ServerKind::Sendmail);
}

#[test]
fn mc_library_at_every_lattice_point() {
    library_at_every_lattice_point(ServerKind::Mc);
}

#[test]
fn mutt_library_at_every_lattice_point() {
    library_at_every_lattice_point(ServerKind::Mutt);
}

/// Manufactured-value strategies change *which* values flow out of
/// invalid reads — and therefore which branches the guest takes after a
/// violation. Every point must be blind to all of them under the tight
/// budget, where the native tier's whole-region pre-charge gate is
/// constantly probed by impending fuel exhaustion.
#[test]
fn manufactured_value_strategies_are_native_blind() {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(0x41),
        ValueSequence::Cycling { wrap: 3 },
        ValueSequence::Cycling { wrap: 257 },
    ];
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        for sequence in sequences {
            let spec = BootSpec::new(input.kind, Mode::FailureOblivious);
            equiv::lattice(input, spec.with_sequence(sequence).with_fuel(TIGHT_FUEL));
        }
    }
}

const SPIN_SOURCE: &str = "long spin(long n) { int xs[2]; long i; long acc = 0; \
                           for (i = 0; i < n; i++) acc += xs[5]; return acc; } \
                           long idle(long n) { return n + 1; }";

fn spin_config() -> MachineConfig {
    MachineConfig::with_mode(Mode::FailureOblivious).with_fuel(1_000_000)
}

/// The address of function `name`'s lowered regions in the image a
/// machine runs, if any machine has entered the function yet.
fn lowered_at(machine: &Machine, name: &str) -> Option<*const NativeFunc> {
    let image = machine.image();
    let fid = image.func_index(name).expect("function exists") as usize;
    let native = image.native().expect("native-tier image");
    native.lowered(fid).map(std::ptr::from_ref)
}

/// A mid-run VM checkpoint of a native-tier machine must restore with
/// the lowered artifact intact, and the interrupted run must finish
/// exactly as an uninterrupted baseline run does — stats, space
/// counters, and results alike. (Server boots restore frozen snapshots
/// on every `drive_input`, so the batteries above already soak
/// boot-time restore; this pins the artifact's survival explicitly.)
#[test]
fn native_artifact_survives_checkpoint_restore() {
    let [baseline, native] = equiv::images(SPIN_SOURCE);
    let mut native = Machine::load(native, spin_config()).expect("load");
    native.call("spin", &[4]).expect("warm-up call");
    let frozen = native.clone();

    let mut restored = frozen.clone();
    assert!(
        lowered_at(&restored, "spin").is_some(),
        "the regions the warm-up lowered must ride through freeze/restore"
    );

    let mut reference = Machine::load(baseline, spin_config()).expect("load");
    reference.call("spin", &[4]).expect("warm-up call");
    assert_eq!(
        restored.call("spin", &[6]).expect("restored call"),
        reference.call("spin", &[6]).expect("reference call"),
    );
    assert_eq!(restored.observe(), reference.observe());
}

/// Lowering happens at a function's first entry and nowhere else: a
/// loaded image has lowered nothing, a call lowers what it enters, and
/// a function no machine has entered never gets an artifact. The
/// image's content id hashes the bytecode, so it cannot tell how much
/// of the artifact exists.
#[test]
fn a_function_never_entered_has_no_artifact() {
    let image = compile_image_tier(SPIN_SOURCE, ExecTier::Native).expect("compile");
    let id = image.id();
    let mut machine = Machine::load(image, spin_config()).expect("load");
    assert_eq!(lowered_at(&machine, "spin"), None, "loading lowers nothing");
    machine.call("spin", &[4]).expect("call");
    assert!(lowered_at(&machine, "spin").is_some());
    assert_eq!(lowered_at(&machine, "idle"), None);
    assert_eq!(machine.image().id(), id);
    let fresh = compile_image_tier(SPIN_SOURCE, ExecTier::Native).expect("compile");
    assert_eq!(fresh.id(), id, "a never-run image of the same source");
}

/// One image, one artifact: a sibling machine booted from the same
/// image and a checkpoint restore both run the very `NativeFunc` the
/// first machine's first entry lowered — nothing is lowered twice.
#[test]
fn machines_and_restores_of_one_image_share_each_artifact() {
    let image = compile_image_tier(SPIN_SOURCE, ExecTier::Native).expect("compile");
    let mut first = Machine::load(image.clone(), spin_config()).expect("load");
    first.call("spin", &[4]).expect("call");
    let lowered = lowered_at(&first, "spin").expect("first entry lowers");

    let mut sibling = Machine::load(image, spin_config()).expect("load");
    sibling.call("spin", &[4]).expect("call");
    assert_eq!(lowered_at(&sibling, "spin"), Some(lowered));

    let mut restored = first.clone();
    restored.call("spin", &[4]).expect("call");
    assert_eq!(lowered_at(&restored, "spin"), Some(lowered));
    assert_eq!(restored.stats().instrs, 2 * sibling.stats().instrs);
}

/// Eight threads released together into the first entry of one
/// function of one fresh image: exactly one artifact is published, and
/// every thread computes what the baseline interpreter computes.
#[test]
fn racing_first_entries_publish_one_artifact() {
    const THREADS: usize = 8;
    let [baseline, image] = equiv::images(SPIN_SOURCE);
    let start = std::sync::Barrier::new(THREADS);
    let runs: Vec<_> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut machine = Machine::load(image.clone(), spin_config()).expect("load");
                    start.wait();
                    let result = machine.call("spin", &[64]);
                    let lowered = lowered_at(&machine, "spin").map(|at| at as usize);
                    (result, machine.observe(), lowered)
                })
            })
            .collect();
        let joined = racers.into_iter();
        joined.map(|r| r.join().expect("racer panicked")).collect()
    });

    let mut reference = Machine::load(baseline, spin_config()).expect("load");
    let result = reference.call("spin", &[64]);
    let artifact = runs[0].2;
    assert!(artifact.is_some(), "the first entry lowers the function");
    for (racer, observed, lowered) in &runs {
        assert_eq!((racer, observed), (&result, &reference.observe()));
        assert_eq!(*lowered, artifact, "every thread runs the one artifact");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (input, mode, manufactured-value seed, fuel limit) points:
    /// every lattice point must agree on everything — in particular on
    /// *where* tight budgets fuel out. A native region is only entered
    /// when remaining fuel covers its whole charge, so a drifted
    /// fuel-out point (a script step completing under one tier and
    /// `FuelExhausted`-crashing under another) is exactly the bug class
    /// this property hunts. Fuel spans boot-time exhaustion (well under
    /// any server's boot cost) through budgets that let most scripts
    /// finish.
    #[test]
    fn random_seed_and_fuel_points_are_native_blind(
        index in 0usize..INPUT_LIBRARY.len(),
        mode_index in 0usize..Mode::ALL.len(),
        wrap in 2u64..600,
        fuel in 0u64..400_000,
    ) {
        let input = &INPUT_LIBRARY[index];
        let spec = BootSpec::new(input.kind, Mode::ALL[mode_index])
            .with_sequence(ValueSequence::Cycling { wrap })
            .with_fuel(fuel);
        equiv::lattice(input, spec);
    }
}
