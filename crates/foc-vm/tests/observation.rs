//! The equivalence relation itself ([`Observation`]): every surface in
//! it is load-bearing, and what is kept out of it ([`ExecProfile`]) may
//! differ between runs the relation calls equal.

use foc_compiler::{compile_image_tier, ExecTier};
use foc_memory::{Mode, ValueSequence};
use foc_vm::{ExecProfile, Machine, MachineConfig, Observation, VmFault};

/// Four reads past `a`, each indexed by the value the one before
/// manufactured, then a division by zero with `x` still on the operand
/// stack. Nothing but that stack slot depends on `x`, and nothing but
/// the addresses of the invalid reads on the manufactured values.
const SOURCE: &str = "long f(long x) {\n\
     long a[4]; long i; long k = 0; long z = 0;\n\
     for (i = 0; i < 4; i++) a[i] = i;\n\
     for (i = 0; i < 4; i++) k = a[5 + k];\n\
     return x + 7 / z;\n\
 }";

/// The configuration every variant below departs from in one respect.
fn base_config() -> MachineConfig {
    MachineConfig::with_mode(Mode::FailureOblivious).with_fuel(100_000)
}

fn run(tier: ExecTier, x: i64, config: MachineConfig) -> (Observation, ExecProfile) {
    let image = compile_image_tier(SOURCE, tier).expect("source builds");
    let mut m = Machine::load(image, config).expect("load");
    m.call("f", &[x])
        .expect_err("every run here ends in a fault");
    (m.observe(), m.exec_profile())
}

fn base() -> Observation {
    run(ExecTier::Native, 3, base_config()).0
}

/// `other` is not `base`, and would be if the surfaces `restore` copies
/// back were not part of the relation.
fn assert_differs_exactly_in(
    base: &Observation,
    mut other: Observation,
    restore: impl Fn(&mut Observation, &Observation),
) {
    assert_ne!(base, &other);
    restore(&mut other, base);
    assert_eq!(base, &other, "the runs differ on another surface too");
}

#[test]
fn a_run_that_differs_only_in_fuel_differs_in_run_stats_and_fault_pc() {
    let base = base();
    let short = base_config().with_fuel(base.run.instrs - 2);
    let (starved, _) = run(ExecTier::Native, 3, short);
    assert_eq!(base.dead, Some(VmFault::DivideByZero));
    assert_eq!(starved.dead, Some(VmFault::FuelExhausted));
    assert_ne!(starved.run, base.run);
    assert_ne!(starved.frames, base.frames, "it stopped at an earlier pc");
    assert_differs_exactly_in(&base, starved, |o, base| {
        o.run = base.run;
        o.dead = base.dead.clone();
        o.stack = base.stack.clone();
        o.frames = base.frames.clone();
    });
}

#[test]
fn a_run_that_differs_only_in_value_sequence_differs_in_its_log_records() {
    let zero = base_config().with_sequence(ValueSequence::Zero);
    let (zeroes, _) = run(ExecTier::Native, 3, zero);
    assert_differs_exactly_in(&base(), zeroes, |o, base| o.log = base.log.clone());
}

#[test]
fn a_run_that_differs_only_in_log_capacity_differs_in_what_the_log_dropped() {
    let mut config = base_config();
    config.mem.log_capacity = 3;
    let (small, _) = run(ExecTier::Native, 3, config);
    assert_eq!(
        (small.log_total, small.log_dropped, small.log.len()),
        (4, 1, 3)
    );
    assert_differs_exactly_in(&base(), small, |o, base| {
        o.log_dropped = base.log_dropped;
        o.log = base.log.clone();
    });
}

#[test]
fn a_run_that_differs_only_in_a_value_under_the_fault_differs_in_its_stack() {
    let (other, _) = run(ExecTier::Native, 4, base_config());
    assert_differs_exactly_in(&base(), other, |o, base| o.stack = base.stack.clone());
}

#[test]
fn the_tiers_differ_in_their_profiles_and_agree_on_the_observation() {
    let (baseline, interpreted) = run(ExecTier::Baseline, 3, base_config());
    let (native, lowered) = run(ExecTier::Native, 3, base_config());
    assert_eq!(interpreted.native_instrs, 0);
    assert!(
        lowered.native_instrs > 0 && lowered.view_misses > 0,
        "{lowered:?}"
    );
    assert_eq!(baseline, native);
}
