//! The equivalence relation itself ([`Observation`]): every surface in
//! it is load-bearing, and what is kept out of it ([`ExecProfile`], the
//! table's [`LookupProfile`](foc_memory::LookupProfile)) may differ
//! between runs the relation calls equal.

use foc_compiler::{compile_image_tier, ExecTier};
use foc_memory::{Mode, TableKind, ValueSequence};
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

#[test]
fn side_exits_are_counted_beside_the_observation_not_in_it() {
    // The baseline tier has no superblocks, so it takes no side exit;
    // the native tier leaves the loop's superblocks on every other pass
    // (an `if` it runs on into), and no surface of the relation shows it.
    let source = "long f(long x) { long i; long t = 0; \
                  for (i = 0; i < 8; i++) if (i & 1) t = t + x; return t; }";
    let run = |tier| {
        let image = compile_image_tier(source, tier).expect("source builds");
        let mut m = Machine::load(image, base_config()).expect("load");
        assert_eq!(m.call("f", &[3]), Ok(12));
        (m.observe(), m.exec_profile())
    };
    let (baseline, interpreted) = run(ExecTier::Baseline);
    let (native, lowered) = run(ExecTier::Native);
    assert_eq!(interpreted.side_exits, 0);
    assert!(lowered.side_exits > 0, "{lowered:?}");
    assert_eq!(baseline, native);
}

#[test]
fn the_tables_differ_in_their_lookup_profiles_and_agree_on_the_observation() {
    let run_on = |table| {
        let image = compile_image_tier(SOURCE, ExecTier::Native).expect("source builds");
        let mut m = Machine::load(image, base_config().with_table(table)).expect("load");
        m.call("f", &[3])
            .expect_err("every run here ends in a fault");
        (m.observe(), m.space().lookup_profile())
    };
    let (oracle, searched) = run_on(TableKind::Reference);
    let (shipped, memoised) = run_on(TableKind::Flat);
    assert_eq!(
        searched.lookups, memoised.lookups,
        "the same accesses reach the table"
    );
    assert_eq!(
        searched.searches, searched.lookups,
        "the oracle has no memo"
    );
    assert!(memoised.searches < memoised.lookups, "{memoised:?}");
    assert_eq!(oracle, shipped);
}

#[test]
fn an_io_wait_of_any_count_is_charged_alike_at_both_tiers() {
    // `LONG_MAX` bytes, a negative count and none, in one region on the
    // native tier: each a bounded charge, the same on both, and no panic.
    let source = "long f() { io_wait(9223372036854775807); io_wait(-1); io_wait(0); return 0; }";
    let run = |tier| {
        let image = compile_image_tier(source, tier).expect("source builds");
        let mut m = Machine::load(image, base_config()).expect("load");
        assert_eq!(m.call("f", &[]), Ok(0));
        (m.observe(), m.exec_profile())
    };
    let (baseline, interpreted) = run(ExecTier::Baseline);
    let (native, lowered) = run(ExecTier::Native);
    assert_eq!(baseline, native);
    let io = foc_vm::cost::io(i64::MAX) + 2 * foc_vm::cost::IO_LATENCY;
    assert_eq!(native.run.io_cycles, io);
    assert_eq!((interpreted.builtin_calls, lowered.builtin_calls), (3, 3));
    assert_eq!(interpreted.native_instrs, 0);
    assert_eq!(
        lowered.region_entries, 1,
        "the three waits run in one region: {lowered:?}"
    );
}
