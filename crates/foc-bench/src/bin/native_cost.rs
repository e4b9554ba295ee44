//! The native-cost bench: interpretation rate of a violation-free
//! dispatch-bound loop (local arithmetic plus loop control, nothing
//! else) under the baseline interpreter versus the native AOT-region
//! tier. Both tiers retire the same guest instruction count — a
//! lowered region pre-charges exactly the baseline accounting of the
//! run it replaces — so the ratio isolates the dispatch ceiling: one
//! fetch/decode/match round plus fuel, stats, and pc bookkeeping per
//! instruction, all of which region execution folds into a single
//! per-region entry.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin native_cost [reps]` —
//!   full measurement (default 24 reps per tier); upserts one row into
//!   `BENCH_farm.json`'s `native_cost_runs` trajectory (creating the
//!   section in records that predate it). Rows are keyed by a
//!   fingerprint of the loop's compiled image under both tiers + shape,
//!   so re-running the bin on an unchanged tree replaces its row
//!   instead of duplicating it.
//! * `cargo run --release -p foc-bench --bin native_cost -- --check` —
//!   CI gate: asserts region execution interprets the loop at ≥2.5×
//!   the baseline interpreter's rate. Exits nonzero with a one-line
//!   diagnostic otherwise.

use foc_bench::check::{check_fail, check_gate, parse_reps, record_farm_row};
use foc_bench::farm_report::{
    append_native_cost_row, measure_native_cost, native_cost_fingerprint, native_cost_row_json,
    NativeCost,
};

/// The CI bar: native region execution must beat the baseline
/// interpreter by this factor on the violation-free loop. A region
/// entry replaces every dispatch round of its straight-line run, so
/// the measured margin is above 3× on the development host; 2.5× holds
/// with room on noisy CI hosts.
const GATE: f64 = 2.5;

fn print_measurement(cost: &NativeCost) {
    eprintln!(
        "  baseline tier {:>8.1} Minstr/s ± {:.1} ({} instrs/run, {} reps)",
        cost.baseline.minstr_per_s, cost.baseline.minstr_ci95, cost.baseline.instrs, cost.reps
    );
    eprintln!(
        "  native tier   {:>8.1} Minstr/s ± {:.1}  ({:.2}x baseline)",
        cost.native.minstr_per_s,
        cost.native.minstr_ci95,
        cost.speedup()
    );
}

fn run_check() -> Result<(), String> {
    eprintln!("native_cost --check: baseline interpreter vs native region execution ...");
    let cost = measure_native_cost(8);
    print_measurement(&cost);
    if cost.native.instrs != cost.baseline.instrs {
        return Err(format!(
            "tiers must retire identical instruction counts: baseline {} vs native {}",
            cost.baseline.instrs, cost.native.instrs
        ));
    }
    check_gate(
        "native region execution over the baseline interpreter",
        cost.speedup(),
        GATE,
        &format!(
            "{:.1} vs {:.1} Minstr/s",
            cost.native.minstr_per_s, cost.baseline.minstr_per_s
        ),
    )?;
    println!(
        "native_cost --check OK ({:.2}x native over baseline, {:.1} Minstr/s native loop)",
        cost.speedup(),
        cost.native.minstr_per_s
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check() {
            check_fail("native_cost --check", &msg);
        }
        return;
    }
    let reps = parse_reps("native_cost", &args, 24);
    let cost = measure_native_cost(reps);
    print_measurement(&cost);

    let row = native_cost_row_json(&cost, &native_cost_fingerprint(reps));
    record_farm_row("native_cost", &row, append_native_cost_row);
}
