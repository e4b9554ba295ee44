//! The native-cost bench: interpretation rate of two violation-free
//! guest loops under the baseline interpreter versus the native
//! AOT-region tier. Both tiers retire the same guest instruction count —
//! a lowered region pre-charges exactly the baseline accounting of the
//! run it replaces — so each ratio isolates execution machinery.
//!
//! * The **dispatch loop** (local arithmetic plus loop control, nothing
//!   else) isolates the dispatch ceiling: one fetch/decode/match round
//!   plus fuel, stats, and pc bookkeeping per instruction, all of which
//!   region execution folds into a single per-region entry.
//! * The **copy loop** (`dst[i] = src[i]` over checked arrays) isolates
//!   checked accesses inside regions: the native tier resolves each
//!   through the view's placement probe (`IdxLoad`/`IdxStore`, two ops
//!   and a fused latch per element), the interpreter pays a full
//!   dispatch round and a full checked access per element.
//!
//! The measurement names both tiers itself, whatever `FOC_EXEC_TIER`
//! says.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin native_cost [reps]` —
//!   full measurement (default 24 reps per tier); upserts one row into
//!   each of `BENCH_farm.json`'s `native_cost_runs` and `mem_cost_runs`
//!   trajectories (creating the sections in records that predate
//!   them). Rows are keyed by a fingerprint of the loop's compiled
//!   image under both tiers + shape, so re-running the bin on an
//!   unchanged tree replaces its rows instead of duplicating them.
//! * `cargo run --release -p foc-bench --bin native_cost -- --check` —
//!   CI gate: asserts region execution interprets the dispatch loop at
//!   ≥2.5× and the copy loop at ≥1.75× the baseline interpreter's
//!   rate. Exits nonzero with a one-line diagnostic otherwise.

use foc_bench::check::{check_fail, check_gate, parse_reps, record_farm_row};
use foc_bench::farm_report::{
    append_mem_cost_row, append_native_cost_row, measure_mem_cost, measure_native_cost,
    mem_cost_fingerprint, native_cost_fingerprint, native_cost_row_json, NativeCost,
};

/// One measured loop: how to measure, gate and record it.
struct Loop {
    /// Short name for the printed lines.
    name: &'static str,
    /// The gated quantity, for the diagnostic.
    what: &'static str,
    /// The CI bar on native-over-baseline.
    gate: f64,
    measure: fn(usize) -> NativeCost,
    fingerprint: fn(usize) -> String,
    append: fn(&str, &str) -> Result<String, String>,
}

const LOOPS: [Loop; 2] = [
    // A region entry replaces every dispatch round of its straight-line
    // run, so the measured margin is around 3× on the development host
    // (2.9–3.2× at PR 19); 2.5× holds with room on noisy CI hosts.
    Loop {
        name: "dispatch loop",
        what: "native region execution over the baseline interpreter",
        gate: 2.5,
        measure: measure_native_cost,
        fingerprint: native_cost_fingerprint,
        append: append_native_cost_row,
    },
    // In-region access resolution — no operand-stack round trip, no
    // per-access dispatch round. The measured margin is 4.4–5.8× on the
    // development host since PR 19 folded the loop to two indexed ops
    // and a fused latch (near 3× before); 1.75× holds with room.
    Loop {
        name: "copy loop",
        what: "memory-spanning block execution over the baseline interpreter",
        gate: 1.75,
        measure: measure_mem_cost,
        fingerprint: mem_cost_fingerprint,
        append: append_mem_cost_row,
    },
];

fn print_measurement(name: &str, cost: &NativeCost) {
    eprintln!(
        "  {name}, baseline tier {:>8.1} Minstr/s ± {:.1} ({} instrs/run, {} reps)",
        cost.baseline.minstr_per_s, cost.baseline.minstr_ci95, cost.baseline.instrs, cost.reps
    );
    eprintln!(
        "  {name}, native tier   {:>8.1} Minstr/s ± {:.1}  ({:.2}x baseline)",
        cost.native.minstr_per_s,
        cost.native.minstr_ci95,
        cost.speedup()
    );
}

fn run_check() -> Result<(), String> {
    let mut speedups = Vec::new();
    for l in &LOOPS {
        eprintln!("native_cost --check: {} ...", l.what);
        let cost = (l.measure)(8);
        print_measurement(l.name, &cost);
        if cost.native.instrs != cost.baseline.instrs {
            return Err(format!(
                "tiers must retire identical instruction counts on the {}: \
                 baseline {} vs native {}",
                l.name, cost.baseline.instrs, cost.native.instrs
            ));
        }
        check_gate(
            l.what,
            cost.speedup(),
            l.gate,
            &format!(
                "{:.1} vs {:.1} Minstr/s",
                cost.native.minstr_per_s, cost.baseline.minstr_per_s
            ),
        )?;
        speedups.push(format!("{:.2}x {}", cost.speedup(), l.name));
    }
    println!(
        "native_cost --check OK ({} native over baseline)",
        speedups.join(", ")
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
    for l in &LOOPS {
        let cost = (l.measure)(reps);
        print_measurement(l.name, &cost);
        let row = native_cost_row_json(&cost, &(l.fingerprint)(reps));
        record_farm_row("native_cost", &row, l.append);
    }
}
