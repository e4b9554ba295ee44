//! The restart-cost bench: checkpoint restore versus cold boot +
//! environment replay (oracle Pine, the gated pair), the restart
//! `apache_flood` pays per attack (shipped-default Bounds Check Apache)
//! with the committed bytes each restore copied, plus the
//! manufactured-loop violation throughput the batched fast path governs.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin restart_cost [reps]` —
//!   full measurement (default 24 reps per flavour); upserts one row
//!   into `BENCH_farm.json`'s `restart_cost_runs` trajectory (creating
//!   the section in records that predate it). Rows are keyed by a
//!   fingerprint of the measured images + shape, so re-running the bin
//!   on an unchanged tree replaces its row instead of duplicating it.
//! * `cargo run --release -p foc-bench --bin restart_cost -- --check` —
//!   CI smoke gate (mirroring the PR 2 boot-cost gate): asserts that a
//!   checkpoint restore beats a cold boot + replay by at least 5×, and
//!   that the manufactured-loop measurement runs at all. Exits nonzero
//!   with a one-line diagnostic otherwise.

use foc_bench::check::{check_fail, check_gate, parse_reps, record_farm_row};
use foc_bench::farm_report::{
    append_restart_cost_row, measure_restart_cost, measure_violation_throughput,
    restart_cost_fingerprint, restart_cost_row_json, RestartCost, ViolationThroughput,
};

fn print_measurement(cost: &RestartCost, violation: &ViolationThroughput) {
    eprintln!(
        "  cold boot+replay   {:>10.0} ns ± {:.0} ({} reps)",
        cost.cold_ns, cost.cold_ci95_ns, cost.reps
    );
    eprintln!(
        "  checkpoint restore {:>10.0} ns ± {:.0}  ({:.1}x faster; {} committed bytes copied)",
        cost.restore_ns,
        cost.restore_ci95_ns,
        cost.speedup(),
        cost.checkpoint_bytes
    );
    eprintln!(
        "  apache restore     {:>10.0} ns ± {:.0}  (shipped default, Bounds Check; {} bytes)",
        cost.apache_restore_ns, cost.apache_restore_ci95_ns, cost.apache_checkpoint_bytes
    );
    eprintln!(
        "  manufactured loop  {:>10.1} Minstr/s ± {:.1} ({} instrs/run)",
        violation.minstr_per_s, violation.minstr_ci95, violation.instrs
    );
}

fn run_check() -> Result<(), String> {
    eprintln!("restart_cost --check: checkpoint restore vs cold boot+replay ...");
    let cost = measure_restart_cost(8);
    let violation = measure_violation_throughput(2);
    print_measurement(&cost, &violation);
    check_gate(
        "checkpoint restore over cold boot+replay",
        cost.speedup(),
        5.0,
        &format!(
            "cold {:.0}ns vs restore {:.0}ns",
            cost.cold_ns, cost.restore_ns
        ),
    )?;
    if violation.minstr_per_s <= 0.0 {
        return Err("violation-throughput measurement produced no rate".to_string());
    }
    println!(
        "restart_cost --check OK ({:.1}x restore speedup, {:.1} Minstr/s manufactured loop)",
        cost.speedup(),
        violation.minstr_per_s
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check() {
            check_fail("restart_cost --check", &msg);
        }
        return;
    }
    let reps = parse_reps("restart_cost", &args, 24);
    let cost = measure_restart_cost(reps);
    let violation = measure_violation_throughput(reps.clamp(3, 8));
    print_measurement(&cost, &violation);

    let row = restart_cost_row_json(&cost, &violation, &restart_cost_fingerprint(reps));
    record_farm_row("restart_cost", &row, append_restart_cost_row);
}
