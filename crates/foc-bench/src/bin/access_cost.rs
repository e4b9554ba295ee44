//! The access-cost bench: in-bounds load/store rate of the memory
//! substrate under the page-map lookup layer versus the direct
//! object-table search. The traffic is a word-at-a-time copy between
//! two multi-page heap buffers behind a few hundred smaller
//! allocations — every access in bounds, alternating units on every
//! step, which defeats the flat table's last-hit memo so the table
//! side pays its structural search on each access while the paged
//! side answers with one shift+mask probe. Both spaces are asserted
//! to have driven the substrate identically, so the ratio isolates
//! lookup cost alone.
//!
//! The bin also measures the *guest-level* twin of that copy traffic:
//! a checked copy loop whose accesses the native tier admits into
//! memory-spanning `LocalsBlock`s and resolves in-block through the
//! placement probe (`GIdxLoad`/`GIdxStore`), versus the baseline
//! interpreter paying a full dispatch round per access. The
//! measurement names both tiers itself, whatever `FOC_EXEC_TIER` says.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin access_cost [reps]` —
//!   full measurement (default 24 reps per layer); upserts one row
//!   into `BENCH_farm.json`'s `access_cost_runs` trajectory (creating
//!   the section in records that predate it), plus one `mem_cost_runs`
//!   row. Rows are keyed by a fingerprint of the measurement shape, so
//!   re-running the bin on an unchanged tree replaces its row instead
//!   of duplicating it.
//! * `cargo run --release -p foc-bench --bin access_cost -- --check`
//!   — CI gate: asserts the paged layer sustains ≥1.5× the table
//!   layer's access rate, and that memory-spanning block execution
//!   sustains ≥1.75× the baseline interpreter's rate on the guest copy
//!   loop. Exits nonzero with a one-line diagnostic otherwise.

use foc_bench::check::{check_fail, check_gate, parse_reps, record_farm_row};
use foc_bench::farm_report::{
    access_cost_fingerprint, access_cost_row_json, append_access_cost_row, append_mem_cost_row,
    measure_access_cost, measure_mem_cost, mem_cost_fingerprint, mem_cost_row_json, AccessCost,
    NativeCost,
};

/// The CI bar: the page map must beat the direct table search by this
/// factor on memo-defeating in-bounds traffic. The paged probe is one
/// shift+mask and a bounds compare against a ~9-step binary search
/// (measured well above 2× on the development host), so 1.5× holds
/// with room on noisy CI hosts.
const GATE: f64 = 1.5;

/// The CI bar for the guest copy loop: in-block access resolution — no
/// operand-stack round trip, no per-access dispatch round — must beat
/// the baseline interpreter by this factor. The measured margin is
/// near 3× on the development host; 1.75× holds with room on noisy CI
/// hosts.
const MEM_GATE: f64 = 1.75;

fn print_measurement(cost: &AccessCost) {
    eprintln!(
        "  table lookup {:>8.1} Maccess/s ± {:.1} ({} accesses/run, {} reps)",
        cost.table.maccess_per_s, cost.table.maccess_ci95, cost.accesses, cost.reps
    );
    eprintln!(
        "  paged lookup {:>8.1} Maccess/s ± {:.1}  ({:.2}x table)",
        cost.paged.maccess_per_s,
        cost.paged.maccess_ci95,
        cost.speedup()
    );
}

fn print_mem_measurement(cost: &NativeCost) {
    eprintln!(
        "  copy loop, baseline tier {:>8.1} Minstr/s ± {:.1} ({} instrs/run, {} reps)",
        cost.baseline.minstr_per_s, cost.baseline.minstr_ci95, cost.baseline.instrs, cost.reps
    );
    eprintln!(
        "  copy loop, native tier   {:>8.1} Minstr/s ± {:.1}  ({:.2}x baseline)",
        cost.native.minstr_per_s,
        cost.native.minstr_ci95,
        cost.speedup()
    );
}

fn run_check() -> Result<(), String> {
    eprintln!("access_cost --check: page map vs direct table search ...");
    let cost = measure_access_cost(8);
    print_measurement(&cost);
    check_gate(
        "paged lookup over the table search's in-bounds access rate",
        cost.speedup(),
        GATE,
        &format!(
            "{:.1} vs {:.1} Maccess/s",
            cost.paged.maccess_per_s, cost.table.maccess_per_s
        ),
    )?;
    eprintln!("access_cost --check: memory-spanning blocks on the guest copy loop ...");
    let mem = measure_mem_cost(8);
    print_mem_measurement(&mem);
    if mem.native.instrs != mem.baseline.instrs {
        return Err(format!(
            "tiers must retire identical instruction counts on the copy loop: \
             baseline {} vs native {}",
            mem.baseline.instrs, mem.native.instrs
        ));
    }
    check_gate(
        "memory-spanning block execution over the baseline interpreter",
        mem.speedup(),
        MEM_GATE,
        &format!(
            "{:.1} vs {:.1} Minstr/s",
            mem.native.minstr_per_s, mem.baseline.minstr_per_s
        ),
    )?;
    println!(
        "access_cost --check OK ({:.2}x paged speedup, {:.2}x native copy-loop speedup)",
        cost.speedup(),
        mem.speedup()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check() {
            check_fail("access_cost --check", &msg);
        }
        return;
    }
    let reps = parse_reps("access_cost", &args, 24);
    let cost = measure_access_cost(reps);
    print_measurement(&cost);

    let row = access_cost_row_json(&cost, &access_cost_fingerprint(reps));
    record_farm_row("access_cost", &row, append_access_cost_row);

    let mem = measure_mem_cost(reps);
    print_mem_measurement(&mem);
    let row = mem_cost_row_json(&mem, &mem_cost_fingerprint(reps));
    record_farm_row("access_cost", &row, append_mem_cost_row);
}
