//! `farm_scaling` and `farm_stress`: the farm's two gates. The first
//! holds the whole server × mode suite and its thread-count
//! determinism; the second the scale-out point across object tables.

use foc_bench::check::Args;
use foc_bench::farm_report::{farm_suite, measure_boot_cost, stress_sweep, thread_scaling};
use foc_memory::TableKind;

/// A miniature farm suite, three assertions: every server kind under
/// every mode serves (25 reports); the Pine failure-oblivious farm
/// computes the same report on one thread and on two (checked inside
/// the sweep); and a cached-image boot beats a cold compile + boot by
/// at least 2×. Restart cost and the manufactured-value loop are
/// `restart_cost`'s gate, the stress sweep `farm_stress`'s.
pub fn scaling_gate(_: &Args) -> Result<String, String> {
    eprintln!("farm_scaling --check: miniature suite ...");
    let reports = farm_suite(4);
    if reports.len() != 5 * foc_memory::Mode::ALL.len() {
        return Err(format!(
            "suite covered {} cells, want every server x mode",
            reports.len()
        ));
    }
    for r in &reports {
        eprintln!(
            "  {:<9} {:<18} completed {:>5}/{:<5}  deaths {:>4}  restarts {:>4}  {:>8.1} req/Mcycle  {:>8.1} ms",
            r.config.kind.name(),
            r.config.mode.name(),
            r.stats.completed,
            r.stats.requests,
            r.stats.deaths,
            r.stats.restarts,
            r.stats.throughput_per_mcycle(),
            r.host_wall_ms,
        );
    }
    for row in thread_scaling(4, &[1, 2], 2)? {
        eprintln!(
            "  threads {}: {:.1} ms ± {:.1} (95% CI, {} reps)  ({:.0} req/s host)",
            row.threads, row.rate.wall_ms, row.rate.wall_ms_ci95, row.rate.reps, row.rate.host_rps
        );
    }
    let boot = measure_boot_cost(4);
    eprintln!(
        "  boot cost: cold compile+boot {:.0} ns, cached-image boot {:.0} ns ({:.1}x)",
        boot.cold_ns,
        boot.cached_ns,
        boot.speedup()
    );
    if boot.speedup() < 2.0 {
        return Err(format!(
            "interned images must beat cold compiles even on noisy hosts: {:.1}x",
            boot.speedup()
        ));
    }
    Ok(format!("{} reports", reports.len()))
}

/// The scale-out path's own smoke, so it can't bitrot between
/// measurement days: a miniature stress farm on the oracle splay tree
/// and on the shipped sorted vector, the two reports checked equal (the
/// wall-time spread between the rows is then bounds-lookup cost and
/// nothing else), each report's service histogram bounding the exact
/// percentiles it summarizes.
pub fn stress_gate(_: &Args) -> Result<String, String> {
    eprintln!("farm_stress --check: miniature stress sweep (oracle and shipped table) ...");
    let rows = stress_sweep(96, 3, 2)?;
    if rows.len() != TableKind::ALL.len() {
        return Err(format!(
            "{} rows for {} tables",
            rows.len(),
            TableKind::ALL.len()
        ));
    }
    for row in &rows {
        if row.rate.wall_ms <= 0.0 {
            return Err(format!("{}: no wall time measured", row.backend));
        }
        if row.report.stats.completed == 0 {
            return Err(format!("{}: stress farm served nothing", row.backend));
        }
        // Bucket tops round up, never down.
        let stats = &row.report.stats;
        if stats.service_hist.quantile(999, 1000) < stats.latency_p999 {
            return Err(format!(
                "{}: histogram p99.9 fell below the exact value",
                row.backend
            ));
        }
        if stats.service_hist.quantile(1, 2) < stats.latency_p50 {
            return Err(format!(
                "{}: histogram p50 fell below the exact value",
                row.backend
            ));
        }
        eprintln!(
            "  {:<6} {:.1} ms ± {:.1} ({:.0} req/s host)",
            row.backend.name(),
            row.rate.wall_ms,
            row.rate.wall_ms_ci95,
            row.rate.host_rps
        );
    }
    Ok(format!("{} rows", rows.len()))
}
