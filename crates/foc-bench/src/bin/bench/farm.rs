//! `farm_scaling` and `farm_stress`: the two subcommands that
//! regenerate the whole of `BENCH_farm.json`. Both build the complete
//! record through [`measure_record`], so whichever one ran last leaves
//! a consistent file.

use foc_bench::check::{Args, RECORD_PATH};
use foc_bench::farm_report::{
    farm_suite, measure_boot_cost, measure_record, measure_restart_cost,
    measure_violation_throughput, restart_cost_row_json, stress_sweep, thread_scaling, FarmRecord,
    STRESS_REQUESTS, STRESS_SERVERS, SUITE_REQUESTS,
};
use foc_memory::TableKind;

/// The record on stderr, section by section; `restart` completes the
/// `restart cost` line.
fn print_record(record: &FarmRecord, restart: &str) {
    for r in &record.reports {
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
    for row in &record.scaling {
        eprintln!(
            "  threads {}: {:.1} ms ± {:.1} (95% CI, {} reps)  ({:.0} req/s host)",
            row.threads, row.rate.wall_ms, row.rate.wall_ms_ci95, row.rate.reps, row.rate.host_rps
        );
    }
    eprintln!(
        "  boot cost: cold compile+boot {:.0} ns, cached-image boot {:.0} ns ({:.1}x)",
        record.boot.cold_ns,
        record.boot.cached_ns,
        record.boot.speedup()
    );
    eprintln!("  restart cost{restart}");
    for row in &record.stress {
        eprintln!(
            "  stress {:<6} {} servers: {:.1} ms ± {:.1}  ({:.0} req/s host, p99.9 {} cycles)",
            row.backend.name(),
            row.report.config.servers,
            row.rate.wall_ms,
            row.rate.wall_ms_ci95,
            row.rate.host_rps,
            row.report.stats.latency_p999,
        );
    }
}

/// A miniature suite that exercises every code path of the record
/// (suite, scaling sweep with its determinism check, boot- and
/// restart-cost measurement, stress sweep, JSON rendering) without
/// writing it, so bench bitrot fails CI instead of being discovered at
/// measurement time. (The stress point has its own smoke:
/// `farm_stress --check`.)
pub fn scaling_gate(_: &Args) -> Result<String, String> {
    eprintln!("farm_scaling --check: miniature suite ...");
    let reports = farm_suite(4);
    if reports.len() != 5 * foc_memory::Mode::ALL.len() {
        return Err(format!(
            "suite covered {} cells, want every server x mode",
            reports.len()
        ));
    }
    // The sweep verifies report determinism across threads internally.
    let scaling = thread_scaling(4, &[1, 2], 2)?;
    let boot = measure_boot_cost(4);
    if boot.speedup() < 2.0 {
        return Err(format!(
            "interned images must beat cold compiles even on noisy hosts: {:.1}x",
            boot.speedup()
        ));
    }
    let restart = measure_restart_cost(6);
    if restart.speedup() < 2.0 {
        return Err(format!(
            "checkpoint restores must beat cold boot+replay even on noisy hosts: {:.1}x",
            restart.speedup()
        ));
    }
    let violation = measure_violation_throughput(2);
    let mut trajectories: [Vec<String>; 5] = Default::default();
    trajectories[0].push(restart_cost_row_json(&restart, &violation, "check"));
    let record = FarmRecord {
        reports,
        scaling,
        boot,
        stress: stress_sweep(4, 3, 1)?,
        trajectories,
    };
    let json = record.render();
    if json.matches('{').count() != json.matches('}').count() {
        return Err("rendered record does not balance".to_string());
    }
    let restart = format!(
        ": cold boot+replay {:.0} ns, checkpoint restore {:.0} ns ({:.1}x);          manufactured loop {:.1} Minstr/s",
        restart.cold_ns,
        restart.restore_ns,
        restart.speedup(),
        violation.minstr_per_s,
    );
    print_record(&record, &restart);
    Ok(format!("{} reports", record.reports.len()))
}

/// Measures the whole record — carrying the previous record's
/// trajectories forward — and writes it.
fn regenerate(
    requests: usize,
    servers: usize,
    stress_requests: usize,
) -> Result<FarmRecord, String> {
    let previous = std::fs::read_to_string(RECORD_PATH).ok();
    let record = measure_record(requests, servers, stress_requests, previous.as_deref())?;
    std::fs::write(RECORD_PATH, record.render())
        .map_err(|e| format!("cannot write {RECORD_PATH}: {e}"))?;
    Ok(record)
}

pub fn scaling_full(args: &Args) -> Result<(), String> {
    let record = regenerate(args.counts[0], STRESS_SERVERS, STRESS_REQUESTS)?;
    let row = record.trajectories[0].last().expect("a fresh restart row");
    print_record(&record, &format!(" (latest row): {row}"));
    println!("wrote {RECORD_PATH} ({} reports)", record.reports.len());
    Ok(())
}

/// The scale-out path's own smoke, so it can't bitrot between
/// measurement days: a miniature stress farm on the oracle splay tree
/// and on the shipped sorted vector, the two reports checked equal (the
/// wall-time spread between the rows is then bounds-lookup cost and
/// nothing else), each serialized histogram bounding the exact
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

/// With cached boots at microseconds, a 4096-process Apache farm is an
/// interactive measurement: one run per object table, the oracle splay
/// tree then the shipped sorted vector.
pub fn stress_full(args: &Args) -> Result<(), String> {
    let record = regenerate(SUITE_REQUESTS, args.counts[0], args.counts[1])?;
    for row in &record.stress {
        let s = &row.report.stats;
        println!(
            "{:<6} {} servers x {} requests: {:.1} ms ± {:.1}  ({:.0} req/s host, \
             hist p50/p99/p99.9 ≤ {}/{}/{} cycles)",
            row.backend.name(),
            row.report.config.servers,
            row.report.config.requests_per_server,
            row.rate.wall_ms,
            row.rate.wall_ms_ci95,
            row.rate.host_rps,
            s.service_hist.quantile(1, 2),
            s.service_hist.quantile(99, 100),
            s.service_hist.quantile(999, 1000),
        );
    }
    println!("wrote {RECORD_PATH}");
    Ok(())
}
