//! The scale-out stress point: a thousands-of-servers farm, run once on
//! the oracle splay tree and once on the shipped sorted vector — the
//! standing bench row the ROADMAP asks for.
//!
//! With cached boots at microseconds, a 4096-process Apache farm is an
//! interactive measurement; the wall-time spread between the two rows
//! is bounds-lookup cost (the deterministic farm results are asserted
//! identical across them, so nothing else can differ).
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin farm_stress [servers] [requests]`
//!   — full run (defaults: 4096 servers × 4 requests, 3 reps per
//!   table); regenerates the complete `BENCH_farm.json` so the record
//!   stays consistent with the suite sections.
//! * `cargo run --release -p foc-bench --bin farm_stress -- --check` —
//!   CI smoke mode: a miniature stress sweep (both tables, the
//!   cross-row equality check) without writing the record. A contract
//!   violation exits nonzero with a one-line diagnostic.

use foc_bench::check::check_fail;
use foc_bench::farm_report::{measure_record, stress_sweep, RecordShape};
use foc_memory::TableKind;

fn run_check() -> Result<(), String> {
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
        if row.wall_ms <= 0.0 {
            return Err(format!("{}: no wall time measured", row.backend));
        }
        if row.report.stats.completed == 0 {
            return Err(format!("{}: stress farm served nothing", row.backend));
        }
        // The serialized histogram must bound the exact percentiles it
        // summarizes (bucket tops round up, never down).
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
            row.wall_ms,
            row.wall_ms_ci95,
            row.host_rps
        );
    }
    println!("farm_stress --check OK ({} rows)", rows.len());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && *a != "--check") {
        // An unrecognized flag must not silently fall through to the
        // full (file-writing) measurement — `--chek` meant `--check` —
        // nor ride along with a check that ignores it (`--table`, gone
        // with the per-backend CI matrix).
        eprintln!("farm_stress: unknown flag {flag:?} (only --check is supported)");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check() {
            check_fail("farm_stress --check", &msg);
        }
        return;
    }
    let mut shape = RecordShape::default();
    if let Some(arg) = args.first() {
        match arg.parse() {
            Ok(n) if n > 0 => shape.stress_servers = n,
            _ => {
                eprintln!("farm_stress: invalid server count {arg:?} (want a positive integer)");
                std::process::exit(2);
            }
        }
    }
    if let Some(arg) = args.get(1) {
        match arg.parse() {
            Ok(n) if n > 0 => shape.stress_requests = n,
            _ => {
                eprintln!("farm_stress: invalid request count {arg:?} (want a positive integer)");
                std::process::exit(2);
            }
        }
    }

    let path = "BENCH_farm.json";
    let previous = std::fs::read_to_string(path).ok();
    let record = match measure_record(&shape, previous.as_deref()) {
        Ok(record) => record,
        Err(msg) => check_fail("farm_stress", &msg),
    };
    for row in &record.stress {
        let s = &row.report.stats;
        println!(
            "{:<6} {} servers x {} requests: {:.1} ms ± {:.1}  ({:.0} req/s host, \
             hist p50/p99/p99.9 ≤ {}/{}/{} cycles)",
            row.backend.name(),
            row.report.config.servers,
            row.report.config.requests_per_server,
            row.wall_ms,
            row.wall_ms_ci95,
            row.host_rps,
            s.service_hist.quantile(1, 2),
            s.service_hist.quantile(99, 100),
            s.service_hist.quantile(999, 1000),
        );
    }

    std::fs::write(path, record.render()).expect("write BENCH_farm.json");
    println!("wrote {path}");
}
