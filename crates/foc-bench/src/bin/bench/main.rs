//! The repository's measurement binary: every bench, gate and paper
//! table is a subcommand of `cargo run --release -p foc-bench --bin
//! bench -- <subcommand>`.
//!
//! * `farm_scaling [requests]` — the server-farm suite (every server
//!   kind under every mode, a Pine failure-oblivious thread-scaling
//!   sweep, the cold-vs-cached boot-cost split, the per-table
//!   `farm_stress` scale-out point) written to `BENCH_farm.json`, the
//!   repository's farm perf trajectory record; `requests` is the
//!   per-server request count (default 100).
//! * `farm_stress [servers] [requests]` — the same record with the
//!   scale-out point reshaped (defaults: 4096 servers × 4 requests, 3
//!   reps per table).
//! * `restart_cost [reps]`, `native_cost [reps]`, `conn_cost [reps]` —
//!   one full measurement (defaults 24, 24 and 12 reps), upserted into
//!   its trajectory of `BENCH_farm.json` (creating the section in
//!   records that predate it). Rows are keyed by a fingerprint of the
//!   measured images + shape, so a rerun on an unchanged tree replaces
//!   its row instead of duplicating it.
//! * `mode_sweep [--threads N]` — the full recovery-mode grid,
//!   maintaining the committed `SWEEP_matrix.{json,md}`.
//! * `paper [name]` — one table of the paper's evaluation, or with no
//!   name the full report; `paper --write` commits that report to
//!   `PAPER_tables.md`.
//!
//! Each of the seven takes `--check`: its CI gate, which re-measures at
//! smoke scale, writes nothing, and prints `<subcommand> --check OK
//! (…)` or exits 1 with a one-line `FAIL:` diagnostic (what each
//! asserts is documented on its `gate` function). A bare `bench
//! --check` runs all seven in order, every one even after a failure,
//! and exits 1 if any failed. Anything a subcommand does not name — an
//! unknown flag, a malformed count — exits 2 before measuring.

mod cost;
mod farm;
mod sweep;

use foc_bench::check::{ArgSpec, Args};
use foc_bench::farm_report::{STRESS_REQUESTS, STRESS_SERVERS, SUITE_REQUESTS};
use foc_bench::paper;

/// One subcommand: what it accepts, its `--check` gate (returning the
/// summary of its OK line, or the diagnostic) and its full run.
struct Cmd {
    name: &'static str,
    spec: ArgSpec,
    gate: fn(&Args) -> Result<String, String>,
    full: fn(&Args) -> Result<(), String>,
}

/// The subcommands, in the order a bare `--check` runs their gates.
const CMDS: [Cmd; 7] = [
    Cmd {
        name: "farm_scaling",
        spec: ArgSpec::counts(&[("request count", SUITE_REQUESTS)]),
        gate: farm::scaling_gate,
        full: farm::scaling_full,
    },
    Cmd {
        name: "farm_stress",
        spec: ArgSpec::counts(&[
            ("server count", STRESS_SERVERS),
            ("request count", STRESS_REQUESTS),
        ]),
        gate: farm::stress_gate,
        full: farm::stress_full,
    },
    Cmd {
        name: "restart_cost",
        spec: ArgSpec::counts(&[("rep count", 24)]),
        gate: cost::restart_gate,
        full: cost::restart_full,
    },
    Cmd {
        name: "native_cost",
        spec: ArgSpec::counts(&[("rep count", 24)]),
        gate: cost::native_gate,
        full: cost::native_full,
    },
    Cmd {
        name: "conn_cost",
        spec: ArgSpec::counts(&[("rep count", 12)]),
        gate: cost::conn_gate,
        full: cost::conn_full,
    },
    Cmd {
        name: "mode_sweep",
        spec: ArgSpec {
            flags: &["--threads"],
            counts: &[],
            name: false,
        },
        gate: sweep::gate,
        full: sweep::full,
    },
    Cmd {
        name: "paper",
        spec: ArgSpec {
            flags: &["--write"],
            counts: &[],
            name: true,
        },
        gate: paper_gate,
        full: paper_full,
    },
];

/// The reproduction's own regression gate: a fresh render of the full
/// report — Figures 2–6, the §4.3.2 throughput ratio, the per-server
/// security outcomes, the §3 ablation, the §5.1 variants, the §4.7
/// restart study and the stability run — must equal the committed
/// `PAPER_tables.md` line for line.
fn paper_gate(_: &Args) -> Result<String, String> {
    eprintln!(
        "paper --check: every experiment against {} ...",
        paper::REPORT_PATH
    );
    let committed = std::fs::read_to_string(paper::REPORT_PATH)
        .map_err(|e| format!("cannot read committed {}: {e}", paper::REPORT_PATH))?;
    let lines = paper::diff_report(paper::REPORT_PATH, &committed, &paper::report())
        .map_err(|e| format!("{e} (`bench paper --write` re-records a change that is meant)"))?;
    Ok(format!("{lines} lines match {}", paper::REPORT_PATH))
}

fn paper_full(args: &Args) -> Result<(), String> {
    match (&args.name, args.has("--write")) {
        (Some(_), true) => return Err("--write records the full report, not one table".into()),
        (Some(name), false) => print!("{}", paper::table(name)?),
        (None, false) => print!("{}", paper::report()),
        (None, true) => {
            let report = paper::report();
            std::fs::write(paper::REPORT_PATH, &report)
                .map_err(|e| format!("cannot write {}: {e}", paper::REPORT_PATH))?;
            let lines = report.lines().count();
            println!("wrote {} ({lines} lines)", paper::REPORT_PATH);
        }
    }
    Ok(())
}

/// Runs `cmd`'s gate and prints its one `OK`/`FAIL:` line.
fn gate_passes(cmd: &Cmd, args: &Args) -> bool {
    let verdict = (cmd.gate)(args);
    match &verdict {
        Ok(summary) => println!("{} --check OK ({summary})", cmd.name),
        Err(msg) => eprintln!("{} --check: FAIL: {msg}", cmd.name),
    }
    verdict.is_ok()
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--check"] {
        // `filter` visits every subcommand: a failed gate stops none
        // of the later ones.
        let failed = CMDS.iter().filter(|cmd| {
            let args = Args::parse(&cmd.spec, &raw).expect("every subcommand takes --check");
            !gate_passes(cmd, &args)
        });
        std::process::exit(i32::from(failed.count() > 0));
    }
    let found = raw
        .split_first()
        .and_then(|(name, rest)| Some((CMDS.iter().find(|cmd| cmd.name == name)?, rest)));
    let Some((cmd, rest)) = found else {
        let names: Vec<&str> = CMDS.iter().map(|cmd| cmd.name).collect();
        eprintln!(
            "usage: bench <{}> [arguments] [--check]\n       bench --check",
            names.join("|")
        );
        std::process::exit(2);
    };
    let args = Args::parse(&cmd.spec, rest).unwrap_or_else(|msg| {
        eprintln!("{}: {msg}", cmd.name);
        std::process::exit(2);
    });
    let ok = if args.has("--check") {
        gate_passes(cmd, &args)
    } else {
        (cmd.full)(&args)
            .map_err(|msg| eprintln!("{}: FAIL: {msg}", cmd.name))
            .is_ok()
    };
    std::process::exit(i32::from(!ok));
}
