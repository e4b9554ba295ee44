//! The repository's record-keeping binary: `cargo run --release -p
//! foc-bench --bin bench -- <subcommand>`, one subcommand per committed
//! record.
//!
//! * `mode_sweep [--threads N]` — the full recovery-mode grid,
//!   maintaining the committed `SWEEP_matrix.{json,md}`.
//! * `paper [name]` — one table of the paper's evaluation, or with no
//!   name the full report; `paper --write` commits that report to
//!   `PAPER_tables.md`.
//!
//! Each takes `--check`: its CI gate, which renders afresh, writes
//! nothing, and prints `<subcommand> --check OK (…)` or exits 1 with a
//! one-line `FAIL:` diagnostic naming the first line of a committed file
//! the render no longer reproduces. A bare `bench --check` runs both in
//! order, the second even after the first failed, and exits 1 if either
//! failed. Anything a subcommand does not name — an unknown flag, a
//! stray word, `--check` beside `--write` or a name — exits 2 before
//! running. Every number in both records is virtual cycles or a count;
//! host time is judged by the end-to-end benchmark alone.

mod sweep;

use foc_bench::check::{ArgSpec, Args};
use foc_bench::paper;

/// One subcommand: what it accepts, its `--check` gate (returning the
/// summary of its OK line, or the diagnostic) and the run that is not a
/// check, which maintains its committed file.
struct Cmd {
    name: &'static str,
    spec: ArgSpec,
    gate: fn(&Args) -> Result<String, String>,
    full: fn(&Args) -> Result<(), String>,
}

/// The subcommands, in the order a bare `--check` runs their gates.
const CMDS: [Cmd; 2] = [
    Cmd {
        name: "mode_sweep",
        spec: ArgSpec {
            flags: &["--threads"],
            name: false,
        },
        gate: sweep::gate,
        full: sweep::full,
    },
    Cmd {
        name: "paper",
        spec: ArgSpec {
            flags: &["--write"],
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

/// Runs `cmd`'s gate and prints its one `<name> --check OK`/`FAIL:`
/// line.
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
