//! The one command-line surface of the `bench` binary.
//!
//! Every subcommand speaks the same dialect, written once here: a
//! `--check` flag that re-measures at smoke scale and returns either
//! the summary of its `… --check OK (…)` line or a one-line diagnostic
//! (CI logs get a readable `FAIL:` reason and exit code 1, not a panic
//! backtrace); leading positive-integer arguments that shape a full
//! run; the few flags a subcommand names; usage errors — an unknown
//! flag, a malformed count, a stray word — that exit 2 before anything
//! is measured or written; and a fingerprint-keyed row upsert into
//! `BENCH_farm.json`. The subcommands contribute only their measurement
//! and its wording.

use crate::farm_report::upsert_trajectory_row;

/// The farm perf trajectory record, relative to the working directory.
pub const RECORD_PATH: &str = "BENCH_farm.json";

/// Gates `ratio` against the `min` floor. `name` describes the measured
/// quantity ("native region execution over the baseline
/// interpreter"); `detail` carries the raw readings for the diagnostic ("412.0
/// vs 233.1 Minstr/s"). Returns the `Err` line the gate fails with.
pub fn check_gate(name: &str, ratio: f64, min: f64, detail: &str) -> Result<(), String> {
    if ratio >= min {
        Ok(())
    } else {
        Err(format!(
            "{name} must hold a ≥{min}× ratio: {detail} ({ratio:.2}x)"
        ))
    }
}

/// What one subcommand accepts beside `--check`.
#[derive(Debug)]
pub struct ArgSpec {
    /// Its flags. `--threads` is followed by a positive integer.
    pub flags: &'static [&'static str],
    /// Its leading positive-integer arguments: what each one counts
    /// (for the diagnostic) and its default.
    pub counts: &'static [(&'static str, usize)],
    /// Whether one bare word — a name — may follow the counts.
    pub name: bool,
}

impl ArgSpec {
    /// A subcommand shaped by `counts` alone.
    pub const fn counts(counts: &'static [(&'static str, usize)]) -> ArgSpec {
        ArgSpec {
            flags: &[],
            counts,
            name: false,
        }
    }
}

/// A subcommand's parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The flags that were given.
    flags: Vec<&'static str>,
    /// Worker threads (`--threads N`, default 4).
    pub threads: usize,
    /// One value per [`ArgSpec::counts`] entry, defaults filled in.
    pub counts: Vec<usize>,
    /// The name given, if [`ArgSpec::name`] allows one.
    pub name: Option<String>,
}

impl Args {
    /// Parses `raw` against `spec`. Anything the subcommand did not ask
    /// for is an error, so a typo (`--chek`) can never fall through to
    /// a full, file-writing measurement, nor ride along with a check
    /// that ignores it.
    pub fn parse(spec: &ArgSpec, raw: &[String]) -> Result<Args, String> {
        let positive = |arg: &String| arg.parse().ok().filter(|&n| n > 0);
        let mut args = Args {
            flags: Vec::new(),
            threads: 4,
            counts: spec.counts.iter().map(|&(_, default)| default).collect(),
            name: None,
        };
        let mut given = 0;
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let mut flags = ["--check"].iter().chain(spec.flags);
            if let Some(flag) = flags.find(|f| *f == arg) {
                args.flags.push(flag);
                if *flag == "--threads" {
                    let n = it.next().and_then(positive);
                    args.threads = n.ok_or("--threads needs a positive integer")?;
                }
            } else if arg.starts_with("--") {
                let accepted: Vec<&str> = ["--check"].iter().chain(spec.flags).copied().collect();
                return Err(format!(
                    "unknown flag {arg:?} (accepted: {})",
                    accepted.join(", ")
                ));
            } else if let Some(&(what, _)) = spec.counts.get(given) {
                let n = positive(arg);
                args.counts[given] =
                    n.ok_or_else(|| format!("invalid {what} {arg:?} (want a positive integer)"))?;
                given += 1;
            } else if spec.name && args.name.is_none() {
                args.name = Some(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(args)
    }

    /// Whether `flag` (`--check` or one of the subcommand's own) was
    /// given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }
}

/// Upserts one pre-rendered row into the trajectory `key` of
/// `BENCH_farm.json` for subcommand `cmd`: the shared read, write and
/// failure wording.
pub fn record_farm_row(cmd: &str, key: &str, row: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(RECORD_PATH)
        .map_err(|e| format!("cannot read {RECORD_PATH}: {e}"))?;
    let updated = upsert_trajectory_row(&json, key, row)?;
    std::fs::write(RECORD_PATH, updated).map_err(|e| format!("cannot write {RECORD_PATH}: {e}"))?;
    println!("recorded {cmd} row in {RECORD_PATH}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_at_and_above_the_floor() {
        assert!(check_gate("rate", 1.5, 1.5, "3.0 vs 2.0").is_ok());
        assert!(check_gate("rate", 2.31, 1.5, "detail").is_ok());
    }

    #[test]
    fn gate_diagnostic_names_the_quantity_floor_and_readings() {
        let msg = check_gate(
            "native tier over baseline on the copy loop",
            1.31,
            1.5,
            "13.1 vs 10.0 Minstr/s",
        )
        .expect_err("below the floor");
        assert!(
            msg.contains("native tier over baseline on the copy loop"),
            "{msg}"
        );
        assert!(msg.contains("1.5×"), "{msg}");
        assert!(msg.contains("13.1 vs 10.0 Minstr/s"), "{msg}");
        assert!(msg.contains("(1.31x)"), "{msg}");
    }

    #[test]
    fn args_take_what_the_subcommand_names_and_refuse_the_rest() {
        let spec = ArgSpec {
            flags: &["--write", "--threads"],
            counts: &[("server count", 4096), ("request count", 4)],
            name: true,
        };
        let parse = |spec: &ArgSpec, raw: &[&str]| {
            let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
            Args::parse(spec, &raw)
        };
        let bare = parse(&spec, &[]).expect("defaults");
        assert_eq!((bare.threads, bare.name.as_deref()), (4, None));
        assert_eq!(bare.counts, [4096, 4]);
        assert!(!bare.has("--check") && !bare.has("--write"));
        let all = [
            "8192",
            "--write",
            "--threads",
            "2",
            "2",
            "fig5_mc",
            "--check",
        ];
        let all = parse(&spec, &all).expect("everything at once");
        assert_eq!(all.counts, [8192, 2]);
        assert_eq!((all.threads, all.name.as_deref()), (2, Some("fig5_mc")));
        assert!(all.has("--check") && all.has("--write"));
        let plain = ArgSpec::counts(&[("rep count", 24)]);
        for (spec, raw, needle) in [
            (
                &spec,
                &["--chek"][..],
                "unknown flag \"--chek\" (accepted: --check, --write, --threads)",
            ),
            (
                &spec,
                &["0"],
                "invalid server count \"0\" (want a positive integer)",
            ),
            (&spec, &["8", "-3"], "invalid request count \"-3\""),
            (
                &spec,
                &["1", "2", "fig2_pine", "fig5_mc"],
                "unexpected argument \"fig5_mc\"",
            ),
            (&spec, &["--threads"], "--threads needs a positive integer"),
            (
                &spec,
                &["--threads", "0"],
                "--threads needs a positive integer",
            ),
            (
                &plain,
                &["soon"],
                "invalid rep count \"soon\" (want a positive integer)",
            ),
            (&plain, &["3", "4"], "unexpected argument \"4\""),
            (
                &plain,
                &["--write"],
                "unknown flag \"--write\" (accepted: --check)",
            ),
        ] {
            let msg = parse(spec, raw).expect_err("refused");
            assert!(msg.contains(needle), "{raw:?}: {msg}");
        }
    }
}
