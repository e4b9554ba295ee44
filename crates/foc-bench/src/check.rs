//! The one command-line surface of the `bench` binary.
//!
//! Every subcommand speaks the same dialect, written once here: a
//! `--check` flag that runs its gate and returns either the summary of
//! its `… --check OK (…)` line or a one-line diagnostic (CI logs get a
//! readable `FAIL:` reason and exit code 1, not a panic backtrace); the
//! few flags and the optional name a subcommand takes; and usage errors
//! — an unknown flag, a stray word, `--check` beside something it would
//! ignore — that exit 2 before anything is measured or written. The
//! subcommands contribute only their measurement and its wording.

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
    /// Whether one bare word — a name — may follow.
    pub name: bool,
}

/// A subcommand's parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The flags that were given.
    flags: Vec<&'static str>,
    /// Worker threads (`--threads N`, default 4).
    pub threads: usize,
    /// The name given, if [`ArgSpec::name`] allows one.
    pub name: Option<String>,
}

impl Args {
    /// Parses `raw` against `spec`. Anything the subcommand did not ask
    /// for is an error, so a typo (`--chek`) can never fall through to
    /// a full, file-writing run, nor ride along with a check that
    /// ignores it: beside `--check` only `--threads` is accepted.
    pub fn parse(spec: &ArgSpec, raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            threads: 4,
            name: None,
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let mut flags = ["--check"].iter().chain(spec.flags);
            if let Some(flag) = flags.find(|f| *f == arg) {
                args.flags.push(flag);
                if *flag == "--threads" {
                    let n = it.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0);
                    args.threads = n.ok_or("--threads needs a positive integer")?;
                }
            } else if arg.starts_with("--") {
                let accepted: Vec<&str> = ["--check"].iter().chain(spec.flags).copied().collect();
                return Err(format!(
                    "unknown flag {arg:?} (accepted: {})",
                    accepted.join(", ")
                ));
            } else if spec.name && args.name.is_none() {
                args.name = Some(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        if args.has("--check") {
            let ignored = args
                .flags
                .iter()
                .find(|f| !["--check", "--threads"].contains(f));
            if let Some(flag) = ignored {
                return Err(format!("--check runs the gate alone and takes no {flag}"));
            }
            if let Some(name) = &args.name {
                return Err(format!(
                    "--check runs the gate alone and takes no name ({name:?})"
                ));
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
            name: true,
        };
        let gate_only = ArgSpec {
            flags: &[],
            name: false,
        };
        let parse = |spec: &ArgSpec, raw: &[&str]| {
            let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
            Args::parse(spec, &raw)
        };
        let bare = parse(&spec, &[]).expect("defaults");
        assert_eq!((bare.threads, bare.name.as_deref()), (4, None));
        assert!(!bare.has("--check") && !bare.has("--write"));
        let all = parse(&spec, &["--write", "--threads", "2", "fig5_mc"]).expect("a full run");
        assert_eq!((all.threads, all.name.as_deref()), (2, Some("fig5_mc")));
        assert!(all.has("--write") && !all.has("--check"));
        let check = parse(&spec, &["--threads", "2", "--check"]).expect("a gate reads --threads");
        assert_eq!((check.threads, check.name.as_deref()), (2, None));
        assert!(check.has("--check"));
        assert!(parse(&gate_only, &["--check"])
            .expect("the gate")
            .has("--check"));
        for (spec, raw, needle) in [
            (
                &spec,
                &["--chek"][..],
                "unknown flag \"--chek\" (accepted: --check, --write, --threads)",
            ),
            (
                &spec,
                &["fig2_pine", "fig5_mc"],
                "unexpected argument \"fig5_mc\"",
            ),
            (&spec, &["--threads"], "--threads needs a positive integer"),
            (
                &spec,
                &["--threads", "0"],
                "--threads needs a positive integer",
            ),
            (
                &spec,
                &["--write", "--check"],
                "--check runs the gate alone and takes no --write",
            ),
            (
                &spec,
                &["fig2_pine", "--check"],
                "--check runs the gate alone and takes no name (\"fig2_pine\")",
            ),
            (&gate_only, &["24"], "unexpected argument \"24\""),
            (
                &gate_only,
                &["--write"],
                "unknown flag \"--write\" (accepted: --check)",
            ),
        ] {
            let msg = parse(spec, raw).expect_err("refused");
            assert!(msg.contains(needle), "{raw:?}: {msg}");
        }
    }
}
