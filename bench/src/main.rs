//! The benchmark command. Usage:
//!
//! ```text
//! foc-farm-bench [--workload <name>] [--seed <n>] [--seconds <n>]
//!                [--trace <0|1>] [--quick]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each
//! runs untraced, then traced. Every run ends with one JSON result line.
//! Exit codes: 0 all correct, 1 a check failed, 2 bad usage or a set
//! `FOC_*` variable.

use std::path::Path;
use std::process::ExitCode;

use foc_farm_bench::kernel::Kernel;
use foc_farm_bench::metrics::{self, Metric};
use foc_farm_bench::workloads::{self, Workload, WORKLOADS};
use foc_farm_bench::{gate, host, spans, timed, traced};
use foc_servers::farm::{FarmConfig, FarmReport};

/// Default of `--seed`: `FarmConfig::new`'s own seed.
const DEFAULT_SEED: u64 = 0xF0C_0001;
/// Default of `--seconds`; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    quick: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        traces: vec![false, true],
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--quick" => parsed.quick = true,
            "--workload" => {
                let name = value()?;
                let found = workloads::find(name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (valid: {})", names.join(", "))
                })?;
                parsed.workloads = vec![found];
            }
            "--seed" => {
                let text = value()?;
                parsed.seed = parse_u64(text).ok_or_else(|| format!("bad --seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                parsed.seconds = match parse_u64(text) {
                    Some(n @ 1..=60) => n as f64,
                    _ => return Err(format!("bad --seconds {text:?} (a whole number, 1 to 60)")),
                };
            }
            "--trace" => {
                parsed.traces = match value()? {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The axes in effect, for the record: a reader of two result sets can
/// tell whether they measured the same configuration.
fn describe(workload: &Workload, config: &FarmConfig, harness_seed: u64, traced: bool) -> String {
    let spec = config.boot_spec();
    format!(
        "# {} trace={} seed={harness_seed:#x} farm_seed={:#x} kind={} mode={} servers={} requests_per_server={} \
         attack_ratio={}/{} threads={} edge={} tier={} lookup={} table={} sequence={:?} fuel={} \
         host.nproc={} rev={}",
        workload.name,
        u8::from(traced),
        config.seed,
        config.kind.name(),
        config.mode.name(),
        config.servers,
        config.requests_per_server,
        config.attack_ratio.0,
        config.attack_ratio.1,
        config.threads,
        config.edge.label(),
        spec.tier.label(),
        spec.lookup.name(),
        spec.table.name(),
        spec.sequence,
        spec.fuel,
        workloads::nproc(),
        host::git_revision(),
    )
}

fn untraced(
    kernel: &mut Kernel,
    config: &FarmConfig,
    args: &Args,
) -> Result<(FarmReport, Vec<Metric>), String> {
    let measured = timed::run(kernel, config, args.seconds, args.quick)?;
    let stats = &measured.report.stats;
    let values = [
        (
            "throughput_rps",
            stats.completed as f64 / measured.reps.scaled_fastest(),
        ),
        ("setup_s", measured.setups.scaled_fastest()),
        ("peak_rss_mb", host::peak_rss_mib()?),
        (
            "vcycles_per_req",
            stats.total_cycles as f64 / stats.completed as f64,
        ),
    ];
    // The raw series, for anyone who wants to second-guess the timing rule.
    let ms = |xs: &[f64]| {
        let cells: Vec<String> = xs.iter().map(|x| format!("{:.2}", x * 1e3)).collect();
        cells.join(" ")
    };
    eprintln!("rep_ms: {}", ms(&measured.reps.raw));
    eprintln!("rep_kernel_ms: {}", ms(&measured.reps.kernels));
    eprintln!("setup_ms: {}", ms(&measured.setups.raw));
    eprintln!("setup_kernel_ms: {}", ms(&measured.setups.kernels));
    Ok((
        measured.report,
        metrics::collect(&metrics::END_TO_END, &values),
    ))
}

fn traced_run(
    workload: &Workload,
    config: &FarmConfig,
    args: &Args,
) -> Result<(FarmReport, Vec<Metric>), String> {
    let out = traced::run(config, args.seconds, args.quick)?;
    for note in &out.notes {
        eprintln!("{}: {note}", workload.name);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", workload.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                spans::trace_json(workload.name, args.seed, &out.spans),
            )
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", out.spans.len(), path.display());
    Ok((out.report, out.metrics))
}

/// One run: prints the configuration, the metrics and the result line.
/// Returns whether the run was correct.
fn run_one(kernel: &mut Kernel, workload: &Workload, traced: bool, args: &Args) -> bool {
    let config = workload.config(args.seed, args.quick);
    println!("{}", describe(workload, &config, args.seed, traced));
    let outcome = if traced {
        traced_run(workload, &config, args)
    } else {
        untraced(kernel, &config, args)
    };
    let requests = (config.servers * config.requests_per_server) as u64;
    match outcome {
        Ok((report, metrics)) => {
            for m in &metrics {
                println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let finite = metrics.iter().all(|m| m.value.is_finite());
            if !finite {
                eprintln!("{}: a metric is not a finite number", workload.name);
            }
            let failed = gate::failed(&config, &report);
            println!(
                "{}",
                metrics::result_line(finite && failed == 0, requests, failed, &metrics)
            );
            finite && failed == 0
        }
        Err(why) => {
            eprintln!("{}: FAILED: {why}", workload.name);
            println!("{}", metrics::result_line(false, requests, requests, &[]));
            false
        }
    }
}

fn main() -> ExitCode {
    // The benchmark measures the shipped default. A set FOC_* variable
    // would silently measure something else under the same metric names.
    if let Some((var, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("FOC_"))
    {
        eprintln!(
            "{} is set: the benchmark measures the shipped defaults, unset every FOC_* variable",
            var.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\nusage: [--workload <name>] [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--quick]");
            return ExitCode::from(2);
        }
    };
    host::retain_freed_memory();
    // One kernel for the whole process, never freed while anything is
    // measured: releasing its buffers would retune the allocator under
    // the runs that follow.
    let mut kernel = Kernel::new();
    let mut all_correct = true;
    for workload in &args.workloads {
        for &traced in &args.traces {
            all_correct &= run_one(&mut kernel, workload, traced, &args);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
