//! The untraced run: cold set-ups, then timed reps of `run_farm`, all
//! under the timing rule of [`crate::stats`].

use std::time::{Duration, Instant};

use foc_servers::farm::{run_farm, FarmConfig, FarmReport, ServerKind};

use crate::gate;
use crate::kernel::Kernel;
use crate::replay::{Op, Server};
use crate::stats;

/// Batches of cold set-ups per run; a batch counts as its fastest set-up.
pub const SETUP_BATCHES: usize = 20;
/// Cold set-ups per batch.
pub const SETUP_BATCH: usize = 10;
/// Reps and set-ups per run under `--quick`.
pub const QUICK_REPS: usize = 3;

/// How long a measurement loop goes on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this much wall time has passed (kernel runs included), and
    /// at least [`QUICK_REPS`] reps.
    Time(Duration),
    /// Exactly this many reps.
    Reps(usize),
}

/// Rep times with the kernel times around them, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Reps {
    /// Wall time of each rep.
    pub raw: Vec<f64>,
    /// Kernel times: one run before the first rep and one after every rep.
    pub kernels: Vec<f64>,
}

impl Reps {
    /// The metric value, by the timing rule.
    pub fn scaled_fastest(&self) -> f64 {
        stats::scaled_fastest(&self.raw, &self.kernels)
    }
}

/// Runs `rep` under `budget`, alternating with the reference kernel.
/// `rep` returns the wall time it wants counted.
pub fn measure(
    kernel: &mut Kernel,
    budget: Budget,
    mut rep: impl FnMut() -> Result<f64, String>,
) -> Result<Reps, String> {
    let started = Instant::now();
    let mut reps = Reps::default();
    reps.kernels.push(kernel.run());
    loop {
        reps.raw.push(rep()?);
        reps.kernels.push(kernel.run());
        let done = match budget {
            Budget::Time(limit) => reps.raw.len() >= QUICK_REPS && started.elapsed() >= limit,
            Budget::Reps(n) => reps.raw.len() >= n,
        };
        if done {
            return Ok(reps);
        }
    }
}

/// The first benign request a freshly set-up server answers.
fn first_request(config: &FarmConfig) -> Op {
    match config.kind {
        ServerKind::Apache => Op::ApacheGet(b"/index.html"),
        ServerKind::Pine => Op::PineRead(0),
        _ => Op::McMkdir {
            path: b"/tmp/dir1".to_vec(),
        },
    }
}

/// One cold set-up: compile the server from source on the shipped tier,
/// boot it past every cache, answer one benign request. Returns the
/// wall time in seconds.
pub fn cold_setup(config: &FarmConfig) -> Result<f64, String> {
    let spec = config.boot_spec();
    let op = first_request(config);
    let started = Instant::now();
    let image = config.kind.fresh_image_tier(spec.tier);
    let mut server = Server::boot_cold(config.kind, &image, &spec);
    let measured = server.apply(&op);
    let elapsed = started.elapsed().as_secs_f64();
    if measured.outcome.survived() {
        Ok(elapsed)
    } else {
        Err("the first benign request after a cold set-up was not answered".to_string())
    }
}

/// What the untraced run measured.
pub struct EndToEnd {
    /// The report every rep produced.
    pub report: FarmReport,
    /// Cold set-up times.
    pub setups: Reps,
    /// Timed reps of `run_farm`.
    pub reps: Reps,
}

/// Measures set-up, then one untimed warm-up rep and timed reps of
/// `run_farm(config)` for `seconds`, checking every report.
pub fn run(
    kernel: &mut Kernel,
    config: &FarmConfig,
    seconds: f64,
    quick: bool,
) -> Result<EndToEnd, String> {
    let setup_budget = Budget::Reps(if quick { QUICK_REPS } else { SETUP_BATCHES });
    let setups = measure(kernel, setup_budget, || {
        let batch: Result<Vec<f64>, String> =
            (0..SETUP_BATCH).map(|_| cold_setup(config)).collect();
        Ok(stats::fastest(&batch?))
    })?;

    // The warm-up rep fills the image and boot-checkpoint caches and
    // commits the process's working set, as a long-running farm has.
    let report = run_farm(config);
    gate::check_report(config, &report)?;

    let budget = if quick {
        Budget::Reps(QUICK_REPS)
    } else {
        Budget::Time(Duration::from_secs_f64(seconds))
    };
    let reps = measure(kernel, budget, || {
        let started = Instant::now();
        let rep = run_farm(config);
        let elapsed = started.elapsed().as_secs_f64();
        gate::check_same("timed rep", &report, &rep)?;
        Ok(elapsed)
    })?;
    Ok(EndToEnd {
        report,
        setups,
        reps,
    })
}
