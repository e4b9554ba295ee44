//! The traced run: per-layer metrics, measured from outside by calling
//! each layer's public functions.
//!
//! Four parts. (a) The workload's request streams are replayed through
//! the public driver API with a span per call and counter deltas at each
//! boundary ([`crate::replay`]). (b) Compile stages and boots are timed
//! by calling them. (c) A `MemorySpace` of the workload's mode is driven
//! directly. (d) `run_farm` is re-run with one axis changed: one thread,
//! two threads, the other edge. Parts (a) and (d) and the mode pair of
//! `driver.fo_over_std` alternate in rounds until the time budget is
//! spent, and each takes its fastest round, so slow spells of the host
//! fall on all of them alike.

use std::hint::black_box;
use std::time::{Duration, Instant};

use foc_memory::{AccessCtx, AccessSize, MemConfig, MemorySpace, Mode};
use foc_servers::conn::{Edge, SocketEdge};
use foc_servers::farm::{run_farm, FarmConfig, FarmReport};
use foc_servers::BootSpec;

use crate::metrics::{self, Metric};
use crate::replay::{replay, Counts, Replay, Server};
use crate::spans::{self, totals_by_name, Span, Tracer};
use crate::workloads::nproc;
use crate::{gate, host, stats};

/// Bounds outside which `farm.unattributed_share` is flagged.
pub const UNATTRIBUTED_RANGE: (f64, f64) = (-0.05, 0.15);
/// Share above which `trace.overhead_share` is flagged.
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// What the traced run produced.
pub struct Traced {
    /// The report of the workload's own configuration.
    pub report: FarmReport,
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Spans of parts (b) and (c) and of the fastest traced replay.
    pub spans: Vec<Span>,
    /// Lines for standard error: diagnostics out of their expected range
    /// and sample counts. None of them fails the run.
    pub notes: Vec<String>,
}

/// Calls `f` `n` times, a span around each call, and returns the fast
/// decile of the call times in seconds. Each result is released before
/// the next call (outside the timed part), so a call that builds a
/// process image builds it in memory the allocator kept from the last
/// one (see [`host::retain_freed_memory`]).
fn sample<T>(tracer: &mut Tracer, name: &'static str, n: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let started = Instant::now();
            let out = tracer.span(name, None, &mut f);
            let elapsed = started.elapsed().as_secs_f64();
            drop(black_box(out));
            elapsed
        })
        .collect();
    stats::fast_decile(&times)
}

/// Part (c): the memory layer's public operations, called directly on a
/// space configured like the workload's processes. Returns seconds per
/// in-bounds access, per violating access and per malloc/free pair.
fn memory_direct(tracer: &mut Tracer, spec: &BootSpec, quick: bool) -> (f64, f64, f64) {
    const BUFFER: u64 = 64 << 10;
    let scale = if quick { 10 } else { 1 };
    let config = MemConfig::with_mode(spec.mode)
        .with_table(spec.table)
        .with_sequence(spec.sequence)
        .with_lookup(spec.lookup);
    let mut space = MemorySpace::new(config);
    let ctx = AccessCtx::default();
    // A populated table: a few hundred small units around two buffers.
    for _ in 0..128 {
        space.malloc(48).expect("guest heap has room");
    }
    let src = space.malloc(BUFFER).expect("guest heap has room");
    for _ in 0..128 {
        space.malloc(48).expect("guest heap has room");
    }
    let dst = space.malloc(BUFFER).expect("guest heap has room");

    let words = BUFFER / 8;
    let passes = 24 / scale as u64;
    let hit = sample(tracer, "memory.hit_loop", 5, || {
        for _ in 0..passes {
            for w in 0..words {
                let v = space
                    .load(src + w * 8, AccessSize::B8, ctx)
                    .expect("in bounds");
                space
                    .store(dst + w * 8, AccessSize::B8, v.value, ctx)
                    .expect("in bounds");
            }
        }
    }) / (passes * words * 2) as f64;

    // The access a guest makes after walking a pointer off the end of
    // its unit. Modes that stop at the error return it as a fault; the
    // space itself stays usable, which is all this loop needs.
    let beyond = space.ptr_add(dst, BUFFER as i64 + 8);
    let violations = 20_000 / scale as u64;
    let violation = sample(tracer, "memory.violation_loop", 5, || {
        for i in 0..violations {
            let _ = black_box(space.load(beyond, AccessSize::B8, ctx));
            let _ = black_box(space.store(beyond, AccessSize::B8, i, ctx));
        }
    }) / (violations * 2) as f64;

    let pairs = 20_000 / scale as u64;
    let malloc_free = sample(tracer, "memory.malloc_free_loop", 5, || {
        for _ in 0..pairs {
            let p = space.malloc(64).expect("guest heap has room");
            space.free(p, ctx).expect("freeing a live block");
        }
    }) / pairs as f64;
    (hit, violation, malloc_free)
}

/// One `run_farm` configuration re-run every round.
struct Variant {
    config: FarmConfig,
    walls: Vec<f64>,
}

impl Variant {
    fn new(config: FarmConfig) -> Variant {
        Variant {
            config,
            walls: Vec::new(),
        }
    }

    /// Runs the farm once and checks that the answer is the workload's.
    fn run(&mut self, what: &str, first: &FarmReport) -> Result<(), String> {
        let started = Instant::now();
        let report = run_farm(&self.config);
        self.walls.push(started.elapsed().as_secs_f64());
        gate::check_same(what, first, &report)
    }

    fn fastest(&self) -> f64 {
        stats::fastest(&self.walls)
    }
}

/// Guest, boot and restart time of one traced replay, from its spans.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayTimes {
    wall_s: f64,
    guest_s: f64,
    boot_s: f64,
    restart_s: f64,
    restarts: u64,
}

fn replay_times(replayed: &Replay, spans: &[Span]) -> ReplayTimes {
    let mut times = ReplayTimes {
        wall_s: replayed.wall_s,
        ..ReplayTimes::default()
    };
    for (name, t) in totals_by_name(spans) {
        let seconds = t.self_ns as f64 / 1e9;
        if name.starts_with("driver.") {
            times.guest_s += seconds;
        } else if name == "image.restore" {
            times.boot_s += seconds;
        } else if name == "supervisor.restart" {
            times.restart_s += seconds;
            times.restarts += t.count;
        }
    }
    times
}

/// The four shares of a one-thread farm run's wall time. They sum to 1
/// by construction: what the replayed parts and the edge do not explain
/// is the unattributed share (scheduler, stream generation, accounting,
/// aggregation — and any error in the replay's claim to be the same work).
pub fn farm_shares(wall_s: f64, guest_s: f64, boot_s: f64, edge_s: f64) -> [f64; 4] {
    let (guest, boot, edge) = (guest_s / wall_s, boot_s / wall_s, edge_s / wall_s);
    [guest, boot, edge, 1.0 - guest - boot - edge]
}

/// Runs the traced phase of one workload for about `seconds`.
pub fn run(config: &FarmConfig, seconds: f64, quick: bool) -> Result<Traced, String> {
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let kind = config.kind;
    let spec = config.boot_spec();
    let n = |full: usize| if quick { 2 } else { full };
    let mut tracer = Tracer::new(true);

    // (b) Compile stages, by calling them.
    let source = kind.source();
    let frontend_s = sample(&mut tracer, "lang.frontend", n(10), || {
        foc_lang::frontend(source).expect("server source parses")
    });
    let hir = foc_lang::frontend(source).expect("server source parses");
    let lower_s = sample(&mut tracer, "compiler.lower", n(10), || {
        foc_compiler::compile(&hir).expect("server source lowers")
    });
    let image_s = sample(&mut tracer, "compiler.image", n(10), || {
        kind.fresh_image_tier(spec.tier)
    });
    let image = kind.fresh_image_tier(spec.tier);
    let image_instrs: usize = image.program().funcs.iter().map(|f| f.code.len()).sum();

    // (b) Boots: past every cache, and from the boot checkpoint.
    let cold_boot_s = sample(&mut tracer, "image.cold_boot", n(10), || {
        Server::boot_cold(kind, &image, &spec)
    });
    let mut booted = Server::boot(kind, &spec);
    let restore_s = sample(&mut tracer, "image.restore", n(50), || {
        Server::boot(kind, &spec)
    });
    let direct_restart_s = sample(&mut tracer, "supervisor.restart", n(20), || {
        booted.restart(kind, &spec)
    });

    // (c) The memory layer, directly.
    let clone_s = sample(&mut tracer, "memory.clone", n(20), || {
        booted.process().machine().space().clone()
    });
    let (hit_s, violation_s, malloc_free_s) = memory_direct(&mut tracer, &spec, quick);

    // (a) + (d) in rounds.
    let report = run_farm(config);
    gate::check_report(config, &report)?;

    let one_thread = config.clone().with_threads(1);
    let mut by_threads = [
        Variant::new(one_thread.clone()),
        Variant::new(config.clone().with_threads(2)),
    ];
    let own = config.threads.clamp(1, 2) - 1;
    let socket = matches!(config.edge, Edge::Socket(_));
    let mut other_edge = Variant::new(one_thread.clone().with_edge(if socket {
        Edge::InProcess
    } else {
        Edge::Socket(SocketEdge::default())
    }));
    // The paper's slowdown: the same benign stream, a third of the
    // farm's servers, failure-oblivious against standard compilation.
    let mut benign = one_thread.clone().with_attack_ratio(0, 1);
    benign.servers = (config.servers / 3).max(1);
    let benign_fo = FarmConfig {
        mode: Mode::FailureOblivious,
        ..benign.clone()
    };
    let benign_std = FarmConfig {
        mode: Mode::Standard,
        ..benign
    };

    let mut best = ReplayTimes {
        wall_s: f64::INFINITY,
        ..ReplayTimes::default()
    };
    let mut best_spans: Vec<Span> = Vec::new();
    let mut counts = Counts::default();
    let (mut untraced_s, mut fo_s, mut std_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut own_cpu_s = 0.0;
    let mut rounds = 0;
    let min_rounds = if quick { 1 } else { 2 };
    while rounds < min_rounds || (!quick && started.elapsed() < deadline) {
        rounds += 1;

        let mut replay_tracer = tracer.sibling(true);
        let traced = replay(&one_thread, &mut replay_tracer);
        gate::check_replay(&report, &traced.per_server)?;
        counts = traced.counts;
        if traced.wall_s < best.wall_s {
            best = replay_times(&traced, replay_tracer.spans());
            best_spans = replay_tracer.into_spans();
        }
        let untraced = replay(&one_thread, &mut tracer.sibling(false));
        untraced_s = untraced_s.min(untraced.wall_s);

        // CPU time is read around the workload's own thread count.
        let cpu_before = host::cpu_seconds()?;
        by_threads[own].run("own-thread-count re-run", &report)?;
        own_cpu_s += host::cpu_seconds()? - cpu_before;
        by_threads[1 - own].run("other-thread-count re-run", &report)?;
        other_edge.run("other-edge re-run", &report)?;

        fo_s = fo_s.min(replay(&benign_fo, &mut tracer.sibling(false)).wall_s);
        std_s = std_s.min(replay(&benign_std, &mut tracer.sibling(false)).wall_s);
    }

    // Shares of the one-thread wall of the workload's own edge.
    let wall_s = by_threads[0].fastest();
    let (socket_s, in_process_s) = if socket {
        (wall_s, other_edge.fastest())
    } else {
        (other_edge.fastest(), wall_s)
    };
    let edge_cost_s = socket_s - in_process_s;
    let [guest_share, boot_share, edge_share, unattributed_share] = farm_shares(
        wall_s,
        best.guest_s,
        best.boot_s + best.restart_s,
        if socket { edge_cost_s } else { 0.0 },
    );
    let trace_overhead = best.wall_s / untraced_s - 1.0;

    let mut notes = Vec::new();
    if unattributed_share < UNATTRIBUTED_RANGE.0 || unattributed_share > UNATTRIBUTED_RANGE.1 {
        notes.push(format!(
            "farm.unattributed_share {unattributed_share:.3} is outside {:?}",
            UNATTRIBUTED_RANGE
        ));
    }
    if trace_overhead > TRACE_OVERHEAD_LIMIT {
        notes.push(format!(
            "trace.overhead_share {trace_overhead:.3} is above {TRACE_OVERHEAD_LIMIT}"
        ));
    }

    // Request latencies through the driver, from the fastest replay.
    let request_us: Vec<f64> = best_spans
        .iter()
        .filter(|s| s.name.starts_with("driver."))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    notes.push(format!(
        "driver.req_p50_us and driver.req_p99_us are over {} requests; {rounds} rounds",
        request_us.len()
    ));

    let own_walls = &by_threads[own].walls;
    let requests = report.stats.requests as f64;
    let kinstrs = counts.instrs as f64 / 1e3;
    let kreqs = counts.requests as f64 / 1e3;
    let memory_est_s = counts.checked as f64 * hit_s
        + counts.invalid as f64 * violation_s
        + counts.mallocs as f64 * malloc_free_s;
    let restart_s = if best.restarts > 0 {
        best.restart_s / best.restarts as f64
    } else {
        direct_restart_s
    };

    let values = [
        ("lang.frontend_ms", frontend_s * 1e3),
        ("compiler.lower_ms", lower_s * 1e3),
        // Whatever the shipped tier adds on top of front end and
        // lowering (fusion, native regions, image hashing).
        (
            "compiler.tier_ms",
            (image_s - frontend_s - lower_s).max(0.0) * 1e3,
        ),
        ("compiler.image_instrs", image_instrs as f64),
        ("image.cold_boot_us", cold_boot_s * 1e6),
        ("image.restore_us", restore_s * 1e6),
        (
            "supervisor.restarts_per_kreq",
            report.stats.restarts as f64 * 1e3 / requests,
        ),
        ("supervisor.restart_us", restart_s * 1e6),
        (
            "vm.instrs_per_req",
            counts.instrs as f64 / counts.requests as f64,
        ),
        ("vm.calls_per_kinstr", counts.calls as f64 / kinstrs),
        (
            "vm.io_cycle_share",
            counts.io_cycles as f64 / counts.cycles as f64,
        ),
        ("vm.ns_per_instr", best.guest_s * 1e9 / counts.instrs as f64),
        ("memory.checked_per_kinstr", counts.checked as f64 / kinstrs),
        ("memory.invalid_per_kreq", counts.invalid as f64 / kreqs),
        ("memory.mallocs_per_kreq", counts.mallocs as f64 / kreqs),
        ("memory.hit_ns", hit_s * 1e9),
        ("memory.violation_ns", violation_s * 1e9),
        ("memory.malloc_free_ns", malloc_free_s * 1e9),
        ("memory.clone_us", clone_s * 1e6),
        ("memory.est_share", memory_est_s / best.guest_s),
        ("driver.req_p50_us", stats::quantile(&request_us, 0.50)),
        ("driver.req_p99_us", stats::quantile(&request_us, 0.99)),
        ("driver.fo_over_std", fo_s / std_s),
        ("farm.guest_share", guest_share),
        ("farm.boot_share", boot_share),
        ("farm.unattributed_share", unattributed_share),
        ("farm.speedup_t2", wall_s / by_threads[1].fastest()),
        (
            "farm.cpu_per_wall",
            own_cpu_s / own_walls.iter().sum::<f64>(),
        ),
        ("conn.overhead_us_per_req", edge_cost_s * 1e6 / requests),
        ("conn.edge_share", edge_share),
        ("host.nproc", nproc() as f64),
        (
            "host.rep_wall_p50_ms",
            stats::quantile(own_walls, 0.50) * 1e3,
        ),
        (
            "host.rep_wall_p90_ms",
            stats::quantile(own_walls, 0.90) * 1e3,
        ),
        (
            "host.noise_ratio",
            stats::quantile(own_walls, 0.90) / stats::fast_decile(own_walls),
        ),
        ("trace.overhead_share", trace_overhead),
    ];

    let mut all_spans = tracer.into_spans();
    spans::append(&mut all_spans, best_spans);
    Ok(Traced {
        report,
        metrics: metrics::collect(&metrics::PER_LAYER, &values),
        spans: all_spans,
        notes,
    })
}
