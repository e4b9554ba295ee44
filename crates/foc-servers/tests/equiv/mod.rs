//! The one equivalence harness. Every execution path that ships — the
//! native tier or the baseline interpreter, the flat object table or
//! the reference map, a boot restored from the cache or booted cold
//! from a fresh compile, in process or over the socket edge, on one
//! thread or many — must leave exactly what the `baseline`/`reference`
//! oracle leaves: the same results, transcripts, [`Observation`]s and
//! farm reports, at every fuel budget. The relation is stated here
//! once, in six entry points:
//!
//! - [`tiers`] runs one [`Case`] (a program at both tiers, an entry, and
//!   the host-side set-up that builds the call's arguments) on both
//!   tiers and asserts the runs equal;
//! - [`sweep`] runs [`tiers`] at every fuel budget up to one past the
//!   run or the called function's largest region charge, whichever is
//!   more, and asserts that the top budget entered a native region;
//! - [`lattice`] drives one `INPUT_LIBRARY` entry at the four tier ×
//!   table points and at the shipped point over [`SOCKET_EDGE`], the
//!   rest restored from the boot cache and the oracle booted cold from
//!   an image compiled afresh, and asserts every point equals the
//!   oracle; [`seeded`] does the same at the four tier × table points
//!   for a farm stream drawn from [`RequestGen`];
//! - [`farm`] runs a whole farm at its oracle (one thread, one slice
//!   per server, the reference table, in process) and at three points
//!   that each move one axis off it — the table, the scheduling and the
//!   edge — and asserts the reports equal;
//! - [`validate::image`] checks every region of a native image against
//!   the bytecode it was lowered from, for every input at once
//!   (translation validation); [`images`] runs it on every program it
//!   compiles, so whatever a battery runs, its lowering is validated;
//! - [`gen`] writes random programs — a function and the helper it
//!   calls, over arrays, buffers, strings and pointers indexed in and out
//!   of bounds — and judges each with [`tiers`] at every mode × table
//!   point and [`sweep`] at one, shrinking a failure to a corpus file.
//!
//! A battery includes it as `mod equiv;` and is a list of cases.

// Each battery uses part of the harness.
#![allow(dead_code)]

pub mod gen;
pub mod validate;

use std::fmt::Debug;

use foc_compiler::{compile_image_tier, ExecTier, ProgramImage};
use foc_memory::addr::{GLOBAL_BASE, HEAP_BASE, STACK_BASE};
use foc_memory::TableKind;
use foc_servers::conn::{Edge, Scenario, SocketEdge};
use foc_servers::farm::{run_farm, FarmConfig, FarmReport, RequestGen};
use foc_servers::sweep::{drive_booted, drive_input, Driven, SweepInput};
use foc_servers::{BootSpec, Measured, Server, ServerEnv, ServerKind};
use foc_vm::{ExecProfile, Machine, MachineConfig, Observation, VmFault};

/// One program at both tiers: `[baseline, native]`.
pub type Images = [ProgramImage; 2];

/// Compiles `source` once per tier and validates every region of the
/// native image.
pub fn images(source: &str) -> Images {
    let images = [ExecTier::Baseline, ExecTier::Native]
        .map(|tier| compile_image_tier(source, tier).expect("source builds"));
    validate::image(&images[1]);
    images
}

/// Builds host-side state on a fresh machine — allocation churn,
/// builtin operands, pending input — and returns the call's arguments.
type Prep<'a> = Box<dyn Fn(&mut Machine) -> Vec<i64> + 'a>;

/// One call of `entry` on a fresh machine of either image, after
/// `prep`: both tiers replay the same host operations, so the
/// addresses agree.
pub struct Case<'a> {
    images: &'a Images,
    entry: &'a str,
    prep: Prep<'a>,
    memory: bool,
}

impl<'a> Case<'a> {
    /// `entry(args)` with nothing set up first.
    pub fn new(images: &'a Images, entry: &'a str, args: &[i64]) -> Case<'a> {
        let args = args.to_vec();
        Case::prep(images, entry, move |_| args.clone())
    }

    /// `entry` called with what `prep` returns.
    pub fn prep(
        images: &'a Images,
        entry: &'a str,
        prep: impl Fn(&mut Machine) -> Vec<i64> + 'a,
    ) -> Case<'a> {
        let (prep, memory) = (Box::new(prep), false);
        Case {
            images,
            entry,
            prep,
            memory,
        }
    }

    /// The same case comparing every byte of the three guest regions
    /// too (for configurations with small regions).
    pub fn with_memory(mut self) -> Case<'a> {
        self.memory = true;
        self
    }
}

/// Everything one call left observable.
#[derive(Debug, PartialEq, Eq)]
pub struct Run {
    pub result: Result<i64, VmFault>,
    pub seen: Observation,
    pub output: Vec<u8>,
    /// The global, heap and stack regions, if the case compares them.
    pub memory: Vec<Vec<u8>>,
}

fn run(case: &Case, image: &ProgramImage, config: &MachineConfig) -> (Run, ExecProfile) {
    let mut m = Machine::load(image.clone(), config.clone()).expect("load");
    let args = (case.prep)(&mut m);
    let result = m.call(case.entry, &args);
    let mem = &config.mem;
    let regions = [
        (GLOBAL_BASE, mem.global_len),
        (HEAP_BASE, mem.heap_len),
        (STACK_BASE, mem.stack_len),
    ];
    let memory = regions
        .iter()
        .filter(|_| case.memory)
        .map(|&(base, len)| m.space().read_bytes_raw(base, len as u64).expect("region"))
        .collect();
    let output = m.output().to_vec();
    let run = Run {
        result,
        seen: m.observe(),
        output,
        memory,
    };
    (run, m.exec_profile())
}

/// `case` on both tiers under `config`: asserts the runs equal and
/// returns the native one with its profile.
pub fn tiers(case: &Case, config: &MachineConfig) -> (Run, ExecProfile) {
    let [baseline, native] = case.images;
    let (reference, profile) = run(case, baseline, config);
    let native_work = profile.native_instrs + profile.span_instrs;
    assert_eq!(native_work, 0, "the baseline tier is the reference");
    let (got, profile) = run(case, native, config);
    let (mem, fuel) = (&config.mem, config.fuel_per_call);
    assert_eq!(
        reference, got,
        "{}: native diverges under {:?}/{:?}/{:?} at fuel {fuel}",
        case.entry, mem.mode, mem.table, mem.sequence
    );
    (got, profile)
}

/// [`tiers`] at every fuel budget from 0 to one past the run under
/// `config` or the called function's largest region charge, whichever
/// is more: a region is entered only with fuel for its whole charge, so
/// a sweep that stops below it never enters the longest superblock.
/// Returns the top budget's native run and profile, with every budget's
/// `fuel_short_exits` summed into it: those exits are what the lower
/// budgets reach.
pub fn sweep(case: &Case, config: &MachineConfig) -> (Run, ExecProfile) {
    let native = &case.images[1];
    let fid = native.func_index(case.entry).expect("function exists");
    let regions = &native.native_func(fid).expect("native image").regions;
    let most = regions.iter().map(|r| r.charge).max().unwrap_or(0);
    let (full, _) = run(case, &case.images[0], config);
    let top = full.seen.run.instrs.max(most) + 1;
    let mut config = config.clone();
    let mut short = 0;
    for fuel in 0..top {
        config.fuel_per_call = fuel;
        short += tiers(case, &config).1.fuel_short_exits;
    }
    config.fuel_per_call = top;
    let (run, mut profile) = tiers(case, &config);
    profile.fuel_short_exits += short;
    let (name, whole) = (case.entry, run.seen.run.instrs >= full.seen.run.instrs);
    assert!(whole && top > most, "{name}: the sweep stops short");
    assert!(profile.region_entries > 0, "{name}: no region entered");
    (run, profile)
}

/// The edge of [`lattice`]'s socket point: a slow-loris drip of two
/// bytes per event-loop turn, so every frame arrives as a run of
/// partial reads.
pub const SOCKET_EDGE: SocketEdge = SocketEdge {
    connections: 4,
    backlog: 8,
    flood: 0,
    scenario: Scenario::SlowLoris { chunk: 2 },
};

/// The four points of `spec`'s tier × table lattice: native/flat,
/// baseline/flat, native/reference, and the baseline/reference oracle
/// last.
fn points(spec: BootSpec) -> [BootSpec; 4] {
    let tiers = [ExecTier::Native, ExecTier::Baseline];
    let tables = [TableKind::Flat, TableKind::Reference];
    std::array::from_fn(|i| spec.with_tier(tiers[i % 2]).with_table(tables[i / 2]))
}

/// Runs `drive` at every point at once (it is told which point is the
/// last, the oracle) and asserts each result equals the oracle's.
fn judge<P, T>(what: &str, points: &[P], drive: impl Fn(&P, bool) -> T + Sync) -> T
where
    P: Debug + Sync,
    T: PartialEq + Debug + Send,
{
    let last = points.len() - 1;
    let mut seen: Vec<T> = std::thread::scope(|scope| {
        let drive = &drive;
        let running: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, point)| scope.spawn(move || drive(point, i == last)))
            .collect();
        running
            .into_iter()
            .map(|r| r.join().expect("a point panicked"))
            .collect()
    });
    let oracle = seen.pop().expect("an oracle point");
    for (point, got) in points.iter().zip(&seen) {
        assert_eq!(&oracle, got, "{what}: {point:?} diverges");
    }
    oracle
}

/// `input` under `spec` at the four tier × table points over the
/// in-process edge and at `spec` over [`SOCKET_EDGE`], the oracle
/// booted cold from an image compiled afresh; returns the oracle's
/// [`Driven`].
pub fn lattice(input: &SweepInput, spec: BootSpec) -> Driven {
    let what = format!("{}/{} {:?}", input.kind.name(), input.name, spec.mode);
    let [a, b, c, oracle] = points(spec).map(|spec| (spec, Edge::InProcess));
    let points = [a, b, c, (spec, Edge::Socket(SOCKET_EDGE)), oracle];
    judge(&what, &points, |(spec, edge), cold| {
        if !cold {
            return drive_input(input, spec, edge);
        }
        let image = input.kind.fresh_image_tier(spec.tier);
        let boot = |env: &ServerEnv| Server::boot_cold(input.kind, &image, spec, env);
        drive_booted(input, spec, edge, boot)
    })
}

/// Attacks per request in a [`seeded`] stream.
const ATTACKS: (u32, u32) = (1, 4);

/// The first `len` requests of `kind`'s seeded farm stream, while the
/// server serves, at the four tier × table points as [`lattice`] drives
/// them: the transcript and what the process left observable.
pub fn seeded(
    kind: ServerKind,
    spec: BootSpec,
    seed: u64,
    len: usize,
) -> (Vec<Measured>, Observation) {
    let what = format!("{} seed {seed} {:?}", kind.name(), spec.mode);
    judge(&what, &points(spec), |spec, cold| {
        let env = ServerEnv::standard();
        let mut server = if cold {
            Server::boot_cold(kind, &kind.fresh_image_tier(spec.tier), spec, env)
        } else {
            Server::boot(kind, spec, env)
        };
        let mut gen = RequestGen::new(seed);
        let mut steps = Vec::new();
        while steps.len() < len && server.usable() {
            let attack = gen.draw_attack(ATTACKS);
            let request = gen.generate(kind, attack);
            let measured = request.apply(&mut server);
            gen.observe(&request, measured.outcome.survived());
            steps.push(measured);
        }
        (steps, server.process().machine().observe())
    })
}

/// `config`'s farm at its oracle — one thread, one slice per server,
/// the reference table, in process — and at three points that each move
/// one axis off it: the flat table, two threads at a slice of one
/// request, and `socket`. Asserts every report equals the oracle's
/// ([`FarmReport`]'s equality leaves out exactly these axes) and
/// returns it.
pub fn farm(config: &FarmConfig, socket: SocketEdge) -> FarmReport {
    let what = format!(
        "{} farm {:?} seed {}",
        config.kind.name(),
        config.mode,
        config.seed
    );
    let oracle = config
        .clone()
        .with_threads(1)
        .with_slice(usize::MAX)
        .with_table(TableKind::Reference)
        .with_edge(Edge::InProcess);
    let points = [
        oracle.clone().with_table(TableKind::Flat),
        oracle.clone().with_threads(2).with_slice(1),
        oracle.clone().with_edge(Edge::Socket(socket)),
        oracle,
    ];
    judge(&what, &points, |config, _| run_farm(config))
}
