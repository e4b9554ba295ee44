//! Native residency: how much of each benchmark server's guest work
//! runs inside native regions, and why the rest does not.
//!
//! ```text
//! cargo run --release --example residency [-- --check]
//! ```
//!
//! One process per `BENCHMARK.json` workload kind, booted through
//! `BootSpec::new` (the shipped default) over the farm's standard
//! environment and driven through the farm's request classes in their
//! stream weights — ten benign requests per round plus the workload's
//! attack share. Everything printed comes from `Machine::exec_profile`
//! and `Machine::stats`; a Bounds Check process an attack kills is
//! replaced the way the supervisor would, its counts kept.
//!
//! What is not `native` is either a call/return instruction or a byte
//! iteration of a libc-shim builtin: `builtin` is the builtins' share of
//! all instructions, `span%` the share of those iterations retired
//! several at a time over a run of in-bounds bytes rather than byte by
//! byte through the checked routines (see `foc-vm/src/builtins.rs`).
//! `calls` and `locals` are guest function entries and the frame slots
//! they registered as data units — what ROADMAP item 2 prices a call by.
//! `ops/instr` is what the native executor dispatched — per region
//! entered: the entry, each op, the terminator — per instruction the
//! process retired: the count the lowering's folds move (0.55 / 0.87 /
//! 0.87 / 1.02 before PR 19). `-- --check` exits 1 when a row exceeds
//! its committed ceiling.

use failure_oblivious::servers::{apache, image, mc, pine, workload};
use failure_oblivious::servers::{BootSpec, Process, ServerKind};
use failure_oblivious::vm::ExecProfile;
use failure_oblivious::Mode;

const ROUNDS: u64 = 8;

#[derive(Default)]
struct Tally {
    instrs: u64,
    calls: u64,
    profile: ExecProfile,
}

impl Tally {
    fn add(&mut self, process: &Process) {
        let (stats, p) = (process.machine().stats(), process.machine().exec_profile());
        self.instrs += stats.instrs;
        self.calls += stats.calls;
        self.profile.native_instrs += p.native_instrs;
        self.profile.region_entries += p.region_entries;
        self.profile.native_ops += p.native_ops;
        self.profile.no_region_exits += p.no_region_exits;
        self.profile.fuel_short_exits += p.fuel_short_exits;
        self.profile.view_misses += p.view_misses;
        self.profile.faults += p.faults;
        self.profile.builtin_calls += p.builtin_calls;
        self.profile.builtin_instrs += p.builtin_instrs;
        self.profile.span_instrs += p.span_instrs;
        self.profile.locals_registered += p.locals_registered;
    }
}

fn apache_run(mode: Mode, attack_every: u64) -> Tally {
    let spec = BootSpec::new(ServerKind::Apache, mode);
    let mut tally = Tally::default();
    let mut worker = apache::ApacheWorker::boot_spec(&spec);
    let benign: [&[u8]; 10] = [
        b"/index.html",
        b"/index.html",
        b"/rw/index.html",
        b"/index.html",
        b"/big.bin",
        b"/index.html",
        b"/rw/index.html",
        b"/index.html",
        b"/nosuchpage.html",
        b"/index.html",
    ];
    for i in 0..ROUNDS * 10 {
        if i % attack_every == attack_every - 1 {
            worker.get(&apache::attack_url());
        } else {
            worker.get(benign[(i % 10) as usize]);
        }
        if worker.is_dead() {
            tally.add(worker.process());
            worker = apache::ApacheWorker::boot_spec(&spec);
        }
    }
    tally.add(worker.process());
    tally
}

fn mc_run() -> Tally {
    let spec = BootSpec::new(ServerKind::Mc, Mode::FailureOblivious);
    let mut m = mc::Mc::boot_spec(&spec, image::standard_mc_config());
    for i in 0..ROUNDS * 10 {
        let name = format!("/tmp/copy{i}").into_bytes();
        match i % 10 {
            7 => m.open_archive(&mc::attack_links()),
            0..=3 => m.copy(b"/home/user/data.bin", &name),
            4 | 5 => m.mkdir(&name),
            6 | 8 => m.component_end(b"usr/share/component/lib"),
            _ => m.delete(&format!("/tmp/copy{}", i - 6).into_bytes()),
        };
    }
    let mut tally = Tally::default();
    tally.add(m.process());
    tally
}

fn pine_run() -> Tally {
    let spec = BootSpec::new(ServerKind::Pine, Mode::FailureOblivious);
    let mut p = pine::Pine::boot_spec(&spec, image::standard_pine_mailbox().clone());
    let mut messages = image::PINE_SEED_MESSAGES as i64;
    for i in 0..ROUNDS * 10 {
        let outcome = match i % 10 {
            7 => p.deliver(&pine::attack_from(40), b"pwn", b"payload"),
            0..=2 => p.deliver(
                &workload::from_field(i),
                b"new mail",
                &workload::lorem(300, i),
            ),
            3..=6 => p.read(i as i64 % messages),
            8 => p.compose(),
            _ => p.move_message(i as i64 % messages),
        };
        if matches!(i % 10, 0..=2 | 7) && outcome.outcome.survived() {
            messages += 1;
        }
    }
    let mut tally = Tally::default();
    tally.add(p.process());
    tally
}

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") => true,
        Some(other) => {
            eprintln!("residency: unknown argument `{other}` (only `--check`)");
            std::process::exit(2);
        }
    };
    println!(
        "{:<13} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>10} {:>9} {:>6} {:>7} {:>7}",
        "workload",
        "instrs",
        "native",
        "builtin",
        "span%",
        "regions",
        "ops/instr",
        "no-region",
        "fuel-short",
        "view-miss",
        "faults",
        "calls",
        "locals"
    );
    // Beside each row, the `ops/instr` it may not exceed under
    // `--check`: what the committed lowering produces, rounded up in the
    // fourth place. The count repeats exactly, so any excess is a
    // lowering regression, not noise; lower a ceiling when the lowering
    // improves.
    let runs = [
        ("mc_copy", 0.1838, mc_run()),
        ("apache_edge", 0.3408, apache_run(Mode::FailureOblivious, 8)),
        ("apache_flood", 0.3310, apache_run(Mode::BoundsCheck, 2)),
        ("pine_mail", 0.4030, pine_run()),
    ];
    let mut over = false;
    for (name, ceiling, t) in runs {
        let p = t.profile;
        let ops_per_instr = p.native_ops as f64 / t.instrs.max(1) as f64;
        if check && ops_per_instr > ceiling {
            eprintln!("residency --check: {name} dispatches {ops_per_instr:.4} ops/instr, committed ceiling {ceiling}");
            over = true;
        }
        println!(
            "{:<13} {:>10} {:>7.2}% {:>7.2}% {:>7.2}% {:>9} {:>9.4} {:>9} {:>10} {:>9} {:>6} {:>7} {:>7}",
            name,
            t.instrs,
            100.0 * p.native_instrs as f64 / t.instrs.max(1) as f64,
            100.0 * p.builtin_instrs as f64 / t.instrs.max(1) as f64,
            100.0 * p.span_instrs as f64 / p.builtin_instrs.max(1) as f64,
            p.region_entries,
            ops_per_instr,
            p.no_region_exits,
            p.fuel_short_exits,
            p.view_misses,
            p.faults,
            t.calls,
            p.locals_registered
        );
    }
    if over {
        std::process::exit(1);
    }
}
