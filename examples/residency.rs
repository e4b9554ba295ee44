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
//! attack share. Everything printed comes from `Machine::exec_profile`,
//! `Machine::stats` and the space's lookup profile; a Bounds Check
//! process an attack kills is replaced the way the supervisor would, its
//! counts kept.
//!
//! What is not `native` is either a call/return instruction or a byte
//! iteration of a libc-shim builtin: `builtin` is the builtins' share of
//! all instructions, `span%` the share of those iterations retired
//! several at a time over a run of in-bounds bytes rather than byte by
//! byte through the checked routines (see `foc-vm/src/builtins.rs`).
//! `calls` and `locals` are guest function entries and the frame slots
//! they registered as data units — what ROADMAP item 2 prices a call by.
//! `committed` is the mean KiB of region storage a process held at the
//! end of its stream (`MemorySpace::footprint`): what a restart copies
//! and resident memory carries per server.
//! `ops/instr` is what the native executor dispatched — per region
//! entered: the entry, each op, the terminator — per instruction the
//! process retired: the count the lowering's folds and superblocks move
//! (0.55 / 0.87 / 0.87 / 1.02 before the folds; 0.0034 / 0.341 / 0.331 /
//! 0.403 before superblocks, which also cut `regions` from 193 720 /
//! 12 818 / 21 948 / 120 501; Pine 0.3144 before a pointer bump `p++`
//! was one op, `NOp::PtrInc`, and 0.2790 since; MC 0.0032 before
//! `io_wait` ran inside its region, `NOp::IoWait`, and 0.0028 since,
//! which also cut `regions` from 136 686 / 4 856 / 7 276 / 38 161 to
//! 59 886 / 4 776 / 7 236 / 38 144, `no-region` from 54 342 / 907 /
//! 897 / 1 361 to 3 110 / 827 / 857 / 1 344 and MC's `searches` from
//! 61 087 to 9 953). `exits` are the superblocks' side exits
//! taken: a branch a region ran on past that left it early after all.
//! `no-region` are stays that ended at a pc no region starts at: a
//! call, a return or a builtin call the native view did not complete;
//! `in-stay` are the builtin calls it did complete, the stay running on
//! past them (`ExecProfile::stay_builtins`; before it did, `no-region`
//! read 3 110 / 827 / 857 / 1 344 and `searches` 9 953 / 1 947 / 2 617 /
//! 3 466, now 580 / 296 / 356 / 360 and 9 688 / 1 760 / 2 080 / 2 827).
//! `batched%` is the share of all
//! instructions retired in counted-loop batches: passes of a copy loop
//! or a byte loop that stops at a sentinel, proven in bounds and run
//! without dispatch, so they count in `native` but not in `regions` or
//! `ops/instr` (MC's word copy; Apache's path copy and rewrite scan, which
//! cut its `ops/instr` from 0.2601 / 0.2509 to 0.1491 / 0.1194 and its
//! `regions` from 4 776 / 7 236 to 2 954 / 3 404, and MC's component
//! scan, 16 of its `regions`; no Pine loop has the shape), each batch one
//! `memmove` or, for a scan, none. `lookups` are the
//! object table's (`MemorySpace::lookup_profile`): every access the
//! native view's memo did not answer, plus the interpreter's and the
//! builtins'; `searches` those the table's own memo did not answer
//! either. `-- --check` exits 1 when a row exceeds one of its committed
//! ceilings (`ops/instr`, `regions`, `no-region`, `searches`,
//! `committed`) or falls below its committed `batched%` or `in-stay`
//! floor.

use failure_oblivious::memory::LookupProfile;
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
    lookups: LookupProfile,
    /// Committed bytes summed over the processes added, and how many.
    committed: u64,
    processes: u64,
}

impl Tally {
    fn add(&mut self, process: &Process) {
        let (stats, p) = (process.machine().stats(), process.machine().exec_profile());
        let space = process.machine().space();
        let table = space.lookup_profile();
        self.committed += space.footprint().committed;
        self.processes += 1;
        self.lookups.lookups += table.lookups;
        self.lookups.searches += table.searches;
        self.instrs += stats.instrs;
        self.calls += stats.calls;
        self.profile.native_instrs += p.native_instrs;
        self.profile.region_entries += p.region_entries;
        self.profile.native_ops += p.native_ops;
        self.profile.batches += p.batches;
        self.profile.batched_instrs += p.batched_instrs;
        self.profile.no_region_exits += p.no_region_exits;
        self.profile.fuel_short_exits += p.fuel_short_exits;
        self.profile.view_misses += p.view_misses;
        self.profile.faults += p.faults;
        self.profile.side_exits += p.side_exits;
        self.profile.builtin_calls += p.builtin_calls;
        self.profile.stay_builtins += p.stay_builtins;
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
        "{:<13} {:>10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>9} {:>7} {:>10} {:>9} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9}",
        "workload",
        "instrs",
        "native",
        "batched%",
        "builtin",
        "span%",
        "regions",
        "ops/instr",
        "exits",
        "no-region",
        "in-stay",
        "fuel-short",
        "view-miss",
        "faults",
        "calls",
        "locals",
        "lookups",
        "searches",
        "committed"
    );
    // Beside each row, the `ops/instr`, the `regions` entered, the
    // `no-region` exits and the table `searches` it may not exceed under
    // `--check`, the `batched%` it may not fall below, the `committed`
    // KiB it may not exceed and the `in-stay` builtin calls it may not
    // fall below: what the committed lowering, memos, commit rule and
    // view produce, `ops/instr` rounded (against the check) in the fourth
    // significant place. All seven repeat exactly, so any miss is a
    // regression, not noise — a fold, a superblock or a counted loop that
    // stopped forming, an `io_wait` that ends its region again, a builtin
    // call the view stopped completing, a memo that stopped serving, or a
    // region committing pages its guest never wrote; move a bound when
    // the code improves.
    let runs = [
        (
            "mc_copy",
            0.002838,
            59886,
            580,
            9688,
            99.21,
            60.0,
            2530,
            mc_run(),
        ),
        (
            "apache_edge",
            0.1491,
            2954,
            296,
            1760,
            51.49,
            24.0,
            531,
            apache_run(Mode::FailureOblivious, 8),
        ),
        (
            "apache_flood",
            0.1194,
            3404,
            356,
            2080,
            61.75,
            24.0,
            501,
            apache_run(Mode::BoundsCheck, 2),
        ),
        (
            "pine_mail",
            0.2790,
            38144,
            360,
            2827,
            0.0,
            132.0,
            984,
            pine_run(),
        ),
    ];
    let mut over = false;
    for (
        name,
        ceiling,
        region_ceiling,
        exit_ceiling,
        search_ceiling,
        batched_floor,
        committed_ceiling,
        stay_floor,
        t,
    ) in runs
    {
        let p = t.profile;
        let ops_per_instr = p.native_ops as f64 / t.instrs.max(1) as f64;
        if check && ops_per_instr > ceiling {
            eprintln!("residency --check: {name} dispatches {ops_per_instr:.4} ops/instr, committed ceiling {ceiling}");
            over = true;
        }
        if check && p.region_entries > region_ceiling {
            let entries = p.region_entries;
            eprintln!("residency --check: {name} entered {entries} regions, committed ceiling {region_ceiling}");
            over = true;
        }
        if check && p.no_region_exits > exit_ceiling {
            let exits = p.no_region_exits;
            eprintln!("residency --check: {name} left the native path {exits} times at a pc no region starts at, committed ceiling {exit_ceiling}");
            over = true;
        }
        if check && p.stay_builtins < stay_floor {
            let stayed = p.stay_builtins;
            eprintln!("residency --check: {name} completed {stayed} builtin calls in a native stay, committed floor {stay_floor}");
            over = true;
        }
        let searches = t.lookups.searches;
        if check && searches > search_ceiling {
            eprintln!("residency --check: {name} searched its object table {searches} times, committed ceiling {search_ceiling}");
            over = true;
        }
        let batched = 100.0 * p.batched_instrs as f64 / t.instrs.max(1) as f64;
        if check && batched < batched_floor {
            eprintln!("residency --check: {name} retired {batched:.2}% of its instructions in counted-loop batches, committed floor {batched_floor}%");
            over = true;
        }
        let committed = t.committed as f64 / t.processes.max(1) as f64 / 1024.0;
        if check && committed > committed_ceiling {
            eprintln!("residency --check: {name} commits {committed:.1} KiB per process, committed ceiling {committed_ceiling} KiB");
            over = true;
        }
        println!(
            "{:<13} {:>10} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>9} {:>9.4} {:>7} {:>9} {:>7} {:>10} {:>9} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9}",
            name,
            t.instrs,
            100.0 * p.native_instrs as f64 / t.instrs.max(1) as f64,
            batched,
            100.0 * p.builtin_instrs as f64 / t.instrs.max(1) as f64,
            100.0 * p.span_instrs as f64 / p.builtin_instrs.max(1) as f64,
            p.region_entries,
            ops_per_instr,
            p.side_exits,
            p.no_region_exits,
            p.stay_builtins,
            p.fuel_short_exits,
            p.view_misses,
            p.faults,
            t.calls,
            p.locals_registered,
            t.lookups.lookups,
            searches,
            format!("{committed:.1}K")
        );
    }
    if over {
        std::process::exit(1);
    }
}
