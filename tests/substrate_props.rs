//! Property tests for the memory substrate, the workload generators,
//! and the farm harness's determinism contract.
//!
//! These pin down the three foundations every experiment rests on:
//!
//! 1. **Manufactured values** follow the paper's §3 sequence — groups of
//!    `0, 1, k` with `k = 2, 3, 4, …` (the "0,1,2, 0,1,3, …" pattern
//!    that favours the common values 0 and 1 while still iterating
//!    through all small integers);
//! 2. **Out-of-bounds writes never corrupt adjacent live objects** under
//!    any checked policy — discarding (FO), out-of-band storage
//!    (Boundless), and in-unit wrapping (Redirect) all confine damage to
//!    the accessed data unit;
//! 3. **Workloads and farm runs are reproducible**: the same seed yields
//!    the same bytes, and the same farm config yields the same
//!    [`FarmReport`] no matter how many OS threads drive it.
//!
//! And two assumptions the substrate's design rests on: **no guest holds
//! more than a few dozen live data units at once**, which is why the
//! object table is a sorted vector, and **a process commits what it
//! touched, not what it reserved**, which is why a restart — a copy of
//! the committed windows — costs microseconds.

use proptest::prelude::*;

use failure_oblivious::memory::{
    AccessCtx, AccessSize, Manufacturer, MemConfig, MemorySpace, Mode, ValueSequence,
};
use failure_oblivious::servers::conn::Edge;
use failure_oblivious::servers::farm::{run_farm, FarmConfig, ServerKind};
use failure_oblivious::servers::sweep::{drive_input, INPUT_LIBRARY};
use failure_oblivious::servers::{apache, mc, mutt, pine, sendmail, workload, BootSpec, Process};

const CTX: AccessCtx = AccessCtx { func: 0, pc: 0 };

// ---------------------------------------------------------------------
// Manufactured-value sequence.
// ---------------------------------------------------------------------

#[test]
fn manufactured_sequence_starts_zero_one_two() {
    // The concrete opening of the paper's sequence: 0, 1, 2, 0, 1, 3, …
    let mut m = Manufacturer::new(ValueSequence::default());
    let head: Vec<u64> = (0..9).map(|_| m.next_value()).collect();
    assert_eq!(head, vec![0, 1, 2, 0, 1, 3, 0, 1, 4]);
}

#[test]
fn invalid_reads_consume_the_sequence_in_order() {
    // Reads through an out-of-bounds pointer manufacture 0, 1, 2, …
    let mut space = MemorySpace::new(MemConfig::with_mode(Mode::FailureOblivious));
    let p = space.malloc(8).unwrap();
    let mut seen = Vec::new();
    for i in 0..6 {
        let q = space.ptr_add(p, 64 + i); // far out of bounds
        seen.push(space.load(q, AccessSize::B1, CTX).unwrap().value);
        let back = space.ptr_add(q, -(64 + i));
        assert_eq!(back, p, "pointer must walk back in-bounds");
    }
    assert_eq!(seen, vec![0, 1, 2, 0, 1, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every group of three is `0, 1, k` with `k` stepping 2, 3, …, and
    /// wrapping back to 2 — for any wrap limit.
    #[test]
    fn manufactured_sequence_is_grouped_zero_one_k(wrap in 3u64..200, groups in 2usize..60) {
        let mut m = Manufacturer::new(ValueSequence::Cycling { wrap });
        let mut expected_k = 2u64;
        for g in 0..groups {
            prop_assert_eq!(m.next_value(), 0, "group {} position 0", g);
            prop_assert_eq!(m.next_value(), 1, "group {} position 1", g);
            prop_assert_eq!(m.next_value(), expected_k, "group {} position 2", g);
            expected_k += 1;
            if expected_k >= wrap {
                expected_k = 2;
            }
        }
    }

    /// Out-of-bounds stores through a wandering pointer never reach any
    /// *other* live data unit, under every policy that continues (and
    /// under Bounds Check the first violation is reported, not applied).
    #[test]
    fn oob_writes_never_corrupt_adjacent_live_objects(
        offsets in proptest::collection::vec(-160i64..192, 1..48),
        mode_pick in 0u8..4,
    ) {
        let mode = [
            Mode::FailureOblivious,
            Mode::Boundless,
            Mode::Redirect,
            Mode::BoundsCheck,
        ][mode_pick as usize];
        let mut space = MemorySpace::new(MemConfig::with_mode(mode));

        // Two victims bracketing the attacker allocation.
        let left = space.malloc(32).unwrap();
        let attacker = space.malloc(16).unwrap();
        let right = space.malloc(32).unwrap();
        for i in 0..4u64 {
            space.store(left + i * 8, AccessSize::B8, 0x1111_0000 + i, CTX).unwrap();
            space.store(right + i * 8, AccessSize::B8, 0x2222_0000 + i, CTX).unwrap();
        }

        for off in offsets {
            let p = space.ptr_add(attacker, off);
            let in_bounds = (0..16).contains(&off);
            match space.store(p, AccessSize::B8, 0xDEAD_BEEF, CTX) {
                Ok(_) => {}
                Err(fault) => {
                    // Only the terminating policy may fault, and only on
                    // an actual violation.
                    prop_assert_eq!(mode, Mode::BoundsCheck, "{} faulted: {}", mode.name(), fault);
                    prop_assert!(!in_bounds, "in-bounds store faulted at {}", off);
                    break; // the process would be dead here
                }
            }
        }

        for i in 0..4u64 {
            let l = space.load(left + i * 8, AccessSize::B8, CTX).unwrap().value;
            prop_assert_eq!(l, 0x1111_0000 + i, "left victim word {} corrupted ({})", i, mode.name());
            let r = space.load(right + i * 8, AccessSize::B8, CTX).unwrap().value;
            prop_assert_eq!(r, 0x2222_0000 + i, "right victim word {} corrupted ({})", i, mode.name());
        }
    }

    /// Workload generators are pure functions of their seed.
    #[test]
    fn workload_generators_are_seed_deterministic(seed in any::<u64>(), len in 1usize..2000) {
        prop_assert_eq!(workload::lorem(len, seed), workload::lorem(len, seed));
        prop_assert_eq!(workload::from_field(seed), workload::from_field(seed));
        prop_assert_eq!(workload::sendmail_address(seed), workload::sendmail_address(seed));
        let text = workload::lorem(len, seed);
        prop_assert!(!text.is_empty() && text.len() <= len.max(1));
        prop_assert!(!text.contains(&0), "workload text must stay NUL-free");
    }

    /// Different seeds give different request bytes (no seed collapse).
    #[test]
    fn workload_seeds_actually_vary_the_stream(seed in any::<u64>()) {
        let a = workload::lorem(600, seed);
        let b = workload::lorem(600, seed.wrapping_add(1));
        prop_assert_ne!(a, b);
    }
}

// ---------------------------------------------------------------------
// Farm determinism.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary seeds, the farm's report is invariant under the
    /// thread count (the unit of determinism is the server stream).
    #[test]
    fn farm_reports_are_thread_count_invariant_for_any_seed(seed in any::<u64>()) {
        let mut config = FarmConfig::new(ServerKind::Apache, Mode::BoundsCheck);
        config.servers = 3;
        config.requests_per_server = 8;
        config.seed = seed;
        let sequential = run_farm(&config.clone().with_threads(1));
        let parallel = run_farm(&config.with_threads(3));
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.stats.requests, 24);
    }
}

/// The acceptance-criteria configuration: at least 4 worker threads, at
/// least 100 requests per server, identical reports at 1, 2, 4, and 8
/// threads under the work-stealing scheduler — including repeated runs
/// at the same thread count and across scheduling grains.
#[test]
fn farm_acceptance_four_threads_hundred_requests() {
    for kind in [ServerKind::Apache, ServerKind::Pine] {
        let mut config = FarmConfig::new(kind, Mode::FailureOblivious);
        config.servers = 6;
        config.requests_per_server = 100;
        let base = run_farm(&config.clone().with_threads(4));
        assert_eq!(base.stats.requests, 600);
        assert_eq!(
            base.stats.completed,
            600,
            "{}: FO farm must answer all requests",
            kind.name()
        );
        for threads in [1usize, 2, 4, 8] {
            let other = run_farm(&config.clone().with_threads(threads));
            assert_eq!(
                base,
                other,
                "{}: report must not depend on thread count {}",
                kind.name(),
                threads
            );
        }
        // The work-stealing grain shuffles which thread serves which
        // slice; the measured data must not notice.
        for slice in [1usize, 7, 1000] {
            let other = run_farm(&config.clone().with_threads(4).with_slice(slice));
            assert_eq!(
                base,
                other,
                "{}: report must not depend on slice grain {}",
                kind.name(),
                slice
            );
        }
    }
}

// ---------------------------------------------------------------------
// Live units and committed bytes per space: the traffic assumptions
// behind the object table and the restart path.
// ---------------------------------------------------------------------

/// Ceiling on simultaneously live data units in one guest process. The
/// servers peak at 36 (Apache; Sendmail 33, Mutt 28, MC 24, Pine 23).
const LIVE_UNIT_CEILING: usize = 64;

/// Requests per (server, mode) stream.
const STREAM_REQUESTS: u64 = 200;

fn assert_few_live_units(peak: usize, what: &str) {
    assert!(
        peak <= LIVE_UNIT_CEILING,
        "{what}: {peak} data units live at once (ceiling {LIVE_UNIT_CEILING}). The object \
         table is a sorted vector because no guest holds more than a few dozen live units; \
         a guest that does re-opens ROADMAP item 1"
    );
}

/// Serves [`STREAM_REQUESTS`] requests, rebooting the server whenever it
/// stops being usable (a request that finds it dead even after the
/// reboot is dropped), and runs `check` on every process the stream went
/// through: as booted, as a restart replaces it, and the last.
fn stream<T>(
    boot: impl Fn() -> T,
    process: impl Fn(&T) -> &Process,
    usable: impl Fn(&T) -> bool,
    mut request: impl FnMut(&mut T, u64),
    check: impl Fn(&Process),
) {
    let mut server = boot();
    check(process(&server));
    for i in 0..STREAM_REQUESTS {
        if !usable(&server) {
            check(process(&server));
            server = boot();
            check(process(&server));
            if !usable(&server) {
                continue;
            }
        }
        request(&mut server, i);
    }
    check(process(&server));
}

/// One server's stream: legitimate traffic with the server's attack as
/// every fifth request (arm `2`), over the standard environment.
fn stream_server(kind: ServerKind, spec: &BootSpec, check: impl Fn(&Process)) {
    match kind {
        ServerKind::Apache => stream(
            || apache::ApacheWorker::boot_spec(spec),
            |w| w.process(),
            |w| !w.is_dead(),
            |w, i| {
                let _ = match i % 5 {
                    2 => w.get(&apache::attack_url()),
                    0 => w.get(b"/index.html"),
                    1 => w.get(&workload::apache_url(3 + (i % 4) as usize)),
                    3 => w.get(b"/big.bin"),
                    _ => w.get(b"/nosuchpage.html"),
                };
            },
            check,
        ),
        ServerKind::Sendmail => stream(
            || sendmail::Sendmail::boot_spec(spec),
            |s| s.process(),
            |s| s.usable(),
            |s, i| {
                let _ = match i % 5 {
                    2 => s.receive(
                        &sendmail::attack_address(40),
                        &workload::sendmail_address(i),
                        b"attack payload",
                    ),
                    0 | 1 => s.receive(
                        &workload::sendmail_address(i),
                        &workload::sendmail_address(100 + i),
                        &workload::lorem(160, i),
                    ),
                    3 => s.send(
                        &workload::sendmail_address(200 + i),
                        &workload::lorem(200, i),
                    ),
                    _ => s.wakeup(),
                };
            },
            check,
        ),
        ServerKind::Pine => stream(
            || pine::Pine::boot_spec(spec, pine::Pine::standard_mailbox(3)),
            |p| p.process(),
            |p| p.usable(),
            |p, i| {
                let _ = match i % 5 {
                    2 => p.deliver(&pine::attack_from(40), b"pwn", b"payload"),
                    0 => p.deliver(
                        &workload::from_field(i),
                        b"new mail",
                        &workload::lorem(300, i),
                    ),
                    1 => p.read((i % 3) as i64),
                    3 => p.compose(),
                    _ => p.move_message((i % 3) as i64),
                };
            },
            check,
        ),
        ServerKind::Mutt => stream(
            || mutt::Mutt::boot_spec(spec, 2),
            |m| m.process(),
            |m| !m.process().is_dead(),
            |m, i| {
                let _ = match i % 5 {
                    2 => m.open_folder(&mutt::attack_folder_name(40)),
                    0 => m.open_folder(b"INBOX"),
                    1 | 3 => m.read_message((i % 2) as i64),
                    _ => m.open_folder(b"work"),
                };
            },
            check,
        ),
        ServerKind::Mc => stream(
            || mc::Mc::boot_spec(spec, &mc::clean_config()),
            |m| m.process(),
            |m| m.usable(),
            |m, i| {
                let _ = match i % 5 {
                    2 => m.open_archive(&mc::attack_links()),
                    // One request in twenty-five copies the 3 MiB file.
                    0 if i % 25 == 0 => {
                        m.copy(b"/home/user/data.bin", format!("/tmp/c{i}").as_bytes())
                    }
                    0 => m.delete(format!("/tmp/d{}", i - 4).as_bytes()),
                    1 => m.mkdir(format!("/tmp/d{i}").as_bytes()),
                    3 => m.component_end(b"usr/share/component/lib"),
                    _ => m.delete(format!("/tmp/c{}", i - i % 25).as_bytes()),
                };
            },
            check,
        ),
    }
}

/// All five servers under all five modes.
#[test]
fn no_guest_holds_more_than_a_few_dozen_live_units() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let what = format!("{} under {mode:?}", kind.name());
            stream_server(kind, &BootSpec::new(kind, mode), |p| {
                assert_few_live_units(p.machine().space().unit_store().slot_count(), &what)
            });
        }
    }
}

/// Committed bytes a process may hold beyond twice what its allocators
/// handed out. Six pages are the growth rule's own rounding (`addr.rs`:
/// a window grown from its region's edge stays within two pages of
/// 2 × touched, and there are three); the other two are the resting
/// stack, whose window outlives the frames that grew it. Apache boots at
/// 24 KiB committed for 1.7 KiB handed out, Sendmail 16 / 5.4, MC
/// 60 / 21, Mutt 164 / 140, Pine 188 / 171.
const FOOTPRINT_ALLOWANCE: u64 = 8 * 4096;

fn assert_commits_what_it_touched(process: &Process, what: &str) {
    let f = process.machine().space().footprint();
    assert!(
        f.committed <= 2 * f.handed_out + FOOTPRINT_ALLOWANCE,
        "{what}: {} bytes committed for {} handed out. A checkpoint restore copies the \
         committed windows; a window sized by reservation instead of touch re-opens ISSUE 18",
        f.committed,
        f.handed_out
    );
}

/// All five servers on the shipped default and on the oracle, in the two
/// modes the benchmark restarts and serves under: as booted, and through
/// the attack-mixed stream.
#[test]
fn a_process_commits_what_it_touched() {
    for kind in ServerKind::ALL {
        for mode in [Mode::FailureOblivious, Mode::BoundsCheck] {
            for (name, spec) in [
                ("default", BootSpec::new(kind, mode)),
                ("oracle", BootSpec::oracle(kind, mode)),
            ] {
                let what = format!("{} under {mode:?} ({name})", kind.name());
                stream_server(kind, &spec, |p| assert_commits_what_it_touched(p, &what));
            }
        }
    }
}

/// The sweep's input library, every input under every mode.
#[test]
fn no_sweep_input_holds_more_than_a_few_dozen_live_units() {
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let driven = drive_input(input, &BootSpec::new(input.kind, mode), &Edge::InProcess);
            let what = format!("{}/{} under {mode:?}", input.kind.name(), input.name);
            assert_few_live_units(driven.peak_units, &what);
        }
    }
}
