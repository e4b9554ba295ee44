//! Image-sharing equivalence: booting a server from the interned
//! per-kind image cache must be *observably identical* to compiling it
//! from source — byte-identical request transcripts (return codes,
//! output bytes or faults, virtual cycle charges) and equal
//! [`Observation`]s for all five servers under all five policies — and
//! every thread of a farm must observe the same [`ProgramId`] for a
//! kind.
//!
//! These tests are what lets the farm swap `compile_source` out of its
//! boot and restart paths without weakening the determinism contract:
//! if the cache ever served a stale or divergent image, the transcripts
//! here would split.

use proptest::prelude::*;

use failure_oblivious::compiler::{ExecTier, ProgramId};
use failure_oblivious::lang::pretty::print_unit;
use failure_oblivious::lang::{analyze, parse};
use failure_oblivious::memory::Mode;
use failure_oblivious::servers::apache::ApacheWorker;
use failure_oblivious::servers::farm::ServerKind;
use failure_oblivious::servers::mc::Mc;
use failure_oblivious::servers::mutt::Mutt;
use failure_oblivious::servers::pine::Pine;
use failure_oblivious::servers::sendmail::Sendmail;
use failure_oblivious::servers::{apache, mc, mutt, pine, sendmail, workload, BootSpec, Measured};
use failure_oblivious::vm::Observation;

/// Drives a fixed mixed benign/attack script against one server booted
/// either from the cache (`cached == true`) or from a fresh, uncached
/// compile, returning the full transcript and what the process left
/// observable.
fn transcript(
    kind: ServerKind,
    mode: Mode,
    cached: bool,
    seed: u64,
) -> (Vec<Measured>, Observation) {
    let image = if cached {
        kind.image()
    } else {
        kind.fresh_image()
    };
    let spec = BootSpec::new(kind, mode);
    let mut events = Vec::new();
    let observed = match kind {
        ServerKind::Apache => {
            let mut w = if cached {
                ApacheWorker::boot(mode)
            } else {
                ApacheWorker::boot_image_spec(&image, &spec)
            };
            for req in [
                b"/index.html".to_vec(),
                b"/rw/index.html".to_vec(),
                apache::attack_url(),
                b"/missing.html".to_vec(),
                b"/big.bin".to_vec(),
            ] {
                events.push(w.get(&req));
            }
            w.process().machine().observe()
        }
        ServerKind::Sendmail => {
            let mut s = if cached {
                Sendmail::boot(mode)
            } else {
                Sendmail::boot_image_spec(&image, &spec)
            };
            events.push(s.receive(
                &workload::sendmail_address(seed),
                &workload::sendmail_address(seed ^ 1),
                &workload::lorem(120, seed),
            ));
            events.push(s.wakeup());
            events.push(s.receive(
                &sendmail::attack_address(40),
                &workload::sendmail_address(seed ^ 2),
                b"attack payload",
            ));
            events.push(s.send(
                &workload::sendmail_address(seed ^ 3),
                &workload::lorem(100, seed ^ 3),
            ));
            s.process().machine().observe()
        }
        ServerKind::Pine => {
            let mailbox = Pine::standard_mailbox(3);
            let mut p = if cached {
                Pine::boot(mode, mailbox)
            } else {
                Pine::boot_image_spec(&image, &spec, mailbox)
            };
            events.push(p.read(0));
            events.push(p.deliver(
                &workload::from_field(seed),
                b"new mail",
                &workload::lorem(250, seed),
            ));
            events.push(p.deliver(&pine::attack_from(40), b"pwn", b"payload"));
            events.push(p.compose());
            events.push(p.read(1));
            p.process().machine().observe()
        }
        ServerKind::Mutt => {
            let mut m = if cached {
                Mutt::boot(mode, 2)
            } else {
                Mutt::boot_image_spec(&image, &spec, 2)
            };
            events.push(m.open_folder(b"INBOX"));
            events.push(m.read_message(0));
            events.push(m.open_folder(&mutt::attack_folder_name(40)));
            events.push(m.open_folder(b"work"));
            m.process().machine().observe()
        }
        ServerKind::Mc => {
            let mut m = if cached {
                Mc::boot(mode, &mc::clean_config())
            } else {
                Mc::boot_image_spec(&image, &spec, &mc::clean_config())
            };
            events.push(m.copy(b"/home/user/data.bin", b"/tmp/c1"));
            events.push(m.mkdir(b"/tmp/d1"));
            events.push(m.open_archive(&mc::attack_links()));
            events.push(m.component_end(b"usr/share/component/lib"));
            events.push(m.delete(b"/tmp/c1"));
            m.process().machine().observe()
        }
    };
    (events, observed)
}

#[test]
fn cached_boot_transcripts_match_from_source_boots_everywhere() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let cached = transcript(kind, mode, true, 0xF0C);
            let fresh = transcript(kind, mode, false, 0xF0C);
            assert_eq!(
                cached,
                fresh,
                "{} under {:?}: cached-image transcript must be byte-identical to from-source",
                kind.name(),
                mode
            );
        }
    }
}

#[test]
fn cached_and_fresh_images_share_a_program_id() {
    for kind in ServerKind::ALL {
        assert_eq!(
            kind.image().id(),
            kind.fresh_image().id(),
            "{}: the cache must serve exactly what a cold compile produces",
            kind.name()
        );
    }
}

/// Every server's compiled program, pinned: (kind, native-tier id,
/// baseline-tier id, instructions). A front-end or lowering change that
/// claims bit-identical bytecode must leave all fifteen values alone; a
/// change that moves one on purpose re-derives it here and says why.
const PINNED_IMAGES: [(ServerKind, u64, u64, usize); 5] = [
    (
        ServerKind::Apache,
        0xa4b5_234e_eb32_6fa0,
        0xe7e0_ca28_e346_4c04,
        702,
    ),
    (
        ServerKind::Sendmail,
        0x1e4a_7414_b54e_d330,
        0x6d75_69c1_8469_8ed4,
        868,
    ),
    (
        ServerKind::Pine,
        0x2169_ae57_e18a_a30e,
        0x251e_0f40_28ff_7b7a,
        853,
    ),
    (
        ServerKind::Mutt,
        0x0555_e68f_0086_2eb1,
        0x694f_43a8_46bf_58a7,
        1_170,
    ),
    (
        ServerKind::Mc,
        0xb96d_4967_7925_afc2,
        0xaed9_97ea_9bac_a66e,
        703,
    ),
];

#[test]
fn every_server_compiles_to_its_pinned_bytecode() {
    for (kind, native, baseline, instrs) in PINNED_IMAGES {
        for (tier, pinned) in [(ExecTier::Native, native), (ExecTier::Baseline, baseline)] {
            let image = kind.fresh_image_tier(tier);
            assert_eq!(
                image.id().as_u64(),
                pinned,
                "{} at the {} tier: ProgramId {} moved",
                kind.name(),
                tier.label(),
                image.id()
            );
            let count: usize = image.program().funcs.iter().map(|f| f.code.len()).sum();
            assert_eq!(count, instrs, "{}: instruction count moved", kind.name());
        }
    }
}

/// The front end's output beyond the bytecode: each server's source,
/// printed from its syntax tree, reparses to a tree that prints the same
/// text and type-checks to the same HIR. (The fixed-source companion of
/// `foc-lang`'s `well_formed_programs_round_trip`, which cannot name the
/// servers.)
#[test]
fn every_server_source_round_trips_through_the_printer() {
    for kind in ServerKind::ALL {
        let first = parse(kind.source()).expect("server source parses");
        let printed = print_unit(&first);
        let second = parse(&printed)
            .unwrap_or_else(|e| panic!("{}: printed source fails to parse: {e}", kind.name()));
        assert_eq!(
            print_unit(&second),
            printed,
            "{}: reprint moved",
            kind.name()
        );
        let (a, b) = (analyze(&first), analyze(&second));
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: HIR moved",
            kind.name()
        );
    }
}

#[test]
fn concurrent_farm_threads_observe_one_program_id_per_kind() {
    // Race eight threads at the cache from a fresh process state; every
    // observer of every kind must agree on the id (OnceLock publishes
    // exactly one image) and agree with an independent cold compile.
    let observed: Vec<Vec<(ServerKind, ProgramId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    ServerKind::ALL
                        .iter()
                        .map(|&kind| (kind, kind.image().id()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for kind in ServerKind::ALL {
        let reference = kind.fresh_image().id();
        for per_thread in &observed {
            let &(_, id) = per_thread
                .iter()
                .find(|(k, _)| *k == kind)
                .expect("every thread observed every kind");
            assert_eq!(
                id,
                reference,
                "{}: a farm thread observed a divergent ProgramId",
                kind.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The transcript equivalence holds for arbitrary workload seeds,
    /// not just the fixed script — request *content* cannot drive the
    /// cached and from-source programs apart. (Pine and Sendmail
    /// thread the seed through their generated mail; one
    /// failure-oblivious and one terminating policy cover both
    /// continuation behaviours.)
    #[test]
    fn transcripts_match_for_arbitrary_workload_seeds(seed in any::<u64>()) {
        for kind in [ServerKind::Pine, ServerKind::Sendmail] {
            for mode in [Mode::FailureOblivious, Mode::BoundsCheck] {
                let cached = transcript(kind, mode, true, seed);
                let fresh = transcript(kind, mode, false, seed);
                prop_assert_eq!(
                    cached,
                    fresh,
                    "{} under {:?} diverged at seed {:#x}",
                    kind.name(),
                    mode,
                    seed
                );
            }
        }
    }
}
