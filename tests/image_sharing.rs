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

use failure_oblivious::compiler::ProgramId;
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
