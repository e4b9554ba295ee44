//! Frozen-boot equivalence: a server cloned from its frozen boot must
//! be **byte-identical** to one that booted from scratch — equal
//! transcripts (per request: return code, output bytes or fault,
//! virtual cycles) and equal [`Observation`]s.
//!
//! Boots are pure functions of `(image, spec, environment)`, so the
//! boot cache is sound exactly when nothing observable can tell a
//! cloned process from a freshly booted one. The battery drives both
//! flavours through the §4/§5.1 attack library for all five servers ×
//! all five modes, then stresses the stateful case — Pine's
//! spec-preserving restart, which restores a pre-index base and replays
//! only the mailbox delta — against a full-replay reference, including
//! poisoned-mailbox restart chains and proptests over workload seeds
//! and restart counts.

use std::borrow::Cow;

use proptest::prelude::*;

use failure_oblivious::memory::Mode;
use failure_oblivious::servers::conn::Edge;
use failure_oblivious::servers::image::ServerKind;
use failure_oblivious::servers::{
    apache, mc, mutt, pine, sendmail, workload, BootSpec, Measured, Request, Server, ServerEnv,
};
use failure_oblivious::vm::Observation;

/// One server's benign + §4/§5.1 attack script.
fn script(kind: ServerKind) -> Vec<Request> {
    let get = |path| Request::ApacheGet { path };
    let folder = |name| Request::MuttOpenFolder { name };
    match kind {
        ServerKind::Apache => vec![
            get(Cow::Borrowed(b"/index.html")),
            get(Cow::Owned(apache::attack_url())),
            get(Cow::Borrowed(b"/rw/index.html")),
            get(Cow::Borrowed(b"/big.bin")),
        ],
        ServerKind::Sendmail => vec![
            Request::SendmailReceive {
                from: Cow::Owned(workload::sendmail_address(1)),
                to: Cow::Owned(workload::sendmail_address(2)),
                body: Cow::Borrowed(b"body one"),
            },
            Request::SendmailReceive {
                from: Cow::Owned(sendmail::attack_address(40)),
                to: Cow::Owned(workload::sendmail_address(3)),
                body: Cow::Borrowed(b"attack payload"),
            },
            Request::SendmailWakeup,
            Request::SendmailSend {
                to: Cow::Owned(workload::sendmail_address(4)),
                body: Cow::Borrowed(b"outbound"),
            },
        ],
        ServerKind::Pine => vec![
            Request::PineRead { index: 0 },
            Request::PineDeliver {
                from: Cow::Owned(pine::attack_from(40)),
                subject: Cow::Borrowed(b"pwn"),
                body: Cow::Borrowed(b"payload"),
            },
            Request::PineCompose,
            Request::PineRead { index: 2 },
            Request::PineMove { index: 1 },
        ],
        ServerKind::Mutt => vec![
            folder(Cow::Borrowed(b"INBOX")),
            folder(Cow::Owned(mutt::attack_folder_name(40))),
            Request::MuttRead { index: 0 },
            folder(Cow::Borrowed(b"work")),
        ],
        ServerKind::Mc => vec![
            Request::McCopy {
                src: Cow::Borrowed(b"/home/user/data.bin"),
                dst: Cow::Borrowed(b"/tmp/c1"),
            },
            Request::McOpenArchive {
                links: Cow::Owned(mc::attack_links()),
            },
            Request::McComponentEnd {
                name: Cow::Borrowed(b"usr/share/component/lib"),
            },
            Request::McMkdir {
                path: Cow::Borrowed(b"/tmp/d"),
            },
            Request::McDelete {
                path: Cow::Borrowed(b"/tmp/c1"),
            },
        ],
    }
}

/// Drives one server's script twice — once on the cached (cloned from
/// the frozen boot) server, once on a from-scratch boot of the same
/// interned image — and asserts byte identity.
fn assert_kind_equivalent(kind: ServerKind, mode: Mode) {
    let spec = BootSpec::new(kind, mode);
    let tag = format!("{}/{mode:?}", kind.name());
    let cached = Server::boot(kind, &spec, ServerEnv::standard());
    let fresh = Server::boot_cold(kind, &kind.image(), &spec, ServerEnv::standard());
    assert_eq!(
        cached.init_outcome(),
        fresh.init_outcome(),
        "{tag}: init outcome"
    );
    let drive = |mut server: Server| {
        let steps: Vec<Measured> = script(kind)
            .iter()
            .map(|request| request.apply(&mut server))
            .collect();
        (steps, server.process().machine().observe())
    };
    assert_eq!(drive(cached), drive(fresh), "{tag}");
}

#[test]
fn restored_boots_match_fresh_boots_everywhere() {
    // 5 servers × 5 modes × the benign + §4/§5.1 attack library.
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            assert_kind_equivalent(kind, mode);
        }
    }
}

/// A frozen boot carries its space's object table by value. Through the
/// sweep's own entry point — boot from the per-spec cache, script,
/// supervision restarts — the attack inputs must replay identically on
/// a spec's second, cache-cloned boot, on the shipped table and on
/// the oracle's, and the two tables must agree: a clone whose table
/// came back stale or shared would misclassify the attack's accesses.
#[test]
fn cached_boots_replay_the_attack_library_on_both_tables() {
    use failure_oblivious::memory::TableKind;
    use failure_oblivious::servers::sweep::{drive_input, INPUT_LIBRARY};

    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        let per_table = TableKind::ALL.map(|table| {
            let spec = BootSpec::new(input.kind, Mode::FailureOblivious).with_table(table);
            let first = drive_input(input, &spec, &Edge::InProcess);
            let restored = drive_input(input, &spec, &Edge::InProcess);
            assert_eq!(
                first,
                restored,
                "{}/{} on {table}: a boot cloned from the cache must replay identically",
                input.kind.name(),
                input.name,
            );
            restored
        });
        assert_eq!(
            per_table[0],
            per_table[1],
            "{}/{}: the restored tables must agree",
            input.kind.name(),
            input.name,
        );
    }
}

// ---------------------------------------------------------------------
// Pine restart chains: restore + delta replay vs full-replay reference.
// ---------------------------------------------------------------------

/// A full-replay Pine reference restart: boot a fresh process over the
/// current mail file (the seed behaviour, kept as the semantic ground
/// truth the O(delta) restart is compared against).
fn full_replay_reference(spec: &BootSpec, mailbox: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>) -> pine::Pine {
    pine::Pine::boot_image_spec(&ServerKind::Pine.image(), spec, mailbox)
}

/// Observable identity of a Pine reader: usability, a read transcript
/// over every message, and what the process left observable.
fn pine_observed(p: &mut pine::Pine, messages: i64) -> (bool, Vec<Measured>, Observation) {
    let usable = p.usable();
    let steps: Vec<Measured> = (0..messages).map(|i| p.read(i)).collect();
    (usable, steps, p.process().machine().observe())
}

/// Drives a poisoned-mailbox restart chain in both implementations and
/// compares after every restart.
fn assert_restart_chain_equivalent(
    mode: Mode,
    extra_deliveries: usize,
    restarts: usize,
    seed: u64,
) {
    let spec = BootSpec::new(ServerKind::Pine, mode);
    let mut mailbox = pine::Pine::standard_mailbox(4);
    mailbox.insert(2, (pine::attack_from(40), b"pwn".to_vec(), b"x".to_vec()));

    let mut fast = pine::Pine::boot_spec(&spec, mailbox.clone());
    let mut reference = full_replay_reference(&spec, mailbox.clone());
    assert_eq!(
        fast.init_outcome(),
        reference.init_outcome(),
        "{mode:?}: poisoned boot"
    );

    // New mail (benign and poisoned) arrives live; both readers see the
    // same stream and their mail files grow identically.
    for i in 0..extra_deliveries {
        let from = workload::from_field(seed.wrapping_add(i as u64));
        let body = workload::lorem(120, seed ^ i as u64);
        let a = fast.deliver(&from, b"live", &body);
        let b = reference.deliver(&from, b"live", &body);
        assert_eq!(a, b, "{mode:?}: delivery {i}");
    }

    let messages = (5 + extra_deliveries) as i64;
    for round in 0..restarts {
        // Fast path: restore the pre-index base, replay the delta.
        fast.restart();
        // Reference: full boot over the same (grown) mail file.
        let current_mailbox = {
            // The reference's mailbox grew the same way; rebuild it from
            // the original plus deliveries by re-deriving the stream.
            let mut mb = mailbox.clone();
            for i in 0..extra_deliveries {
                mb.push((
                    workload::from_field(seed.wrapping_add(i as u64)),
                    b"live".to_vec(),
                    workload::lorem(120, seed ^ i as u64),
                ));
            }
            mb
        };
        reference = full_replay_reference(&spec, current_mailbox);
        assert_eq!(
            pine_observed(&mut fast, messages),
            pine_observed(&mut reference, messages),
            "{mode:?}: after restart {round}"
        );
    }
}

#[test]
fn poisoned_mailbox_restart_chains_match_full_replay() {
    // Bounds Check and Standard die at init and every restart dies the
    // same way (§4.7); the continuing modes restart into a serving
    // reader. All must be byte-identical to full replay.
    for mode in Mode::ALL {
        assert_restart_chain_equivalent(mode, 2, 3, 0xF0C5);
    }
}

#[test]
fn farm_restart_equivalence_survives_live_attack_deliveries() {
    // The farm's actual failure shape: a clean boot, then the attack
    // arrives live (entering the mail file), the process dies, and the
    // supervisor restarts into the now-poisoned environment.
    for mode in [Mode::Standard, Mode::BoundsCheck] {
        let spec = BootSpec::new(ServerKind::Pine, mode);
        let mailbox = failure_oblivious::servers::image::standard_pine_mailbox().clone();
        let mut fast = pine::Pine::boot_spec(&spec, mailbox.clone());
        let mut reference = full_replay_reference(&spec, mailbox.clone());
        let a = fast.deliver(&pine::attack_from(40), b"pwn", b"payload");
        let b = reference.deliver(&pine::attack_from(40), b"pwn", b"payload");
        assert_eq!(a, b, "{mode:?}: attack delivery");
        assert!(fast.process().is_dead(), "{mode:?}: attack must kill");

        fast.restart();
        let mut grown = mailbox.clone();
        grown.push((pine::attack_from(40), b"pwn".to_vec(), b"payload".to_vec()));
        reference = full_replay_reference(&spec, grown);
        assert_eq!(
            pine_observed(&mut fast, 4),
            pine_observed(&mut reference, 4),
            "{mode:?}: restart into poisoned mail file"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_restart_chains_equivalent_over_seeds_and_depths(
        seed in 0u64..1u64 << 40,
        extra in 0usize..4,
        restarts in 1usize..4,
        mode_pick in 0u8..5,
    ) {
        let mode = Mode::ALL[mode_pick as usize % Mode::ALL.len()];
        assert_restart_chain_equivalent(mode, extra, restarts, seed);
    }

    #[test]
    fn prop_restored_boots_replay_seeded_workloads_identically(
        seed in 0u64..1u64 << 40,
        requests in 1usize..6,
    ) {
        // A cached Apache worker and a fresh one serve the same seeded
        // request mix identically (the per-request content derives from
        // the seed, as in the farm's streams).
        let spec = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious);
        let mut cached = apache::ApacheWorker::boot_spec(&spec);
        let mut fresh =
            apache::ApacheWorker::boot_image_spec(&ServerKind::Apache.image(), &spec);
        for i in 0..requests {
            let x = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let url: Vec<u8> = match x % 4 {
                0 => b"/index.html".to_vec(),
                1 => apache::rewrite_url((x >> 8) as usize % 16),
                2 => b"/big.bin".to_vec(),
                _ => apache::attack_url(),
            };
            prop_assert_eq!(cached.get(&url), fresh.get(&url), "request {}", i);
        }
        prop_assert_eq!(
            cached.process().machine().observe(),
            fresh.process().machine().observe()
        );
    }
}
