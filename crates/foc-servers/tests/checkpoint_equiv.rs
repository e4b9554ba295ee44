//! The one stateful restart: Pine's spec-preserving restart restores
//! a pre-index base and replays only the mailbox delta, so it must be
//! **byte-identical** to a full replay of the mail file — equal
//! transcripts and equal [`Observation`]s — including poisoned-mailbox
//! restart chains and proptests over workload seeds and restart counts.
//!
//! That a boot restored from the cache equals one booted cold is a
//! point of every lattice the equivalence harness drives
//! (`equiv::lattice`, in `native_equiv.rs`). That a restart, which
//! copies the frozen boot over the dead process in place, equals a
//! fresh clone of it is `a_restart_in_place_equals_a_fresh_clone`.

use proptest::prelude::*;

use foc_memory::{Footprint, LookupProfile, Mode, SpaceStats};
use foc_servers::farm::RequestGen;
use foc_servers::image::{self, ServerKind};
use foc_servers::{pine, workload, BootSpec, Measured, Outcome, Server};
use foc_vm::Observation;

// ---------------------------------------------------------------------
// Restarts in place: a dead process overwritten with its frozen boot.
// ---------------------------------------------------------------------

/// What a process leaves to compare by: its [`Observation`] and, beside
/// it, the counters that explain how it ran (`ExecProfile` by its
/// `Debug` form: it has no `PartialEq`, by design), the init outcome and
/// usability.
type State = (
    Observation,
    SpaceStats,
    String,
    LookupProfile,
    Footprint,
    Option<Outcome>,
    bool,
);

fn state(server: &Server) -> State {
    let m = server.process().machine();
    (
        m.observe(),
        *m.space().stats(),
        format!("{:?}", m.exec_profile()),
        m.space().lookup_profile(),
        m.space().footprint(),
        server.init_outcome().cloned(),
        server.usable(),
    )
}

/// Up to `len` requests of `seed`'s attack-mixed stream, while the
/// server serves.
fn drive(server: &mut Server, kind: ServerKind, seed: u64, len: usize) -> Vec<Measured> {
    let mut gen = RequestGen::new(seed);
    let mut steps = Vec::new();
    while steps.len() < len && server.usable() {
        let attack = gen.draw_attack((1, 3));
        let request = gen.generate(kind, attack);
        let measured = request.apply(server);
        gen.observe(&request, measured.outcome.survived());
        steps.push(measured);
    }
    steps
}

#[test]
fn a_restart_in_place_equals_a_fresh_clone() {
    // Which parts of a predecessor grew past its checkpoint somewhere:
    // heap, descriptors, log, committed windows. Boundless bytes grow
    // within an attack and are forgotten with the local they overflowed
    // when its frame pops, so no predecessor ends a request holding
    // any; the Boundless cells restore the room their maps grew to, and
    // `foc-memory`'s `a_restore_gives_back_what_a_runaway_grew` restores
    // over 10 000 bytes held.
    let mut grew = [false; 4];
    for kind in ServerKind::ALL {
        for mode in [
            Mode::Standard,
            Mode::BoundsCheck,
            Mode::FailureOblivious,
            Mode::Boundless,
        ] {
            let what = format!("{} {mode:?}", kind.name());
            let spec = BootSpec::new(kind, mode);
            let checkpoint = image::boot_checkpoint(kind, &spec);
            let mut restored = Server::clone(&checkpoint);
            drive(&mut restored, kind, 0x5EED ^ kind as u64, 40);
            let (old, new) = (
                restored.process().machine().space(),
                checkpoint.process().machine().space(),
            );
            let grown = [
                old.footprint().handed_out > new.footprint().handed_out,
                old.stats().oob_interned > new.stats().oob_interned,
                old.error_log().total() > new.error_log().total(),
                old.footprint().committed > new.footprint().committed,
            ];
            for (g, now) in grew.iter_mut().zip(grown) {
                *g |= now;
            }

            restored.restore_from(&checkpoint);
            let mut fresh = Server::clone(&checkpoint);
            assert_eq!(state(&restored), state(&fresh), "{what}: restored");
            let a = drive(&mut restored, kind, 0xF0C5, 12);
            let b = drive(&mut fresh, kind, 0xF0C5, 12);
            assert_eq!(a, b, "{what}: transcripts after the restore");
            assert_eq!(state(&restored), state(&fresh), "{what}: after the suffix");
        }
    }
    assert_eq!(grew, [true; 4], "heap, descriptors, log, windows");
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
    let mut grown = mailbox;
    for i in 0..extra_deliveries {
        let from = workload::from_field(seed.wrapping_add(i as u64));
        let body = workload::lorem(120, seed ^ i as u64);
        let a = fast.deliver(&from, b"live", &body);
        let b = reference.deliver(&from, b"live", &body);
        assert_eq!(a, b, "{mode:?}: delivery {i}");
        grown.push((from, b"live".to_vec(), body));
    }

    let messages = (5 + extra_deliveries) as i64;
    for round in 0..restarts {
        // Fast path: restore the pre-index base, replay the delta.
        fast.restart();
        // Reference: full boot over the same grown mail file.
        reference = full_replay_reference(&spec, grown.clone());
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
        let mailbox = foc_servers::image::standard_pine_mailbox().clone();
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
}
