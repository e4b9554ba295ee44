//! Image sharing: the per-kind image cache serves exactly what a
//! compile from source produces, and every thread of a farm observes
//! one [`ProgramId`] per kind. The bytecode itself is pinned, and each
//! server's source round-trips through the printer.
//!
//! That a cached boot *behaves* like a from-source one is the
//! equivalence harness's: the oracle of its lattice boots cold from an
//! image compiled afresh, so every library input in every mode compares
//! the cache against a compile from source (`foc-servers`'
//! `native_equiv`). Here seeded request streams, whose content the seed
//! draws, hold the two boots to one transcript.

use proptest::prelude::*;

use failure_oblivious::compiler::{ExecTier, ProgramId};
use failure_oblivious::lang::pretty::print_unit;
use failure_oblivious::lang::{analyze, parse};
use failure_oblivious::memory::Mode;
use failure_oblivious::servers::farm::{RequestGen, ServerKind};
use failure_oblivious::servers::{BootSpec, Measured, Server, ServerEnv};
use failure_oblivious::vm::Observation;

/// Every server's compiled program, pinned: (kind, native-tier id,
/// baseline-tier id, instructions). A front-end or lowering change that
/// claims bit-identical bytecode must leave all fifteen values alone; a
/// change that moves one on purpose re-derives it here and says why.
const PINNED_IMAGES: [(ServerKind, u64, u64, usize); 5] = [
    (
        ServerKind::Apache,
        0x4937_28c3_f4b4_a6a5,
        0x6db8_dfba_eaab_b55b,
        702,
    ),
    (
        ServerKind::Sendmail,
        0x3ea5_a0f9_f460_8f4d,
        0x0f50_9b33_99c8_3183,
        868,
    ),
    (
        ServerKind::Pine,
        0x401e_317a_815c_df9c,
        0x703f_0f74_8f17_3650,
        853,
    ),
    (
        ServerKind::Mutt,
        0x2b85_f9f5_4a8d_bd75,
        0x5684_cd4b_00d6_cd6b,
        1_170,
    ),
    (
        ServerKind::Mc,
        0x271b_eb21_3694_bfcf,
        0x0927_21ea_2049_71e5,
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

/// The first ten requests of `kind`'s seeded farm stream, one in four an
/// attack, while the server serves, on a boot restored from the image
/// cache (`cached`) or booted cold from a fresh compile: the transcript
/// and what the process left observable.
fn stream(kind: ServerKind, mode: Mode, seed: u64, cached: bool) -> (Vec<Measured>, Observation) {
    let (spec, env) = (BootSpec::new(kind, mode), ServerEnv::standard());
    let mut server = if cached {
        Server::boot(kind, &spec, env)
    } else {
        Server::boot_cold(kind, &kind.fresh_image(), &spec, env)
    };
    let mut gen = RequestGen::new(seed);
    let mut steps = Vec::new();
    while steps.len() < 10 && server.usable() {
        let attack = gen.draw_attack((1, 4));
        let request = gen.generate(kind, attack);
        let measured = request.apply(&mut server);
        gen.observe(&request, measured.outcome.survived());
        steps.push(measured);
    }
    (steps, server.process().machine().observe())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The transcript equivalence holds for arbitrary workload seeds —
    /// request *content* cannot drive the cached and from-source
    /// programs apart. (Pine and Sendmail thread the seed through their
    /// generated mail; one failure-oblivious and one terminating policy
    /// cover both continuation behaviours.)
    #[test]
    fn transcripts_match_for_arbitrary_workload_seeds(seed in any::<u64>()) {
        for kind in [ServerKind::Pine, ServerKind::Sendmail] {
            for mode in [Mode::FailureOblivious, Mode::BoundsCheck] {
                let cached = stream(kind, mode, seed, true);
                let fresh = stream(kind, mode, seed, false);
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
