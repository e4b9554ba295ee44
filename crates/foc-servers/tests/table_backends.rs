//! Shipped table against oracle: a space runs on the sorted vector
//! ([`TableKind::Flat`]) or on the reference ordered map
//! ([`TableKind::Reference`]), and the choice must be *invisible* to
//! everything but the wall clock.
//!
//! One session at a time that is a point of the equivalence harness's
//! lattice: every `INPUT_LIBRARY` entry (`native_equiv.rs`) and, here,
//! seeded farm streams run on both tables at both tiers. Whole farm
//! runs produce equal `FarmReport`s across backends, for every server
//! kind × mode cell (the farm's determinism contract extended to the
//! table layer).

mod equiv;

use proptest::prelude::*;

use foc_memory::{Mode, TableKind};
use foc_servers::farm::{run_farm, FarmConfig, FarmReport, ServerKind};
use foc_servers::BootSpec;

/// The headline contract: 5 servers × 5 modes, a seeded farm stream's
/// transcript and observation byte-identical on the shipped table and
/// the oracle — and at both tiers, cold or restored.
#[test]
fn transcripts_identical_across_backends_all_servers_all_modes() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let (steps, _) = equiv::seeded(kind, BootSpec::new(kind, mode), 7, 8);
            assert!(
                !steps.is_empty() || mode != Mode::FailureOblivious,
                "{} under {mode:?} produced no steps",
                kind.name()
            );
        }
    }
}

/// A two-server, two-thread farm of `config` with `requests` per server
/// and `attacks` per request: its reports on the oracle table and on
/// the shipped one.
fn farms(mut config: FarmConfig, requests: usize, attacks: (u32, u32)) -> [FarmReport; 2] {
    (config.servers, config.threads) = (2, 2);
    (config.requests_per_server, config.attack_ratio) = (requests, attacks);
    [TableKind::Reference, TableKind::Flat].map(|table| run_farm(&config.clone().with_table(table)))
}

/// Whole farms agree across backends for every server × mode cell.
#[test]
fn farm_reports_equal_across_backends_all_cells() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let [reference, report] = farms(FarmConfig::new(kind, mode), 8, (1, 4));
            let kind = kind.name();
            assert_eq!(
                reference, report,
                "{kind} under {mode:?}: farm diverged on flat"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary seeds of the farm's Apache stream (the stress-point
    /// server) cannot tell the points apart: the transcript stays
    /// byte-identical on both tables, both tiers and a cold boot, in
    /// every mode.
    #[test]
    fn apache_transcripts_backend_invariant_over_seeds(seed in 0u64..1_000_000) {
        for mode in Mode::ALL {
            let spec = BootSpec::new(ServerKind::Apache, mode);
            equiv::seeded(ServerKind::Apache, spec, seed, 10);
        }
    }

    /// Arbitrary farm seeds cannot tell the backends apart either — the
    /// end-to-end version of the same property, restarts included.
    #[test]
    fn farm_reports_backend_invariant_over_seeds(seed in 0u64..1_000_000) {
        let mut config = FarmConfig::new(ServerKind::Apache, Mode::BoundsCheck);
        config.seed = seed;
        let [reference, report] = farms(config, 6, (1, 3));
        prop_assert_eq!(reference, report);
    }
}
