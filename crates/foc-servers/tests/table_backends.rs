//! Shipped table against oracle: a space runs on the sorted vector
//! ([`TableKind::Flat`](foc_memory::TableKind::Flat)) or on the
//! reference ordered map, and the choice must be *invisible* to
//! everything but the wall clock.
//!
//! One session at a time that is a point of the equivalence harness's
//! lattice: every `INPUT_LIBRARY` entry and every server × mode's seeded
//! stream (`native_equiv.rs`) and, here, arbitrary seeds of Apache's
//! stream run on both tables at both tiers. Whole farms meet
//! [`equiv::farm`], whose table point runs the flat table against the
//! reference one, for every server kind × mode cell and arbitrary seeds
//! (the farm's determinism contract extended to the table layer).

mod equiv;

use proptest::prelude::*;

use foc_memory::Mode;
use foc_servers::conn::SocketEdge;
use foc_servers::farm::{FarmConfig, ServerKind};
use foc_servers::BootSpec;

/// A two-server farm of `config` with `requests` per server and
/// `attacks` per request.
fn farm(mut config: FarmConfig, requests: usize, attacks: (u32, u32)) -> FarmConfig {
    config.servers = 2;
    (config.requests_per_server, config.attack_ratio) = (requests, attacks);
    config
}

/// Whole farms agree across backends for every server × mode cell.
#[test]
fn farm_reports_equal_across_backends_all_cells() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            equiv::farm(
                &farm(FarmConfig::new(kind, mode), 8, (1, 4)),
                SocketEdge::default(),
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
        equiv::farm(&farm(config, 6, (1, 3)), SocketEdge::default());
    }
}
