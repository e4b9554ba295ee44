//! The connection edge's end-to-end invisibility contract: serving a
//! farm over the simulated socket layer must be byte-identical to the
//! in-process fast path on every observable surface — farm reports
//! (completion counts, latency histograms, violation totals, restart
//! accounting) and per-input transcripts with the process's whole
//! [`foc_vm::Observation`] behind them.
//!
//! The module's unit tests prove per-request `Measured` equality; this
//! battery closes the remaining gap: whole farms with supervision and
//! attack traffic, the full sweep input library across all five modes,
//! and a property sweep over connection-pool shapes, adversarial
//! transport scenarios, and workload seeds. The edge is a *transport*
//! axis — slow-loris drips, mid-request disconnects, and accept-queue
//! floods may reorder bytes, never decisions.

use proptest::prelude::*;

use foc_memory::Mode;
use foc_servers::conn::{Edge, Scenario, SocketEdge};
use foc_servers::farm::{run_farm, FarmConfig};
use foc_servers::sweep::{drive_input, INPUT_LIBRARY};
use foc_servers::{BootSpec, ServerKind};

/// A farm small enough to run fifty times in a test, big enough to see
/// attacks, crashes, supervision restarts, and multi-server stealing.
fn small_farm(kind: ServerKind, mode: Mode, seed: u64) -> FarmConfig {
    let mut config = FarmConfig::new(kind, mode).with_threads(2).with_slice(7);
    config.servers = 2;
    config.requests_per_server = 20;
    config.seed = seed;
    config
}

/// Runs `config` over both edges and asserts the reports equal.
fn assert_edge_blind(config: FarmConfig, socket: SocketEdge) {
    let in_process = run_farm(&config.clone().with_edge(Edge::InProcess));
    let wired = run_farm(&config.with_edge(Edge::Socket(socket)));
    assert_eq!(
        in_process, wired,
        "the connection edge must not change the farm report"
    );
}

/// The headline battery: all five servers × all five modes, clean
/// socket transport. Attack traffic is on (the default 1-in-8), so the
/// comparison covers crashes, restarts, and refused connections on
/// dead servers, not just the happy path.
#[test]
fn farm_reports_are_edge_invariant_across_servers_and_modes() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            assert_edge_blind(small_farm(kind, mode, 0xF0C_E001), SocketEdge::default());
        }
    }
}

/// Adversarial transport: a 1-byte slow-loris drip, mid-request
/// disconnects with retransmission, and an accept-queue flood each
/// leave the report identical to the in-process run.
#[test]
fn farm_reports_survive_adversarial_transport() {
    let scenarios = [
        SocketEdge {
            scenario: Scenario::SlowLoris { chunk: 1 },
            ..SocketEdge::default()
        },
        SocketEdge {
            scenario: Scenario::Disconnect { every: 2 },
            ..SocketEdge::default()
        },
        SocketEdge {
            backlog: 3,
            flood: 9,
            ..SocketEdge::default()
        },
    ];
    for socket in scenarios {
        assert_edge_blind(
            small_farm(ServerKind::Pine, Mode::FailureOblivious, 0xF0C_E002),
            socket.clone(),
        );
        assert_edge_blind(
            small_farm(ServerKind::Sendmail, Mode::Standard, 0xF0C_E003),
            socket,
        );
    }
}

/// The full sweep library × all five modes: every observable surface of
/// every scripted input ([`foc_servers::sweep::Driven`]: transcript
/// hash, fault, recovery, the primary process's `Observation`) agrees
/// across the edge.
#[test]
fn sweep_transcripts_are_edge_invariant() {
    let socket = Edge::Socket(SocketEdge::default());
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let spec = BootSpec::new(input.kind, mode);
            let direct = drive_input(input, &spec, &Edge::InProcess);
            let wired = drive_input(input, &spec, &socket);
            assert_eq!(
                direct,
                wired,
                "{}/{} under {mode:?}: the edge must be transcript-invisible",
                input.kind.name(),
                input.name
            );
        }
    }
}

/// Attack scripts over abusive transport: the inputs that crash and
/// restart servers, carried over drips and disconnects, still match.
#[test]
fn attack_transcripts_survive_adversarial_transport() {
    let edges = [
        Edge::Socket(SocketEdge {
            scenario: Scenario::SlowLoris { chunk: 2 },
            ..SocketEdge::default()
        }),
        Edge::Socket(SocketEdge {
            scenario: Scenario::Disconnect { every: 1 },
            ..SocketEdge::default()
        }),
    ];
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        for edge in &edges {
            for mode in [Mode::FailureOblivious, Mode::Standard] {
                let spec = BootSpec::new(input.kind, mode);
                let direct = drive_input(input, &spec, &Edge::InProcess);
                let wired = drive_input(input, &spec, edge);
                assert_eq!(
                    direct,
                    wired,
                    "{}/{} under {mode:?} over {}: transport abuse leaked",
                    input.kind.name(),
                    input.name,
                    edge.label()
                );
            }
        }
    }
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        Just(Scenario::Clean),
        (1usize..5).prop_map(|chunk| Scenario::SlowLoris { chunk }),
        (1u32..4).prop_map(|every| Scenario::Disconnect { every }),
    ]
}

fn socket_strategy() -> impl Strategy<Value = SocketEdge> {
    (1usize..6, 1usize..8, 0usize..10, scenario_strategy()).prop_map(
        |(connections, backlog, flood, scenario)| SocketEdge {
            connections,
            backlog,
            flood,
            scenario,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Report invariance holds for *any* pool shape, backlog, flood
    /// size, transport scenario, and workload seed — the edge-blindness
    /// is structural (closed-loop generation + wire-authoritative
    /// serving), not tuned to the default configuration.
    #[test]
    fn farm_reports_are_edge_invariant_under_arbitrary_transport(
        socket in socket_strategy(),
        seed in any::<u64>(),
        kind_index in 0usize..5,
        mode_index in 0usize..5,
    ) {
        let kind = ServerKind::ALL[kind_index];
        let mode = Mode::ALL[mode_index];
        let mut config = small_farm(kind, mode, seed);
        config.requests_per_server = 12;
        assert_edge_blind(config, socket);
    }
}
