//! The connection edge: serving a farm over the simulated socket layer
//! must be byte-identical to the in-process fast path on every
//! observable surface.
//!
//! The equivalence harness holds the edge beside every other axis: each
//! library input in every mode runs dripped over the socket at a point
//! of `native_equiv`'s lattice. Here every server × mode's farm meets
//! [`equiv::farm`] over clean, dripping, disconnecting and flooded
//! edges and over arbitrary pool shapes and scenarios; a farm of 100k+
//! connections holds its SLO; and every attack script is carried over a
//! connection dropped mid-request before each frame. The edge is a
//! *transport* axis — drips, disconnects and accept-queue floods may
//! reorder bytes, never decisions.

mod equiv;

use proptest::prelude::*;

use foc_memory::Mode;
use foc_servers::conn::{Edge, Scenario, SocketEdge};
use foc_servers::farm::{run_farm, FarmConfig};
use foc_servers::sweep::{drive_input, INPUT_LIBRARY};
use foc_servers::{BootSpec, ServerKind};

/// A farm small enough to run a hundred times in a test, big enough to
/// see attacks, crashes, supervision restarts and two servers' streams
/// change threads.
fn small_farm(kind: ServerKind, mode: Mode, seed: u64) -> FarmConfig {
    let mut config = FarmConfig::new(kind, mode).with_attack_ratio(1, 4);
    config.servers = 2;
    config.requests_per_server = 12;
    config.seed = seed;
    config
}

/// A default socket edge abused by `scenario`.
fn abuse(scenario: Scenario) -> SocketEdge {
    SocketEdge {
        scenario,
        ..SocketEdge::default()
    }
}

/// The abusive edges: a one-byte slow-loris drip, mid-request
/// disconnects with retransmission, and an accept-queue flood past a
/// short backlog.
fn abusive_edges() -> [SocketEdge; 3] {
    [
        abuse(Scenario::SlowLoris { chunk: 1 }),
        abuse(Scenario::Disconnect { every: 2 }),
        SocketEdge {
            backlog: 3,
            flood: 9,
            ..SocketEdge::default()
        },
    ]
}

/// Every server × mode's farm — crashes, supervision restarts and
/// connections refused by dead servers included — reports what its
/// oracle reports over a socket edge (the cells take the clean edge and
/// the abusive ones in turn), on the flat table, and on two threads
/// trading servers after every request.
#[test]
fn farm_reports_are_edge_invariant_across_servers_and_modes() {
    let cells = ServerKind::ALL
        .into_iter()
        .flat_map(|kind| Mode::ALL.map(|mode| (kind, mode)));
    let [a, b, c] = abusive_edges();
    let edges = [SocketEdge::default(), a, b, c];
    for ((kind, mode), socket) in cells.zip(edges.into_iter().cycle()) {
        equiv::farm(&small_farm(kind, mode, 0xF0C_E001), socket);
    }
}

/// Each abusive edge leaves a surviving and a crashing farm's report
/// what its oracle reports.
#[test]
fn farm_reports_survive_adversarial_transport() {
    for socket in abusive_edges() {
        equiv::farm(
            &small_farm(ServerKind::Pine, Mode::FailureOblivious, 0xF0C_E002),
            socket.clone(),
        );
        equiv::farm(
            &small_farm(ServerKind::Sendmail, Mode::Standard, 0xF0C_E003),
            socket,
        );
    }
}

/// The SLO multiplier: a request is within the SLO when its service
/// latency is at most this many times the median.
const CONN_SLO_K: u64 = 4;

/// Servers and requests per server of the connection-scale farm.
const SCALE_SERVERS: usize = 256;
const SCALE_REQUESTS: usize = 6;

/// Pooled connections, listener backlog and flood connections per
/// server of the connection-scale farm: 256 × (392 + 12) = 103 424
/// connection attempts in one run, the floods refused past the backlog.
const SCALE_POOL: usize = 392;
const SCALE_BACKLOG: usize = 8;
const SCALE_FLOOD: usize = 12;

/// Failure-oblivious Apache, `servers` × `requests`, standard attack mix.
fn apache_farm(servers: usize, requests: usize) -> FarmConfig {
    let mut config = FarmConfig::new(ServerKind::Apache, Mode::FailureOblivious);
    config.servers = servers;
    config.requests_per_server = requests;
    config
}

/// Connection scale: a farm that opens 100k+ simulated connections,
/// accept-queue floods included, loses no request and reproduces the
/// in-process report; and a 32 × 50 farm keeps at least 75% of its
/// completed requests within [`CONN_SLO_K`]× the median service latency
/// (it reads 9 062 bp, deterministically).
#[test]
fn a_hundred_thousand_connections_lose_no_request_and_hold_the_slo() {
    let socket = SocketEdge {
        connections: SCALE_POOL,
        backlog: SCALE_BACKLOG,
        flood: SCALE_FLOOD,
        scenario: Scenario::Clean,
    };
    const { assert!(SCALE_SERVERS * (SCALE_POOL + SCALE_FLOOD) >= 100_000) };
    let config = apache_farm(SCALE_SERVERS, SCALE_REQUESTS);
    let in_process = run_farm(&config.clone().with_edge(Edge::InProcess));
    let wired = run_farm(&config.with_edge(Edge::Socket(socket)));
    assert_eq!(
        in_process, wired,
        "connection scale must not change the report"
    );
    let stats = &wired.stats;
    assert_eq!(stats.requests, (SCALE_SERVERS * SCALE_REQUESTS) as u64);
    assert_eq!(stats.completed + stats.dropped, stats.requests);

    let slo = run_farm(&apache_farm(32, 50));
    let mut latencies: Vec<u64> = slo
        .per_server
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let median = latencies[(latencies.len() - 1) / 2];
    let within = latencies.partition_point(|&l| l <= CONN_SLO_K * median);
    let bp = within * 10_000 / latencies.len();
    assert!(bp >= 7_500, "{bp} bp within {CONN_SLO_K}x the median");
}

/// Attack scripts over abusive transport: the inputs that crash and
/// restart servers, each frame carried over a connection that drops
/// mid-request first, still match.
#[test]
fn attack_transcripts_survive_adversarial_transport() {
    let edge = Edge::Socket(SocketEdge {
        scenario: Scenario::Disconnect { every: 1 },
        ..SocketEdge::default()
    });
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        for mode in [Mode::FailureOblivious, Mode::Standard] {
            let spec = BootSpec::new(input.kind, mode);
            let direct = drive_input(input, &spec, &Edge::InProcess);
            let wired = drive_input(input, &spec, &edge);
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

    /// Farm reports hold for any seed, server, mode and socket edge —
    /// pool shape, backlog, flood and transport scenario: the blindness
    /// is structural (per-server streams, closed-loop generation,
    /// wire-authoritative serving), not tuned to one configuration.
    #[test]
    fn farm_reports_are_edge_invariant_under_arbitrary_transport(
        seed in any::<u64>(),
        kind_index in 0usize..ServerKind::ALL.len(),
        mode_index in 0usize..Mode::ALL.len(),
        socket in socket_strategy(),
    ) {
        let (kind, mode) = (ServerKind::ALL[kind_index], Mode::ALL[mode_index]);
        equiv::farm(&small_farm(kind, mode, seed), socket);
    }
}
