//! The four farm workloads. Names and shapes are fixed: later issues
//! cite them. All are closed loops inside one process — a server's next
//! request is issued only after the previous one was answered. Why each
//! is here, and which layers it loads, is in `README.md` and
//! `../BENCHMARK.json`.

use foc_memory::Mode;
use foc_servers::conn::{Edge, SocketEdge};
use foc_servers::farm::{FarmConfig, ServerKind};

use crate::replay;

/// One farm workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Server under load.
    pub kind: ServerKind,
    /// Access policy of every process.
    pub mode: Mode,
    /// Farm shape: servers, requests per server.
    pub shape: (usize, usize),
    /// The `--quick` shape.
    pub quick_shape: (usize, usize),
    /// Attack share of the stream.
    pub attack_ratio: (u32, u32),
    /// Worker threads wanted (clamped to the host's cores).
    pub threads: usize,
    /// Whether requests travel over the simulated socket edge.
    pub socket: bool,
    /// Whether the supervisor may restart a server without limit (the
    /// §4.3.2 experiment: every attack kills a child, none stays down).
    pub unlimited_restarts: bool,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mc_copy",
        kind: ServerKind::Mc,
        mode: Mode::FailureOblivious,
        shape: (1, 8),
        quick_shape: (1, 8),
        attack_ratio: (1, 8),
        threads: 1,
        socket: false,
        unlimited_restarts: false,
    },
    Workload {
        name: "apache_edge",
        kind: ServerKind::Apache,
        mode: Mode::FailureOblivious,
        shape: (16, 300),
        quick_shape: (4, 100),
        attack_ratio: (1, 8),
        threads: 1,
        socket: true,
        unlimited_restarts: false,
    },
    Workload {
        name: "apache_flood",
        kind: ServerKind::Apache,
        mode: Mode::BoundsCheck,
        shape: (64, 40),
        quick_shape: (8, 20),
        attack_ratio: (1, 2),
        threads: 1,
        socket: false,
        unlimited_restarts: true,
    },
    Workload {
        name: "pine_mail",
        kind: ServerKind::Pine,
        mode: Mode::FailureOblivious,
        shape: (32, 40),
        quick_shape: (4, 20),
        attack_ratio: (1, 8),
        threads: 2,
        socket: false,
        unlimited_restarts: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// The farm configuration this workload measures. Every axis the
    /// workload does not fix (tier, lookup layer, table backend, value
    /// sequence, fuel, slice grain) is whatever `FarmConfig::new` ships.
    ///
    /// `seed` is the harness seed; the farm seed is derived from it by
    /// [`replay::pick_farm_seed`], which pins the request mix.
    pub fn config(&self, seed: u64, quick: bool) -> FarmConfig {
        let mut config = FarmConfig::new(self.kind, self.mode);
        (config.servers, config.requests_per_server) =
            if quick { self.quick_shape } else { self.shape };
        config.threads = self.threads.min(nproc());
        config.attack_ratio = self.attack_ratio;
        if self.unlimited_restarts {
            config.restart_budget = u32::MAX;
        }
        if self.socket {
            config.edge = Edge::Socket(SocketEdge::default());
        }
        config.seed = replay::pick_farm_seed(&config, seed);
        config
    }
}
