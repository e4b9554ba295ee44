//! The server farm: a multi-threaded load harness that generalizes the
//! Apache regenerating-pool architecture to all five servers of the
//! paper's evaluation.
//!
//! A farm boots `servers` independent guest processes of one
//! [`ServerKind`] under one [`Mode`] — all sharing that kind's interned
//! compiled image (see [`crate::image`]), so neither boots nor
//! supervisor restarts ever invoke the compiler — and drives each with
//! its own deterministic seeded request stream mixing legitimate
//! traffic with attacks at a configured ratio. A supervisor policy
//! restarts dead processes (replaying initialization, which for
//! persistent triggers — Pine's poisoned mailbox, Sendmail's wake-up
//! error under Bounds Check — dies again, exactly the §4.7 situation)
//! until a per-server restart budget is exhausted; after that the
//! server is down and its remaining requests are dropped connections.
//!
//! **Scheduling.** Work is interleaved at *request granularity*: each
//! server's stream is cut into slices of [`FarmConfig::slice_requests`]
//! requests, and a slice is the unit a worker thread executes before
//! requeueing the server. Every worker owns a deque; it drains its own
//! deque from the front (round-robinning its servers) and steals from
//! the back of other workers' deques when it runs dry. Thousands of
//! lightweight server processes therefore interleave over a handful of
//! OS threads, and a slow server (one deep in supervised restarts)
//! cannot pin its siblings behind it.
//!
//! **Determinism contract.** Every request stream is a pure function of
//! `(seed, server index)`, each server's guest machines are fully
//! deterministic (virtual clock, no host time), requests within one
//! server execute in stream order no matter which threads run its
//! slices, and aggregation runs in server-index order after all threads
//! join. Therefore two farm runs with the same config but different
//! `threads` or `slice_requests` values produce [`FarmReport`]s that
//! compare equal. The property tests assert this; the end-to-end
//! benchmark relies on it to attribute wall-time differences to
//! parallelism alone.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use foc_compiler::ProgramImage;
use foc_memory::{Mode, TableKind, ValueSequence};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub use crate::image::ServerKind;

use crate::conn::{ConnSession, Edge};
use crate::steal::{run_stealing, Slice};
use crate::{
    apache, image, mc, mutt, pine, sendmail, supervisor, workload, BootSpec, Measured, Outcome,
};

/// Virtual cycles charged for forking and re-initialising a replacement
/// process (shared with the Apache pool's accounting).
pub const RESTART_COST_CYCLES: u64 = apache::RESTART_COST_CYCLES;

/// Farm shape and workload parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmConfig {
    /// Which server to run.
    pub kind: ServerKind,
    /// Compiler/runtime policy for every process in the farm.
    pub mode: Mode,
    /// Object table for every process in the farm. The choice never
    /// changes what a farm computes (the shipped-vs-oracle equivalence
    /// tests assert byte-identical transcripts), only how fast the
    /// bounds lookups run — so, like `threads`, it is excluded from
    /// [`FarmReport`] equality.
    pub table: TableKind,
    /// Manufactured-value strategy for every process in the farm.
    /// Unlike `table`, this *does* change the measured data (different
    /// manufactured reads steer different guest paths), so it is part
    /// of [`FarmReport`] equality.
    pub sequence: ValueSequence,
    /// Per-call instruction budget override; `None` uses each kind's
    /// standard budget. Part of [`FarmReport`] equality (a tight budget
    /// turns long requests into fuel-out crashes).
    pub fuel: Option<u64>,
    /// Number of independent server processes.
    pub servers: usize,
    /// Number of OS threads driving them (clamped to `servers`).
    pub threads: usize,
    /// Requests delivered to each server process.
    pub requests_per_server: usize,
    /// Root seed; server `i` derives its stream from `(seed, i)`.
    pub seed: u64,
    /// Probability that a request is an attack, as `(num, den)`.
    /// `(0, 1)` yields pure legitimate traffic.
    pub attack_ratio: (u32, u32),
    /// Restart attempts the supervisor grants each server process before
    /// declaring it down.
    pub restart_budget: u32,
    /// Requests a worker thread serves on one server before requeueing
    /// it — the work-stealing scheduler's interleaving grain. Affects
    /// host scheduling only, never the measured data (clamped to ≥ 1).
    pub slice_requests: usize,
    /// How requests reach the servers: generated in-process (the
    /// historical fast path) or carried over the simulated socket
    /// layer ([`crate::conn`]). A pure transport axis: the edge never
    /// changes what a stream contains or what a server computes (the
    /// equivalence harness's farm cases assert byte-identical
    /// reports), so, like `threads`, it is excluded from
    /// [`FarmReport`] equality.
    pub edge: Edge,
}

impl FarmConfig {
    /// A farm of `kind` under `mode` with the default shape: 4 servers,
    /// 4 threads, 100 requests per server, 1-in-8 attacks, and the
    /// shared supervision budget. The object table is
    /// [`BootSpec::new`]'s, so the farm boots exactly what a lone driver
    /// would.
    pub fn new(kind: ServerKind, mode: Mode) -> FarmConfig {
        let spec = BootSpec::new(kind, mode);
        FarmConfig {
            kind,
            mode,
            table: spec.table,
            sequence: ValueSequence::default(),
            fuel: None,
            servers: 4,
            threads: 4,
            requests_per_server: 100,
            seed: 0xF0C_0001,
            attack_ratio: (1, 8),
            restart_budget: supervisor::RESTART_BUDGET,
            slice_requests: 16,
            edge: Edge::InProcess,
        }
    }

    /// Same farm with a different thread count (scaling sweeps).
    pub fn with_threads(mut self, threads: usize) -> FarmConfig {
        self.threads = threads;
        self
    }

    /// Same farm with a different scheduling grain.
    pub fn with_slice(mut self, slice_requests: usize) -> FarmConfig {
        self.slice_requests = slice_requests;
        self
    }

    /// Same farm on a different object-table backend.
    pub fn with_table(mut self, table: TableKind) -> FarmConfig {
        self.table = table;
        self
    }

    /// Same farm with a different manufactured-value strategy.
    pub fn with_sequence(mut self, sequence: ValueSequence) -> FarmConfig {
        self.sequence = sequence;
        self
    }

    /// Same farm with an explicit per-call fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> FarmConfig {
        self.fuel = Some(fuel);
        self
    }

    /// The full boot spec a process of this farm runs under.
    pub fn boot_spec(&self) -> BootSpec {
        BootSpec::new(self.kind, self.mode)
            .with_table(self.table)
            .with_sequence(self.sequence)
            .with_fuel(self.fuel.unwrap_or_else(|| self.kind.fuel()))
    }

    /// Same farm with a different attack ratio.
    pub fn with_attack_ratio(mut self, num: u32, den: u32) -> FarmConfig {
        self.attack_ratio = (num, den);
        self
    }

    /// Same farm behind a different request edge.
    pub fn with_edge(mut self, edge: Edge) -> FarmConfig {
        self.edge = edge;
        self
    }
}

/// What happened on one server process over its whole request stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests attempted (attacks included; counts connections refused
    /// while the server was down).
    pub requests: u64,
    /// Requests that received a response.
    pub completed: u64,
    /// Requests lost to a dead or down process.
    pub dropped: u64,
    /// Attack requests within `requests` (attempted, like `requests`).
    pub attacks: u64,
    /// Process deaths observed while serving.
    pub deaths: u64,
    /// Restart attempts the supervisor made.
    pub restarts: u64,
    /// Whether the process was down (unusable, budget exhausted) when the
    /// stream ended.
    pub down_at_end: bool,
    /// Virtual cycles spent serving plus restart overhead: every served
    /// request's cycles (a completed one's also in `latencies`) plus
    /// [`RESTART_COST_CYCLES`] per restart.
    pub total_cycles: u64,
    /// Per-completed-request virtual latencies, in stream order.
    pub latencies: Vec<u64>,
}

/// Deterministic farm-wide aggregate: the field-wise sum of the
/// per-server counters (`servers_down` counts `down_at_end`), so it is a
/// function of [`FarmReport::per_server`]. Latency distributions are
/// read from the per-server `latencies`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Total requests attempted across the farm (refused connections
    /// included).
    pub requests: u64,
    /// Requests that received a response.
    pub completed: u64,
    /// Dropped connections.
    pub dropped: u64,
    /// Attack requests attempted.
    pub attacks: u64,
    /// Process deaths across the farm.
    pub deaths: u64,
    /// Supervisor restart attempts.
    pub restarts: u64,
    /// Servers down when their streams ended.
    pub servers_down: u64,
    /// Virtual cycles spent farm-wide (serving + restarts).
    pub total_cycles: u64,
}

/// The result of one farm run: deterministic data only — each server's
/// counters, cycles and exact latencies, and their farm-wide sum.
/// `PartialEq` compares everything but the configuration's host-side
/// knobs, so reports from runs with identical configs and seeds compare
/// equal regardless of thread count, scheduling grain, object table or
/// edge.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// The configuration that produced this report.
    pub config: FarmConfig,
    /// Farm-wide aggregate (server-index order, thread-independent).
    pub stats: FarmStats,
    /// Per-server breakdown, indexed by server.
    pub per_server: Vec<ServerStats>,
}

impl PartialEq for FarmReport {
    fn eq(&self, other: &FarmReport) -> bool {
        let a = &self.config;
        let b = &other.config;
        // Thread count, slice grain, object table, and the request
        // edge are excluded: they shape host wall time only, never the
        // measured data — that is the determinism contract, and the
        // equivalence harness's `equiv::farm` asserts it, each axis
        // against one oracle run (`foc-servers/tests/conn_equiv.rs` and
        // `table_backends.rs`).
        a.kind == b.kind
            && a.mode == b.mode
            && a.sequence == b.sequence
            && a.fuel == b.fuel
            && a.servers == b.servers
            && a.requests_per_server == b.requests_per_server
            && a.seed == b.seed
            && a.attack_ratio == b.attack_ratio
            && a.restart_budget == b.restart_budget
            && self.stats == other.stats
            && self.per_server == other.per_server
    }
}

/// One guest server process: the one enum over the five drivers, which
/// the farm supervises, the boot cache freezes ([`crate::image`]), the
/// sweep scripts and both request edges apply [`Request`]s to.
/// Driver-side workload state (Pine's mailbox-size view, MC's file
/// counter) lives in `RequestGen`, not here: the process is pure
/// service. `Clone` is how a first boot leaves a frozen boot, and
/// [`Server::restore_from`] how a restart returns to it.
#[derive(Clone)]
pub enum Server {
    /// An Apache worker.
    Apache(apache::ApacheWorker),
    /// A Sendmail daemon.
    Sendmail(sendmail::Sendmail),
    /// A Pine reader.
    Pine(pine::Pine),
    /// A Mutt reader.
    Mutt(mutt::Mutt),
    /// A Midnight Commander.
    Mc(mc::Mc),
}

/// The persistent environment a server process boots over — the
/// "files on disk" that survive supervised restarts: Pine's mail file,
/// MC's configuration, Mutt's folder seed. The farm always uses the
/// standard environment (which the boot cache freezes); the sweep's
/// input library substitutes poisoned variants.
#[derive(Debug, Clone)]
pub struct ServerEnv {
    /// Pine's seed mailbox (the mail file).
    pub pine_mailbox: crate::image::Mailbox,
    /// MC's configuration file contents.
    pub mc_config: Vec<u8>,
    /// Messages Mutt's folder seed starts with.
    pub mutt_seed: usize,
}

impl ServerEnv {
    /// The standard environment every farm process boots over, interned
    /// once per host process.
    pub fn standard() -> &'static ServerEnv {
        static ENV: OnceLock<ServerEnv> = OnceLock::new();
        ENV.get_or_init(|| ServerEnv {
            pine_mailbox: crate::image::standard_pine_mailbox().clone(),
            mc_config: crate::image::standard_mc_config().clone(),
            mutt_seed: MUTT_SEED_MESSAGES,
        })
    }

    /// Whether `kind` boots over this environment from its frozen boot
    /// ([`image::boot_checkpoint`]): its part of the environment has the
    /// standard *contents* (Apache and Sendmail read none). The sweep's
    /// poisoned mailboxes and blank configurations boot cold — their
    /// replay is the persistent trigger under study.
    fn boots_frozen(&self, kind: ServerKind) -> bool {
        match kind {
            ServerKind::Apache | ServerKind::Sendmail => true,
            ServerKind::Pine => &self.pine_mailbox == image::standard_pine_mailbox(),
            ServerKind::Mutt => self.mutt_seed == MUTT_SEED_MESSAGES,
            ServerKind::Mc => &self.mc_config == image::standard_mc_config(),
        }
    }
}

/// Messages every Pine farm process starts with (the standard seed
/// mailbox the boot-checkpoint cache captures).
const PINE_SEED_MESSAGES: usize = crate::image::PINE_SEED_MESSAGES;
/// Messages every Mutt farm process starts with.
const MUTT_SEED_MESSAGES: usize = crate::image::MUTT_SEED_MESSAGES;

/// The farm's fixed attack payloads, interned once per host process —
/// at thousands of servers, regenerating a constant attack string per
/// request is measurable allocator churn.
fn apache_attack() -> &'static [u8] {
    static P: OnceLock<Vec<u8>> = OnceLock::new();
    P.get_or_init(apache::attack_url)
}

fn sendmail_attack() -> &'static [u8] {
    static P: OnceLock<Vec<u8>> = OnceLock::new();
    P.get_or_init(|| sendmail::attack_address(40))
}

fn pine_attack() -> &'static [u8] {
    static P: OnceLock<Vec<u8>> = OnceLock::new();
    P.get_or_init(|| pine::attack_from(40))
}

fn mutt_attack() -> &'static [u8] {
    static P: OnceLock<Vec<u8>> = OnceLock::new();
    P.get_or_init(|| mutt::attack_folder_name(40))
}

fn mc_attack() -> &'static [Vec<u8>] {
    static P: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    P.get_or_init(mc::attack_links)
}

impl Server {
    /// Boots one process over `env`. Over the standard environment
    /// (every farm boot) the compiler runs at most once per kind per
    /// host process and boot plus environment replay at most once per
    /// `(kind, spec)`: the process is a clone of
    /// [`image::boot_checkpoint`] when the environment's *contents*
    /// equal the interned standard one, as the drivers' `boot_spec`
    /// constructors decide too. The sweep's poisoned mailboxes and blank
    /// configurations boot cold.
    pub fn boot(kind: ServerKind, spec: &BootSpec, env: &ServerEnv) -> Server {
        if env.boots_frozen(kind) {
            return Server::clone(&image::boot_checkpoint(kind, spec));
        }
        Server::boot_cold(kind, &kind.image_tier(spec.tier), spec, env)
    }

    /// Boots one process of `image` over `env` from scratch — guest
    /// initialisation and environment replay interpreted, no cache
    /// consulted. The boot cache's own fill path, and the reference the
    /// equivalence batteries hold [`Server::boot`] to.
    pub fn boot_cold(
        kind: ServerKind,
        image: &ProgramImage,
        spec: &BootSpec,
        env: &ServerEnv,
    ) -> Server {
        match kind {
            ServerKind::Apache => {
                Server::Apache(apache::ApacheWorker::boot_image_spec(image, spec))
            }
            ServerKind::Sendmail => {
                Server::Sendmail(sendmail::Sendmail::boot_image_spec(image, spec))
            }
            ServerKind::Pine => Server::Pine(pine::Pine::boot_image_spec(
                image,
                spec,
                env.pine_mailbox.clone(),
            )),
            ServerKind::Mutt => {
                Server::Mutt(mutt::Mutt::boot_image_spec(image, spec, env.mutt_seed))
            }
            ServerKind::Mc => Server::Mc(mc::Mc::boot_image_spec(image, spec, &env.mc_config)),
        }
    }

    /// Whether the process can serve requests.
    pub fn usable(&self) -> bool {
        match self {
            Server::Apache(w) => w.usable(),
            Server::Sendmail(s) => s.usable(),
            Server::Pine(pine) => pine.usable(),
            Server::Mutt(m) => m.usable(),
            Server::Mc(mc) => mc.usable(),
        }
    }

    /// The underlying guest process (violation counters, error log).
    pub fn process(&self) -> &crate::Process {
        match self {
            Server::Apache(w) => w.process(),
            Server::Sendmail(s) => s.process(),
            Server::Pine(pine) => pine.process(),
            Server::Mutt(m) => m.process(),
            Server::Mc(mc) => mc.process(),
        }
    }

    /// The boot/initialization outcome, for the kinds whose init runs
    /// guest code that can itself die (§4.4.4, §4.7). `None` for the
    /// kinds that boot inertly (Apache's worker, Mutt).
    pub fn init_outcome(&self) -> Option<&Outcome> {
        match self {
            Server::Apache(_) | Server::Mutt(_) => None,
            Server::Sendmail(s) => Some(s.init_outcome()),
            Server::Pine(pine) => Some(pine.init_outcome()),
            Server::Mc(mc) => Some(mc.init_outcome()),
        }
    }

    /// Replaces the dead process, preserving the persistent environment
    /// (the Pine mailbox survives restarts — it is the mail file on
    /// disk; MC re-reads the same configuration). Over the standard
    /// environment every arm copies a frozen process over the dead one
    /// in place: Pine its pre-index restart base,
    /// replaying only the delivered delta ([`pine::Pine::restart`]); the
    /// others the frozen boot of their environment
    /// ([`Server::restart_from`]). Over a poisoned environment the
    /// others boot cold.
    pub fn restart(&mut self, kind: ServerKind, spec: &BootSpec, env: &ServerEnv) {
        match self {
            Server::Pine(pine) => pine.restart(),
            other if env.boots_frozen(kind) => {
                other.restore_from(&image::boot_checkpoint(kind, spec));
            }
            other => *other = Server::boot(kind, spec, env),
        }
    }

    /// [`Server::restart`] over the standard environment, from the
    /// frozen boot `frozen` the caller resolved once: no cache lookup.
    pub fn restart_from(&mut self, frozen: &Server) {
        match self {
            Server::Pine(pine) => pine.restart(),
            other => other.restore_from(frozen),
        }
    }

    /// Overwrites this process with `src` in the allocations it already
    /// holds ([`crate::Process::restore_from`]): what `src.clone()` would
    /// leave, but a copy of the booted bytes instead of an allocation
    /// and a free per buffer. Processes of two kinds are not restored
    /// into each other; `src` is cloned.
    pub fn restore_from(&mut self, src: &Server) {
        match (self, src) {
            (Server::Apache(w), Server::Apache(src)) => w.restore_from(src),
            (Server::Sendmail(s), Server::Sendmail(src)) => s.restore_from(src),
            (Server::Pine(pine), Server::Pine(src)) => pine.restore_from(src),
            (Server::Mutt(m), Server::Mutt(src)) => m.restore_from(src),
            (Server::Mc(mc), Server::Mc(src)) => mc.restore_from(src),
            (other, src) => *other = src.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Requests: content decoupled from transport.
// ---------------------------------------------------------------------

/// Request content bytes: a borrowed interned payload (the attack
/// constants, fixed benign paths) or an owned buffer (generated
/// content, decoded frames). Splitting the two keeps the in-process
/// fast path allocation-free exactly where the old inline generation
/// was, while giving the socket edge a decodable owned form. Equality
/// is by *content*, not provenance — a decoded `Owned` frame equals the
/// `Borrowed` original it was framed from.
pub type Bytes = Cow<'static, [u8]>;

/// MC archive link lists, borrowed or owned like [`Bytes`] (and, like
/// it, compared by content).
pub type Links = Cow<'static, [Vec<u8>]>;

/// One fully-formed request against one server kind — the unit the
/// connection edge frames onto the wire and the in-process edge applies
/// directly. Covers the farm's generated mix *and* the sweep's scripted
/// vocabulary (`SendmailMailFrom` appears only in scripts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `GET path` against the Apache worker.
    ApacheGet { path: Bytes },
    /// Inbound mail through Sendmail's prescan.
    SendmailReceive { from: Bytes, to: Bytes, body: Bytes },
    /// Outbound mail.
    SendmailSend { to: Bytes, body: Bytes },
    /// The daemon's periodic wake-up.
    SendmailWakeup,
    /// A bare MAIL FROM (the §4.4 attack script's first step).
    SendmailMailFrom { from: Bytes },
    /// Delivery into Pine's mail file.
    PineDeliver {
        from: Bytes,
        subject: Bytes,
        body: Bytes,
    },
    /// Read message `index`.
    PineRead { index: i64 },
    /// Compose a draft.
    PineCompose,
    /// Move message `index`.
    PineMove { index: i64 },
    /// Open folder `name` (the Figure 1 conversion path).
    MuttOpenFolder { name: Bytes },
    /// Read message `index`.
    MuttRead { index: i64 },
    /// Copy `src` to `dst`.
    McCopy { src: Bytes, dst: Bytes },
    /// Create directory `path`.
    McMkdir { path: Bytes },
    /// Delete `path`.
    McDelete { path: Bytes },
    /// The §3 `'/'`-component scan over `name`.
    McComponentEnd { name: Bytes },
    /// Open an archive of symlink entries (§4.5).
    McOpenArchive { links: Links },
}

impl Request {
    /// Which server kind this request addresses.
    pub fn kind(&self) -> ServerKind {
        match self {
            Request::ApacheGet { .. } => ServerKind::Apache,
            Request::SendmailReceive { .. }
            | Request::SendmailSend { .. }
            | Request::SendmailWakeup
            | Request::SendmailMailFrom { .. } => ServerKind::Sendmail,
            Request::PineDeliver { .. }
            | Request::PineRead { .. }
            | Request::PineCompose
            | Request::PineMove { .. } => ServerKind::Pine,
            Request::MuttOpenFolder { .. } | Request::MuttRead { .. } => ServerKind::Mutt,
            Request::McCopy { .. }
            | Request::McMkdir { .. }
            | Request::McDelete { .. }
            | Request::McComponentEnd { .. }
            | Request::McOpenArchive { .. } => ServerKind::Mc,
        }
    }

    /// Executes this request against its server process. Pure dispatch:
    /// every driver call site matches what the pre-edge inline
    /// generation invoked, so transcripts are unchanged.
    ///
    /// # Panics
    ///
    /// Panics when the request and process kinds disagree (a framing or
    /// harness bug, never data-dependent).
    pub fn apply(&self, process: &mut Server) -> Measured {
        match (self, process) {
            (Request::ApacheGet { path }, Server::Apache(w)) => w.get(path),
            (Request::SendmailReceive { from, to, body }, Server::Sendmail(s)) => {
                s.receive(from, to, body)
            }
            (Request::SendmailSend { to, body }, Server::Sendmail(s)) => s.send(to, body),
            (Request::SendmailWakeup, Server::Sendmail(s)) => s.wakeup(),
            (Request::SendmailMailFrom { from }, Server::Sendmail(s)) => s.mail_from(from),
            (
                Request::PineDeliver {
                    from,
                    subject,
                    body,
                },
                Server::Pine(p),
            ) => p.deliver(from, subject, body),
            (Request::PineRead { index }, Server::Pine(p)) => p.read(*index),
            (Request::PineCompose, Server::Pine(p)) => p.compose(),
            (Request::PineMove { index }, Server::Pine(p)) => p.move_message(*index),
            (Request::MuttOpenFolder { name }, Server::Mutt(m)) => m.open_folder(name),
            (Request::MuttRead { index }, Server::Mutt(m)) => m.read_message(*index),
            (Request::McCopy { src, dst }, Server::Mc(m)) => m.copy(src, dst),
            (Request::McMkdir { path }, Server::Mc(m)) => m.mkdir(path),
            (Request::McDelete { path }, Server::Mc(m)) => m.delete(path),
            (Request::McComponentEnd { name }, Server::Mc(m)) => m.component_end(name),
            (Request::McOpenArchive { links }, Server::Mc(m)) => m.open_archive(links),
            _ => panic!("request kind does not match the server process"),
        }
    }
}

/// Cap on pooled request-content buffers (a stream has at most three
/// content fields in flight per request).
const GEN_POOL: usize = 8;

/// The deterministic request generator for one server's stream: the
/// seeded rng plus the driver-side workload state the old inline
/// generation kept on the process (Pine's mailbox-size view, MC's file
/// counter). Both edges draw from the *same* generator in stream
/// order, which is the whole byte-identity argument: the socket layer
/// moves frames, never content decisions.
///
/// The workload is a **closed loop**: request `k+1`'s content may
/// depend on request `k`'s outcome (a delivery that survived grows the
/// readable-mailbox range), so generation must observe each outcome
/// before drawing the next request — see [`RequestGen::observe`].
pub struct RequestGen {
    rng: StdRng,
    /// Driver-side view of Pine's mailbox size (read-index domain).
    messages: i64,
    /// Monotonic counter for unique MC file names.
    files: u64,
    /// Recycled content buffers, so steady-state generation performs no
    /// host allocation per request (the scratch-pool idiom, moved off
    /// the process and onto the stream).
    pool: Vec<Vec<u8>>,
}

impl RequestGen {
    /// A generator over `seed`, with Pine's view starting at the
    /// standard seed-mailbox size.
    pub fn new(seed: u64) -> RequestGen {
        RequestGen {
            rng: StdRng::seed_from_u64(seed),
            messages: PINE_SEED_MESSAGES as i64,
            files: 0,
            pool: Vec::new(),
        }
    }

    /// Draws the attack decision for the next request (the stream's
    /// first rng draw per request, exactly as before the edge split).
    pub fn draw_attack(&mut self, ratio: (u32, u32)) -> bool {
        ratio.0 > 0 && self.rng.gen_ratio(ratio.0, ratio.1)
    }

    fn buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Generates the next request of the stream. The rng draw order
    /// transcribes the pre-edge inline generation exactly — one
    /// `gen_range(0..10)` selector, then the content draws in the same
    /// order — so streams are bit-compatible with every recorded
    /// artifact.
    pub fn generate(&mut self, kind: ServerKind, attack: bool) -> Request {
        use std::io::Write as _;
        match kind {
            ServerKind::Apache => {
                if attack {
                    return Request::ApacheGet {
                        path: Cow::Borrowed(apache_attack()),
                    };
                }
                let path: &'static [u8] = match self.rng.gen_range(0u32..10) {
                    0..=5 => b"/index.html",
                    6..=7 => b"/rw/index.html",
                    8 => b"/big.bin",
                    _ => b"/nosuchpage.html",
                };
                Request::ApacheGet {
                    path: Cow::Borrowed(path),
                }
            }
            ServerKind::Sendmail => {
                if attack {
                    let mut to = self.buf();
                    workload::sendmail_address_into(&mut to, self.rng.next_u64());
                    return Request::SendmailReceive {
                        from: Cow::Borrowed(sendmail_attack()),
                        to: Cow::Owned(to),
                        body: Cow::Borrowed(b"attack payload"),
                    };
                }
                match self.rng.gen_range(0u32..10) {
                    0..=6 => {
                        let mut from = self.buf();
                        let mut to = self.buf();
                        let mut body = self.buf();
                        workload::sendmail_address_into(&mut from, self.rng.next_u64());
                        workload::sendmail_address_into(&mut to, self.rng.next_u64());
                        workload::lorem_into(&mut body, 160, self.rng.next_u64());
                        Request::SendmailReceive {
                            from: Cow::Owned(from),
                            to: Cow::Owned(to),
                            body: Cow::Owned(body),
                        }
                    }
                    7..=8 => {
                        let mut to = self.buf();
                        let mut body = self.buf();
                        workload::sendmail_address_into(&mut to, self.rng.next_u64());
                        workload::lorem_into(&mut body, 200, self.rng.next_u64());
                        Request::SendmailSend {
                            to: Cow::Owned(to),
                            body: Cow::Owned(body),
                        }
                    }
                    _ => Request::SendmailWakeup,
                }
            }
            ServerKind::Pine => {
                if attack {
                    // The poisoned message persists in the mailbox:
                    // every restart replays it (§4.7).
                    return Request::PineDeliver {
                        from: Cow::Borrowed(pine_attack()),
                        subject: Cow::Borrowed(b"pwn"),
                        body: Cow::Borrowed(b"payload"),
                    };
                }
                match self.rng.gen_range(0u32..10) {
                    0..=2 => {
                        let mut from = self.buf();
                        let mut body = self.buf();
                        workload::from_field_into(&mut from, self.rng.next_u64());
                        workload::lorem_into(&mut body, 300, self.rng.next_u64());
                        Request::PineDeliver {
                            from: Cow::Owned(from),
                            subject: Cow::Borrowed(b"new mail"),
                            body: Cow::Owned(body),
                        }
                    }
                    3..=6 => Request::PineRead {
                        index: self.rng.gen_range(0..self.messages.max(1)),
                    },
                    7..=8 => Request::PineCompose,
                    _ => Request::PineMove {
                        index: self.rng.gen_range(0..self.messages.max(1)),
                    },
                }
            }
            ServerKind::Mutt => {
                if attack {
                    return Request::MuttOpenFolder {
                        name: Cow::Borrowed(mutt_attack()),
                    };
                }
                match self.rng.gen_range(0u32..10) {
                    0..=3 => Request::MuttOpenFolder {
                        name: Cow::Borrowed(b"INBOX"),
                    },
                    4..=8 => Request::MuttRead {
                        index: self.rng.gen_range(0..MUTT_SEED_MESSAGES as i64),
                    },
                    _ => Request::MuttOpenFolder {
                        name: Cow::Borrowed(b"work"),
                    },
                }
            }
            ServerKind::Mc => {
                if attack {
                    return Request::McOpenArchive {
                        links: Cow::Borrowed(mc_attack()),
                    };
                }
                match self.rng.gen_range(0u32..10) {
                    0..=3 => {
                        self.files += 1;
                        let files = self.files;
                        let mut dst = self.buf();
                        let _ = write!(dst, "/tmp/copy{files}");
                        Request::McCopy {
                            src: Cow::Borrowed(b"/home/user/data.bin"),
                            dst: Cow::Owned(dst),
                        }
                    }
                    4..=5 => {
                        self.files += 1;
                        let files = self.files;
                        let mut dir = self.buf();
                        let _ = write!(dir, "/tmp/dir{files}");
                        Request::McMkdir {
                            path: Cow::Owned(dir),
                        }
                    }
                    6..=7 => Request::McComponentEnd {
                        name: Cow::Borrowed(b"usr/share/component/lib"),
                    },
                    _ => {
                        let files = self.files;
                        let mut victim = self.buf();
                        let _ = write!(victim, "/tmp/copy{files}");
                        Request::McDelete {
                            path: Cow::Owned(victim),
                        }
                    }
                }
            }
        }
    }

    /// Observes a served request's fate, updating the driver-side
    /// state the next generation depends on: a Pine delivery that
    /// survived grows the mailbox view (matching what the mail file
    /// now holds). Must run before the next [`RequestGen::generate`].
    pub fn observe(&mut self, request: &Request, survived: bool) {
        if survived && matches!(request, Request::PineDeliver { .. }) {
            self.messages += 1;
        }
    }

    /// Returns a request's owned content buffers to the pool.
    pub(crate) fn recycle(&mut self, request: Request) {
        let mut give = |b: Bytes| {
            if let Cow::Owned(mut buf) = b {
                if self.pool.len() < GEN_POOL {
                    buf.clear();
                    self.pool.push(buf);
                }
            }
        };
        match request {
            Request::ApacheGet { path } => give(path),
            Request::SendmailReceive { from, to, body } => {
                give(from);
                give(to);
                give(body);
            }
            Request::SendmailSend { to, body } => {
                give(to);
                give(body);
            }
            Request::SendmailMailFrom { from } => give(from),
            Request::PineDeliver {
                from,
                subject,
                body,
            } => {
                give(from);
                give(subject);
                give(body);
            }
            Request::MuttOpenFolder { name } => give(name),
            Request::McCopy { src, dst } => {
                give(src);
                give(dst);
            }
            Request::McMkdir { path } | Request::McDelete { path } => give(path),
            Request::McComponentEnd { name } => give(name),
            Request::SendmailWakeup
            | Request::PineRead { .. }
            | Request::PineCompose
            | Request::PineMove { .. }
            | Request::MuttRead { .. }
            | Request::McOpenArchive { .. } => {}
        }
    }
}

/// Derives server `index`'s stream seed from the farm seed (SplitMix64
/// finalizer, so neighbouring indices get unrelated streams).
fn server_seed(farm_seed: u64, index: usize) -> u64 {
    let mut z = farm_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Restarts `process` from `frozen`, its frozen boot, until it serves
/// again or the server's remaining budget runs out, charging each
/// attempt to the server's stats. The attempt loop itself is the shared
/// [`supervisor::restart_until_usable`] helper — one definition of
/// supervision for the farm and the §4.7 study.
fn supervise(process: &mut Server, frozen: &Server, stats: &mut ServerStats, config: &FarmConfig) {
    let remaining = u64::from(config.restart_budget).saturating_sub(stats.restarts);
    let budget = u32::try_from(remaining).unwrap_or(u32::MAX);
    let attempts = supervisor::restart_until_usable(
        process,
        budget,
        |p| p.usable(),
        |p| p.restart_from(frozen),
    );
    stats.restarts += u64::from(attempts);
    stats.total_cycles += u64::from(attempts) * RESTART_COST_CYCLES;
}

/// One server's in-flight execution state: the unit the work-stealing
/// scheduler moves between threads. Requests within the server always
/// execute in stream order; only *which thread* runs the next slice
/// varies.
struct ServerRun {
    index: usize,
    gen: RequestGen,
    process: Server,
    /// The frozen boot `process` was cloned from, resolved once at boot:
    /// every restart copies it back in place.
    frozen: Arc<Server>,
    /// The socket session carrying this server's stream, when the farm
    /// runs behind [`Edge::Socket`]. `None` is the in-process edge:
    /// requests apply directly, no framing.
    conn: Option<Box<ConnSession>>,
    stats: ServerStats,
    /// Requests issued so far (attempted, including refused connections).
    issued: usize,
}

impl ServerRun {
    /// Boots server `index` from the interned image and burns any
    /// restart budget initialization demands (Bounds Check Sendmail's
    /// wake-up, §4.4.4).
    fn boot(config: &FarmConfig, index: usize) -> Box<ServerRun> {
        let gen = RequestGen::new(server_seed(config.seed, index));
        let mut stats = ServerStats::default();
        let frozen = image::boot_checkpoint(config.kind, &config.boot_spec());
        let mut process = Server::clone(&frozen);
        supervise(&mut process, &frozen, &mut stats, config);
        let conn = match &config.edge {
            Edge::InProcess => None,
            Edge::Socket(socket) => Some(Box::new(ConnSession::new(config.kind, socket))),
        };
        Box::new(ServerRun {
            index,
            gen,
            process,
            frozen,
            conn,
            stats,
            issued: 0,
        })
    }

    /// Issues the next request of this server's stream. The accounting
    /// order (attack draw, drop-or-serve, cycle charge, supervision) is
    /// the report contract; both edges flow through it identically.
    fn step(&mut self, config: &FarmConfig) {
        self.issued += 1;
        self.stats.requests += 1;
        let attack = self.gen.draw_attack(config.attack_ratio);
        if attack {
            self.stats.attacks += 1;
        }

        if !self.process.usable() {
            // Down and out of budget: the connection is refused (on the
            // socket edge, literally — the listener is torn down).
            self.stats.dropped += 1;
            if let Some(conn) = &mut self.conn {
                conn.refused();
            }
            return;
        }

        let request = self.gen.generate(config.kind, attack);
        let measured = match &mut self.conn {
            None => request.apply(&mut self.process),
            Some(conn) => match conn.transact(&request, &mut self.process) {
                Some(measured) => measured,
                // A frame either side refused as corrupt: the request
                // went unanswered.
                None => {
                    self.stats.dropped += 1;
                    return;
                }
            },
        };
        self.gen.observe(&request, measured.outcome.survived());
        self.gen.recycle(request);
        self.stats.total_cycles += measured.cycles;
        match measured.outcome {
            Outcome::Done { .. } => {
                self.stats.completed += 1;
                self.stats.latencies.push(measured.cycles);
            }
            Outcome::Crashed(_) => {
                self.stats.dropped += 1;
                self.stats.deaths += 1;
                supervise(&mut self.process, &self.frozen, &mut self.stats, config);
            }
        }
    }

    /// Whether the whole stream has been issued.
    fn finished(&self, config: &FarmConfig) -> bool {
        self.issued >= config.requests_per_server
    }

    /// Seals the run and returns its stats.
    fn finish(mut self, config: &FarmConfig) -> (usize, ServerStats) {
        debug_assert!(self.finished(config));
        self.stats.down_at_end = !self.process.usable();
        (self.index, self.stats)
    }
}

/// A schedulable unit in a worker deque.
enum Task {
    /// A server that has not booted yet (boot happens on first pop, so
    /// boot cost lands on whichever thread has capacity).
    Fresh(usize),
    /// A booted server mid-stream, carrying its execution state.
    Resume(Box<ServerRun>),
}

/// Executes up to `slice` requests of `task`'s server: the server
/// yields back to the scheduler while its stream is unfinished and
/// publishes its stats into its index's slot once it is.
fn run_slice(config: &FarmConfig, task: Task, slice: usize) -> Slice<Task, ServerStats> {
    let mut run = match task {
        Task::Fresh(index) => ServerRun::boot(config, index),
        Task::Resume(run) => run,
    };
    for _ in 0..slice {
        if run.finished(config) {
            break;
        }
        run.step(config);
    }
    if run.finished(config) {
        let (index, stats) = run.finish(config);
        Slice::Done(index, stats)
    } else {
        Slice::Yield(Task::Resume(run))
    }
}

/// Sums per-server stats field by field.
fn aggregate(per_server: &[ServerStats]) -> FarmStats {
    let mut agg = FarmStats::default();
    for s in per_server {
        agg.requests += s.requests;
        agg.completed += s.completed;
        agg.dropped += s.dropped;
        agg.attacks += s.attacks;
        agg.deaths += s.deaths;
        agg.restarts += s.restarts;
        agg.servers_down += u64::from(s.down_at_end);
        agg.total_cycles += s.total_cycles;
    }
    agg
}

/// Runs the farm: seeds `config.servers` server tasks round-robin over
/// `config.threads` worker deques, executes them slice-by-slice with
/// work stealing, and aggregates deterministically.
///
/// # Panics
///
/// Panics when `config.servers == 0` or `config.requests_per_server == 0`
/// (an empty farm is a harness bug, not a measurement), or when a worker
/// thread panics.
pub fn run_farm(config: &FarmConfig) -> FarmReport {
    assert!(config.servers > 0, "farm needs at least one server");
    assert!(
        config.requests_per_server > 0,
        "farm needs at least one request per server"
    );
    let threads = config.threads.clamp(1, config.servers);
    let slice = config.slice_requests.max(1);

    let tasks: Vec<Task> = (0..config.servers).map(Task::Fresh).collect();
    let per_server: Vec<ServerStats> =
        run_stealing(threads, tasks, |task| run_slice(config, task, slice));
    let stats = aggregate(&per_server);

    FarmReport {
        config: config.clone(),
        stats,
        per_server,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: ServerKind, mode: Mode) -> FarmConfig {
        let mut c = FarmConfig::new(kind, mode);
        c.servers = 2;
        c.threads = 2;
        c.requests_per_server = 12;
        c
    }

    #[test]
    fn apache_farm_serves_benign_traffic_fully() {
        let mut c = quick(ServerKind::Apache, Mode::FailureOblivious);
        c.attack_ratio = (0, 1);
        let r = run_farm(&c);
        assert_eq!(r.stats.requests, 24);
        assert_eq!(r.stats.completed, 24);
        assert_eq!(r.stats.deaths, 0);
        assert_eq!(r.stats.servers_down, 0);
        assert_eq!(r.stats.restarts, 0);
        let service: u64 = r.per_server.iter().map(served).sum();
        assert_eq!(service, r.stats.total_cycles);
    }

    #[test]
    fn farm_report_is_thread_count_invariant() {
        let mut c = quick(ServerKind::Apache, Mode::BoundsCheck);
        c.servers = 8;
        let one = run_farm(&c.clone().with_threads(1));
        let two = run_farm(&c.clone().with_threads(2));
        let eight = run_farm(&c.with_threads(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn farm_boots_what_a_lone_driver_boots() {
        // One function owns the defaults: a farm built with
        // `FarmConfig::new` runs the spec `BootSpec::new` hands a lone
        // driver, on every axis.
        for kind in ServerKind::ALL {
            for mode in Mode::ALL {
                assert_eq!(
                    FarmConfig::new(kind, mode).boot_spec(),
                    BootSpec::new(kind, mode),
                    "{} under {mode:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn farm_report_is_table_backend_invariant() {
        // The table is a pure performance knob: reports (stats,
        // per-server breakdowns, latencies) must compare equal on the
        // shipped vector and the reference map, in a mode with restarts
        // in play.
        let c = quick(ServerKind::Apache, Mode::BoundsCheck).with_attack_ratio(1, 4);
        let reference = run_farm(&c.clone().with_table(TableKind::Reference));
        let flat = run_farm(&c.with_table(TableKind::Flat));
        assert_eq!(reference, flat);
    }

    /// Cycles one server's completed requests took: Σ `latencies`.
    fn served(s: &ServerStats) -> u64 {
        s.latencies.iter().sum()
    }

    /// Asserts the cycle ledger of every server in `farm`: each completed
    /// request leaves one latency, and the latencies plus the restarts'
    /// fixed charge stay within the cycles the server was charged (a
    /// crashed request's cycles are the rest).
    fn assert_ledger(what: &str, farm: &FarmReport) {
        for (i, s) in farm.per_server.iter().enumerate() {
            assert_eq!(s.latencies.len() as u64, s.completed, "{what} server {i}");
            assert!(
                served(s) + s.restarts * RESTART_COST_CYCLES <= s.total_cycles,
                "{what} server {i}: service plus restarts exceed the ledger",
            );
        }
    }

    #[test]
    fn tail_attribution_splits_restart_overhead_from_service() {
        // Bounds Check Apache under heavy attack: every attack kills the
        // child, so the ledger carries both service and restarts.
        let mut c = quick(ServerKind::Apache, Mode::BoundsCheck);
        c.requests_per_server = 20;
        c.attack_ratio = (1, 3);
        let r = run_farm(&c);
        assert!(r.stats.deaths > 0, "attacks must kill BC children");
        assert!(r.stats.restarts > 0);
        assert_ledger("bc", &r);
        // Bounds Check Sendmail is the §4.4.4 worst case: the farm never
        // serves, so every charged cycle is restart overhead.
        let dead = run_farm(&quick(ServerKind::Sendmail, Mode::BoundsCheck));
        assert_ledger("dead", &dead);
        for s in &dead.per_server {
            assert_eq!(s.total_cycles, s.restarts * RESTART_COST_CYCLES);
        }
        // Failure-oblivious never restarts: every cycle is service.
        let fo = run_farm(&{
            let mut c = c.clone();
            c.mode = Mode::FailureOblivious;
            c
        });
        assert_ledger("fo", &fo);
        for s in &fo.per_server {
            assert_eq!(s.restarts, 0);
            assert_eq!(served(s), s.total_cycles);
        }
    }

    #[test]
    fn farm_report_is_slice_grain_invariant() {
        // The scheduling grain decides how often servers hop threads,
        // never what their streams compute.
        let c = quick(ServerKind::Pine, Mode::FailureOblivious).with_attack_ratio(1, 4);
        let fine = run_farm(&c.clone().with_slice(1));
        let medium = run_farm(&c.clone().with_slice(5));
        let whole = run_farm(&c.with_slice(usize::MAX));
        assert_eq!(fine, medium);
        assert_eq!(fine, whole);
    }

    #[test]
    fn bounds_check_sendmail_farm_is_down() {
        // §4.4.4: the daemon dies during init; restarts die the same way.
        let c = quick(ServerKind::Sendmail, Mode::BoundsCheck);
        let r = run_farm(&c);
        assert_eq!(r.stats.completed, 0);
        assert_eq!(r.stats.dropped, r.stats.requests);
        assert_eq!(r.stats.servers_down, 2);
        assert_eq!(r.stats.restarts, 2 * u64::from(c.restart_budget));
        assert_eq!(
            r.stats.total_cycles,
            r.stats.restarts * RESTART_COST_CYCLES,
            "every charged cycle of a dead farm is restart overhead",
        );
    }

    #[test]
    fn fo_farm_survives_attacks_everywhere() {
        for kind in ServerKind::ALL {
            let mut c = quick(kind, Mode::FailureOblivious);
            c.attack_ratio = (1, 3);
            let r = run_farm(&c);
            assert_eq!(r.stats.deaths, 0, "{} FO farm must not die", kind.name());
            assert_eq!(
                r.stats.completed,
                r.stats.requests,
                "{} FO farm must answer everything",
                kind.name()
            );
            assert!(r.stats.attacks > 0, "{} stream had no attacks", kind.name());
        }
    }

    #[test]
    fn aggregate_of_empty_and_zero_completion_stats_pins_defaults() {
        // An empty farm sums to the default, and a server with no
        // completed request (every request dropped, the §4.4.4
        // dead-farm shape) passes its counters through unchanged.
        assert_eq!(aggregate(&[]), FarmStats::default());
        let stats = ServerStats {
            requests: 5,
            dropped: 5,
            attacks: 2,
            deaths: 1,
            restarts: 3,
            down_at_end: true,
            total_cycles: 3 * RESTART_COST_CYCLES,
            ..ServerStats::default()
        };
        assert_eq!(
            aggregate(&[stats]),
            FarmStats {
                requests: 5,
                completed: 0,
                dropped: 5,
                attacks: 2,
                deaths: 1,
                restarts: 3,
                servers_down: 1,
                total_cycles: 3 * RESTART_COST_CYCLES,
            }
        );
    }

    #[test]
    fn many_servers_interleave_over_few_threads() {
        // More servers than threads: the deques must cycle everything
        // through without losing a stream.
        let mut c = FarmConfig::new(ServerKind::Apache, Mode::FailureOblivious);
        c.servers = 9;
        c.threads = 2;
        c.requests_per_server = 7;
        c.slice_requests = 2;
        c.attack_ratio = (1, 5);
        let r = run_farm(&c);
        assert_eq!(r.per_server.len(), 9);
        assert_eq!(r.stats.requests, 63);
        assert_eq!(r.stats.completed, 63);
        assert_eq!(r, run_farm(&c.clone().with_threads(4).with_slice(3)));
    }
}
