//! The mode search-space sweep: exhaustive exploration of the
//! failure-oblivious configuration grid.
//!
//! Durieux et al. 2017 ("Exhaustive Exploration of the Failure-oblivious
//! Computing Search Space") showed that the interesting behaviour of
//! failure-oblivious systems lives in the full policy × manufactured-value
//! grid, not in the handful of hand-picked points a paper evaluation can
//! visit; Rigger et al. 2018 showed outcome *classes* shift with the value
//! strategy chosen. This module drives that grid over our substrate:
//!
//! * **axes** — recovery [`Mode`] × [`ValueSequence`] (zero / constant /
//!   cycling at several wraps) × [`FuelBudget`], each combination a
//!   [`CellSpec`] ([`grid`]);
//! * **subjects** — all five servers over a fixed library of benign and
//!   §4/§5.1 attack inputs ([`INPUT_LIBRARY`]), each input a short
//!   deterministic script against a freshly booted process;
//! * **classification** — every (server, input, cell) run lands in one
//!   class of the stable [`OutcomeClass`] taxonomy, keyed by a transcript
//!   hash so semantic drift in the substrate (different output, same
//!   survival) is distinguishable from mere continuation.
//!
//! What a cell runs *on* — execution tier, object table, request edge —
//! is not a coordinate: every such configuration must reproduce the same
//! matrix. A sweep is driven from a base spec constructor
//! ([`BootSpec::new`], what ships, or [`BootSpec::oracle`]) over an
//! [`Edge`], and `bench mode_sweep --check` holds the committed matrix at
//! the shipped default, the oracle and the socket edge.
//!
//! Cells execute in parallel on the same work-stealing executor as the
//! farm ([`crate::steal`]); each run is a pure function of its
//! `(cell, server, input)` coordinates — a fresh process, no shared
//! state, no host randomness — so the whole matrix is reproducible
//! byte-for-byte regardless of thread count or scheduling grain.

use std::borrow::Cow;
use std::hash::Hasher as _;

// The workspace's one stable content hash (`foc_compiler::Fnv1a`:
// FNV-1a 64, platform-independent) — reused here so transcript hashes
// rest on the same primitive as `ProgramId`.
use foc_compiler::Fnv1a;
use foc_memory::{Mode, ValueSequence};
use foc_vm::{Observation, VmFault};

use crate::conn::{ConnSession, Edge};
use crate::farm::{Request, Server, ServerEnv};
use crate::steal::{run_stealing, Slice};
use crate::{apache, mc, mutt, pine, sendmail, supervisor, workload};
use crate::{BootSpec, Measured, Outcome, ServerKind};

// ---------------------------------------------------------------------
// Axes.
// ---------------------------------------------------------------------

/// The fuel axis: how many interpreted instructions one guest call may
/// spend before the run is classified as non-terminating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuelBudget {
    /// A budget every *terminating* path in the library fits with room
    /// (the costliest, MC's 3.2 MB file copy, measures ~9.1M guest
    /// instructions). Only genuine manufactured-value non-termination —
    /// the §3 `'/'`-scan under a sequence that can never produce `'/'` —
    /// exhausts it. Deliberately far below the drivers' interactive
    /// budgets: a manufactured loop executes only ~3M instructions per
    /// host second (every iteration pays the full violation path), so
    /// sweeping hundreds of hang cells at 80M+ fuel would take hours.
    Ample,
    /// A tight budget: boots and ordinary requests fit, but long
    /// requests (MC's big-file copy, deep archive walks) become prompt
    /// fuel-outs — the §1.2 infinite-loop damage class made cheap to
    /// observe, and a probe of how much slack each request class has.
    Tight,
}

/// The ample per-call budget (see [`FuelBudget::Ample`]).
pub const AMPLE_FUEL: u64 = 12_000_000;

/// The tight per-call budget (see [`FuelBudget::Tight`]).
pub const TIGHT_FUEL: u64 = 200_000;

impl FuelBudget {
    /// Both budgets, sweep order.
    pub const ALL: [FuelBudget; 2] = [FuelBudget::Ample, FuelBudget::Tight];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FuelBudget::Ample => "ample",
            FuelBudget::Tight => "tight",
        }
    }

    /// The per-call instruction budget under this policy.
    pub fn limit(self) -> u64 {
        match self {
            FuelBudget::Ample => AMPLE_FUEL,
            FuelBudget::Tight => TIGHT_FUEL,
        }
    }
}

/// Stable slug for a [`Mode`] (the display names contain spaces).
pub fn mode_slug(mode: Mode) -> &'static str {
    match mode {
        Mode::Standard => "standard",
        Mode::BoundsCheck => "bounds-check",
        Mode::FailureOblivious => "failure-oblivious",
        Mode::Boundless => "boundless",
        Mode::Redirect => "redirect",
    }
}

/// One grid cell: the recovery policy a run is judged under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Access policy.
    pub mode: Mode,
    /// Manufactured-value strategy.
    pub sequence: ValueSequence,
    /// Per-call fuel policy.
    pub fuel: FuelBudget,
}

impl CellSpec {
    /// Stable cell label: `mode|sequence|fuel`.
    pub fn label(&self) -> String {
        format!(
            "{}|{}|{}",
            mode_slug(self.mode),
            self.sequence.label(),
            self.fuel.label()
        )
    }

    /// The boot spec this cell implies for one server kind on top of
    /// `base` ([`BootSpec::new`] or [`BootSpec::oracle`]), which decides
    /// everything that is not a cell coordinate.
    pub fn boot_spec(&self, kind: ServerKind, base: fn(ServerKind, Mode) -> BootSpec) -> BootSpec {
        base(kind, self.mode)
            .with_sequence(self.sequence)
            .with_fuel(self.fuel.limit())
    }
}

/// Every cell of the sweep — [`Mode::ALL`] × {zero, constant 1, the
/// paper's cycling sequence at wraps 2, 8 and 256} ×
/// [`FuelBudget::ALL`] — mode-major then sequence, then fuel: the
/// canonical report order.
pub fn grid() -> Vec<CellSpec> {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(1),
        ValueSequence::Cycling { wrap: 2 },
        ValueSequence::Cycling { wrap: 8 },
        ValueSequence::Cycling { wrap: 256 },
    ];
    let mut cells = Vec::new();
    for mode in Mode::ALL {
        for sequence in sequences {
            for fuel in FuelBudget::ALL {
                cells.push(CellSpec {
                    mode,
                    sequence,
                    fuel,
                });
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// Taxonomy.
// ---------------------------------------------------------------------

/// What one (server, input, cell) run turned out to be. The classes are
/// ordered roughly from "indistinguishable from correct" to "wrong".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// Completed with no memory violations and the reference transcript
    /// — the run never needed the recovery machinery.
    Clean,
    /// Completed *through* intercepted violations (discarded writes,
    /// manufactured reads) and still produced the reference transcript —
    /// the paper's headline behaviour.
    ManufacturedContinue,
    /// The process died (segfault, memory-error exit, stack smash…) but
    /// a supervised restart brought the service back: the trigger was
    /// transient.
    PolicyKill,
    /// The process died and every restart died too — a persistent
    /// trigger (§4.7): the service is down.
    RestartExhausted,
    /// The per-call fuel budget ran out: the run is classified as
    /// non-terminating (the constant-sequence Midnight Commander hang).
    FuelOut,
    /// Completed — possibly through violations — but produced output
    /// different from the reference cell's: survival with divergent
    /// semantics, the class Rigger et al. showed the value strategy
    /// controls.
    DivergentTranscript,
}

impl OutcomeClass {
    /// Every class, presentation order.
    pub const ALL: [OutcomeClass; 6] = [
        OutcomeClass::Clean,
        OutcomeClass::ManufacturedContinue,
        OutcomeClass::PolicyKill,
        OutcomeClass::RestartExhausted,
        OutcomeClass::FuelOut,
        OutcomeClass::DivergentTranscript,
    ];

    /// Long name, report prose.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeClass::Clean => "clean",
            OutcomeClass::ManufacturedContinue => "manufactured-continue",
            OutcomeClass::PolicyKill => "policy-kill",
            OutcomeClass::RestartExhausted => "restart-exhausted",
            OutcomeClass::FuelOut => "fuel-out",
            OutcomeClass::DivergentTranscript => "divergent-transcript",
        }
    }

    /// One-letter code, matrix cells.
    pub fn code(self) -> &'static str {
        match self {
            OutcomeClass::Clean => "C",
            OutcomeClass::ManufacturedContinue => "M",
            OutcomeClass::PolicyKill => "K",
            OutcomeClass::RestartExhausted => "R",
            OutcomeClass::FuelOut => "F",
            OutcomeClass::DivergentTranscript => "D",
        }
    }
}

// ---------------------------------------------------------------------
// Input library.
// ---------------------------------------------------------------------

/// One library entry: a named, fixed request script against one server.
#[derive(Debug, Clone, Copy)]
pub struct SweepInput {
    /// Which server the script drives.
    pub kind: ServerKind,
    /// Stable input name (a column of the matrix).
    pub name: &'static str,
    /// Whether the script contains a §4/§5.1 attack (or hostile
    /// persistent environment), as opposed to purely benign traffic.
    pub attack: bool,
    /// The persistent environment the server boots into when it is not
    /// [`ServerEnv::standard`] (the poisoned-mailbox and blank-config
    /// inputs seed their persistent trigger here, so every supervision
    /// restart replays it).
    pub env: Option<fn() -> ServerEnv>,
    /// The request script, in order: plain [`Request`] values, so one
    /// driver can apply them directly or carry them over the connection
    /// edge.
    pub requests: fn() -> Vec<Request>,
}

/// The benign + attack input library, kind-major in [`ServerKind::ALL`]
/// order. Names and order are the matrix's columns.
pub const INPUT_LIBRARY: &[SweepInput] = &[
    // Pine (§4.2): the From-quoting overflow, transient and persistent.
    SweepInput {
        kind: ServerKind::Pine,
        name: "benign-session",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::PineRead { index: 0 },
                Request::PineCompose,
                Request::PineMove { index: 1 },
                Request::PineRead { index: 2 },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Pine,
        name: "deliver-read",
        attack: false,
        env: Some(|| ServerEnv {
            pine_mailbox: pine::Pine::standard_mailbox(2),
            ..ServerEnv::standard().clone()
        }),
        requests: || {
            vec![
                Request::PineDeliver {
                    from: Cow::Owned(workload::from_field(7)),
                    subject: Cow::Borrowed(b"new mail"),
                    body: Cow::Borrowed(b"hello there"),
                },
                Request::PineRead { index: 2 },
            ]
        },
    },
    // The poisoned message lands in the mail file; if the process dies
    // delivering it, every restart replays it.
    SweepInput {
        kind: ServerKind::Pine,
        name: "attack-from",
        attack: true,
        env: None,
        requests: || {
            vec![
                Request::PineDeliver {
                    from: Cow::Owned(pine::attack_from(40)),
                    subject: Cow::Borrowed(b"pwn"),
                    body: Cow::Borrowed(b"payload"),
                },
                Request::PineRead { index: 3 },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Pine,
        name: "poisoned-mailbox",
        attack: true,
        env: Some(|| {
            let mut pine_mailbox = pine::Pine::standard_mailbox(4);
            pine_mailbox.insert(2, (pine::attack_from(40), b"pwn".to_vec(), b"x".to_vec()));
            ServerEnv {
                pine_mailbox,
                ..ServerEnv::standard().clone()
            }
        }),
        requests: || {
            vec![
                Request::PineRead { index: 2 },
                Request::PineRead { index: 0 },
            ]
        },
    },
    // Apache (§4.3): the mod_rewrite offsets overflow.
    SweepInput {
        kind: ServerKind::Apache,
        name: "benign-gets",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/index.html"),
                },
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/missing.html"),
                },
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/big.bin"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Apache,
        name: "rewrite-ten",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::ApacheGet {
                    path: Cow::Owned(apache::rewrite_url(10)),
                },
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/index.html"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Apache,
        name: "attack-url",
        attack: true,
        env: None,
        requests: || {
            vec![
                Request::ApacheGet {
                    path: Cow::Owned(apache::attack_url()),
                },
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/index.html"),
                },
            ]
        },
    },
    // Sendmail (§4.4): the prescan overflow; BC dead-at-init daemon.
    SweepInput {
        kind: ServerKind::Sendmail,
        name: "benign-mail",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::SendmailReceive {
                    from: Cow::Owned(workload::sendmail_address(1)),
                    to: Cow::Owned(workload::sendmail_address(2)),
                    body: Cow::Borrowed(b"first message body"),
                },
                Request::SendmailSend {
                    to: Cow::Owned(workload::sendmail_address(3)),
                    body: Cow::Borrowed(b"outbound body"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Sendmail,
        name: "daemon-wakeup",
        attack: false,
        env: None,
        requests: || vec![Request::SendmailWakeup, Request::SendmailWakeup],
    },
    SweepInput {
        kind: ServerKind::Sendmail,
        name: "attack-address",
        attack: true,
        env: None,
        requests: || {
            vec![
                Request::SendmailMailFrom {
                    from: Cow::Owned(sendmail::attack_address(120)),
                },
                Request::SendmailReceive {
                    from: Cow::Owned(workload::sendmail_address(8)),
                    to: Cow::Owned(workload::sendmail_address(9)),
                    body: Cow::Borrowed(b"after attack"),
                },
            ]
        },
    },
    // MC (§4.5): the symlink-path overflow; §3's '/'-scan; the blank
    // configuration line persistent trigger.
    SweepInput {
        kind: ServerKind::Mc,
        name: "benign-fileops",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::McCopy {
                    src: Cow::Borrowed(b"/home/user/data.bin"),
                    dst: Cow::Borrowed(b"/tmp/c1"),
                },
                Request::McMkdir {
                    path: Cow::Borrowed(b"/tmp/d"),
                },
                Request::McDelete {
                    path: Cow::Borrowed(b"/tmp/c1"),
                },
            ]
        },
    },
    // The second name has no '/' and no room: the scan walks off the
    // end of its buffer — §3's loop-condition case, where the value
    // sequence decides termination.
    SweepInput {
        kind: ServerKind::Mc,
        name: "component-scan",
        attack: true,
        env: None,
        requests: || {
            vec![
                Request::McComponentEnd {
                    name: Cow::Borrowed(b"usr/share/component/lib"),
                },
                Request::McComponentEnd {
                    name: Cow::Borrowed(b"noslashhere"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Mc,
        name: "attack-symlinks",
        attack: true,
        env: None,
        requests: || {
            vec![
                Request::McOpenArchive {
                    links: Cow::Owned(mc::attack_links()),
                },
                Request::McCopy {
                    src: Cow::Borrowed(b"/home/user/data.bin"),
                    dst: Cow::Borrowed(b"/tmp/y"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Mc,
        name: "blank-config",
        attack: true,
        env: Some(|| ServerEnv {
            mc_config: mc::config_with_blank_line(),
            ..ServerEnv::standard().clone()
        }),
        requests: || {
            vec![Request::McCopy {
                src: Cow::Borrowed(b"/home/user/data.bin"),
                dst: Cow::Borrowed(b"/tmp/z"),
            }]
        },
    },
    // Mutt (§4.6 / Figure 1): the UTF-8→UTF-7 conversion overflow.
    SweepInput {
        kind: ServerKind::Mutt,
        name: "benign-folders",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::MuttOpenFolder {
                    name: Cow::Borrowed(b"INBOX"),
                },
                Request::MuttRead { index: 0 },
                Request::MuttOpenFolder {
                    name: Cow::Borrowed(b"work"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Mutt,
        name: "malformed-utf8",
        attack: false,
        env: None,
        requests: || {
            vec![
                Request::MuttOpenFolder {
                    name: Cow::Owned(vec![0xC0, 0x80]),
                },
                Request::MuttOpenFolder {
                    name: Cow::Borrowed(b"INBOX"),
                },
            ]
        },
    },
    SweepInput {
        kind: ServerKind::Mutt,
        name: "attack-folder",
        attack: true,
        env: None,
        requests: || {
            vec![
                Request::MuttOpenFolder {
                    name: Cow::Owned(mutt::attack_folder_name(40)),
                },
                Request::MuttOpenFolder {
                    name: Cow::Borrowed(b"INBOX"),
                },
            ]
        },
    },
];

// ---------------------------------------------------------------------
// Transcript hashing.
// ---------------------------------------------------------------------

/// Accumulates one run's client-visible transcript: every step's return
/// code and output bytes, or the terminating fault. The hash is the
/// run's identity in the matrix — two runs with equal hashes looked
/// identical to a client.
struct Trace {
    h: Fnv1a,
    fault: Option<VmFault>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            h: Fnv1a::new(),
            fault: None,
        }
    }

    /// Records one observed outcome; returns `true` while the process
    /// is still alive (scripts stop at the first crash).
    fn outcome(&mut self, o: &Outcome) -> bool {
        match o {
            Outcome::Done { ret, output } => {
                self.h.write_u64(1);
                self.h.write_u64(*ret as u64);
                self.h.write_u64(output.len() as u64);
                self.h.write(output);
                true
            }
            Outcome::Crashed(fault) => {
                self.h.write_u64(2);
                self.h.write(fault.to_string().as_bytes());
                self.fault = Some(fault.clone());
                false
            }
        }
    }

    /// Records one measured step (ignoring virtual time — cycle counts
    /// vary across modes by design and are not part of the transcript).
    fn step(&mut self, m: &Measured) -> bool {
        self.outcome(&m.outcome)
    }
}

/// The raw result of driving one input script under one boot spec,
/// before classification: every surface a client or operator can
/// observe. The equivalence harness (`foc-servers/tests/equiv`) asserts
/// these equal across the tier × table lattice to prove a substrate
/// change is invisible end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Driven {
    /// Transcript hash (steps until the first crash, if any).
    pub transcript: u64,
    /// Intercepted violations the primary process accumulated.
    pub violations: u64,
    /// The crash that ended the script, when one did.
    pub fault: Option<VmFault>,
    /// Whether the service was usable after supervision — `true` when
    /// no crash happened, or when a restart within the shared budget
    /// brought a crashed service back.
    pub recovered: bool,
    /// The primary process at script end, before any supervision
    /// restart: the whole equivalence relation ([`Observation`]).
    pub observed: Observation,
    /// The most data units the primary process ever held live at once
    /// (its unit store's slot count: the slab grows only when no freed
    /// slot is left to reuse).
    pub peak_units: usize,
}

/// Seals a finished script: snapshots the primary process, then — if
/// the script ended in a crash — supervises the server with the shared
/// restart budget to decide whether the trigger was transient.
fn seal(
    trace: Trace,
    mut server: Server,
    kind: ServerKind,
    spec: &BootSpec,
    env: &ServerEnv,
) -> Driven {
    let machine = server.process().machine();
    let observed = machine.observe();
    let peak_units = machine.space().unit_store().slot_count();
    let recovered = match trace.fault {
        None => true,
        // A fuel-out classifies on the fault alone; restarting a
        // non-terminating computation to see whether it terminates this
        // time would just burn the budget again (it is deterministic).
        Some(VmFault::FuelExhausted) => false,
        Some(_) => {
            supervisor::restart_until_usable(
                &mut server,
                supervisor::RESTART_BUDGET,
                Server::usable,
                |s| s.restart(kind, spec, env),
            );
            server.usable()
        }
    };
    Driven {
        transcript: trace.h.finish(),
        violations: observed.space.invalid_reads + observed.space.invalid_writes,
        fault: trace.fault,
        recovered,
        observed,
        peak_units,
    }
}

/// Drives one [`INPUT_LIBRARY`] entry under an explicit boot spec over
/// an explicit request edge, and returns every observable surface of
/// the run. This is the sweep's differential entry point: callers that
/// need a configuration the grid does not expose (one axis of the
/// oracle at a time, an off-grid fuel budget) name it here instead of
/// going through [`CellSpec`]; the equivalence batteries assert the
/// [`Driven`]s of two such configurations equal.
pub fn drive_input(input: &SweepInput, spec: &BootSpec, edge: &Edge) -> Driven {
    drive_booted(input, spec, edge, |env| Server::boot(input.kind, spec, env))
}

/// [`drive_input`] on the server `boot` starts over the input's
/// environment: [`Server::boot_cold`], where a cold boot is held to the
/// cached one. Supervision restarts still go through [`Server::restart`].
pub fn drive_booted(
    input: &SweepInput,
    spec: &BootSpec,
    edge: &Edge,
    boot: impl FnOnce(&ServerEnv) -> Server,
) -> Driven {
    let kind = input.kind;
    let env = input.env.map_or(
        Cow::Borrowed(ServerEnv::standard()),
        |env| Cow::Owned(env()),
    );
    let mut t = Trace::new();
    let mut process = boot(&env);
    let mut session = match edge {
        Edge::InProcess => None,
        Edge::Socket(socket) => Some(ConnSession::new(kind, socket)),
    };
    // The daemons (Sendmail, Pine, MC) do observable work at boot; the
    // per-request workers (Apache, Mutt) do not. A daemon dead at init
    // never sees its script.
    let alive = match process.init_outcome() {
        Some(outcome) => t.outcome(outcome),
        None => true,
    };
    if alive {
        for request in &(input.requests)() {
            let measured = match &mut session {
                Some(session) => session.transact(request, &mut process),
                None => Some(request.apply(&mut process)),
            };
            // A frame refused as corrupt ends the script unanswered.
            let Some(measured) = measured else {
                break;
            };
            if !t.step(&measured) {
                break;
            }
        }
    }
    seal(t, process, kind, spec, &env)
}

// ---------------------------------------------------------------------
// Classification and execution.
// ---------------------------------------------------------------------

/// One classified (server, input, cell) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRun {
    /// Outcome class.
    pub class: OutcomeClass,
    /// Transcript hash (the run's client-visible identity).
    pub transcript: u64,
}

/// One completed cell: a [`SweepRun`] per [`INPUT_LIBRARY`] entry, in
/// library order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// The cell's coordinates.
    pub cell: CellSpec,
    /// Library-ordered runs.
    pub runs: Vec<SweepRun>,
}

/// A whole sweep: the reference transcripts plus every cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepMatrix {
    /// Per-input reference transcript hashes ([`reference_cell`]).
    pub reference: Vec<u64>,
    /// Cell results in canonical grid order.
    pub cells: Vec<CellResult>,
}

/// The cell every transcript is compared against: the paper's own
/// configuration — failure-oblivious continuation, the cycling 0/1/k
/// sequence, ample fuel.
pub fn reference_cell() -> CellSpec {
    CellSpec {
        mode: Mode::FailureOblivious,
        sequence: ValueSequence::default(),
        fuel: FuelBudget::Ample,
    }
}

/// Computes the per-input reference transcripts by driving the whole
/// library under [`reference_cell`] on `base` over `edge`.
pub fn reference_transcripts(base: fn(ServerKind, Mode) -> BootSpec, edge: &Edge) -> Vec<u64> {
    let cell = reference_cell();
    INPUT_LIBRARY
        .iter()
        .map(|input| drive_input(input, &cell.boot_spec(input.kind, base), edge).transcript)
        .collect()
}

fn classify(driven: &Driven, reference: u64) -> OutcomeClass {
    match &driven.fault {
        Some(VmFault::FuelExhausted) => OutcomeClass::FuelOut,
        Some(_) => {
            if driven.recovered {
                OutcomeClass::PolicyKill
            } else {
                OutcomeClass::RestartExhausted
            }
        }
        None => {
            if driven.transcript != reference {
                OutcomeClass::DivergentTranscript
            } else if driven.violations > 0 {
                OutcomeClass::ManufacturedContinue
            } else {
                OutcomeClass::Clean
            }
        }
    }
}

/// Runs one input of one cell on `base` over `edge`.
pub fn run_cell_input(
    cell: &CellSpec,
    index: usize,
    reference: &[u64],
    base: fn(ServerKind, Mode) -> BootSpec,
    edge: &Edge,
) -> SweepRun {
    let input = &INPUT_LIBRARY[index];
    let driven = drive_input(input, &cell.boot_spec(input.kind, base), edge);
    SweepRun {
        class: classify(&driven, reference[index]),
        transcript: driven.transcript,
    }
}

/// Runs one whole cell sequentially.
pub fn run_cell(
    cell: &CellSpec,
    reference: &[u64],
    base: fn(ServerKind, Mode) -> BootSpec,
    edge: &Edge,
) -> CellResult {
    CellResult {
        cell: *cell,
        runs: (0..INPUT_LIBRARY.len())
            .map(|i| run_cell_input(cell, i, reference, base, edge))
            .collect(),
    }
}

/// Executes `cells` in parallel on the work-stealing executor: one task
/// per cell, yielding between inputs every `slice_inputs` runs so a
/// slow cell (one deep in standard-fuel manufactured loops) cannot pin
/// its worker. Results come back in the order of `cells`; each run is a
/// pure function of its coordinates, so the output is identical for any
/// `threads`/`slice_inputs` (the sweep property tests assert this) —
/// and for any `base`/`edge`, which is what `bench mode_sweep --check`
/// holds.
pub fn run_cells(
    cells: &[CellSpec],
    reference: &[u64],
    base: fn(ServerKind, Mode) -> BootSpec,
    edge: &Edge,
    threads: usize,
    slice_inputs: usize,
) -> Vec<CellResult> {
    if cells.is_empty() {
        return Vec::new();
    }
    struct CellTask {
        slot: usize,
        cell: CellSpec,
        runs: Vec<SweepRun>,
    }
    let slice = slice_inputs.max(1);
    let tasks: Vec<CellTask> = cells
        .iter()
        .enumerate()
        .map(|(slot, cell)| CellTask {
            slot,
            cell: *cell,
            runs: Vec::with_capacity(INPUT_LIBRARY.len()),
        })
        .collect();
    run_stealing(threads, tasks, |mut task: CellTask| {
        for _ in 0..slice {
            if task.runs.len() == INPUT_LIBRARY.len() {
                break;
            }
            let index = task.runs.len();
            task.runs
                .push(run_cell_input(&task.cell, index, reference, base, edge));
        }
        if task.runs.len() == INPUT_LIBRARY.len() {
            Slice::Done(
                task.slot,
                CellResult {
                    cell: task.cell,
                    runs: task.runs,
                },
            )
        } else {
            Slice::Yield(task)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_cell_classifies_as_clean_or_manufactured() {
        // The reference cell compared against itself can only be clean
        // (benign, no violations) or manufactured-continue (violations
        // intercepted, transcript preserved) — never divergent, never a
        // crash class: failure-oblivious mode survives the whole library.
        let edge = Edge::InProcess;
        let reference = reference_transcripts(BootSpec::new, &edge);
        let result = run_cell(&reference_cell(), &reference, BootSpec::new, &edge);
        for (input, run) in INPUT_LIBRARY.iter().zip(&result.runs) {
            assert!(
                matches!(
                    run.class,
                    OutcomeClass::Clean | OutcomeClass::ManufacturedContinue
                ),
                "{}/{}: {:?}",
                input.kind.name(),
                input.name,
                run.class
            );
        }
        // The attack inputs all exercised the recovery machinery.
        for (input, run) in INPUT_LIBRARY.iter().zip(&result.runs) {
            if input.attack && input.kind != ServerKind::Mutt {
                assert_eq!(
                    run.class,
                    OutcomeClass::ManufacturedContinue,
                    "{}/{} must continue through its attack",
                    input.kind.name(),
                    input.name
                );
            }
        }
    }

    #[test]
    fn bounds_check_sendmail_cells_are_down() {
        // §4.4.4 as a taxonomy statement: every Sendmail input under
        // Bounds Check is restart-exhausted (the daemon dies at init,
        // and so does every restart).
        let reference = reference_transcripts(BootSpec::new, &Edge::InProcess);
        let cell = CellSpec {
            mode: Mode::BoundsCheck,
            sequence: ValueSequence::default(),
            fuel: FuelBudget::Ample,
        };
        let result = run_cell(&cell, &reference, BootSpec::new, &Edge::InProcess);
        for (input, run) in INPUT_LIBRARY.iter().zip(&result.runs) {
            if input.kind == ServerKind::Sendmail {
                assert_eq!(
                    run.class,
                    OutcomeClass::RestartExhausted,
                    "{}: BC sendmail must be down",
                    input.name
                );
            }
        }
    }

    #[test]
    fn cell_results_are_thread_and_slice_invariant() {
        let reference = reference_transcripts(BootSpec::new, &Edge::InProcess);
        let cells = vec![
            CellSpec {
                mode: Mode::FailureOblivious,
                sequence: ValueSequence::Zero,
                fuel: FuelBudget::Tight,
            },
            CellSpec {
                mode: Mode::BoundsCheck,
                sequence: ValueSequence::default(),
                fuel: FuelBudget::Tight,
            },
        ];
        let edge = Edge::InProcess;
        let run =
            |threads, slice| run_cells(&cells, &reference, BootSpec::new, &edge, threads, slice);
        let (a, b, c) = (run(1, 1), run(4, 5), run(2, usize::MAX));
        assert_eq!(a, b);
        assert_eq!(a, c);
        // And equal to the sequential path.
        let seq: Vec<CellResult> = cells
            .iter()
            .map(|c| run_cell(c, &reference, BootSpec::new, &edge))
            .collect();
        assert_eq!(a, seq);
    }
}
