//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4).
//!
//! Each `figN_*` function reproduces the corresponding figure's request
//! set, running at least twenty repetitions per request per compiler
//! version and reporting mean ± standard deviation of the *virtual*
//! request processing time (see `foc_vm::cost` for why virtual time).
//! `bench paper <name>` prints one table; `bench paper` prints the
//! complete paper-versus-measured report, committed as
//! `PAPER_tables.md` and gated by `bench paper --check` ([`paper`]).
//!
//! Scaling note: MC's Copy/Move/Delete sizes are divided by
//! [`MC_SIZE_SCALE`] so a full experiment sweep stays interactive; the
//! slowdown columns are invariant under this scaling because both
//! versions scale identically (verified by `scaling_invariance` below).

pub mod check;
pub mod paper;
pub mod sweep_report;

use foc_memory::Mode;
use foc_servers::{apache, mc, mutt, pine, sendmail, workload, BootSpec, Measured, ServerKind};
use foc_vm::cost::cycles_to_ms;

/// Number of repetitions per request (the paper: "at least twenty").
pub const REPS: usize = 20;

/// Size divisor for the Midnight Commander file operations.
pub const MC_SIZE_SCALE: i64 = 64;

/// One row of a request-processing-time figure.
#[derive(Debug, Clone)]
pub struct RptRow {
    /// Request name as printed in the paper.
    pub request: String,
    /// Standard version: (mean ms, stddev ms).
    pub standard: (f64, f64),
    /// Failure-oblivious version: (mean ms, stddev ms).
    pub failure_oblivious: (f64, f64),
    /// Slowdown the paper reports for this request.
    pub paper_slowdown: f64,
}

impl RptRow {
    /// Measured slowdown (FO mean / Standard mean).
    pub fn slowdown(&self) -> f64 {
        if self.standard.0 == 0.0 {
            return f64::NAN;
        }
        self.failure_oblivious.0 / self.standard.0
    }
}

/// Formats one figure as the paper lays it out.
pub fn render_rpt_table(title: &str, rows: &[RptRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>20} {:>10} {:>8}",
        "Request", "Standard (ms)", "Failure Obl. (ms)", "Slowdown", "Paper"
    );
    for r in rows {
        let pct = |m: f64, s: f64| if m > 0.0 { s / m * 100.0 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<12} {:>10.3} ±{:>4.1}% {:>13.3} ±{:>4.1}% {:>9.2}x {:>7.2}x",
            r.request,
            r.standard.0,
            pct(r.standard.0, r.standard.1),
            r.failure_oblivious.0,
            pct(r.failure_oblivious.0, r.failure_oblivious.1),
            r.slowdown(),
            r.paper_slowdown,
        );
    }
    out
}

/// Mean/stddev of a cycle series, in milliseconds.
fn stats_ms(cycles: &[u64]) -> (f64, f64) {
    let ms: Vec<f64> = cycles.iter().map(|&c| cycles_to_ms(c)).collect();
    foc_servers::mean_stddev(&ms)
}

fn expect_ok(m: &Measured, what: &str) -> u64 {
    assert!(
        m.outcome.survived(),
        "{what} unexpectedly failed: {:?}",
        m.outcome
    );
    m.cycles
}

// ----------------------------------------------------------------------
// Figures 2–6: request processing times per server.
// ----------------------------------------------------------------------

/// One figure: `run` serves [`REPS`] rounds of the figure's `N` requests
/// under a mode and returns each request's cycle series; the rows pair
/// the Standard and Failure Oblivious runs with the paper's slowdowns.
fn rpt_rows<const N: usize>(
    requests: [&str; N],
    paper: [f64; N],
    run: impl Fn(Mode) -> [Vec<u64>; N],
) -> Vec<RptRow> {
    let std = run(Mode::Standard);
    let fo = run(Mode::FailureOblivious);
    (0..N)
        .map(|i| RptRow {
            request: requests[i].into(),
            standard: stats_ms(&std[i]),
            failure_oblivious: stats_ms(&fo[i]),
            paper_slowdown: paper[i],
        })
        .collect()
}

/// Reproduces Figure 2 (Pine: Read / Compose / Move).
pub fn fig2_pine() -> Vec<RptRow> {
    rpt_rows(["Read", "Compose", "Move"], [6.9, 8.1, 1.34], |mode| {
        let mut p = pine::Pine::boot_spec(
            &BootSpec::new(ServerKind::Pine, mode),
            pine::Pine::standard_mailbox(REPS + 10),
        );
        assert!(p.usable());
        let mut out: [Vec<u64>; 3] = Default::default();
        for i in 0..REPS {
            out[0].push(expect_ok(&p.read(3), "pine read"));
            out[1].push(expect_ok(&p.compose(), "pine compose"));
            out[2].push(expect_ok(&p.move_message(8 + i as i64), "pine move"));
        }
        out
    })
}

/// Reproduces Figure 3 (Apache: Small / Large page serves).
pub fn fig3_apache() -> Vec<RptRow> {
    rpt_rows(["Small", "Large"], [1.06, 1.03], |mode| {
        let mut w = apache::ApacheWorker::boot_spec(&BootSpec::new(ServerKind::Apache, mode));
        let mut out: [Vec<u64>; 2] = Default::default();
        for _ in 0..REPS {
            out[0].push(expect_ok(&w.get(b"/index.html"), "apache small"));
            out[1].push(expect_ok(&w.get(b"/big.bin"), "apache large"));
        }
        out
    })
}

/// Reproduces Figure 4 (Sendmail: Recv/Send × Small/Large).
pub fn fig4_sendmail() -> Vec<RptRow> {
    let requests = ["Recv Small", "Recv Large", "Send Small", "Send Large"];
    rpt_rows(requests, [3.9, 3.9, 3.7, 3.6], |mode| {
        let mut sm = sendmail::Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, mode));
        assert!(sm.usable(), "sendmail must boot in {mode:?}");
        let mut out: [Vec<u64>; 4] = Default::default();
        for i in 0..REPS as u64 {
            let from = workload::sendmail_address(i);
            let to = workload::sendmail_address(1000 + i);
            let small = workload::lorem(4, i);
            let large = workload::lorem(4096, i);
            out[0].push(expect_ok(&sm.receive(&from, &to, &small), "recv small"));
            out[1].push(expect_ok(&sm.receive(&from, &to, &large), "recv large"));
            out[2].push(expect_ok(&sm.send(&to, &small), "send small"));
            out[3].push(expect_ok(&sm.send(&to, &large), "send large"));
        }
        out
    })
}

/// Reproduces Figure 5 (MC: Copy / Move / MkDir / Delete). Sizes are the
/// paper's (31 MB copy/move tree, 3.2 MB delete) divided by
/// [`MC_SIZE_SCALE`].
pub fn fig5_mc() -> Vec<RptRow> {
    let copy_size = 31 * 1024 * 1024 / MC_SIZE_SCALE;
    let del_size = 3_276_800 / MC_SIZE_SCALE;
    let requests = ["Copy", "Move", "MkDir", "Delete"];
    rpt_rows(requests, [1.4, 1.4, 1.8, 1.1], |mode| {
        let mut m = mc::Mc::boot_spec(&BootSpec::new(ServerKind::Mc, mode), &mc::clean_config());
        assert!(m.usable());
        let mut out: [Vec<u64>; 4] = Default::default();
        for i in 0..REPS {
            let src = format!("/bench/src{i}");
            m.create(src.as_bytes(), copy_size, false);
            out[0].push(expect_ok(
                &m.copy(src.as_bytes(), format!("/bench/copy{i}").as_bytes()),
                "mc copy",
            ));
            out[1].push(expect_ok(
                &m.move_file(src.as_bytes(), format!("/bench/moved{i}").as_bytes()),
                "mc move",
            ));
            out[2].push(expect_ok(
                &m.mkdir(format!("/bench/dir{i}").as_bytes()),
                "mc mkdir",
            ));
            let victim = format!("/bench/del{i}");
            m.create(victim.as_bytes(), del_size, false);
            out[3].push(expect_ok(&m.delete(victim.as_bytes()), "mc delete"));
            // Keep the fs table bounded.
            m.delete(format!("/bench/copy{i}").as_bytes());
            m.delete(format!("/bench/moved{i}").as_bytes());
            m.delete(format!("/bench/dir{i}").as_bytes());
        }
        out
    })
}

/// Reproduces Figure 6 (Mutt: Read / Move).
pub fn fig6_mutt() -> Vec<RptRow> {
    rpt_rows(["Read", "Move"], [3.6, 1.4], |mode| {
        let mut mt = mutt::Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, mode), REPS + 5);
        assert_eq!(mt.open_folder(b"INBOX").outcome.ret(), Some(0));
        let mut out: [Vec<u64>; 2] = Default::default();
        for i in 0..REPS {
            out[0].push(expect_ok(&mt.read_message(0), "mutt read"));
            out[1].push(expect_ok(
                &mt.move_message(1 + i as i64, b"work"),
                "mutt move",
            ));
        }
        out
    })
}

// ----------------------------------------------------------------------
// §4.3.2: Apache throughput under attack.
// ----------------------------------------------------------------------

/// Result of the throughput experiment for one version.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Compiler version.
    pub mode: Mode,
    /// Requests that received responses.
    pub completed: u64,
    /// Child process deaths.
    pub child_deaths: u64,
    /// Completed requests per virtual megacycle.
    pub throughput: f64,
}

/// Reproduces the §4.3.2 experiment: attack stream + legitimate fetches
/// against the regenerating pool, per version.
pub fn apache_throughput(requests: usize) -> Vec<ThroughputResult> {
    [Mode::FailureOblivious, Mode::BoundsCheck, Mode::Standard]
        .into_iter()
        .map(|mode| {
            let mut pool = apache::ApachePool::new(mode, 4);
            for i in 0..requests {
                if i % 2 == 0 {
                    pool.get(&apache::attack_url());
                } else {
                    pool.get(b"/index.html");
                }
            }
            ThroughputResult {
                mode,
                completed: pool.completed,
                child_deaths: pool.child_deaths,
                throughput: pool.completed as f64 / (pool.total_cycles as f64 / 1e6),
            }
        })
        .collect()
}

/// Renders the throughput table with the paper's ratios.
pub fn render_throughput(results: &[ThroughputResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>10} {:>13} {:>16}",
        "version", "served", "child deaths", "req/megacycle"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>13} {:>16.2}",
            r.mode.name(),
            r.completed,
            r.child_deaths,
            r.throughput
        );
    }
    let fo = results[0].throughput;
    for r in &results[1..] {
        let paper = if r.mode == Mode::BoundsCheck {
            5.7
        } else {
            4.8
        };
        let _ = writeln!(
            out,
            "FO / {:<17} = {:>5.1}x   (paper: {paper}x)",
            r.mode.name(),
            fo / r.throughput
        );
    }
    out
}

// ----------------------------------------------------------------------
// Security & resilience matrix (§4.2.2 / §4.3.2 / §4.4.2 / §4.5.2 / §4.6.2).
// ----------------------------------------------------------------------

/// One cell of the security matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Server name.
    pub server: &'static str,
    /// Compiler version.
    pub mode: Mode,
    /// Did the server initialise with the hostile environment present?
    pub init_ok: bool,
    /// What the attack request did ("crash: ...", "rejected", ...).
    pub attack: String,
    /// Could legitimate requests be served after the attack?
    pub serves_after: bool,
}

fn describe(outcome: &foc_servers::Outcome) -> String {
    match outcome {
        foc_servers::Outcome::Done { ret, .. } => format!("handled (rc {ret})"),
        foc_servers::Outcome::Crashed(f) if f.is_memory_error() => "memory-error exit".into(),
        foc_servers::Outcome::Crashed(f) if f.is_segfault_like() => format!("crash ({f})"),
        foc_servers::Outcome::Crashed(f) => format!("died ({f})"),
    }
}

/// Runs the attack/recovery scenario for every server under `mode`.
pub fn security_matrix(mode: Mode) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    let mut cell = |server, init_ok, attack, serves_after| {
        cells.push(MatrixCell {
            server,
            mode,
            init_ok,
            attack,
            serves_after,
        })
    };

    // Pine: poisoned mailbox present at startup.
    {
        let mut mailbox = pine::Pine::standard_mailbox(4);
        mailbox.insert(2, (pine::attack_from(40), b"pwn".to_vec(), b"x".to_vec()));
        let mut p = pine::Pine::boot_spec(&BootSpec::new(ServerKind::Pine, mode), mailbox);
        let init_ok = p.usable();
        let attack = describe(p.init_outcome());
        let serves_after = init_ok && p.read(0).outcome.ret() == Some(0);
        cell("Pine", init_ok, attack, serves_after);
    }

    // Apache: attack URL against a single child.
    {
        let mut w = apache::ApacheWorker::boot_spec(&BootSpec::new(ServerKind::Apache, mode));
        let r = w.get(&apache::attack_url());
        let attack = describe(&r.outcome);
        let serves_after = w.get(b"/index.html").outcome.ret() == Some(200);
        cell("Apache", true, attack, serves_after);
    }

    // Sendmail: daemon wake-up at boot, then the attack address.
    {
        let mut sm = sendmail::Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, mode));
        let init_ok = sm.usable();
        let attack = if init_ok {
            describe(&sm.mail_from(&sendmail::attack_address(400)).outcome)
        } else {
            format!("unusable: {}", describe(sm.init_outcome()))
        };
        let serves_after = init_ok
            && sm
                .receive(
                    &workload::sendmail_address(1),
                    &workload::sendmail_address(2),
                    b"post-attack",
                )
                .outcome
                .ret()
                == Some(250);
        cell("Sendmail", init_ok, attack, serves_after);
    }

    // MC: blank config line at startup, then the archive attack.
    {
        let mut m = mc::Mc::boot_spec(
            &BootSpec::new(ServerKind::Mc, mode),
            &mc::config_with_blank_line(),
        );
        let init_ok = m.usable();
        let attack = if init_ok {
            describe(&m.open_archive(&mc::attack_links()).outcome)
        } else {
            format!("unusable: {}", describe(m.init_outcome()))
        };
        let serves_after = init_ok && {
            m.create(b"/x", 1024, false);
            m.copy(b"/x", b"/y").outcome.ret() == Some(1024)
        };
        cell("MC", init_ok, attack, serves_after);
    }

    // Mutt: malicious folder name.
    {
        let mut mt = mutt::Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, mode), 2);
        let r = mt.open_folder(&mutt::attack_folder_name(40));
        let attack = describe(&r.outcome);
        let serves_after = mt.open_folder(b"INBOX").outcome.ret() == Some(0)
            && mt.read_message(0).outcome.ret() == Some(0);
        cell("Mutt", true, attack, serves_after);
    }

    cells
}

/// Renders the full matrix across the three main modes.
pub fn render_security_matrix() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:<6} {:<34} {:<6}",
        "server", "version", "init", "attack request", "serves after"
    );
    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        for cell in security_matrix(mode) {
            let _ = writeln!(
                out,
                "{:<10} {:<18} {:<6} {:<34} {:<6}",
                cell.server,
                cell.mode.name(),
                if cell.init_ok { "up" } else { "DEAD" },
                cell.attack,
                if cell.serves_after { "yes" } else { "NO" }
            );
        }
    }
    out
}

// ----------------------------------------------------------------------
// §5.1 variants and the §3 manufactured-value ablation.
// ----------------------------------------------------------------------

/// Variant matrix: do the failure-oblivious variants keep all five
/// servers alive through their attacks?
pub fn variants_matrix() -> Vec<(Mode, Vec<(&'static str, bool)>)> {
    [Mode::FailureOblivious, Mode::Boundless, Mode::Redirect]
        .into_iter()
        .map(|mode| {
            let survived: Vec<(&'static str, bool)> = security_matrix(mode)
                .into_iter()
                .map(|c| {
                    let ok = c.init_ok && c.serves_after && !c.attack.contains("crash");
                    (c.server, ok)
                })
                .collect();
            (mode, survived)
        })
        .collect()
}

/// Outcome of the manufactured-value ablation for one strategy.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Strategy description.
    pub strategy: String,
    /// Whether the MC `'/'` scan terminated.
    pub terminated: bool,
    /// Manufactured reads consumed before exit (when terminated).
    pub reads: u64,
}

/// Reproduces the §3 discussion: the MC scan loop under different
/// manufactured-value strategies.
pub fn ablation_values() -> Vec<AblationResult> {
    use foc_memory::ValueSequence;
    use foc_vm::{Machine, MachineConfig};
    let strategies: Vec<(String, ValueSequence)> = vec![
        ("cycling (paper)".into(), ValueSequence::default()),
        ("zero".into(), ValueSequence::Zero),
        ("constant 1".into(), ValueSequence::Constant(1)),
        ("constant '/'".into(), ValueSequence::Constant(47)),
    ];
    strategies
        .into_iter()
        .map(|(strategy, seq)| {
            let mut cfg = MachineConfig::with_mode(Mode::FailureOblivious);
            cfg.mem.sequence = seq;
            cfg.fuel_per_call = 2_000_000;
            let mut m = Machine::from_source(mc::MC_SOURCE, cfg).expect("compile");
            let p = m.alloc_cstring(b"noslashhere").expect("alloc");
            let terminated = m.call("mc_component_end", &[p as i64]).is_ok();
            AblationResult {
                strategy,
                terminated,
                reads: m.space().error_log().total_reads(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_holds() {
        let rows = fig2_pine();
        let read = rows[0].slowdown();
        let compose = rows[1].slowdown();
        let mv = rows[2].slowdown();
        assert!(read > 2.0, "Pine Read slowdown {read}");
        assert!(compose > 2.0, "Pine Compose slowdown {compose}");
        assert!(mv < 2.0, "Pine Move slowdown {mv}");
        assert!(mv < read && mv < compose, "Move is the cheapest");
    }

    #[test]
    fn fig3_shape_holds() {
        let rows = fig3_apache();
        assert!(
            rows[0].slowdown() < 1.3,
            "Apache Small {}",
            rows[0].slowdown()
        );
        assert!(
            rows[1].slowdown() < 1.1,
            "Apache Large {}",
            rows[1].slowdown()
        );
        assert!(
            rows[1].slowdown() < rows[0].slowdown() + 0.25,
            "larger transfers amortise better"
        );
    }

    #[test]
    fn fig4_shape_holds() {
        let rows = fig4_sendmail();
        for r in &rows {
            let s = r.slowdown();
            assert!(s > 1.5 && s < 8.0, "{}: slowdown {s}", r.request);
        }
        // Flat across sizes, as in the paper.
        let ratio = rows[0].slowdown() / rows[1].slowdown();
        assert!(ratio > 0.45 && ratio < 2.2, "flatness ratio {ratio}");
    }

    #[test]
    fn fig5_shape_holds() {
        let rows = fig5_mc();
        let copy = rows[0].slowdown();
        assert!(copy > 1.02 && copy < 2.5, "MC Copy slowdown {copy}");
        let delete = rows[3].slowdown();
        assert!(delete < copy + 1.0, "Delete stays modest: {delete}");
    }

    #[test]
    fn fig6_shape_holds() {
        let rows = fig6_mutt();
        let read = rows[0].slowdown();
        let mv = rows[1].slowdown();
        assert!(read > 1.8, "Mutt Read slowdown {read}");
        assert!(mv < read, "Move ({mv}) below Read ({read})");
    }

    #[test]
    fn throughput_ordering_matches_paper() {
        let r = apache_throughput(120);
        assert_eq!(r[0].mode, Mode::FailureOblivious);
        assert_eq!(r[0].child_deaths, 0);
        assert!(
            r[0].throughput > 2.0 * r[1].throughput,
            "FO >> Bounds Check"
        );
        assert!(r[0].throughput > 2.0 * r[2].throughput, "FO >> Standard");
        // Standard children process faster than checked ones, so Standard
        // edges out Bounds Check — the paper's 4.8x vs 5.7x ordering.
        assert!(r[2].throughput >= r[1].throughput * 0.95);
    }

    #[test]
    fn security_matrix_matches_paper_qualitative_results() {
        // Failure-oblivious: everything up, everything served.
        for cell in security_matrix(Mode::FailureOblivious) {
            assert!(cell.init_ok, "{}: FO init", cell.server);
            assert!(cell.serves_after, "{}: FO post-attack", cell.server);
        }
        // Bounds Check: Pine/Sendmail/MC die at init; Apache/Mutt die at
        // the attack.
        let bc = security_matrix(Mode::BoundsCheck);
        let by_name = |n: &str| bc.iter().find(|c| c.server == n).unwrap().clone();
        assert!(!by_name("Pine").init_ok);
        assert!(!by_name("Sendmail").init_ok);
        assert!(!by_name("MC").init_ok);
        assert!(by_name("Apache").attack.contains("memory-error"));
        assert!(!by_name("Mutt").serves_after);
        // Standard: Apache and Mutt crash on the attack.
        let std = security_matrix(Mode::Standard);
        let by_name = |n: &str| std.iter().find(|c| c.server == n).unwrap().clone();
        assert!(by_name("Apache").attack.contains("crash"));
        assert!(by_name("Mutt").attack.contains("crash"));
        assert!(by_name("Sendmail").attack.contains("crash"));
    }

    #[test]
    fn variants_all_survive() {
        for (mode, cells) in variants_matrix() {
            for (server, ok) in cells {
                assert!(ok, "{server} under {mode:?}");
            }
        }
    }

    #[test]
    fn ablation_only_slash_capable_sequences_terminate() {
        let results = ablation_values();
        assert!(results[0].terminated, "cycling must terminate");
        assert!(!results[1].terminated, "zero must hang");
        assert!(!results[2].terminated, "constant 1 must hang");
        assert!(results[3].terminated, "constant '/' must terminate");
        assert!(results[0].reads > results[3].reads);
    }
}
