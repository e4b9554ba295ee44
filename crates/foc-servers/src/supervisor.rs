//! Restart supervision (§4.7, §5.6): the obvious alternative to
//! failure-oblivious computing — "a monitor that detects memory errors and
//! reboots the server" — evaluated against the same scenarios.
//!
//! The paper's point is that restarting only helps when the triggering
//! input is *transient*. Apache's pool works because each attack request
//! ends with the connection; the respawned child never sees it again.
//! But when the trigger *persists in the environment* — the poisoned
//! message in Pine's mailbox, the blank line in MC's configuration, the
//! malicious folder in Mutt's startup config, Sendmail's wake-up error —
//! "restarting is of no use because the restarted computations would,
//! once again, simply exit during initialization."
//!
//! [`restart_until_usable`] is the one definition of that supervision
//! loop in the tree: the study functions below use it with
//! [`RESTART_BUDGET`], and the farm's supervisor
//! (`farm::FarmConfig::restart_budget`, seeded from the same constant)
//! routes through it too.

use foc_memory::Mode;

use crate::farm::{Bytes, Request, Server, ServerEnv};
use crate::image::ServerKind;
use crate::{mc, mutt, pine, BootSpec};

/// Outcome of supervising one server under a persistent hostile
/// environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartStudy {
    /// Server name.
    pub server: &'static str,
    /// Compiler version supervised.
    pub mode: Mode,
    /// Restart attempts made (the supervisor gives up after its budget).
    pub attempts: u32,
    /// Whether the server ever became able to serve legitimate requests.
    pub recovered: bool,
}

/// Maximum restart attempts before a supervisor declares the service
/// down (real init systems back off similarly). The single default
/// budget: the §4.7 study uses it directly and `FarmConfig::new` seeds
/// its per-server budget from it.
pub const RESTART_BUDGET: u32 = 5;

/// The supervision loop itself: restarts `subject` until `usable`
/// reports true or `budget` attempts have been spent, returning the
/// number of attempts made. Zero attempts means the subject was already
/// serving.
pub fn restart_until_usable<T>(
    subject: &mut T,
    budget: u32,
    usable: impl Fn(&T) -> bool,
    mut restart: impl FnMut(&mut T),
) -> u32 {
    let mut attempts = 0;
    while !usable(subject) && attempts < budget {
        attempts += 1;
        restart(subject);
    }
    attempts
}

/// One row of the §4.7 study: a server whose error trigger persists in
/// its environment.
struct Row {
    kind: ServerKind,
    /// What is on disk, and so waiting for every restarted process.
    env: ServerEnv,
    /// What the configuration makes every (re)started process do before
    /// it serves.
    startup: Vec<Request>,
    /// Legitimate requests, each with the return code of a process that
    /// is serving.
    probes: Vec<(Request, i64)>,
}

/// The four persistent triggers: the poisoned message in Pine's
/// mailbox, the malicious folder Mutt opens at startup, the blank line
/// in MC's configuration, and Sendmail's own wake-up error.
fn rows() -> [Row; 4] {
    let standard = ServerEnv::standard().clone();
    let mut pine_mailbox = pine::Pine::standard_mailbox(4);
    pine_mailbox.insert(2, (pine::attack_from(40), b"pwn".to_vec(), b"x".to_vec()));
    let poisoned = ServerEnv {
        pine_mailbox,
        ..standard.clone()
    };
    let blank_line = ServerEnv {
        mc_config: mc::config_with_blank_line(),
        ..standard.clone()
    };
    let open = |name| Request::MuttOpenFolder { name };
    let mkdir = Request::McMkdir {
        path: Bytes::Static(b"/t"),
    };
    let receive = Request::SendmailReceive {
        from: Bytes::Static(b"a@example.org"),
        to: Bytes::Static(b"b@example.org"),
        body: Bytes::Static(b"probe"),
    };
    let row = |kind, env, startup, probes| Row {
        kind,
        env,
        startup,
        probes,
    };
    [
        row(
            ServerKind::Pine,
            poisoned,
            vec![],
            vec![(Request::PineRead { index: 0 }, 0)],
        ),
        row(
            ServerKind::Mutt,
            standard.clone(),
            vec![open(Bytes::Owned(mutt::attack_folder_name(40)))],
            vec![
                (open(Bytes::Static(b"INBOX")), 0),
                (Request::MuttRead { index: 0 }, 0),
            ],
        ),
        // A new directory lands in slot 3, behind the three entries a
        // started MC seeds its working directory with.
        row(ServerKind::Mc, blank_line, vec![], vec![(mkdir, 3)]),
        row(ServerKind::Sendmail, standard, vec![], vec![(receive, 250)]),
    ]
}

/// Boots `row`'s server into its hostile environment under `mode`,
/// restarts it until it is usable or the budget is spent, and probes
/// whether it serves.
fn supervise(row: &Row, mode: Mode) -> RestartStudy {
    let spec = BootSpec::new(row.kind, mode);
    let start = |server: &mut Server| {
        for request in &row.startup {
            request.apply(server);
        }
    };
    let mut server = Server::boot(row.kind, &spec, &row.env);
    start(&mut server);
    let attempts = restart_until_usable(&mut server, RESTART_BUDGET, Server::usable, |server| {
        server.restart(row.kind, &spec, &row.env);
        start(server);
    });
    let recovered = server.usable()
        && row
            .probes
            .iter()
            .all(|(probe, ret)| probe.apply(&mut server).outcome.ret() == Some(*ret));
    RestartStudy {
        server: row.kind.name(),
        mode,
        attempts,
        recovered,
    }
}

/// Runs the whole study for one mode.
pub fn study(mode: Mode) -> Vec<RestartStudy> {
    rows().iter().map(|row| supervise(row, mode)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_helper_counts_attempts_and_stops_at_budget() {
        // A subject that becomes usable after 3 restarts.
        let mut health = 0u32;
        let attempts = restart_until_usable(&mut health, 10, |h| *h >= 3, |h| *h += 1);
        assert_eq!(attempts, 3);
        // Already usable: zero attempts.
        let attempts = restart_until_usable(&mut health, 10, |h| *h >= 3, |h| *h += 1);
        assert_eq!(attempts, 0);
        // Never usable: the budget bounds the attempts.
        let mut hopeless = 0u32;
        let attempts = restart_until_usable(&mut hopeless, 4, |_| false, |h| *h += 1);
        assert_eq!(attempts, 4);
        assert_eq!(hopeless, 4);
    }

    #[test]
    fn restarting_bounds_check_is_futile_for_persistent_triggers() {
        for s in study(Mode::BoundsCheck) {
            assert_eq!(
                s.attempts, RESTART_BUDGET,
                "{}: supervisor must exhaust its budget",
                s.server
            );
            assert!(!s.recovered, "{}: restart cannot recover", s.server);
        }
    }

    #[test]
    fn failure_oblivious_needs_no_restarts() {
        for s in study(Mode::FailureOblivious) {
            assert_eq!(s.attempts, 0, "{}: no restart needed", s.server);
            assert!(s.recovered, "{}: serving", s.server);
        }
    }

    #[test]
    fn standard_mode_mixed_results() {
        // Standard Pine dies at init like Bounds Check (heap corruption);
        // Standard Sendmail and MC start fine (their init errors are
        // silent in unchecked mode) — the §4.7 asymmetry.
        let results = study(Mode::Standard);
        let by = |n: &str| results.iter().find(|s| s.server == n).unwrap().clone();
        assert!(!by("Pine").recovered);
        assert!(!by("Mutt").recovered, "startup folder kills every restart");
        assert!(by("MC").recovered, "blank line is harmless unchecked");
        assert!(
            by("Sendmail").recovered,
            "wake-up error is harmless unchecked"
        );
    }
}
