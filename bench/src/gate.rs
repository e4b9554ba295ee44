//! The correctness gate: what a workload's `FarmReport` must say before
//! any of its timings count.

use foc_memory::Mode;
use foc_servers::farm::{FarmConfig, FarmReport};

use crate::replay::Tally;

/// Requests that had to be answered and were not. A Bounds Check child
/// is built to die on an attack, so on `apache_flood` the attack
/// requests are not owed an answer; everywhere else every request is.
pub fn failed(config: &FarmConfig, report: &FarmReport) -> u64 {
    let s = &report.stats;
    let owed = match config.mode {
        Mode::FailureOblivious => s.requests,
        _ => s.requests - s.attacks,
    };
    owed.saturating_sub(s.completed)
}

/// Checks a report against the invariants of its workload.
pub fn check_report(config: &FarmConfig, report: &FarmReport) -> Result<(), String> {
    let s = &report.stats;
    let expected = (config.servers * config.requests_per_server) as u64;
    let mut errors = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            errors.push(what);
        }
    };
    require(
        s.requests == expected && s.requests == s.completed + s.dropped,
        format!(
            "requests {} != servers x requests_per_server {expected}, or != completed {} + dropped {}",
            s.requests, s.completed, s.dropped
        ),
    );
    require(s.attacks > 0, "the stream carried no attack".to_string());
    if config.mode == Mode::FailureOblivious {
        require(
            s.completed == s.requests && s.deaths == 0 && s.restarts == 0,
            format!(
                "a failure-oblivious farm answers everything and never dies: completed {} of {}, deaths {}, restarts {}",
                s.completed, s.requests, s.deaths, s.restarts
            ),
        );
    } else {
        require(
            s.deaths > 0 && s.deaths == s.restarts && s.deaths == s.attacks && s.servers_down == 0,
            format!(
                "every attack kills one child and each is restarted once: attacks {}, deaths {}, restarts {}, servers down {}",
                s.attacks, s.deaths, s.restarts, s.servers_down
            ),
        );
        require(
            s.completed == s.requests - s.deaths,
            format!(
                "completed {} != requests {} - deaths {}",
                s.completed, s.requests, s.deaths
            ),
        );
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// Checks that another run of the same farm (another rep, thread count
/// or edge) produced the same report.
pub fn check_same(what: &str, first: &FarmReport, other: &FarmReport) -> Result<(), String> {
    if first == other {
        Ok(())
    } else {
        Err(format!("{what}: the report differs from the first rep's"))
    }
}

/// Checks a replay through the public driver API against the farm's
/// per-server record of the same streams.
pub fn check_replay(report: &FarmReport, replayed: &[Tally]) -> Result<(), String> {
    if replayed.len() != report.per_server.len() {
        return Err(format!(
            "replay covered {} servers, the farm {}",
            replayed.len(),
            report.per_server.len()
        ));
    }
    match replayed
        .iter()
        .zip(&report.per_server)
        .position(|(tally, farm)| !tally.matches(farm))
    {
        None => Ok(()),
        Some(index) => Err(format!(
            "server {index}: the replay through the public driver API disagrees with the farm's record"
        )),
    }
}
