//! The correctness gate passes on what the farm really reports and
//! fails when a report field is perturbed.

use foc_farm_bench::gate::{check_replay, check_report, check_same, failed};
use foc_farm_bench::replay::replay;
use foc_farm_bench::spans::Tracer;
use foc_farm_bench::traced::farm_shares;
use foc_farm_bench::workloads::{find, WORKLOADS};
use foc_servers::farm::run_farm;

#[test]
fn every_workload_passes_the_gate_and_its_replay_agrees() {
    for workload in &WORKLOADS {
        let config = workload.config(3, true);
        let report = run_farm(&config);
        check_report(&config, &report).unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        assert_eq!(failed(&config, &report), 0, "{}", workload.name);
        let replayed = replay(&config, &mut Tracer::new(false));
        check_replay(&report, &replayed.per_server)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        assert_eq!(replayed.counts.requests, report.stats.requests);
    }
}

#[test]
fn a_perturbed_failure_oblivious_report_fails() {
    let config = find("apache_edge").unwrap().config(3, true);
    let report = run_farm(&config);

    let mut lost = report.clone();
    lost.stats.completed -= 1;
    lost.stats.dropped += 1;
    assert!(check_report(&config, &lost).is_err());
    assert_eq!(failed(&config, &lost), 1);

    let mut died = report.clone();
    died.stats.deaths = 1;
    assert!(check_report(&config, &died).is_err());

    let mut short = report.clone();
    short.stats.requests -= 1;
    assert!(check_report(&config, &short).is_err());
}

#[test]
fn a_perturbed_flood_report_fails() {
    let config = find("apache_flood").unwrap().config(3, true);
    let report = run_farm(&config);
    assert!(report.stats.deaths > 0);

    let mut unrestarted = report.clone();
    unrestarted.stats.restarts -= 1;
    assert!(check_report(&config, &unrestarted).is_err());

    let mut survivor = report.clone();
    survivor.stats.deaths -= 1;
    survivor.stats.restarts -= 1;
    assert!(check_report(&config, &survivor).is_err());

    let mut benign_lost = report.clone();
    benign_lost.stats.completed -= 1;
    benign_lost.stats.dropped += 1;
    assert!(check_report(&config, &benign_lost).is_err());
    assert_eq!(failed(&config, &benign_lost), 1);
}

#[test]
fn reps_and_replays_must_match_the_first_report() {
    let config = find("pine_mail").unwrap().config(3, true);
    let report = run_farm(&config);
    assert!(check_same("rep", &report, &run_farm(&config)).is_ok());

    let mut drifted = report.clone();
    drifted.per_server[0].latencies[0] += 1;
    assert!(check_same("rep", &report, &drifted).is_err());

    let mut replayed = replay(&config, &mut Tracer::new(false)).per_server;
    assert!(check_replay(&report, &replayed).is_ok());
    replayed[1].total_cycles += 1;
    assert!(check_replay(&report, &replayed).is_err());
    replayed.pop();
    assert!(check_replay(&report, &replayed).is_err());
}

#[test]
fn the_farm_shares_sum_to_one() {
    for (wall, guest, boot, edge) in [
        (1.0, 0.7, 0.1, 0.05),
        (0.48, 0.31, 0.12, 0.0),
        // A replay slower than the farm: the unattributed share goes
        // negative rather than the sum drifting.
        (0.5, 0.55, 0.01, 0.0),
    ] {
        let shares = farm_shares(wall, guest, boot, edge);
        assert!(
            (shares.iter().sum::<f64>() - 1.0).abs() < 1e-12,
            "{shares:?}"
        );
        assert!((shares[0] - guest / wall).abs() < 1e-12);
    }
}
