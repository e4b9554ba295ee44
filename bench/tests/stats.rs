//! The timing rule's arithmetic.

use foc_farm_bench::stats::{fast_decile, fastest, quantile, scaled_fastest, K_REF};

#[test]
fn fast_decile_is_the_nearest_rank_tenth_percentile() {
    let mut thirty: Vec<f64> = (1..=30).map(f64::from).collect();
    thirty.reverse();
    assert_eq!(fast_decile(&thirty), 3.0, "3rd-smallest of 30");
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(fast_decile(&ten), 1.0, "smallest of 10");
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(fast_decile(&eleven), 2.0, "rank ceil(1.1) = 2 of 11");
    assert_eq!(fast_decile(&[7.5]), 7.5);
}

#[test]
fn quantiles_are_nearest_rank() {
    let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&xs, 0.5), 3.0);
    assert_eq!(quantile(&xs, 0.9), 5.0);
    assert_eq!(quantile(&xs, 1.0), 5.0);
    assert_eq!(
        quantile(&[1.0, 2.0, 3.0, 4.0], 0.5),
        2.0,
        "lower middle of an even count"
    );
    assert_eq!(fastest(&xs), 1.0);
}

#[test]
fn the_fastest_rep_is_scaled_by_the_fastest_kernel_run() {
    // The host was at nominal speed at its quietest: no scaling.
    let reps = [0.30, 0.25, 0.41];
    assert!(
        (scaled_fastest(&reps, &[K_REF, 1.5 * K_REF, 1.1 * K_REF, K_REF]) - 0.25).abs() < 1e-12
    );
    // The host never got faster than two thirds of nominal: the
    // fastest rep would have taken two thirds of its time.
    let slow = [1.5 * K_REF, 1.6 * K_REF, 1.9 * K_REF, 1.5 * K_REF];
    assert!((scaled_fastest(&reps, &slow) - 0.25 / 1.5).abs() < 1e-12);
}

#[test]
fn slow_spells_do_not_move_the_reading() {
    let quiet = scaled_fastest(&[0.10, 0.10, 0.10], &[K_REF; 4]);
    let disturbed = scaled_fastest(
        &[0.15, 0.10, 0.19],
        &[1.5 * K_REF, K_REF, 1.4 * K_REF, 1.5 * K_REF],
    );
    assert_eq!(quiet, disturbed);
}

#[test]
fn a_uniformly_slower_host_reads_the_same() {
    let reps = [0.10, 0.11, 0.10, 0.12];
    let kernels = [0.040, 0.041, 0.040, 0.042, 0.041];
    let slow = |xs: &[f64]| xs.iter().map(|x| x * 1.5).collect::<Vec<_>>();
    let (a, b) = (
        scaled_fastest(&reps, &kernels),
        scaled_fastest(&slow(&reps), &slow(&kernels)),
    );
    assert!((a - b).abs() < 1e-12);
}
