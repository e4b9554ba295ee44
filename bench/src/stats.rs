//! The timing rule's arithmetic: nearest-rank quantiles and the
//! reference-kernel scaling.
//!
//! Every host-time end-to-end metric is the **fastest rep, scaled by
//! the fastest kernel run**. Timed reps alternate with runs of the
//! harness's reference kernel ([`crate::kernel`]); the metric is
//! `min(reps) * K_REF / min(kernels)`. The reps of a run are identical
//! work and the host only ever slows them down, so the fastest rep is
//! the one least disturbed; the fastest kernel run says how fast the
//! host was at its quietest in the same period, which corrects a run
//! that never saw the host quiet at all. `README.md` has the
//! measurements this rule was chosen on.

/// Nominal duration of the reference kernel, in seconds: what its
/// fastest run takes on the development host.
pub const K_REF: f64 = 0.0375;

/// Nearest-rank quantile `q` in `(0, 1]` of `values`: the element of
/// rank `ceil(q * n)` (1-based) in sorted order.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `(0, 1]` — both harness bugs.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fast decile: nearest-rank 10th percentile (the 3rd-smallest of
/// 30, the smallest of up to 10). Used where a handful of direct calls
/// is timed and the quietest ones are wanted.
pub fn fast_decile(values: &[f64]) -> f64 {
    quantile(values, 0.10)
}

/// The smallest value.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The timing rule: the fastest rep on a host whose fastest kernel run
/// takes [`K_REF`].
pub fn scaled_fastest(reps: &[f64], kernels: &[f64]) -> f64 {
    fastest(reps) * K_REF / fastest(kernels)
}
