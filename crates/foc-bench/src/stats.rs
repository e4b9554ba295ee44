//! Robust summary statistics for noisy wall-time samples.
//!
//! The `bench` binary measures on shared, unpinned hardware, so raw
//! rep means carry scheduler spikes. [`robust_summary`] makes the
//! numbers defensible: Tukey's IQR fences discard outliers, then the
//! surviving samples get a mean, a sample standard deviation, and a
//! normal-approximation 95% confidence interval — the wall-time rows of
//! the farm trajectory record (`BENCH_farm.json`).

/// Robust summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean of the samples that survived outlier rejection.
    pub mean: f64,
    /// Sample standard deviation of the survivors.
    pub sd: f64,
    /// Half-width of the 95% confidence interval around `mean`
    /// (`1.96 * sd / sqrt(n)`, normal approximation).
    pub ci95: f64,
    /// Median of the survivors.
    pub median: f64,
    /// Samples used after rejection.
    pub used: usize,
    /// Samples rejected as outliers.
    pub rejected: usize,
}

impl Summary {
    /// The all-zero summary of an empty sample set.
    fn empty() -> Summary {
        Summary {
            mean: 0.0,
            sd: 0.0,
            ci95: 0.0,
            median: 0.0,
            used: 0,
            rejected: 0,
        }
    }
}

/// Linear-interpolation quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Mean and sample standard deviation.
fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Summarises `samples` robustly: Tukey IQR fences (1.5 × IQR beyond
/// the quartiles) reject outliers, then the survivors get mean, sample
/// standard deviation, median, and a 95% confidence interval. With
/// fewer than 4 samples there is no meaningful quartile spread, so
/// nothing is rejected.
pub fn robust_summary(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::empty();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));

    let kept: Vec<f64> = if sorted.len() < 4 {
        sorted.clone()
    } else {
        let q1 = quantile(&sorted, 0.25);
        let q3 = quantile(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo = q1 - 1.5 * iqr;
        let hi = q3 + 1.5 * iqr;
        sorted
            .iter()
            .copied()
            .filter(|&x| x >= lo && x <= hi)
            .collect()
    };
    let rejected = sorted.len() - kept.len();

    let (mean, sd) = mean_sd(&kept);
    let ci95 = if kept.len() >= 2 {
        1.96 * sd / (kept.len() as f64).sqrt()
    } else {
        0.0
    };
    Summary {
        mean,
        sd,
        ci95,
        median: quantile(&kept, 0.5),
        used: kept.len(),
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_samples_keep_everything() {
        let s = robust_summary(&[10.0, 11.0, 9.0, 10.5, 9.5, 10.0]);
        assert_eq!(s.used, 6);
        assert_eq!(s.rejected, 0);
        assert!((s.mean - 10.0).abs() < 0.5);
        assert!(s.ci95 > 0.0);
        assert!((s.median - 10.0).abs() < 0.5);
    }

    #[test]
    fn gross_outlier_is_rejected() {
        let s = robust_summary(&[10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 500.0]);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.used, 6);
        assert!(s.mean < 11.0, "outlier must not drag the mean: {}", s.mean);
    }

    #[test]
    fn tiny_sample_sets_are_passed_through() {
        let s = robust_summary(&[5.0]);
        assert_eq!((s.used, s.rejected), (1, 0));
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.ci95, 0.0);

        let s = robust_summary(&[1.0, 100.0, 3.0]);
        assert_eq!((s.used, s.rejected), (3, 0));
    }

    #[test]
    fn empty_input_yields_zeroes() {
        let s = robust_summary(&[]);
        assert_eq!(s.used, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let few: Vec<f64> = (0..8).map(|i| 10.0 + (i % 3) as f64).collect();
        let many: Vec<f64> = (0..128).map(|i| 10.0 + (i % 3) as f64).collect();
        let a = robust_summary(&few);
        let b = robust_summary(&many);
        assert!(b.ci95 < a.ci95, "CI must tighten: {} vs {}", b.ci95, a.ci95);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
    }
}
