//! Order statistics for timing samples, and the cost-model fit.

/// Samples a reported percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The tolerance keeps representation error (95% of 200 is
    // 190.00000000000003 in floating point) from bumping the rank.
    let exact = p / 100.0 * n as f64;
    ((exact - 1e-9 * exact.max(1.0)).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond the
/// nearest rank of percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= TAIL_SAMPLES
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p);
    rank.checked_sub(1)
        .and_then(|i| sorted.get(i))
        .copied()
        .unwrap_or(0.0)
}

/// Median of `samples` (mean of the middle pair for even counts); 0
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Percentile `p` of each repetition's own samples, then the median
/// over repetitions. Samples are never pooled across repetitions.
pub fn median_of_percentiles(reps: &[Vec<f64>], p: f64) -> f64 {
    let each: Vec<f64> = reps.iter().map(|r| percentile(r, p)).collect();
    median(&each)
}

/// Least-squares fit of `y ≈ a·x1 + b·x2` with `a, b ≥ 0` (no
/// intercept). When the unconstrained optimum has a negative
/// coefficient, that coefficient is pinned to zero and the other is
/// refitted alone. Returns `(0, 0)` without usable data.
pub fn fit_nonneg_2(samples: &[(f64, f64, f64)]) -> (f64, f64) {
    let (mut s11, mut s12, mut s22, mut s1y, mut s2y) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x1, x2, y) in samples {
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        s1y += x1 * y;
        s2y += x2 * y;
    }
    let only_1 = || if s11 > 0.0 { (s1y / s11).max(0.0) } else { 0.0 };
    let only_2 = || if s22 > 0.0 { (s2y / s22).max(0.0) } else { 0.0 };
    let det = s11 * s22 - s12 * s12;
    if det.abs() <= f64::EPSILON * s11 * s22 {
        return (only_1(), 0.0);
    }
    let a = (s1y * s22 - s2y * s12) / det;
    let b = (s2y * s11 - s1y * s12) / det;
    match (a >= 0.0, b >= 0.0) {
        (true, true) => (a, b),
        (true, false) => (only_1(), 0.0),
        (false, true) => (0.0, only_2()),
        (false, false) => {
            // Keep whichever single-term fit leaves the smaller error.
            let err = |a: f64, b: f64| -> f64 {
                samples
                    .iter()
                    .map(|&(x1, x2, y)| (y - a * x1 - b * x2).powi(2))
                    .sum()
            };
            let (a1, b2) = (only_1(), only_2());
            if err(a1, 0.0) <= err(0.0, b2) {
                (a1, 0.0)
            } else {
                (0.0, b2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        // Nearest rank picks a sample; it never interpolates.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 51.0), 3.0);
    }

    #[test]
    fn ten_samples_beyond_the_percentile() {
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
        assert!(!supports(0, 50.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1_000, 99.0));
    }

    #[test]
    fn medians_of_per_repetition_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let rep = |scale: f64| -> Vec<f64> { (1..=200).map(|x| f64::from(x) * scale).collect() };
        let reps = vec![rep(1.0), rep(2.0), rep(10.0)];
        assert_eq!(median_of_percentiles(&reps, 95.0), 380.0);
        assert_eq!(median_of_percentiles(&reps, 50.0), 200.0);
    }

    #[test]
    fn fit_recovers_exact_coefficients_and_clamps() {
        let pts: Vec<(f64, f64, f64)> = [(100.0, 1.0), (80.0, 10.0), (10.0, 40.0), (50.0, 5.0)]
            .iter()
            .map(|&(p, e)| (p, e, 2.0 * p + 90.0 * e))
            .collect();
        let (a, b) = fit_nonneg_2(&pts);
        assert!((a - 2.0).abs() < 1e-9 && (b - 90.0).abs() < 1e-9, "{a} {b}");
        // y falls as x2 grows: the x2 term is pinned at zero.
        let pts = [(1.0, 1.0, 1.0), (2.0, 4.0, 1.5), (3.0, 9.0, 2.0)];
        let (a, b) = fit_nonneg_2(&pts);
        assert!(a > 0.0);
        assert_eq!(b, 0.0);
        assert_eq!(fit_nonneg_2(&[]), (0.0, 0.0));
    }
}
