//! Exact order statistics over small samples. `rl_obs::LatencyHistogram`
//! buckets are 12.5 % wide and cannot carry a 10 % bound, so the harness
//! keeps the samples and sorts them.

/// Value at quantile `q` (0..=1) of an ascending-sorted slice, linearly
/// interpolated between the two nearest ranks. Empty input gives 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Coefficient of variation (population standard deviation ÷ mean); 0 for
/// fewer than two values or a zero mean.
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean.abs()
}

/// Distance between the first and third quartile as a share of the median —
/// the spread `compare` holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let med = quantile_sorted(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_a_sorted_reference() {
        // 1..=101: rank r holds value r+1, so every percentile is exact.
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 51.0);
        assert_eq!(quantile_sorted(&v, 0.9), 91.0);
        assert_eq!(quantile_sorted(&v, 0.99), 100.0);
        assert_eq!(quantile_sorted(&v, 1.0), 101.0);
        // Interpolation between ranks, and order-independence of `median`.
        assert_eq!(quantile_sorted(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn cv_and_iqr_of_known_samples() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv(&[90.0, 110.0]) - 0.1).abs() < 1e-12);
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((iqr_share(&v) - 2.0 / 3.0).abs() < 1e-12);
    }
}
