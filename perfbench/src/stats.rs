//! Order statistics over `f64` samples.

/// The `q`-quantile (0.0..=1.0) by linear interpolation between order
/// statistics. Panics on an empty slice: every caller samples at least once.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percent, value)`. With fewer than twenty samples that is the
/// median itself.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let q = (1.0 - 10.0 / n).max(0.5);
    (q * 100.0, quantile(values, q))
}
