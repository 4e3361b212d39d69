//! Percentiles for experiment reports. Hand-rolled (the sample sizes here
//! are tiny; no dependency warranted).

/// The `q`-th percentile (0–100) by linear interpolation between order
/// statistics. Returns `None` on empty or non-finite input or `q` outside
/// `[0, 100]`.
pub fn percentile(sample: &[f64], q: f64) -> Option<f64> {
    if sample.is_empty() || sample.iter().any(|v| !v.is_finite()) || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert!(percentile(&v, 101.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }
}
