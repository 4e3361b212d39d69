//! The few order statistics the ledger is built from.

use doma_analysis::stats::percentile;

/// The `q`-th percentile (0–100) of a non-empty finite sample.
pub fn pct(sample: &[f64], q: f64) -> f64 {
    percentile(sample, q).expect("non-empty finite sample")
}

/// The median of a non-empty finite sample.
pub fn median(sample: &[f64]) -> f64 {
    pct(sample, 50.0)
}

/// The fastest of several repetitions or segments of the same work: the
/// smallest time. Whatever else the box is doing can only add to a
/// measurement, so the minimum is the steadiest estimate of what the code
/// costs.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so `--agree` judges a spread the
/// way the benchmark driver does. Needs at least two values.
pub fn quartiles(sample: &[f64]) -> [f64; 3] {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(sample: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(sample);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(pct(&v, 0.0), 1.0);
        assert_eq!(pct(&v, 100.0), 4.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1 000 samples leave ten beyond p99.
        assert!((pct(&thousand, 99.0) - 990.01).abs() < 1e-9);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        assert_eq!(iqr_share(&[50.0, 10.0, 40.0, 20.0, 30.0]), 1.0);
    }
}
