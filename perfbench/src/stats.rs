//! Summary statistics the benchmark reports, and the metric-name rule.

/// Percentiles the tail rule may report, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Quantile `q` in `[0, 1]` of an ascending slice, by linear
/// interpolation between closest ranks. `None` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The highest percentile in the fixed list that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Tenths of a percent keep the arithmetic exact (99.9% of 10,000
    // samples leaves exactly ten beyond).
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as u64 * (1000 - (p * 10.0).round() as u64) >= TAIL_MIN_BEYOND as u64 * 1000)
}

/// The value at percentile `p` of unsorted values when the sample
/// supports reporting it (at least [`TAIL_MIN_BEYOND`] samples beyond),
/// else `None`.
pub fn supported_percentile(values: &[f64], p: f64) -> Option<f64> {
    if !tail_percentile(values.len()).is_some_and(|tp| tp >= p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, p / 100.0)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn percentiles_are_reported_only_when_supported() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = supported_percentile(&v, 99.0).expect("1000 samples support p99");
        assert!((p99 - 990.01).abs() < 1e-9);
        assert_eq!(supported_percentile(&v, 50.0), Some(500.5));
        assert!(supported_percentile(&v, 99.9).is_none());
        assert!(supported_percentile(&v[..999], 99.0).is_none());
        assert!(supported_percentile(&[], 50.0).is_none());
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["wall_s", "p99_ms.high", "ml.fit_s.gbt", "9lives", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/name",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
