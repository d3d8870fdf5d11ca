//! Summary arithmetic shared by every metric: medians, geometric means,
//! quartiles, tail percentiles that the sample can support, and the metric
//! name grammar.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the highest percentile that has them is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count). `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values. `NaN` when empty or when any
/// value is not positive (a zero time means the measurement is broken).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spread printed here matches the one an outside checker computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2
}

/// A tail percentile as reported: which percentile, its value, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (e.g. 99.0, or lower when the sample
    /// is too small to support 99).
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank 1-based rank of percentile `p` among `n` samples. The small
/// slack keeps a product that is an integer in exact arithmetic (98.4% of
/// 625 = 615) from rounding up to the next rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile not above `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond its nearest-rank position. Falls back to the
/// median when even that is unsupported (fewer than about 20 samples).
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 50.0;
    }
    if n - rank(n, want) >= MIN_BEYOND {
        return want;
    }
    if n <= MIN_BEYOND {
        return 50.0;
    }
    // Largest rank with ten samples beyond it, as a percentile rounded down
    // to a tenth (rounding down keeps the rank at or below the limit).
    let p = ((n - MIN_BEYOND) as f64 * 1000.0 / n as f64).floor() / 10.0;
    p.max(50.0)
}

/// The tail of `xs` at `want` (or the highest supported percentile below it).
pub fn tail(xs: &[f64], want: f64) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    let percentile = supported_percentile(n, want);
    let value = if n == 0 { f64::NAN } else { s[rank(n, percentile) - 1] };
    Tail { percentile, value, samples: n }
}

/// The metric-name grammar: 1–64 characters from `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_matches_the_definition() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — p99 is supported.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        // 999 samples: rank 990 leaves nine beyond, so step down.
        let p = supported_percentile(999, 99.0);
        assert!(p < 99.0);
        assert!(999 - rank(999, p) >= MIN_BEYOND);
        // 200 samples: the highest supported percentile is 95.
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(200 - rank(200, 95.0), 10);
        // Tiny samples fall back to the median.
        assert_eq!(supported_percentile(8, 99.0), 50.0);
        assert_eq!(supported_percentile(0, 99.0), 50.0);
        for n in 11..3000 {
            let p = supported_percentile(n, 99.0);
            assert!(p == 50.0 || n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_value_percentile_and_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!(t, Tail { percentile: 95.0, value: 190.0, samples: 200 });
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0).value, 1980.0);
        assert_eq!(tail(&xs, 50.0).value, 1000.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "high.p99_ms", "fj-plan.stats_ms", "0x", "a"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "speed×", "p99%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
