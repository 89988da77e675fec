//! Order statistics over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here equals the one the driver
//! computes over the same values.

use crate::json::Value;

/// One metric of one run: the value the run reports, and the median,
/// quartiles and count of the samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median of the samples, or — for a timing — the fastest one.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is one reading, not a distribution (a count, a ratio
    /// of totals).
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Value {
        Value::Obj(vec![
            ("value".into(), Value::Num(self.value)),
            ("median".into(), Value::Num(self.median)),
            ("q1".into(), Value::Num(self.q1)),
            ("q3".into(), Value::Num(self.q3)),
            ("n".into(), Value::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Summary {
            value: v.get("value")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            n: v.get("n")?.as_f64()? as usize,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample set: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, exclusive method; both equal the single value
/// when there is only one sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    if v.len() < 2 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summary that reports the median: for ratios, whose noise is two-sided.
pub fn summarize(samples: &[f64]) -> Summary {
    let (q1, q3) = quartiles(samples);
    let median = median(samples);
    Summary {
        value: median,
        median,
        q1,
        q3,
        n: samples.len(),
    }
}

/// Summary that reports the fastest sample: for timings on a shared box,
/// where interference only ever adds time. Measured here over 14 runs of
/// `log_decode` during a noisy spell: medians 61–93 ms, minima 59–65 ms.
pub fn fastest(samples: &[f64]) -> Summary {
    Summary {
        value: samples.iter().copied().fold(f64::INFINITY, f64::min),
        ..summarize(samples)
    }
}

/// The highest of p99.9 / p99 / p90 that still has at least `beyond`
/// samples above it (nearest rank), with its value; `None` when even p90
/// has fewer, in which case only the median may be reported.
pub fn tail_percentile(samples: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let v = sorted(samples);
    // Per-mille, so the rank is exact integer arithmetic.
    [999usize, 990, 900].into_iter().find_map(|pm| {
        let rank = (pm * v.len()).div_ceil(1000);
        (rank >= 1 && v.len() - rank >= beyond).then(|| (pm as f64 / 10.0, v[rank - 1]))
    })
}

/// Geometric mean of positive ratios.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let s = summarize(&[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
        assert_eq!(
            (s.value, s.median, s.q1, s.q3, s.n),
            (8.0, 8.0, 4.0, 12.0, 7)
        );
        assert_eq!(s.spread(), 1.0);
        let f = fastest(&[6.0, 2.0, 4.0]);
        assert_eq!(
            (f.value, f.median, f.q1, f.q3, f.n),
            (2.0, 4.0, 2.0, 6.0, 3)
        );
        assert_eq!(Summary::single(3.0).value, 3.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 10), Some((90.0, 90.0)));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 10), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 10), Some((99.0, 990.0)));
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 10), Some((99.9, 9990.0)));
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[4.0, 0.25]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = fastest(&[1.5, 2.5, 9.0]);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
