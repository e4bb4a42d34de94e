//! Order statistics for repeated timings.

/// Min, quartiles, max and count of one metric's samples. The quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method), so the spread printed here is the one the acceptance check
/// computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `samples`; panics on an empty slice (every metric the
    /// benchmark reports has at least one sample by construction).
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&s);
        Self {
            n: s.len(),
            min: s[0],
            q1,
            median,
            q3,
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} [min {:.4} q1 {:.4} q3 {:.4} max {:.4}] n={} iqr/median {:.2}%",
            self.median,
            self.min,
            self.q1,
            self.q3,
            self.max,
            self.n,
            100.0 * self.iqr_frac()
        )
    }
}

/// The three quartile cut points of an ascending slice, exclusive
/// method; the middle one is the median. A single sample is its own
/// quartiles.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n < 2 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Median of unsorted samples.
pub fn median_of(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// A sample slower than the run's fastest by more than this share was
/// taken during a slow spell of the host, not by slower code: undisturbed
/// samples of one run sit within 1-3 % of each other, the host's spells
/// add 10-25 % (README.md, calibration record).
pub const DISTURBED: f64 = 0.05;

/// The samples within [`DISTURBED`] of the fastest. The host's noise is
/// one-sided, so these are the ones that measured the code.
pub fn undisturbed(samples: &[f64]) -> Vec<f64> {
    let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let limit = fastest * (1.0 + DISTURBED);
    samples.iter().copied().filter(|s| *s <= limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        assert_eq!(median_of(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4)
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            [2.0, 8.0, 32.0]
        );
        // statistics.quantiles([3, 5], n=4): extrapolates past the ends.
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn undisturbed_keeps_what_sits_near_the_fastest() {
        // One cold start and one slow spell among steady samples.
        let run = [2.30, 2.04, 2.00, 2.45, 2.06, 2.10, 2.11];
        assert_eq!(undisturbed(&run), [2.04, 2.00, 2.06, 2.10]);
        assert_eq!(median_of(&undisturbed(&run)), 2.05);
        // Exactly at the limit counts as undisturbed; a lone sample is kept.
        assert_eq!(undisturbed(&[1.0, 1.05, 1.0501]), [1.0, 1.05]);
        assert_eq!(undisturbed(&[3.0]), [3.0]);
    }

    #[test]
    fn summary_orders_and_spreads() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
    }
}
