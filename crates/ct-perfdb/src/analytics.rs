//! Robust trajectory analytics: median/MAD statistics and the
//! latest-run regression verdict.
//!
//! Perf series are heavy-tailed — one noisy-neighbour run should not
//! move the baseline — so everything here is built on the median and
//! the median absolute deviation (MAD) rather than mean/stddev. The MAD
//! is rescaled by 1.4826 (the normal-consistency constant) so `nsigma`
//! thresholds read like familiar z-scores, and a relative floor keeps a
//! near-zero MAD (identical repeated measurements) from flagging
//! harmless jitter as a regression.

/// Median of `values` (ignores non-finite entries). `None` when no
/// finite values remain.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Median absolute deviation around the median. `None` when `values`
/// has no finite entries.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let dev: Vec<f64> = values
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .map(|x| (x - m).abs())
        .collect();
    median(&dev)
}

/// Tuning for the latest-run regression check. The judged metric is
/// higher-is-better (GUPS): only a drop below the bound regresses.
#[derive(Debug, Clone, Copy)]
pub struct RegressionPolicy {
    /// How many preceding runs form the baseline window.
    pub window: usize,
    /// Robust z-score threshold: flag when the run sits more than
    /// `nsigma` scale units on the bad side of the baseline median.
    pub nsigma: f64,
    /// Relative noise floor: the detection scale is at least
    /// `rel_floor * |median|`, so a window of identical measurements
    /// (MAD = 0) does not flag sub-noise jitter.
    pub rel_floor: f64,
}

impl Default for RegressionPolicy {
    fn default() -> Self {
        Self {
            window: 8,
            nsigma: 4.0,
            rel_floor: 0.05,
        }
    }
}

impl RegressionPolicy {
    /// The detection scale for a baseline window: normal-consistent MAD
    /// (`1.4826 * mad`) floored at `rel_floor * |median|`.
    fn scale(&self, baseline_median: f64, baseline_mad: f64) -> f64 {
        let consistent = 1.4826 * baseline_mad;
        let floor = self.rel_floor * baseline_median.abs();
        consistent.max(floor)
    }
}

/// The outcome of judging the latest run against its baseline window.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// Baseline window size actually used (≤ policy window).
    pub n: usize,
    /// Baseline median.
    pub baseline: f64,
    /// Baseline MAD (raw, not rescaled).
    pub mad: f64,
    /// Detection scale (consistent MAD with relative floor applied).
    pub scale: f64,
    /// The judged (latest) value.
    pub latest: f64,
    /// The acceptance bound the latest value was compared against:
    /// `baseline - nsigma*scale`.
    pub bound: f64,
    /// Did the latest value fall below the bound?
    pub regressed: bool,
}

/// Judge the last value of `values` against the (up to) `policy.window`
/// values preceding it. Returns `None` when there are fewer than two
/// values (nothing to compare against).
pub fn check_latest(values: &[f64], policy: &RegressionPolicy) -> Option<Verdict> {
    let (&latest, history) = values.split_last()?;
    if history.is_empty() {
        return None;
    }
    let start = history.len().saturating_sub(policy.window);
    let window = &history[start..];
    let baseline = median(window)?;
    let window_mad = mad(window)?;
    let scale = policy.scale(baseline, window_mad);
    let bound = baseline - policy.nsigma * scale;
    Some(Verdict {
        n: window.len(),
        baseline,
        mad: window_mad,
        scale,
        latest,
        bound,
        regressed: latest < bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mad(&[1.0, 1.0, 1.0]), Some(0.0));
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
        // Non-finite entries are ignored, not poisonous.
        assert_eq!(median(&[1.0, f64::INFINITY, 3.0]), Some(2.0));
    }

    #[test]
    fn clean_series_passes() {
        let vals = [0.20, 0.21, 0.205, 0.198, 0.202, 0.207];
        let v = check_latest(&vals, &RegressionPolicy::default()).expect("verdict");
        assert!(!v.regressed, "steady series must not flag: {v:?}");
    }

    #[test]
    fn collapse_is_flagged_for_higher_is_better() {
        let vals = [0.20, 0.21, 0.205, 0.198, 0.202, 0.10];
        let v = check_latest(&vals, &RegressionPolicy::default()).expect("verdict");
        assert!(v.regressed, "50% throughput drop must flag: {v:?}");
        assert_eq!(v.latest, 0.10);
        assert_eq!(v.n, 5);
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let vals = [0.20, 0.21, 0.205, 0.198, 0.202, 0.40];
        let v = check_latest(&vals, &RegressionPolicy::default()).expect("verdict");
        assert!(!v.regressed, "doubling throughput is not a regression");
    }

    #[test]
    fn zero_mad_window_uses_relative_floor() {
        // Identical history: MAD = 0. A 1% wobble sits inside the 5%
        // relative floor; a 40% collapse does not.
        let wobble = [0.2, 0.2, 0.2, 0.2, 0.202];
        let policy = RegressionPolicy {
            nsigma: 1.0,
            ..RegressionPolicy::default()
        };
        assert!(!check_latest(&wobble, &policy).expect("verdict").regressed);
        let crash = [0.2, 0.2, 0.2, 0.2, 0.12];
        assert!(check_latest(&crash, &policy).expect("verdict").regressed);
    }

    #[test]
    fn window_bounds_history() {
        // Old slow era outside the window must not mask a fresh drop.
        let policy = RegressionPolicy {
            window: 4,
            ..RegressionPolicy::default()
        };
        let vals = [0.05, 0.05, 0.30, 0.31, 0.29, 0.30, 0.15];
        let v = check_latest(&vals, &policy).expect("verdict");
        assert_eq!(v.n, 4);
        assert!(v.regressed, "drop vs recent window must flag: {v:?}");
    }

    #[test]
    fn too_short_series_is_none() {
        assert!(check_latest(&[], &RegressionPolicy::default()).is_none());
        assert!(check_latest(&[0.2], &RegressionPolicy::default()).is_none());
    }
}
