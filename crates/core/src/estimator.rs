//! Per-path bandwidth estimators (§3.3).
//!
//! The scheduler's chunk-size decisions ride on an online estimate `ŵᵢ` of
//! each path's throughput. The paper studies two estimators:
//!
//! * **EWMA** (Eq. 1): `ŵ(t+1) = α·ŵ(t) + (1−α)·w(t)`, α = 0.9;
//! * **Incremental harmonic mean** (Eq. 2):
//!   `ŵ(n+1) = (n+1) / (n/ŵ(n) + 1/w(n+1))` — the full-history harmonic
//!   mean maintained with O(1) state, which "tends to mitigate the impact of
//!   large outliers due to network variation".
//!
//! A sliding-window harmonic mean (the ablation variant) and the latest raw
//! sample (what the Ratio baseline effectively uses) complete the set.

use std::collections::VecDeque;

/// The sliding-window harmonic mean's window, in samples.
pub const HARMONIC_WINDOW: usize = 20;

/// One path's bandwidth estimator, its state inline.
#[derive(Clone, Debug)]
pub enum Estimator {
    /// Eq. 1: exponential weighted moving average with weight `alpha` on
    /// history.
    Ewma {
        /// Weight on history (the paper reports α = 0.9).
        alpha: f64,
        /// The current estimate, `None` before any sample.
        state: Option<f64>,
    },
    /// Eq. 2: incremental harmonic mean over the full history, keeping only
    /// the sample count and the running mean.
    Harmonic {
        /// Samples absorbed.
        n: u64,
        /// The harmonic mean of those samples.
        hmean: f64,
    },
    /// Harmonic mean of the last [`HARMONIC_WINDOW`] samples (the paper's
    /// \[19\] keeps a window of past measurements instead of the full
    /// history).
    Window(VecDeque<f64>),
    /// The most recent sample, verbatim.
    Last(Option<f64>),
}

impl Estimator {
    /// An empty EWMA with weight `alpha` on history.
    pub fn ewma(alpha: f64) -> Estimator {
        assert!((0.0..1.0).contains(&alpha), "alpha in [0,1)");
        Estimator::Ewma { alpha, state: None }
    }

    /// An empty incremental harmonic mean.
    pub fn harmonic() -> Estimator {
        Estimator::Harmonic { n: 0, hmean: 0.0 }
    }

    /// An empty sliding-window harmonic mean.
    pub fn window() -> Estimator {
        Estimator::Window(VecDeque::with_capacity(HARMONIC_WINDOW))
    }

    /// Feeds one throughput measurement `w > 0` (bits/s).
    #[inline]
    pub fn update(&mut self, sample_bps: f64) {
        debug_assert!(sample_bps > 0.0, "non-positive throughput sample");
        match self {
            Estimator::Ewma { alpha, state } => {
                *state = Some(match *state {
                    None => sample_bps,
                    Some(prev) => *alpha * prev + (1.0 - *alpha) * sample_bps,
                });
            }
            Estimator::Harmonic { n, hmean } => {
                if *n == 0 {
                    *n = 1;
                    *hmean = sample_bps;
                } else {
                    // Eq. 2: ŵ(n+1) = (n+1) / (n/ŵ(n) + 1/w(n+1))
                    let nf = *n as f64;
                    *hmean = (nf + 1.0) / (nf / *hmean + 1.0 / sample_bps);
                    *n += 1;
                }
            }
            Estimator::Window(window) => {
                if window.len() == HARMONIC_WINDOW {
                    window.pop_front();
                }
                window.push_back(sample_bps);
            }
            Estimator::Last(last) => *last = Some(sample_bps),
        }
    }

    /// The current estimate ŵ, or `None` before any sample
    /// (Alg. 1 line 2: "if ŵᵢ not available").
    #[inline]
    pub fn estimate_bps(&self) -> Option<f64> {
        match self {
            Estimator::Ewma { state, .. } => *state,
            Estimator::Harmonic { n, hmean } => (*n > 0).then_some(*hmean),
            Estimator::Window(window) => {
                if window.is_empty() {
                    return None;
                }
                let inv: f64 = window.iter().map(|w| 1.0 / w).sum();
                Some(window.len() as f64 / inv)
            }
            Estimator::Last(last) => *last,
        }
    }

    /// Forgets all history (used after failover to a new server).
    #[inline]
    pub fn reset(&mut self) {
        match self {
            Estimator::Ewma { state, .. } => *state = None,
            Estimator::Harmonic { n, hmean } => {
                *n = 0;
                *hmean = 0.0;
            }
            Estimator::Window(window) => window.clear(),
            Estimator::Last(last) => *last = None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> [Estimator; 4] {
        [
            Estimator::ewma(0.9),
            Estimator::harmonic(),
            Estimator::window(),
            Estimator::Last(None),
        ]
    }

    #[test]
    fn all_start_unavailable() {
        for e in &all() {
            assert_eq!(e.estimate_bps(), None, "{e:?}");
        }
    }

    #[test]
    fn ewma_follows_eq1() {
        let mut e = Estimator::ewma(0.9);
        e.update(10.0);
        assert_eq!(e.estimate_bps(), Some(10.0), "first sample initialises");
        e.update(20.0);
        // 0.9·10 + 0.1·20 = 11
        assert!((e.estimate_bps().unwrap() - 11.0).abs() < 1e-12);
        e.update(20.0);
        // 0.9·11 + 0.1·20 = 11.9
        assert!((e.estimate_bps().unwrap() - 11.9).abs() < 1e-12);
    }

    #[test]
    fn harmonic_incremental_equals_batch() {
        let samples = [8.0e6, 12.0e6, 3.0e6, 25.0e6, 9.5e6, 14.0e6];
        let mut inc = Estimator::harmonic();
        for &s in &samples {
            inc.update(s);
        }
        let batch = msim_core::stats::harmonic_mean(&samples);
        let got = inc.estimate_bps().unwrap();
        assert!(
            ((got - batch) / batch).abs() < 1e-12,
            "incremental {got} vs batch {batch}"
        );
        assert!(matches!(inc, Estimator::Harmonic { n: 6, .. }), "{inc:?}");
    }

    #[test]
    fn harmonic_resists_upward_outliers_better_than_ewma() {
        let mut h = Estimator::harmonic();
        let mut e = Estimator::ewma(0.9);
        for _ in 0..10 {
            h.update(10.0e6);
            e.update(10.0e6);
        }
        // One enormous burst outlier.
        h.update(200.0e6);
        e.update(200.0e6);
        let h_est = h.estimate_bps().unwrap();
        let e_est = e.estimate_bps().unwrap();
        let h_dev = (h_est - 10.0e6).abs() / 10.0e6;
        let e_dev = (e_est - 10.0e6).abs() / 10.0e6;
        assert!(
            h_dev < e_dev,
            "harmonic deviation {h_dev:.4} should be below EWMA {e_dev:.4}"
        );
    }

    #[test]
    fn window_variant_forgets_old_samples() {
        let mut w = Estimator::window();
        for s in 1..=HARMONIC_WINDOW + 5 {
            w.update(s as f64);
        }
        // The window holds the last 20 samples, 6..=25.
        let inv: f64 = (6..=HARMONIC_WINDOW + 5).map(|s| 1.0 / s as f64).sum();
        let est = w.estimate_bps().unwrap();
        assert!((est - HARMONIC_WINDOW as f64 / inv).abs() < 1e-12);
    }

    #[test]
    fn last_sample_tracks_latest() {
        let mut l = Estimator::Last(None);
        l.update(5.0);
        l.update(9.0);
        assert_eq!(l.estimate_bps(), Some(9.0));
    }

    #[test]
    fn reset_clears_everything() {
        for e in &mut all() {
            e.update(5.0e6);
            assert!(e.estimate_bps().is_some());
            e.reset();
            assert_eq!(e.estimate_bps(), None, "{e:?} after reset");
        }
    }

    #[test]
    fn harmonic_is_at_most_arithmetic_mean() {
        // AM–HM inequality, exercised over random-ish samples.
        let samples = [3.0, 7.0, 11.0, 2.5, 19.0, 8.0];
        let mut h = Estimator::harmonic();
        for &s in &samples {
            h.update(s);
        }
        let am = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(h.estimate_bps().unwrap() <= am + 1e-12);
    }
}
