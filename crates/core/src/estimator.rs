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
//! [`LastSample`] (what the Ratio baseline effectively uses) and
//! [`HarmonicWindow`] (a sliding-window variant, used by the ablation bench)
//! complete the set.

use std::collections::VecDeque;

/// Eq. 1: exponential weighted moving average.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with weight `alpha` on history (the paper reports
    /// α = 0.9).
    pub fn new(alpha: f64) -> Ewma {
        assert!((0.0..1.0).contains(&alpha), "alpha in [0,1)");
        Ewma { alpha, state: None }
    }

    /// Feeds one throughput measurement `w > 0` (bits/s).
    pub fn update(&mut self, sample_bps: f64) {
        debug_assert!(sample_bps > 0.0, "non-positive throughput sample");
        self.state = Some(match self.state {
            None => sample_bps,
            Some(prev) => self.alpha * prev + (1.0 - self.alpha) * sample_bps,
        });
    }

    /// The current estimate ŵ, or `None` before any sample
    /// (Alg. 1 line 2: "if ŵᵢ not available").
    pub fn estimate_bps(&self) -> Option<f64> {
        self.state
    }

    /// Forgets all history (used after failover to a new server).
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Estimator name for reports.
    pub fn name(&self) -> &'static str {
        "EWMA"
    }
}

/// Eq. 2: incremental harmonic mean over the full history with O(1) state
/// (only `n` and the running harmonic mean are kept).
#[derive(Clone, Debug, Default)]
pub struct HarmonicInc {
    n: u64,
    hmean: f64,
}

impl HarmonicInc {
    /// Creates an empty estimator.
    pub fn new() -> HarmonicInc {
        HarmonicInc::default()
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Feeds one throughput measurement `w > 0` (bits/s).
    pub fn update(&mut self, sample_bps: f64) {
        debug_assert!(sample_bps > 0.0, "non-positive throughput sample");
        if self.n == 0 {
            self.n = 1;
            self.hmean = sample_bps;
        } else {
            // Eq. 2: ŵ(n+1) = (n+1) / (n/ŵ(n) + 1/w(n+1))
            let n = self.n as f64;
            self.hmean = (n + 1.0) / (n / self.hmean + 1.0 / sample_bps);
            self.n += 1;
        }
    }

    /// The current estimate ŵ, or `None` before any sample
    /// (Alg. 1 line 2: "if ŵᵢ not available").
    pub fn estimate_bps(&self) -> Option<f64> {
        (self.n > 0).then_some(self.hmean)
    }

    /// Forgets all history (used after failover to a new server).
    pub fn reset(&mut self) {
        self.n = 0;
        self.hmean = 0.0;
    }

    /// Estimator name for reports.
    pub fn name(&self) -> &'static str {
        "Harmonic"
    }
}

/// Sliding-window harmonic mean (ablation variant; the paper's \[19\] keeps a
/// window of past measurements instead of the full history).
#[derive(Clone, Debug)]
pub struct HarmonicWindow {
    window: VecDeque<f64>,
    cap: usize,
}

impl HarmonicWindow {
    /// Creates a window of the given capacity.
    pub fn new(cap: usize) -> HarmonicWindow {
        assert!(cap > 0, "window capacity must be positive");
        HarmonicWindow {
            window: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Feeds one throughput measurement `w > 0` (bits/s).
    pub fn update(&mut self, sample_bps: f64) {
        debug_assert!(sample_bps > 0.0, "non-positive throughput sample");
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(sample_bps);
    }

    /// The current estimate ŵ, or `None` before any sample
    /// (Alg. 1 line 2: "if ŵᵢ not available").
    pub fn estimate_bps(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let inv: f64 = self.window.iter().map(|w| 1.0 / w).sum();
        Some(self.window.len() as f64 / inv)
    }

    /// Forgets all history (used after failover to a new server).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// Estimator name for reports.
    pub fn name(&self) -> &'static str {
        "HarmonicWindow"
    }
}

/// The most recent sample, verbatim (the Ratio baseline's implicit
/// "estimator").
#[derive(Clone, Debug, Default)]
pub struct LastSample {
    last: Option<f64>,
}

impl LastSample {
    /// Creates an empty estimator.
    pub fn new() -> LastSample {
        LastSample::default()
    }

    /// Feeds one throughput measurement `w > 0` (bits/s).
    pub fn update(&mut self, sample_bps: f64) {
        debug_assert!(sample_bps > 0.0, "non-positive throughput sample");
        self.last = Some(sample_bps);
    }

    /// The current estimate ŵ, or `None` before any sample
    /// (Alg. 1 line 2: "if ŵᵢ not available").
    pub fn estimate_bps(&self) -> Option<f64> {
        self.last
    }

    /// Forgets all history (used after failover to a new server).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Estimator name for reports.
    pub fn name(&self) -> &'static str {
        "LastSample"
    }
}

/// Enum-dispatched estimator used on the per-chunk hot path.
///
/// The player's inner loop calls one estimator per completed chunk. The
/// enum keeps the four estimators inline: the `match` arms compile to
/// direct (inlinable) calls and the whole per-path state lives in the
/// scheduler struct.
#[derive(Clone, Debug)]
pub enum EstimatorImpl {
    /// Eq. 1 EWMA.
    Ewma(Ewma),
    /// Eq. 2 incremental harmonic mean.
    HarmonicInc(HarmonicInc),
    /// Sliding-window harmonic mean.
    HarmonicWindow(HarmonicWindow),
    /// Latest raw sample.
    LastSample(LastSample),
}

impl EstimatorImpl {
    /// Feeds one throughput measurement `w > 0` (bits/s).
    #[inline]
    pub fn update(&mut self, sample_bps: f64) {
        match self {
            EstimatorImpl::Ewma(e) => e.update(sample_bps),
            EstimatorImpl::HarmonicInc(e) => e.update(sample_bps),
            EstimatorImpl::HarmonicWindow(e) => e.update(sample_bps),
            EstimatorImpl::LastSample(e) => e.update(sample_bps),
        }
    }

    /// The current estimate ŵ, or `None` before any sample.
    #[inline]
    pub fn estimate_bps(&self) -> Option<f64> {
        match self {
            EstimatorImpl::Ewma(e) => e.estimate_bps(),
            EstimatorImpl::HarmonicInc(e) => e.estimate_bps(),
            EstimatorImpl::HarmonicWindow(e) => e.estimate_bps(),
            EstimatorImpl::LastSample(e) => e.estimate_bps(),
        }
    }

    /// Forgets all history (used after failover to a new server).
    #[inline]
    pub fn reset(&mut self) {
        match self {
            EstimatorImpl::Ewma(e) => e.reset(),
            EstimatorImpl::HarmonicInc(e) => e.reset(),
            EstimatorImpl::HarmonicWindow(e) => e.reset(),
            EstimatorImpl::LastSample(e) => e.reset(),
        }
    }

    /// Estimator name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorImpl::Ewma(e) => e.name(),
            EstimatorImpl::HarmonicInc(e) => e.name(),
            EstimatorImpl::HarmonicWindow(e) => e.name(),
            EstimatorImpl::LastSample(e) => e.name(),
        }
    }
}

impl From<Ewma> for EstimatorImpl {
    fn from(e: Ewma) -> Self {
        EstimatorImpl::Ewma(e)
    }
}
impl From<HarmonicInc> for EstimatorImpl {
    fn from(e: HarmonicInc) -> Self {
        EstimatorImpl::HarmonicInc(e)
    }
}
impl From<HarmonicWindow> for EstimatorImpl {
    fn from(e: HarmonicWindow) -> Self {
        EstimatorImpl::HarmonicWindow(e)
    }
}
impl From<LastSample> for EstimatorImpl {
    fn from(e: LastSample) -> Self {
        EstimatorImpl::LastSample(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> [EstimatorImpl; 4] {
        [
            Ewma::new(0.9).into(),
            HarmonicInc::new().into(),
            HarmonicWindow::new(5).into(),
            LastSample::new().into(),
        ]
    }

    #[test]
    fn all_start_unavailable() {
        for e in &all() {
            assert_eq!(e.estimate_bps(), None, "{}", e.name());
        }
    }

    #[test]
    fn ewma_follows_eq1() {
        let mut e = Ewma::new(0.9);
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
        let mut inc = HarmonicInc::new();
        for &s in &samples {
            inc.update(s);
        }
        let batch = msim_core::stats::harmonic_mean(&samples);
        let got = inc.estimate_bps().unwrap();
        assert!(
            ((got - batch) / batch).abs() < 1e-12,
            "incremental {got} vs batch {batch}"
        );
        assert_eq!(inc.count(), samples.len() as u64);
    }

    #[test]
    fn harmonic_resists_upward_outliers_better_than_ewma() {
        let mut h = HarmonicInc::new();
        let mut e = Ewma::new(0.9);
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
        let mut w = HarmonicWindow::new(3);
        for s in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.update(s);
        }
        // Window holds [3,4,5]: H = 3/(1/3+1/4+1/5) ≈ 3.830
        let est = w.estimate_bps().unwrap();
        assert!((est - 3.0 / (1.0 / 3.0 + 0.25 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn last_sample_tracks_latest() {
        let mut l = LastSample::new();
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
            assert_eq!(e.estimate_bps(), None, "{} after reset", e.name());
        }
    }

    #[test]
    fn harmonic_is_at_most_arithmetic_mean() {
        // AM–HM inequality, exercised over random-ish samples.
        let samples = [3.0, 7.0, 11.0, 2.5, 19.0, 8.0];
        let mut h = HarmonicInc::new();
        for &s in &samples {
            h.update(s);
        }
        let am = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(h.estimate_bps().unwrap() <= am + 1e-12);
    }
}
