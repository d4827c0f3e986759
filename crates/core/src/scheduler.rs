//! Chunk schedulers (§3.3).
//!
//! The scheduler's job: pick per-path chunk sizes so that concurrent chunk
//! transfers on heterogeneous paths finish at about the same time, keeping
//! out-of-order memory bounded and both paths busy.
//!
//! * [`RatioScheduler`] — the baseline: the slower path is pinned at the
//!   base size B and the faster path gets `w_fast/w_slow · B`, computed from
//!   the *latest* raw samples only.
//! * [`DcsaScheduler`] — Alg. 1 "Dynamic chunk size adjustment": the slow
//!   path doubles its chunk when the current measurement beats its estimate
//!   by (1+δ) and halves (with a 16 KB floor) when it falls below (1−δ);
//!   the fast path takes `γ = ⌈ŵ_fast/ŵ_slow⌉` times the slow path's chunk.
//!   Instantiated with either the EWMA (Eq. 1) or harmonic-mean (Eq. 2)
//!   estimator.
//! * [`FixedScheduler`] — constant chunk size (the commercial single-path
//!   players' 64 KB / 256 KB behaviour).

use crate::config::{GammaRounding, PlayerConfig, SchedulerKind, MAX_CHUNK, MIN_CHUNK};
use crate::estimator::{EstimatorImpl, Ewma, HarmonicInc, HarmonicWindow, LastSample};
use msim_core::units::ByteSize;

/// The paper's path count ("MSPlayer limits the number of paths to two",
/// §2). Schedulers are no longer limited to it — every scheduler carries
/// per-path state for an arbitrary path count (see
/// [`SchedulerImpl::for_paths`]) — but two remains the default used by
/// [`SchedulerImpl::from_config`] and the concrete schedulers' `new`.
pub const NUM_PATHS: usize = 2;

/// Enum-dispatched scheduler used on the per-chunk hot path.
///
/// The player takes two scheduler decisions per completed chunk
/// (`on_sample` + `chunk_size`). The enum keeps every scheduler (and, via
/// [`EstimatorImpl`], every estimator) inline, so the whole decision path
/// is direct calls the compiler can flatten.
pub enum SchedulerImpl {
    /// §3.3 Ratio baseline.
    Ratio(RatioScheduler),
    /// Alg. 1 DCSA over any [`EstimatorImpl`].
    Dcsa(DcsaScheduler),
    /// Constant chunk size.
    Fixed(FixedScheduler),
}

impl SchedulerImpl {
    /// Builds the scheduler selected by a config for the paper's two paths.
    pub fn from_config(cfg: &PlayerConfig) -> SchedulerImpl {
        SchedulerImpl::for_paths(cfg, NUM_PATHS)
    }

    /// Builds the scheduler selected by a config with per-path state for
    /// `n_paths` paths.
    pub fn for_paths(cfg: &PlayerConfig, n_paths: usize) -> SchedulerImpl {
        match cfg.scheduler {
            SchedulerKind::Ratio => SchedulerImpl::Ratio(RatioScheduler::with_paths(cfg, n_paths)),
            SchedulerKind::Ewma => SchedulerImpl::Dcsa(DcsaScheduler::with_paths(
                cfg,
                Ewma::new(cfg.alpha),
                n_paths,
            )),
            SchedulerKind::Harmonic => {
                SchedulerImpl::Dcsa(DcsaScheduler::with_paths(cfg, HarmonicInc::new(), n_paths))
            }
            SchedulerKind::HarmonicWindowed => SchedulerImpl::Dcsa(DcsaScheduler::with_paths(
                cfg,
                HarmonicWindow::new(20),
                n_paths,
            )),
            SchedulerKind::Fixed => SchedulerImpl::Fixed(FixedScheduler::new(cfg.initial_chunk)),
        }
    }

    /// Feeds a throughput measurement for `path` (bits/s).
    #[inline]
    pub fn on_sample(&mut self, path: usize, sample_bps: f64) {
        match self {
            SchedulerImpl::Ratio(s) => s.on_sample(path, sample_bps),
            SchedulerImpl::Dcsa(s) => s.on_sample(path, sample_bps),
            SchedulerImpl::Fixed(s) => s.on_sample(path, sample_bps),
        }
    }

    /// The chunk size to request next on `path`.
    #[inline]
    pub fn chunk_size(&self, path: usize) -> ByteSize {
        match self {
            SchedulerImpl::Ratio(s) => s.chunk_size(path),
            SchedulerImpl::Dcsa(s) => s.chunk_size(path),
            SchedulerImpl::Fixed(s) => s.chunk_size(path),
        }
    }

    /// Resets per-path state after a failover on `path`.
    #[inline]
    pub fn reset_path(&mut self, path: usize) {
        match self {
            SchedulerImpl::Ratio(s) => s.reset_path(path),
            SchedulerImpl::Dcsa(s) => s.reset_path(path),
            SchedulerImpl::Fixed(s) => s.reset_path(path),
        }
    }

    /// Scheduler name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerImpl::Ratio(s) => s.name(),
            SchedulerImpl::Dcsa(s) => s.name(),
            SchedulerImpl::Fixed(s) => s.name(),
        }
    }

    /// The aggregate (sum-over-paths) bandwidth estimate in bits/s —
    /// MSPlayer's view of its total capacity, the input a DASH-style rate
    /// adapter works from (§7 future work; see [`crate::abr`]).
    /// Unmeasured paths contribute nothing; `None` until any path has an
    /// estimate (and always for `Fixed`, which estimates nothing).
    pub fn aggregate_estimate_bps(&self) -> Option<f64> {
        let fold = |acc: Option<f64>, est: Option<f64>| match (acc, est) {
            (Some(a), Some(w)) => Some(a + w),
            (a, w) => a.or(w),
        };
        match self {
            SchedulerImpl::Ratio(s) => s.last.iter().map(|l| l.estimate_bps()).fold(None, fold),
            SchedulerImpl::Dcsa(s) => s
                .estimators
                .iter()
                .map(|e| e.estimate_bps())
                .fold(None, fold),
            SchedulerImpl::Fixed(_) => None,
        }
    }
}

/// Rounds a chunk size of `v` bytes into `[MIN_CHUNK, MAX_CHUNK]`.
fn clamp(v: f64) -> ByteSize {
    let v = v.clamp(MIN_CHUNK.as_f64(), MAX_CHUNK.as_f64());
    // `v` is non-negative after the clamp, so round-half-up via truncation
    // replaces `v.round()` — a libm call on baseline x86-64, and this sits
    // on the per-chunk sizing path.
    ByteSize::bytes((v + 0.5) as u64)
}

/// The slowest *other* path's estimate: the minimum estimate among all
/// paths except `path` (ties resolved to the lowest index, which keeps the
/// two-path case bit-identical to the historical `1 - path` lookup).
/// Returns `(index, estimate)`, or `None` when no other path has been
/// measured yet.
fn slowest_other(
    estimates: impl Iterator<Item = Option<f64>>,
    path: usize,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, est) in estimates.enumerate() {
        if i == path {
            continue;
        }
        if let Some(w) = est {
            match best {
                Some((_, b)) if b <= w => {}
                _ => best = Some((i, w)),
            }
        }
    }
    best
}

/// §3.3 baseline scheduler.
pub struct RatioScheduler {
    base: ByteSize,
    last: Vec<LastSample>,
    sizes: Vec<ByteSize>,
}

impl RatioScheduler {
    /// Creates the two-path scheduler from a config (uses `initial_chunk`
    /// as B).
    pub fn new(cfg: &PlayerConfig) -> RatioScheduler {
        RatioScheduler::with_paths(cfg, NUM_PATHS)
    }

    /// Creates the scheduler with per-path state for `n_paths` paths.
    pub fn with_paths(cfg: &PlayerConfig, n_paths: usize) -> RatioScheduler {
        RatioScheduler {
            base: cfg.initial_chunk,
            last: (0..n_paths).map(|_| LastSample::new()).collect(),
            sizes: vec![cfg.initial_chunk; n_paths],
        }
    }

    /// Feeds a throughput measurement for `path` (bits/s) from a completed
    /// chunk and updates that path's chunk size.
    pub fn on_sample(&mut self, path: usize, sample_bps: f64) {
        self.last[path].update(sample_bps);
        let w_this = self.last[path].estimate_bps().expect("just updated");
        let Some((_, w_other)) = slowest_other(self.last.iter().map(|l| l.estimate_bps()), path)
        else {
            // Only this path measured so far: stay at B.
            self.sizes[path] = self.base;
            return;
        };
        if w_this <= w_other {
            // Slow path: fixed base size.
            self.sizes[path] = self.base;
        } else {
            // Fast path: throughput-ratio multiple of B, relative to the
            // slowest measured path.
            let ratio = w_this / w_other;
            self.sizes[path] = clamp(ratio * self.base.as_f64());
        }
    }

    /// The chunk size to request next on `path`.
    pub fn chunk_size(&self, path: usize) -> ByteSize {
        self.sizes[path]
    }

    /// Resets per-path state after a failover on `path`.
    pub fn reset_path(&mut self, path: usize) {
        self.last[path].reset();
        self.sizes[path] = self.base;
    }

    /// Scheduler name for reports.
    pub fn name(&self) -> &'static str {
        "Ratio"
    }
}

/// Alg. 1: dynamic chunk size adjustment over a pluggable estimator.
pub struct DcsaScheduler {
    base: ByteSize,
    delta: f64,
    gamma_rounding: GammaRounding,
    estimators: Vec<EstimatorImpl>,
    sizes: Vec<ByteSize>,
    est_name: &'static str,
}

impl DcsaScheduler {
    /// Creates the two-path scheduler with a fresh copy of `estimator` per
    /// path.
    pub fn new(cfg: &PlayerConfig, estimator: impl Into<EstimatorImpl>) -> DcsaScheduler {
        DcsaScheduler::with_paths(cfg, estimator, NUM_PATHS)
    }

    /// Creates the scheduler with a fresh copy of `estimator` for each of
    /// `n_paths` paths.
    pub fn with_paths(
        cfg: &PlayerConfig,
        estimator: impl Into<EstimatorImpl>,
        n_paths: usize,
    ) -> DcsaScheduler {
        let proto = estimator.into();
        let est_name = proto.name();
        DcsaScheduler {
            base: cfg.initial_chunk,
            delta: cfg.delta,
            gamma_rounding: cfg.gamma_rounding,
            estimators: vec![proto; n_paths.max(1)],
            sizes: vec![cfg.initial_chunk; n_paths.max(1)],
            est_name,
        }
    }

    /// Feeds a throughput measurement `w_i` (bits/s) from a completed chunk
    /// on path `i` and runs Alg. 1 for that path.
    pub fn on_sample(&mut self, i: usize, w_i: f64) {
        // Estimates *before* absorbing the new measurement — Alg. 1 compares
        // the surprise of w_i against history ŵ_i. The comparison partner is
        // the slowest *other* path (with two paths: the other path).
        let w_hat_i = self.estimators[i].estimate_bps();
        let other = slowest_other(self.estimators.iter().map(|e| e.estimate_bps()), i);
        self.estimators[i].update(w_i);

        let (Some(w_hat_i), Some((other_idx, w_hat_other))) = (w_hat_i, other) else {
            // Line 2–3: estimate not available → initial chunk size.
            self.sizes[i] = self.base;
            return;
        };
        if w_hat_i < w_hat_other {
            // Lines 4–11: slow path — double / halve / hold; `clamp` holds
            // line 8's 16 KB floor (`MIN_CHUNK`).
            let s_i = self.sizes[i].as_f64();
            let next = if w_i > (1.0 + self.delta) * w_hat_i {
                s_i * 2.0
            } else if w_i < (1.0 - self.delta) * w_hat_i {
                (s_i / 2.0).ceil()
            } else {
                s_i
            };
            self.sizes[i] = clamp(next);
        } else {
            // Lines 12–14: fast path — γ multiple of the slowest path's
            // chunk so concurrent transfers complete at about the same time.
            let ratio = w_hat_i / w_hat_other;
            let gamma = match self.gamma_rounding {
                GammaRounding::Ceil => ratio.ceil(),
                GammaRounding::Exact => ratio,
            }
            .max(1.0);
            self.sizes[i] = clamp(gamma * self.sizes[other_idx].as_f64());
        }
    }

    /// The chunk size to request next on `path`.
    pub fn chunk_size(&self, path: usize) -> ByteSize {
        self.sizes[path]
    }

    /// Resets per-path state after a failover on `path`.
    pub fn reset_path(&mut self, path: usize) {
        self.estimators[path].reset();
        self.sizes[path] = self.base;
    }

    /// Scheduler name for reports.
    pub fn name(&self) -> &'static str {
        self.est_name
    }
}

/// Constant chunk size (commercial single-path player emulation).
pub struct FixedScheduler {
    size: ByteSize,
}

impl FixedScheduler {
    /// Creates the scheduler.
    pub fn new(size: ByteSize) -> FixedScheduler {
        FixedScheduler { size }
    }

    /// Feeds a throughput measurement for `path` (bits/s) from a completed
    /// chunk and updates that path's chunk size.
    pub fn on_sample(&mut self, _path: usize, _sample_bps: f64) {}

    /// The chunk size to request next on `path`.
    pub fn chunk_size(&self, _path: usize) -> ByteSize {
        self.size
    }

    /// Resets per-path state after a failover on `path`.
    pub fn reset_path(&mut self, _path: usize) {}

    /// Scheduler name for reports.
    pub fn name(&self) -> &'static str {
        "Fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlayerConfig {
        PlayerConfig::default() // 256 KB initial, δ = 5 %, α = 0.9
    }

    fn harmonic(cfg: &PlayerConfig) -> DcsaScheduler {
        DcsaScheduler::new(cfg, HarmonicInc::new())
    }

    #[test]
    fn starts_at_base_chunk_size() {
        let cfg = cfg();
        for kind in [
            SchedulerKind::Ratio,
            SchedulerKind::Ewma,
            SchedulerKind::Harmonic,
        ] {
            let s = SchedulerImpl::from_config(&cfg.clone().with_scheduler(kind));
            assert_eq!(s.chunk_size(0), cfg.initial_chunk, "{}", s.name());
            assert_eq!(s.chunk_size(1), cfg.initial_chunk, "{}", s.name());
        }
    }

    #[test]
    fn ratio_pins_slow_path_and_scales_fast_path() {
        let cfg = cfg();
        let mut s = RatioScheduler::new(&cfg);
        s.on_sample(0, 10.0e6);
        s.on_sample(1, 5.0e6); // path 1 is slower
        assert_eq!(s.chunk_size(1), cfg.initial_chunk, "slow path stays at B");
        s.on_sample(0, 10.0e6); // re-evaluate fast path with both known
        let expect = cfg.initial_chunk.as_f64() * 2.0;
        assert_eq!(s.chunk_size(0).as_f64(), expect, "fast path = ratio · B");
    }

    #[test]
    fn ratio_respects_max_cap() {
        let cfg = cfg();
        let mut s = RatioScheduler::new(&cfg);
        s.on_sample(1, 0.1e6);
        s.on_sample(0, 500.0e6); // ratio 5000× would explode
        assert_eq!(s.chunk_size(0), MAX_CHUNK);
    }

    #[test]
    fn dcsa_slow_path_doubles_on_upside_surprise() {
        let cfg = cfg();
        let mut s = harmonic(&cfg);
        // Establish estimates: path 0 fast, path 1 slow.
        s.on_sample(0, 10.0e6);
        s.on_sample(1, 5.0e6);
        let before = s.chunk_size(1);
        // Measurement 10 % above the estimate (> 1+δ with δ=5 %).
        s.on_sample(1, 5.5e6 * 1.01);
        assert_eq!(s.chunk_size(1).as_u64(), before.as_u64() * 2);
    }

    #[test]
    fn dcsa_slow_path_halves_on_downside_surprise_with_floor() {
        let cfg = cfg().with_initial_chunk(ByteSize::kb(32));
        let mut s = harmonic(&cfg);
        s.on_sample(0, 10.0e6);
        s.on_sample(1, 5.0e6);
        // Two big downside surprises: 32 KB → 16 KB → floor holds at 16 KB.
        s.on_sample(1, 2.0e6);
        assert_eq!(s.chunk_size(1), ByteSize::kb(16));
        s.on_sample(1, 1.0e6);
        assert_eq!(
            s.chunk_size(1),
            ByteSize::kb(16),
            "16 KB floor (Alg. 1 line 8)"
        );
    }

    #[test]
    fn dcsa_slow_path_holds_inside_delta_band() {
        let cfg = cfg();
        let mut s = harmonic(&cfg);
        s.on_sample(0, 10.0e6);
        s.on_sample(1, 5.0e6);
        let before = s.chunk_size(1);
        // Within ±5 % of the estimate: unchanged.
        s.on_sample(1, 5.05e6);
        assert_eq!(s.chunk_size(1), before);
    }

    #[test]
    fn dcsa_fast_path_takes_gamma_multiple() {
        let mut cfg = cfg();
        cfg.gamma_rounding = crate::config::GammaRounding::Ceil;
        let mut s = harmonic(&cfg);
        s.on_sample(0, 12.0e6);
        s.on_sample(1, 5.0e6);
        // Path 0 completes a chunk: ŵ0/ŵ1 = 12/5 = 2.4 → γ = 3.
        s.on_sample(0, 12.0e6);
        let expect = s.chunk_size(1).as_u64() * 3;
        assert_eq!(s.chunk_size(0).as_u64(), expect);
    }

    #[test]
    fn dcsa_fast_path_exact_gamma_matches_ratio() {
        let cfg = cfg(); // default: GammaRounding::Exact
        let mut s = harmonic(&cfg);
        s.on_sample(0, 12.0e6);
        s.on_sample(1, 5.0e6);
        // Exact mode: S_fast = 2.4 * S_slow, so both paths' transfers take
        // the same expected time.
        s.on_sample(0, 12.0e6);
        let expect = (s.chunk_size(1).as_f64() * 2.4).round() as u64;
        assert_eq!(s.chunk_size(0).as_u64(), expect);
    }

    #[test]
    fn dcsa_gamma_is_at_least_one() {
        let cfg = cfg();
        let mut s = harmonic(&cfg);
        s.on_sample(0, 5.0e6);
        s.on_sample(1, 5.0e6);
        // Equal estimates: path 0 is "fast" by tie-break (not <), γ = 1.
        s.on_sample(0, 5.0e6);
        assert_eq!(s.chunk_size(0), s.chunk_size(1));
    }

    #[test]
    fn first_sample_keeps_base_until_both_paths_known() {
        let cfg = cfg();
        let mut s = harmonic(&cfg);
        s.on_sample(0, 10.0e6);
        assert_eq!(s.chunk_size(0), cfg.initial_chunk, "other estimate missing");
    }

    #[test]
    fn ewma_variant_chases_recent_samples_more_than_harmonic() {
        // After a burst outlier, EWMA's estimate moves more; the *next*
        // genuine sample then looks like a downside surprise to EWMA
        // (halving) but not to Harmonic. This is the §5.2 mechanism that
        // makes Harmonic outperform EWMA.
        let cfg = cfg();
        let mut ewma = DcsaScheduler::new(&cfg, Ewma::new(cfg.alpha));
        let mut harm = harmonic(&cfg);
        for s in [&mut ewma, &mut harm] {
            // Establish: path 0 fast (20 Mb/s), path 1 slow (6 Mb/s).
            s.on_sample(0, 20.0e6);
            s.on_sample(1, 6.0e6);
            for _ in 0..20 {
                s.on_sample(1, 6.0e6);
            }
            // Burst outlier on the slow path (6× the truth), then normal.
            s.on_sample(1, 36.0e6);
        }
        let ewma_before = ewma.chunk_size(1);
        let harm_before = harm.chunk_size(1);
        ewma.on_sample(1, 6.0e6);
        harm.on_sample(1, 6.0e6);
        // EWMA absorbed the outlier into its estimate, so the honest 6 Mb/s
        // sample reads as a collapse → halve. Harmonic barely moved.
        assert!(
            ewma.chunk_size(1) < ewma_before,
            "EWMA halves after outlier ({} -> {})",
            ewma_before,
            ewma.chunk_size(1)
        );
        assert_eq!(
            harm.chunk_size(1),
            harm_before,
            "Harmonic holds steady through the outlier"
        );
    }

    #[test]
    fn fixed_scheduler_never_moves() {
        let mut s = FixedScheduler::new(ByteSize::kb(64));
        s.on_sample(0, 1.0e6);
        s.on_sample(1, 99.0e6);
        assert_eq!(s.chunk_size(0), ByteSize::kb(64));
        assert_eq!(s.chunk_size(1), ByteSize::kb(64));
    }

    #[test]
    fn reset_path_returns_to_base() {
        let cfg = cfg();
        let mut s = harmonic(&cfg);
        s.on_sample(0, 20.0e6);
        s.on_sample(1, 5.0e6);
        s.on_sample(0, 20.0e6);
        assert_ne!(s.chunk_size(0), cfg.initial_chunk);
        s.reset_path(0);
        assert_eq!(s.chunk_size(0), cfg.initial_chunk);
        // Estimator history gone: next sample re-initialises.
        s.on_sample(0, 1.0e6);
        assert_eq!(s.chunk_size(0), cfg.initial_chunk);
    }

    #[test]
    fn builder_maps_kinds_to_names() {
        let cfg = cfg();
        assert_eq!(
            SchedulerImpl::from_config(&cfg.clone().with_scheduler(SchedulerKind::Ratio)).name(),
            "Ratio"
        );
        assert_eq!(
            SchedulerImpl::from_config(&cfg.clone().with_scheduler(SchedulerKind::Ewma)).name(),
            "EWMA"
        );
        assert_eq!(
            SchedulerImpl::from_config(&cfg.clone().with_scheduler(SchedulerKind::Harmonic)).name(),
            "Harmonic"
        );
        assert_eq!(
            SchedulerImpl::from_config(&cfg.with_scheduler(SchedulerKind::Fixed)).name(),
            "Fixed"
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Chunk sizes always stay within [min, max] whatever the sample
            /// stream.
            #[test]
            fn sizes_always_bounded(
                samples in prop::collection::vec((0usize..2, 1.0e5f64..1.0e9), 1..200),
                kind in prop::sample::select(vec![
                    SchedulerKind::Ratio,
                    SchedulerKind::Ewma,
                    SchedulerKind::Harmonic,
                ]),
            ) {
                let cfg = PlayerConfig::default().with_scheduler(kind);
                let mut s = SchedulerImpl::from_config(&cfg);
                for (path, w) in samples {
                    s.on_sample(path, w);
                    for p in 0..NUM_PATHS {
                        let size = s.chunk_size(p);
                        prop_assert!(size >= MIN_CHUNK, "{} below floor", size);
                        prop_assert!(size <= MAX_CHUNK, "{} above cap", size);
                    }
                }
            }

            /// DCSA's completion-time matching: with stable estimates, the
            /// fast path's chunk divided by its bandwidth is within one
            /// "gamma rounding" of the slow path's chunk time.
            #[test]
            fn completion_times_roughly_match(
                w_slow in 1.0e6f64..10.0e6,
                ratio in 1.0f64..6.0,
            ) {
                let w_fast = w_slow * ratio;
                let cfg = PlayerConfig::default();
                let mut s = DcsaScheduler::new(&cfg, HarmonicInc::new());
                for _ in 0..12 {
                    s.on_sample(0, w_fast);
                    s.on_sample(1, w_slow);
                }
                let t_fast = s.chunk_size(0).as_f64() / w_fast;
                let t_slow = s.chunk_size(1).as_f64() / w_slow;
                // γ = ceil(ratio) ≤ ratio + 1 ⇒ t_fast/t_slow ∈ [1/(1+1/ratio)... ]
                // Accept a 2× band, which catches gross mismatches while
                // allowing the ceil rounding and clamping.
                prop_assert!(
                    t_fast / t_slow < 2.0 + 1e-9 && t_slow / t_fast < 2.0 + 1e-9,
                    "t_fast {t_fast} vs t_slow {t_slow} (ratio {ratio})"
                );
            }
        }
    }
}
