//! The chunk scheduler (§3.3).
//!
//! The scheduler's job: pick per-path chunk sizes so that concurrent chunk
//! transfers on heterogeneous paths finish at about the same time, keeping
//! out-of-order memory bounded and every path busy. One [`Scheduler`] runs
//! the rule its [`SchedulerKind`] names:
//!
//! * `Ratio` — the baseline: the slower path is pinned at the base size B
//!   and the faster path gets `w_fast/w_slow · B`, computed from the
//!   *latest* raw samples only.
//! * `Ewma`, `Harmonic`, `HarmonicWindowed` — Alg. 1 "Dynamic chunk size
//!   adjustment" over that [`Estimator`]: the slow path doubles its chunk
//!   when the current measurement beats its estimate by (1+δ) and halves
//!   (with a 16 KB floor) when it falls below (1−δ); the fast path takes
//!   `γ = ⌈ŵ_fast/ŵ_slow⌉` times the slow path's chunk.
//! * `Fixed` — constant chunk size (the commercial single-path players'
//!   64 KB / 256 KB behaviour).
//!
//! With more than two paths, "the other path" is the slowest other
//! measured path.

use crate::config::{GammaRounding, PlayerConfig, SchedulerKind, MAX_CHUNK, MIN_CHUNK};
use crate::estimator::Estimator;
use msim_core::units::ByteSize;

/// Per-path chunk sizes and estimators for one session's paths.
pub struct Scheduler {
    kind: SchedulerKind,
    base: ByteSize,
    delta: f64,
    gamma_rounding: GammaRounding,
    estimators: Vec<Estimator>,
    sizes: Vec<ByteSize>,
}

impl Scheduler {
    /// The scheduler a config selects, with per-path state for `n_paths`
    /// paths, every path starting at `initial_chunk` (B).
    pub fn new(cfg: &PlayerConfig, n_paths: usize) -> Scheduler {
        let estimator = match cfg.scheduler {
            SchedulerKind::Ewma => Estimator::ewma(cfg.alpha),
            SchedulerKind::Harmonic => Estimator::harmonic(),
            SchedulerKind::HarmonicWindowed => Estimator::window(),
            SchedulerKind::Ratio | SchedulerKind::Fixed => Estimator::Last(None),
        };
        Scheduler {
            kind: cfg.scheduler,
            base: cfg.initial_chunk,
            delta: cfg.delta,
            gamma_rounding: cfg.gamma_rounding,
            estimators: vec![estimator; n_paths],
            sizes: vec![cfg.initial_chunk; n_paths],
        }
    }

    /// Feeds a throughput measurement `w_i` (bits/s) from a completed chunk
    /// on path `i` and updates that path's chunk size.
    #[inline]
    pub fn on_sample(&mut self, i: usize, w_i: f64) {
        match self.kind {
            SchedulerKind::Fixed => {}
            SchedulerKind::Ratio => self.ratio(i, w_i),
            SchedulerKind::Ewma | SchedulerKind::Harmonic | SchedulerKind::HarmonicWindowed => {
                self.dcsa(i, w_i)
            }
        }
    }

    /// §3.3's baseline: B on the slow path, the throughput ratio times B on
    /// the fast one, from the latest samples.
    fn ratio(&mut self, i: usize, w_i: f64) {
        self.estimators[i].update(w_i);
        let w_this = self.estimators[i].estimate_bps().expect("just updated");
        let Some((_, w_other)) = slowest_other(&self.estimators, i) else {
            // Only this path measured so far: stay at B.
            self.sizes[i] = self.base;
            return;
        };
        if w_this <= w_other {
            // Slow path: fixed base size.
            self.sizes[i] = self.base;
        } else {
            // Fast path: throughput-ratio multiple of B, relative to the
            // slowest measured path.
            let ratio = w_this / w_other;
            self.sizes[i] = clamp(ratio * self.base.as_f64());
        }
    }

    /// Alg. 1 for path `i`.
    fn dcsa(&mut self, i: usize, w_i: f64) {
        // Estimates *before* absorbing the new measurement — Alg. 1 compares
        // the surprise of w_i against history ŵ_i. The comparison partner is
        // the slowest *other* path (with two paths: the other path).
        let w_hat_i = self.estimators[i].estimate_bps();
        let other = slowest_other(&self.estimators, i);
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
    #[inline]
    pub fn chunk_size(&self, path: usize) -> ByteSize {
        self.sizes[path]
    }

    /// Resets per-path state after a failover on `path`.
    #[inline]
    pub fn reset_path(&mut self, path: usize) {
        self.estimators[path].reset();
        self.sizes[path] = self.base;
    }

    /// The aggregate (sum-over-paths) bandwidth estimate in bits/s —
    /// MSPlayer's view of its total capacity, the input a DASH-style rate
    /// adapter works from (§7 future work; see [`crate::abr`]).
    /// Unmeasured paths contribute nothing; `None` until any path has an
    /// estimate (and always for `Fixed`, which feeds its estimators
    /// nothing).
    pub fn aggregate_estimate_bps(&self) -> Option<f64> {
        self.estimators
            .iter()
            .map(Estimator::estimate_bps)
            .fold(None, |acc, est| match (acc, est) {
                (Some(a), Some(w)) => Some(a + w),
                (a, w) => a.or(w),
            })
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
fn slowest_other(estimators: &[Estimator], path: usize) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, est) in estimators.iter().enumerate() {
        if i == path {
            continue;
        }
        if let Some(w) = est.estimate_bps() {
            match best {
                Some((_, b)) if b <= w => {}
                _ => best = Some((i, w)),
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlayerConfig {
        PlayerConfig::default() // 256 KB initial, δ = 5 %, α = 0.9
    }

    /// A two-path scheduler of `kind`.
    fn two_paths(cfg: &PlayerConfig, kind: SchedulerKind) -> Scheduler {
        Scheduler::new(&cfg.clone().with_scheduler(kind), 2)
    }

    fn harmonic(cfg: &PlayerConfig) -> Scheduler {
        two_paths(cfg, SchedulerKind::Harmonic)
    }

    #[test]
    fn starts_at_base_chunk_size() {
        let cfg = cfg();
        for kind in [
            SchedulerKind::Ratio,
            SchedulerKind::Ewma,
            SchedulerKind::Harmonic,
        ] {
            let s = two_paths(&cfg, kind);
            assert_eq!(s.chunk_size(0), cfg.initial_chunk, "{kind:?}");
            assert_eq!(s.chunk_size(1), cfg.initial_chunk, "{kind:?}");
        }
    }

    #[test]
    fn ratio_pins_slow_path_and_scales_fast_path() {
        let cfg = cfg();
        let mut s = two_paths(&cfg, SchedulerKind::Ratio);
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
        let mut s = two_paths(&cfg, SchedulerKind::Ratio);
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
        let mut ewma = two_paths(&cfg, SchedulerKind::Ewma);
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
        let cfg = cfg().with_initial_chunk(ByteSize::kb(64));
        let mut s = two_paths(&cfg, SchedulerKind::Fixed);
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
    fn fast_path_gamma_is_relative_to_the_slowest_other_path() {
        let mut cfg = cfg().with_initial_chunk(ByteSize::kb(64));
        cfg.gamma_rounding = GammaRounding::Ceil;
        let rates = [30.0e6, 10.0e6, 5.0e6];
        let mut s = Scheduler::new(&cfg.clone().with_scheduler(SchedulerKind::Harmonic), 3);
        for (path, &w) in rates.iter().enumerate() {
            s.on_sample(path, w);
        }
        // Path 0 against path 2, the slowest other: γ = ⌈30/5⌉ = 6, not
        // ⌈30/10⌉ against path 1.
        s.on_sample(0, rates[0]);
        assert_eq!(s.chunk_size(0).as_u64(), 6 * s.chunk_size(2).as_u64());
        // Path 1 is slower than path 0 but fast relative to path 2: γ = 2.
        s.on_sample(1, rates[1]);
        assert_eq!(s.chunk_size(1).as_u64(), 2 * s.chunk_size(2).as_u64());

        // Ratio measures against the slowest other path too.
        let mut s = Scheduler::new(&cfg.clone().with_scheduler(SchedulerKind::Ratio), 3);
        for (path, &w) in rates.iter().enumerate() {
            s.on_sample(path, w);
        }
        s.on_sample(0, rates[0]);
        s.on_sample(1, rates[1]);
        assert_eq!(s.chunk_size(0).as_f64(), 6.0 * cfg.initial_chunk.as_f64());
        assert_eq!(s.chunk_size(1).as_f64(), 2.0 * cfg.initial_chunk.as_f64());
        assert_eq!(s.chunk_size(2), cfg.initial_chunk);
    }

    #[test]
    fn builder_maps_kinds_to_names() {
        let cfg = cfg();
        for kind in SchedulerKind::ALL {
            let mut s = two_paths(&cfg, kind);
            assert_eq!(s.kind, kind);
            s.on_sample(0, 3.0e6);
            s.on_sample(1, 5.0e6);
            let expect = (kind != SchedulerKind::Fixed).then_some(8.0e6);
            assert_eq!(s.aggregate_estimate_bps(), expect, "{kind:?}");
        }
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
                let mut s = Scheduler::new(&cfg, 2);
                for (path, w) in samples {
                    s.on_sample(path, w);
                    for p in 0..2 {
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
                let mut s = harmonic(&PlayerConfig::default());
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
