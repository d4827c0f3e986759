//! The three stochastic parts of a link's rate.
//!
//! The paper's links (home WiFi, commercial LTE) are characterised by three
//! properties the schedulers are sensitive to (§5.2, §6):
//!
//! 1. *mean-reverting variability* — available bandwidth wanders around a
//!    mean ([`Ou`], an exact-discretisation Ornstein–Uhlenbeck process);
//! 2. *heavy-tailed outliers* — short bursts and dips, especially on LTE
//!    ([`Bursts`], a Pareto-amplitude overlay). These are exactly the
//!    outliers the harmonic-mean estimator is designed to resist;
//! 3. *regime changes* — e.g. cross-traffic appearing ([`MarkovModulator`],
//!    a two-state congestion modulator).
//!
//! A link multiplies the three and clamps the product (`msim_net::Link`).
//! Each part's `value_at` must be called at non-decreasing times; re-sampling
//! an instant returns the same value without consuming randomness. Each
//! lays its randomness out on the time axis, not on the sample sequence: the
//! value at `t` is a function of `(seed, t)` alone, whoever sampled whenever
//! before.

use crate::rng::{DeviateMode, DrawKind, DrawTable, Prng};
use crate::time::{SimDuration, SimTime};

/// Cells per mean-reversion time `tau`: the grid an [`Ou`] steps on.
const OU_CELLS_PER_TAU: f64 = 32.0;

/// Mean-reverting Ornstein–Uhlenbeck process, stepped on its own fixed
/// grid with the exact discretisation
///
/// `x(k+1) = mean + (x(k) − mean)·e^(−h/tau) + s·sqrt(1 − e^(−2h/tau))·N(0,1)`
///
/// where `s` is the stationary standard deviation and `h = tau/32` is the
/// cell width (250 ms at the calibrated profiles' `tau` = 8 s): far finer
/// than the correlation time, so holding the value across a cell costs the
/// lag-`tau` autocorrelation nothing measurable, and the stationary mean and
/// variance are exact.
///
/// **Cell read.** `value_at(t)` returns the value of the cell `t` falls in.
/// Most samples (a TCP round is 25–100 ms) land in the cell the last one
/// did and are a compare and a load: `decay` and `noise_std` belong to the
/// grid and are computed once at construction, and a deviate is drawn per
/// cell, not per sample.
///
/// **No skip-ahead.** Reaching a later cell steps through every cell in
/// between, one deviate each, even where the closed form could jump. That
/// is what makes the path a function of `(seed, t)`: it does not depend on
/// who sampled when, an outage during which nobody samples does not shift
/// it, and two schedulers run on one seed see the same bandwidth trace. A
/// 600 s video costs at most 2 400 steps a link.
///
/// **Domain.** The price of no skip-ahead is that a sample costs
/// `(t − last)/h` steps and the cell clock is a plain `SimTime` add. `t` is
/// meant to stay within a session's length (minutes to hours, nowhere near
/// `SimTime::MAX`) and `tau` to be a correlation time of a link, at least
/// milliseconds (the profiles use 1 to 10 s; construction debug-asserts
/// `tau ≥ 1 ms`). A microsecond `tau` would make a 600 s session cost
/// 10⁸ steps and more a link.
pub struct Ou {
    mean: f64,
    /// `e^(−h/tau)`: how much of a deviation survives one cell.
    decay: f64,
    /// `s·sqrt(1 − decay²)`: the innovation a cell adds.
    noise_std: f64,
    state: f64,
    /// Cell width `h`.
    step: SimDuration,
    /// End of the current cell (exclusive).
    cell_end: SimTime,
    noise: DrawTable,
}

impl Ou {
    /// Creates a process with the given long-run `mean`, stationary standard
    /// deviation `std`, and mean-reversion time constant `tau_secs`, drawing
    /// its deviates in `mode`.
    pub fn new(mean: f64, std: f64, tau_secs: f64, mut rng: Prng, mode: DeviateMode) -> Self {
        assert!(tau_secs > 0.0, "tau must be positive");
        debug_assert!(tau_secs >= 1e-3, "tau below 1 ms: see the Domain note");
        // Start from the stationary distribution so there is no warm-up bias.
        // The initial draw stays on the scalar path; the per-cell noise
        // stream then comes from the same rng via the draw table.
        let state = mean + std * rng.normal();
        // The constants follow the cell as rounded to the clock's
        // microsecond, so the discretisation stays exact for any `tau`.
        let step = SimDuration::from_secs_f64(tau_secs / OU_CELLS_PER_TAU)
            .max(SimDuration::from_micros(1));
        let decay = crate::vmath::exp(-step.as_secs_f64() / tau_secs);
        Ou {
            mean,
            decay,
            noise_std: std * (1.0 - decay * decay).sqrt(),
            state,
            step,
            cell_end: SimTime::ZERO + step,
            noise: DrawTable::new(rng, DrawKind::Normal, mode),
        }
    }

    /// The value of the cell `t` falls in.
    #[inline]
    pub fn value_at(&mut self, t: SimTime) -> f64 {
        while t >= self.cell_end {
            self.state = self.mean
                + (self.state - self.mean) * self.decay
                + self.noise_std * self.noise.draw();
            self.cell_end += self.step;
        }
        self.state
    }
}

/// Two-state Markov modulator. Emits `good_mult` in the good state and
/// `bad_mult` in the bad state, with exponential holding times. Used for
/// cross-traffic / congestion episodes.
pub struct MarkovModulator {
    good_mult: f64,
    bad_mult: f64,
    mean_good_secs: f64,
    mean_bad_secs: f64,
    in_good: bool,
    next_switch: SimTime,
    /// Unit-mean exponential holds, scaled by the per-state mean at use —
    /// one table serves both states.
    holds: DrawTable,
}

impl MarkovModulator {
    /// Builds a modulator that stays in the good state for
    /// `mean_good_secs` on average and in the bad state for `mean_bad_secs`,
    /// drawing its holding times in `mode`.
    pub fn new(
        good_mult: f64,
        bad_mult: f64,
        mean_good_secs: f64,
        mean_bad_secs: f64,
        rng: Prng,
        mode: DeviateMode,
    ) -> Self {
        let mut holds = DrawTable::new(rng, DrawKind::ExpUnit, mode);
        let first = holds.draw() * mean_good_secs;
        MarkovModulator {
            good_mult,
            bad_mult,
            mean_good_secs,
            mean_bad_secs,
            in_good: true,
            next_switch: SimTime::from_secs_f64(first),
            holds,
        }
    }

    /// The multiplier of the state in force at `t`.
    pub fn value_at(&mut self, t: SimTime) -> f64 {
        while t >= self.next_switch {
            self.in_good = !self.in_good;
            let mean = if self.in_good {
                self.mean_good_secs
            } else {
                self.mean_bad_secs
            };
            let hold = self.holds.draw() * mean;
            self.next_switch += SimDuration::from_secs_f64(hold);
        }
        if self.in_good {
            self.good_mult
        } else {
            self.bad_mult
        }
    }
}

/// Heavy-tailed burst/dip overlay.
///
/// Burst events arrive as a Poisson process. Each event lasts an exponential
/// duration; with probability `up_prob` it is an *up* burst with multiplier
/// drawn from `Pareto(1, shape)` (capped), otherwise a *dip* with multiplier
/// `1/Pareto(1, shape)`. Outside events the multiplier is 1. These are the
/// "large outliers due to network variation" of §3.3 that motivate the
/// harmonic-mean estimator.
pub struct Bursts {
    mean_interarrival_secs: f64,
    mean_duration_secs: f64,
    cap: f64,
    down_cap: f64,
    up_prob: f64,
    /// Current event: (end_time, multiplier) if inside one.
    current: Option<(SimTime, f64)>,
    next_start: SimTime,
    /// Up-vs-dip coin flips (scalar draws; one per event).
    rng: Prng,
    /// Unit-mean exponential durations and gaps, scaled at use.
    holds: DrawTable,
    /// Unit-scale Pareto amplitudes (`x_min = 1`), capped at use.
    amplitudes: DrawTable,
}

impl Bursts {
    /// Creates the overlay. `shape` is the Pareto tail exponent (smaller =
    /// heavier tail); up-burst multipliers are capped at `cap`, dips are
    /// floored at `1/down_cap`. Asymmetric caps model the common case where
    /// spare-capacity bursts are much larger than transient dips. Holds and
    /// amplitudes are drawn in `mode`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mean_interarrival_secs: f64,
        mean_duration_secs: f64,
        shape: f64,
        cap: f64,
        down_cap: f64,
        up_prob: f64,
        mut rng: Prng,
        mode: DeviateMode,
    ) -> Self {
        assert!(cap >= 1.0 && down_cap >= 1.0, "caps are multipliers >= 1");
        // The coin flips stay on `rng`; holds and amplitudes get forked
        // streams so their tables advance independently of the flips.
        let mut holds = DrawTable::new(rng.fork(), DrawKind::ExpUnit, mode);
        let amplitudes = DrawTable::new(rng.fork(), DrawKind::ParetoUnit { alpha: shape }, mode);
        let first = holds.draw() * mean_interarrival_secs;
        Bursts {
            mean_interarrival_secs,
            mean_duration_secs,
            cap,
            down_cap,
            up_prob,
            current: None,
            next_start: SimTime::from_secs_f64(first),
            rng,
            holds,
            amplitudes,
        }
    }

    fn draw_multiplier(&mut self) -> f64 {
        if self.rng.chance(self.up_prob) {
            self.amplitudes.draw().min(self.cap)
        } else {
            1.0 / self.amplitudes.draw().min(self.down_cap)
        }
    }

    /// The multiplier at `t`: an event's, or 1 between events.
    pub fn value_at(&mut self, t: SimTime) -> f64 {
        // Expire a finished event.
        if let Some((end, _)) = self.current {
            if t >= end {
                self.current = None;
            }
        }
        // Start (possibly skip over) events up to time t.
        while self.current.is_none() && t >= self.next_start {
            let dur = self.holds.draw() * self.mean_duration_secs;
            let end = self.next_start + SimDuration::from_secs_f64(dur);
            let mult = self.draw_multiplier();
            let gap = self.holds.draw() * self.mean_interarrival_secs;
            self.next_start = end + SimDuration::from_secs_f64(gap);
            if t < end {
                self.current = Some((end, mult));
            }
            // else: the event began and ended entirely before t; skip it.
        }
        self.current.map_or(1.0, |(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: DeviateMode = DeviateMode::Block;

    fn sample_grid(mut p: impl FnMut(SimTime) -> f64, n: usize, step: SimDuration) -> Vec<f64> {
        let mut t = SimTime::ZERO;
        (0..n)
            .map(|_| {
                t += step;
                p(t)
            })
            .collect()
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut ou = Ou::new(10.0, 2.0, 1.0, Prng::new(1), BLOCK);
        let samples = sample_grid(|t| ou.value_at(t), 20_000, SimDuration::from_millis(100));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((var.sqrt() - 2.0).abs() < 0.3, "std {}", var.sqrt());
    }

    #[test]
    fn ou_is_deterministic_per_seed() {
        let mut a = Ou::new(10.0, 2.0, 1.0, Prng::new(5), BLOCK);
        let mut b = Ou::new(10.0, 2.0, 1.0, Prng::new(5), BLOCK);
        assert_eq!(
            sample_grid(|t| a.value_at(t), 100, SimDuration::from_millis(37)),
            sample_grid(|t| b.value_at(t), 100, SimDuration::from_millis(37)),
        );
    }

    #[test]
    fn ou_same_time_same_value() {
        let mut ou = Ou::new(10.0, 2.0, 1.0, Prng::new(5), BLOCK);
        let t = SimTime::from_secs(1);
        let v1 = ou.value_at(t);
        let v2 = ou.value_at(t);
        assert_eq!(
            v1, v2,
            "re-sampling the same instant must not advance state"
        );
    }

    #[test]
    fn markov_visits_both_states() {
        let mut m = MarkovModulator::new(1.0, 0.3, 5.0, 2.0, Prng::new(2), BLOCK);
        let samples = sample_grid(|t| m.value_at(t), 10_000, SimDuration::from_millis(50));
        let good = samples.iter().filter(|&&v| v == 1.0).count();
        let bad = samples.iter().filter(|&&v| v == 0.3).count();
        assert_eq!(good + bad, samples.len());
        assert!(good > 0 && bad > 0);
        // Expected good fraction = 5 / (5 + 2) ≈ 0.71.
        let frac = good as f64 / samples.len() as f64;
        assert!((0.55..0.85).contains(&frac), "good fraction {frac}");
    }

    #[test]
    fn bursts_mostly_one_with_outliers() {
        let mut b = Bursts::new(10.0, 0.5, 1.5, 8.0, 8.0, 0.5, Prng::new(3), BLOCK);
        let samples = sample_grid(|t| b.value_at(t), 20_000, SimDuration::from_millis(100));
        let neutral = samples.iter().filter(|&&v| v == 1.0).count();
        let frac = neutral as f64 / samples.len() as f64;
        assert!(frac > 0.8, "neutral fraction {frac}");
        assert!(samples.iter().any(|&v| v > 1.0), "some up bursts");
        assert!(samples.iter().any(|&v| v < 1.0), "some dips");
        for &v in &samples {
            assert!((1.0 / 8.0..=8.0).contains(&v), "bounded by cap: {v}");
        }
    }

    #[test]
    fn stochastic_paths_are_functions_of_seed_and_time() {
        // Three samplers of one seed: every 7 ms, every 2.177 s, and every
        // 91 ms except across [20 s, 95 s) (an outage: nobody samples).
        // Wherever two of them meet they agree bit for bit, for the OU and
        // for the product of a link's three parts.
        let build = || {
            (
                Ou::new(10.0, 2.0, 8.0, Prng::new(12), BLOCK),
                MarkovModulator::new(1.0, 0.3, 5.0, 2.0, Prng::new(13), BLOCK),
                Bursts::new(10.0, 0.5, 1.5, 8.0, 8.0, 0.5, Prng::new(14), BLOCK),
            )
        };
        let product = |(ou, markov, bursts): &mut (Ou, MarkovModulator, Bursts), t| {
            ou.value_at(t) * markov.value_at(t) * bursts.value_at(t)
        };
        let ou = || Ou::new(10.0, 2.0, 1.0, Prng::new(8), BLOCK);
        let (mut fine, mut coarse, mut gapped) = (ou(), ou(), ou());
        let (mut fine_m, mut coarse_m, mut gapped_m) = (build(), build(), build());
        let outage = SimTime::from_secs(20)..SimTime::from_secs(95);
        for i in 1..=40_000u64 {
            let t = SimTime::from_millis(7 * i);
            let (v, vm) = (fine.value_at(t), product(&mut fine_m, t));
            if i % 311 == 0 {
                assert_eq!(coarse.value_at(t).to_bits(), v.to_bits(), "coarse at {t:?}");
                assert_eq!(
                    product(&mut coarse_m, t).to_bits(),
                    vm.to_bits(),
                    "coarse at {t:?}"
                );
            }
            if i % 13 == 0 && !outage.contains(&t) {
                assert_eq!(gapped.value_at(t).to_bits(), v.to_bits(), "gapped at {t:?}");
                assert_eq!(
                    product(&mut gapped_m, t).to_bits(),
                    vm.to_bits(),
                    "gapped at {t:?}"
                );
            }
        }
    }

    #[test]
    fn ou_holds_its_value_across_a_cell_and_steps_at_its_edge() {
        // tau = 8 s: cells of 250 ms, the first one [0, 250 ms).
        let mut ou = Ou::new(10.0, 2.0, 8.0, Prng::new(5), BLOCK);
        let first = ou.value_at(SimTime::ZERO);
        // The first cell reads the stationary draw itself.
        assert_eq!(
            first.to_bits(),
            (10.0 + 2.0 * Prng::new(5).normal()).to_bits()
        );
        assert_eq!(ou.value_at(SimTime::from_micros(249_999)), first);
        let second = ou.value_at(SimTime::from_millis(250));
        assert_ne!(second, first);
        assert_eq!(ou.value_at(SimTime::from_micros(499_999)), second);
    }

    #[test]
    fn table_sampled_ou_matches_direct_moments() {
        // Statistical guard for the redefined stream: the table-sampled OU
        // must still have the stationary mean/std it advertises.
        let mut ou = Ou::new(10.0, 2.0, 1.0, Prng::new(101), BLOCK);
        let samples = sample_grid(|t| ou.value_at(t), 40_000, SimDuration::from_millis(100));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let std =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
        assert!((std - 2.0).abs() < 0.3, "std {std}");
        // Coefficient of variation sanity: std/mean ≈ 0.2.
        let cv = std / mean;
        assert!((cv - 0.2).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn ou_autocorrelation_at_lag_tau_is_one_over_e() {
        // Sampled off the cell grid (37 ms against cells of 31.25 ms), 27
        // samples apart: a lag of 0.999 s on a process with tau = 1 s.
        let mut ou = Ou::new(10.0, 2.0, 1.0, Prng::new(103), BLOCK);
        let x = sample_grid(|t| ou.value_at(t), 200_000, SimDuration::from_millis(37));
        let lag = 27;
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64;
        let cov = x
            .windows(lag + 1)
            .map(|w| (w[0] - mean) * (w[lag] - mean))
            .sum::<f64>()
            / (x.len() - lag) as f64;
        let rho = cov / var;
        assert!((rho - (-1.0f64).exp()).abs() < 0.03, "rho {rho}");
    }

    #[test]
    fn table_sampled_markov_matches_direct_occupancy() {
        // Table-driven holding times keep the stationary occupancy at
        // mean_good / (mean_good + mean_bad).
        let mut m = MarkovModulator::new(1.0, 0.3, 5.0, 2.0, Prng::new(102), BLOCK);
        let samples = sample_grid(|t| m.value_at(t), 40_000, SimDuration::from_millis(50));
        let good = samples.iter().filter(|&&v| v == 1.0).count();
        let frac = good as f64 / samples.len() as f64;
        assert!((0.60..0.82).contains(&frac), "good fraction {frac}");
    }

    #[test]
    fn block_and_scalar_ref_processes_are_bit_identical() {
        // The whole point of DeviateMode::ScalarRef: a process driven by
        // scalar-reference fills reproduces the block-filled stream bitwise.
        let grid: Vec<SimTime> = {
            let mut t = SimTime::ZERO;
            (0..3_000)
                .map(|i| {
                    t += SimDuration::from_millis(23 + (i % 7) * 11);
                    t
                })
                .collect()
        };
        let mut ou_b = Ou::new(10.0, 2.0, 1.0, Prng::new(9), DeviateMode::Block);
        let mut ou_s = Ou::new(10.0, 2.0, 1.0, Prng::new(9), DeviateMode::ScalarRef);
        let mut mk_b = MarkovModulator::new(1.0, 0.3, 5.0, 2.0, Prng::new(10), DeviateMode::Block);
        let mut mk_s =
            MarkovModulator::new(1.0, 0.3, 5.0, 2.0, Prng::new(10), DeviateMode::ScalarRef);
        let mut bu_b = Bursts::new(
            10.0,
            0.5,
            1.5,
            8.0,
            8.0,
            0.5,
            Prng::new(11),
            DeviateMode::Block,
        );
        let mut bu_s = Bursts::new(
            10.0,
            0.5,
            1.5,
            8.0,
            8.0,
            0.5,
            Prng::new(11),
            DeviateMode::ScalarRef,
        );
        for &t in &grid {
            assert_eq!(ou_b.value_at(t).to_bits(), ou_s.value_at(t).to_bits());
            assert_eq!(mk_b.value_at(t).to_bits(), mk_s.value_at(t).to_bits());
            assert_eq!(bu_b.value_at(t).to_bits(), bu_s.value_at(t).to_bits());
        }
    }
}
