//! Calibrated path profiles.
//!
//! Four profiles reproduce the two experimental environments of the paper:
//!
//! * `wifi_testbed` / `lte_testbed` — §5's emulated testbed: servers in two
//!   UMass subnets, client on home WiFi + commercial LTE. Calibrated so that
//!   a 40-second 720p pre-buffer (≈12.5 MB) downloads in ≈11 s median over
//!   WiFi alone, matching Fig. 2's single-path medians.
//! * `wifi_youtube` / `lte_youtube` — §6's production YouTube paths: similar
//!   rates but larger control-plane latency to the real CDN and heavier LTE
//!   tails; LTE RTT is 2–3× the WiFi RTT as measured in the paper ("the RTTs
//!   of the LTE network are two to three times larger", §6).
//!
//! Each profile is a recipe; [`PathProfile::build`], the only way to make a
//! [`Link`], instantiates a fresh one with independent RNG streams, so
//! Monte-Carlo repetitions differ only by seed. The link's rate is
//! `clamp(level × bursts × congestion)`: the OU level (`rate_*`), the
//! `bursts` overlay and the `markov` congestion modulator, clamped by the
//! `*_rate_frac` bounds.

use crate::link::Link;
use msim_core::rng::{DeviateMode, Prng};
use msim_core::time::SimDuration;
use msim_core::units::BitRate;

/// Parameters of the heavy-tailed burst overlay.
#[derive(Clone, Copy, Debug)]
pub struct BurstParams {
    /// Mean seconds between burst events.
    pub mean_interarrival_secs: f64,
    /// Mean burst duration in seconds.
    pub mean_duration_secs: f64,
    /// Pareto tail exponent of the burst magnitude.
    pub shape: f64,
    /// Up-burst magnitude cap.
    pub cap: f64,
    /// Dip magnitude cap (rate floors at `1/down_cap` of the base).
    pub down_cap: f64,
    /// Probability a burst is an up-spike (vs a dip).
    pub up_prob: f64,
}

/// Parameters of the two-state congestion modulator.
#[derive(Clone, Copy, Debug)]
pub struct MarkovParams {
    /// Rate multiplier in the bad (congested) state.
    pub bad_mult: f64,
    /// Mean sojourn in the good state, seconds.
    pub mean_good_secs: f64,
    /// Mean sojourn in the bad state, seconds.
    pub mean_bad_secs: f64,
}

/// A reusable recipe for building stochastic links.
#[derive(Clone, Debug)]
pub struct PathProfile {
    /// Profile name (used in reports).
    pub name: &'static str,
    /// Long-run mean available bandwidth.
    pub mean_rate: BitRate,
    /// Stationary std of the OU bandwidth process, as a fraction of mean;
    /// `0.0` holds the level at the mean.
    pub rate_std_frac: f64,
    /// OU mean-reversion time constant, seconds.
    pub rate_tau_secs: f64,
    /// Optional Pareto burst overlay.
    pub bursts: Option<BurstParams>,
    /// Optional Markov congestion modulator.
    pub markov: Option<MarkovParams>,
    /// Base round-trip time.
    pub base_rtt: SimDuration,
    /// RTT jitter (log-normal sigma ≈ std/mean).
    pub rtt_jitter_frac: f64,
    /// Per-round random loss probability.
    pub random_loss_per_round: f64,
    /// Bandwidth clamp, as fractions of the mean.
    pub min_rate_frac: f64,
    /// Upper clamp as a fraction of the mean.
    pub max_rate_frac: f64,
    /// Bottleneck queue depth in BDP multiples (LTE eNodeB buffers are
    /// notoriously deep — "bufferbloat" — so losses there are rarer).
    pub queue_bdp_factor: f64,
    /// How the link's stochastic streams generate deviates: block-filled
    /// draw tables (production) or the scalar-reference comparator path.
    /// Both are bit-identical; see [`msim_core::rng::DeviateMode`].
    pub deviate_mode: DeviateMode,
}

impl PathProfile {
    /// Home WiFi attachment of the §5 emulated testbed.
    pub fn wifi_testbed() -> Self {
        PathProfile {
            name: "wifi-testbed",
            mean_rate: BitRate::mbps(10.5),
            rate_std_frac: 0.05,
            rate_tau_secs: 8.0,
            bursts: Some(BurstParams {
                mean_interarrival_secs: 4.0,
                mean_duration_secs: 0.25,
                shape: 1.2,
                cap: 6.0,
                down_cap: 2.0,
                up_prob: 0.8,
            }),
            markov: Some(MarkovParams {
                bad_mult: 0.80,
                mean_good_secs: 20.0,
                mean_bad_secs: 4.0,
            }),
            base_rtt: SimDuration::from_millis(25),
            rtt_jitter_frac: 0.12,
            random_loss_per_round: 0.004,
            min_rate_frac: 0.10,
            max_rate_frac: 2.2,
            queue_bdp_factor: 1.0,
            deviate_mode: DeviateMode::Block,
        }
    }

    /// Commercial LTE attachment of the §5 emulated testbed: slightly lower
    /// mean, 2–3× RTT, much burstier.
    pub fn lte_testbed() -> Self {
        PathProfile {
            name: "lte-testbed",
            mean_rate: BitRate::mbps(8.2),
            rate_std_frac: 0.07,
            rate_tau_secs: 8.0,
            bursts: Some(BurstParams {
                mean_interarrival_secs: 2.5,
                mean_duration_secs: 0.25,
                shape: 1.2,
                cap: 8.0,
                down_cap: 2.5,
                up_prob: 0.8,
            }),
            markov: Some(MarkovParams {
                bad_mult: 0.70,
                mean_good_secs: 16.0,
                mean_bad_secs: 3.0,
            }),
            base_rtt: SimDuration::from_millis(65),
            rtt_jitter_frac: 0.22,
            random_loss_per_round: 0.005,
            min_rate_frac: 0.15,
            max_rate_frac: 2.5,
            queue_bdp_factor: 3.0,
            deviate_mode: DeviateMode::Block,
        }
    }

    /// WiFi path to the production YouTube CDN (§6): similar access link,
    /// a bit more cross-traffic variance en route to the CDN edge.
    pub fn wifi_youtube() -> Self {
        PathProfile {
            name: "wifi-youtube",
            mean_rate: BitRate::mbps(8.5),
            rate_std_frac: 0.06,
            rate_tau_secs: 8.0,
            bursts: Some(BurstParams {
                mean_interarrival_secs: 4.0,
                mean_duration_secs: 0.3,
                shape: 1.2,
                cap: 6.0,
                down_cap: 2.2,
                up_prob: 0.75,
            }),
            markov: Some(MarkovParams {
                bad_mult: 0.70,
                mean_good_secs: 22.0,
                mean_bad_secs: 3.5,
            }),
            base_rtt: SimDuration::from_millis(35),
            rtt_jitter_frac: 0.15,
            random_loss_per_round: 0.005,
            min_rate_frac: 0.08,
            max_rate_frac: 2.5,
            queue_bdp_factor: 1.0,
            deviate_mode: DeviateMode::Block,
        }
    }

    /// LTE path to the production YouTube CDN (§6). RTT ≈ 2.5× WiFi.
    pub fn lte_youtube() -> Self {
        PathProfile {
            name: "lte-youtube",
            mean_rate: BitRate::mbps(6.0),
            rate_std_frac: 0.08,
            rate_tau_secs: 8.0,
            bursts: Some(BurstParams {
                mean_interarrival_secs: 2.5,
                mean_duration_secs: 0.3,
                shape: 1.2,
                cap: 8.0,
                down_cap: 2.5,
                up_prob: 0.75,
            }),
            markov: Some(MarkovParams {
                bad_mult: 0.65,
                mean_good_secs: 18.0,
                mean_bad_secs: 4.0,
            }),
            base_rtt: SimDuration::from_millis(100),
            rtt_jitter_frac: 0.25,
            random_loss_per_round: 0.006,
            min_rate_frac: 0.12,
            max_rate_frac: 2.8,
            queue_bdp_factor: 3.0,
            deviate_mode: DeviateMode::Block,
        }
    }

    /// Wired campus ethernet attachment (the third path of the N-path
    /// scenarios): lower RTT and variance than either wireless path, a
    /// modest mean rate (shared access switch), shallow buffers.
    pub fn ethernet_testbed() -> Self {
        PathProfile {
            name: "eth-testbed",
            mean_rate: BitRate::mbps(9.4),
            rate_std_frac: 0.03,
            rate_tau_secs: 10.0,
            bursts: Some(BurstParams {
                mean_interarrival_secs: 6.0,
                mean_duration_secs: 0.2,
                shape: 1.3,
                cap: 4.0,
                down_cap: 1.8,
                up_prob: 0.85,
            }),
            markov: Some(MarkovParams {
                bad_mult: 0.90,
                mean_good_secs: 30.0,
                mean_bad_secs: 2.0,
            }),
            base_rtt: SimDuration::from_millis(12),
            rtt_jitter_frac: 0.06,
            random_loss_per_round: 0.001,
            min_rate_frac: 0.25,
            max_rate_frac: 1.8,
            queue_bdp_factor: 0.8,
            deviate_mode: DeviateMode::Block,
        }
    }

    /// A deliberately stable link, useful in unit tests and the quickstart.
    pub fn stable(mean_mbps: f64, rtt_ms: u64) -> Self {
        PathProfile {
            name: "stable",
            mean_rate: BitRate::mbps(mean_mbps),
            rate_std_frac: 0.0,
            rate_tau_secs: 1.0,
            bursts: None,
            markov: None,
            base_rtt: SimDuration::from_millis(rtt_ms),
            rtt_jitter_frac: 0.0,
            random_loss_per_round: 0.0,
            min_rate_frac: 0.9,
            max_rate_frac: 1.1,
            queue_bdp_factor: 1.0,
            deviate_mode: DeviateMode::Block,
        }
    }

    /// Returns a copy scaled to a different mean rate (keeps variability
    /// fractions); handy for parameter sweeps.
    pub fn scaled_to(mut self, rate: BitRate) -> Self {
        self.mean_rate = rate;
        self
    }

    /// Returns a copy using the given deviate-generation mode for every
    /// stochastic stream the built link owns. The frozen-fingerprint corpus
    /// uses this to replay whole sessions on the scalar-reference path.
    pub fn with_deviate_mode(mut self, mode: DeviateMode) -> Self {
        self.deviate_mode = mode;
        self
    }

    /// The TCP configuration matched to this path (queue depth).
    pub fn tcp_config(&self) -> crate::tcp::TcpConfig {
        crate::tcp::TcpConfig {
            queue_bdp_factor: self.queue_bdp_factor,
            ..crate::tcp::TcpConfig::default()
        }
    }

    /// Instantiates a [`Link`], the only way to make one. Every stochastic
    /// part (rate level, bursts, congestion, RTT jitter, loss) gets its own
    /// stream forked from `rng`.
    pub fn build(&self, rng: &mut Prng) -> Link {
        Link::new(self, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_core::time::SimTime;

    #[test]
    fn rtt_ratio_matches_paper_measurements() {
        // §6: LTE RTT is 2–3× the WiFi RTT.
        let theta_testbed = PathProfile::lte_testbed().base_rtt.as_secs_f64()
            / PathProfile::wifi_testbed().base_rtt.as_secs_f64();
        let theta_youtube = PathProfile::lte_youtube().base_rtt.as_secs_f64()
            / PathProfile::wifi_youtube().base_rtt.as_secs_f64();
        assert!(
            (2.0..=3.0).contains(&theta_testbed),
            "testbed θ {theta_testbed}"
        );
        assert!(
            (2.0..=3.0).contains(&theta_youtube),
            "youtube θ {theta_youtube}"
        );
    }

    #[test]
    fn built_links_hover_around_mean() {
        for profile in [
            PathProfile::wifi_testbed(),
            PathProfile::lte_testbed(),
            PathProfile::wifi_youtube(),
            PathProfile::lte_youtube(),
        ] {
            let mut agg = 0.0;
            let runs = 8;
            for seed in 0..runs {
                let mut rng = Prng::new(seed);
                let mut link = profile.build(&mut rng);
                let mut sum = 0.0;
                let n = 600;
                for i in 0..n {
                    sum += link.rate_at(SimTime::from_millis(100 * i as u64)).as_mbps();
                }
                agg += sum / n as f64;
            }
            let avg = agg / runs as f64;
            let mean = profile.mean_rate.as_mbps();
            assert!(
                (avg - mean).abs() / mean < 0.35,
                "{}: avg {avg} vs mean {mean}",
                profile.name
            );
        }
    }

    #[test]
    fn lte_is_burstier_than_wifi() {
        let spread = |profile: &PathProfile| {
            let mut rng = Prng::new(5);
            let mut link = profile.build(&mut rng);
            let samples: Vec<f64> = (0..4000)
                .map(|i| link.rate_at(SimTime::from_millis(50 * i as u64)).as_mbps())
                .collect();
            let m = samples.iter().sum::<f64>() / samples.len() as f64;
            let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64;
            var.sqrt() / m // coefficient of variation
        };
        let wifi_cv = spread(&PathProfile::wifi_testbed());
        let lte_cv = spread(&PathProfile::lte_testbed());
        assert!(lte_cv > wifi_cv, "lte cv {lte_cv} vs wifi cv {wifi_cv}");
    }

    #[test]
    fn stable_profile_is_flat() {
        let mut rng = Prng::new(1);
        let mut link = PathProfile::stable(10.0, 20).build(&mut rng);
        let a = link.rate_at(SimTime::from_secs(1)).as_mbps();
        let b = link.rate_at(SimTime::from_secs(100)).as_mbps();
        assert_eq!(a, b);
        assert_eq!(link.rtt_at(SimTime::ZERO), SimDuration::from_millis(20));
    }

    #[test]
    fn scaled_to_changes_only_rate() {
        let p = PathProfile::wifi_testbed().scaled_to(BitRate::mbps(20.0));
        assert_eq!(p.mean_rate.as_mbps(), 20.0);
        assert_eq!(p.base_rtt, PathProfile::wifi_testbed().base_rtt);
    }
}
