//! Named fleet workloads for `msplayer fleet`: the population-scale fluid
//! headline, the policy × capacity cost-vs-QoE frontier grid, and a small
//! exact-mode anchor demonstrating backend interop.
//!
//! All specs are pure functions of their inputs (seeded from
//! [`crate::BASE_SEED`]), so the `BENCH_fleet.json` that `msplayer
//! fleet` writes is reproducible bit-for-bit.

use crate::BASE_SEED;
use msim_core::time::SimDuration;
use msim_core::units::BitRate;
use msplayer_core::config::PlayerConfig;
use msplayer_core::fleet::{FleetServerSpec, FleetSpec, SelectionPolicy};
use msplayer_core::sim::{PathSetup, ServiceSpec, SessionSpec};

/// Seed salt separating fleet benches from the sweep/chaos families.
const FLEET_BENCH_SALT: u64 = 0xf1ee_b00c;

/// Capacity scales swept by the frontier grid: an under-provisioned,
/// a matched, and an over-provisioned fleet.
pub const FRONTIER_SCALES: [f64; 3] = [0.6, 1.0, 1.5];

/// The headline population: `sessions` fluid sessions over eight 40 Gbit/s
/// replicas (120k sessions ≈ 94% offered load at peak), arrivals over two
/// minutes of a five-minute 720p video — every session is concurrently in
/// flight at the end of the arrival window.
pub fn headline_spec(sessions: u64) -> FleetSpec {
    let mut spec = FleetSpec::fluid(BASE_SEED ^ FLEET_BENCH_SALT, sessions);
    spec.servers = (0..8)
        .map(|i| {
            // Half premium, half economy: gives the selection policies a
            // real cost surface without changing total capacity.
            let premium = i < 4;
            FleetServerSpec::new(BitRate::mbps(40_000.0)).with_cost(
                if premium { 12.0 } else { 4.0 },
                if premium { 0.08 } else { 0.02 },
            )
        })
        .collect();
    spec.workers = 4;
    spec
}

/// One cell of the frontier grid.
pub struct FrontierCase {
    /// `"{policy}@x{scale}"`.
    pub label: String,
    /// Selection policy under test.
    pub policy: SelectionPolicy,
    /// Fleet capacity multiplier relative to the matched provisioning.
    pub capacity_scale: f64,
    /// The runnable spec.
    pub spec: FleetSpec,
}

/// The policy × capacity grid behind the cost-vs-QoE frontier: every
/// [`SelectionPolicy`] over [`FRONTIER_SCALES`], same arriving
/// population, heterogeneous per-replica costs. Under-provisioned cells
/// are cheap and stall; over-provisioned cells are smooth and expensive;
/// the frontier is what an operator actually gets to choose from.
pub fn frontier_specs(sessions: u64) -> Vec<FrontierCase> {
    let mut cases = Vec::new();
    for policy in SelectionPolicy::ALL {
        for scale in FRONTIER_SCALES {
            // Matched provisioning: 4 replicas sized so the arriving
            // population offers ~90% load at scale 1.0. Capacity is
            // heterogeneous (premium replicas 1.25x the mean, economy
            // 0.75x) so count-balancing, share-balancing, and cheapest
            // packing make genuinely different choices.
            let mean_server = sessions as f64 * 2.5 / 4.0 / 0.9;
            let mut spec = FleetSpec::fluid(BASE_SEED ^ FLEET_BENCH_SALT, sessions);
            spec.policy = policy;
            spec.servers = (0..4)
                .map(|i| {
                    let premium = i < 2;
                    let share = if premium { 1.25 } else { 0.75 };
                    FleetServerSpec::new(BitRate::mbps(mean_server * share * scale)).with_cost(
                        if premium { 12.0 * scale } else { 4.0 * scale },
                        if premium { 0.08 } else { 0.02 },
                    )
                })
                .collect();
            spec.workers = 4;
            cases.push(FrontierCase {
                label: format!("{}@x{scale}", policy.name()),
                policy,
                capacity_scale: scale,
                spec,
            });
        }
    }
    cases
}

/// A small exact-mode anchor: full per-chunk sessions of the paper's
/// testbed scenario under shared fleet load, demonstrating that both
/// backends drive the same spec surface.
pub fn exact_anchor_spec(sessions: u64) -> FleetSpec {
    let base = SessionSpec::new(
        BASE_SEED ^ FLEET_BENCH_SALT,
        PathSetup::testbed_pair(),
        PlayerConfig::msplayer(),
    );
    let mut spec = FleetSpec::exact(ServiceSpec::testbed(), base, sessions);
    spec.arrival_window = SimDuration::from_secs(30);
    spec.servers = vec![FleetServerSpec::uncapped().with_capacity(24); 2];
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplayer_core::fleet::FleetHost;

    #[test]
    fn all_named_specs_validate() {
        FleetHost::new(headline_spec(1_000)).expect("headline");
        let cases = frontier_specs(500);
        assert_eq!(
            cases.len(),
            SelectionPolicy::ALL.len() * FRONTIER_SCALES.len()
        );
        for c in cases {
            FleetHost::new(c.spec).expect("frontier cell");
        }
        FleetHost::new(exact_anchor_spec(4)).expect("exact anchor");
    }

    #[test]
    fn headline_population_is_fully_concurrent_at_peak() {
        let spec = headline_spec(2_000);
        // Arrivals end before the shortest possible session does, so peak
        // concurrency equals the population size.
        assert!(spec.arrival_window.as_secs_f64() < spec.video_secs);
        let m = FleetHost::new(spec).unwrap().run();
        assert_eq!(m.peak_concurrent, 2_000);
    }
}
