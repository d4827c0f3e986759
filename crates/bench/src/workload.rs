//! The open workload registry.
//!
//! A workload is **data**, not an enum arm: the path set, the service
//! profile, the player family, the scheduler/chunk grid, the stop
//! condition, and the seed range. The sweep engine enumerates a workload
//! into [`Cell`]s and runs each over a shared [`SessionHost`] — so adding a
//! new scenario (a 3-path WiFi+LTE+ethernet run, a mobility-outage storm, a
//! server-failure storm) means *registering a spec*, not editing the
//! engine.
//!
//! The paper's own grid — two environments × three players — is the first
//! six entries of [`WorkloadRegistry::builtin`]; a caller that wants a
//! variation clones a builtin and sets its public fields.
//!
//! [`Cell`]: crate::sweep::Cell
//! [`SessionHost`]: msplayer_core::sim::SessionHost

use msim_core::time::SimTime;
use msim_core::units::ByteSize;
use msim_net::mobility::OutageSchedule;
use msim_net::profile::PathProfile;
use msim_youtube::dns::Network;
use msplayer_core::chaos::ChaosPlan;
use msplayer_core::config::{AbrLadderConfig, PlayerConfig, SchedulerKind};
use msplayer_core::sim::{PathSetup, ServerFailure, ServiceSpec, SessionSpec, StopCondition};
use std::sync::Arc;

/// Which player family a workload's cells run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlayerKind {
    /// MSPlayer with the cell's scheduler and initial chunk size.
    MsPlayer,
    /// Commercial single-path profile with the cell's fixed chunk size
    /// (the cell's scheduler is ignored — the profile pins `Fixed`).
    Commercial,
}

/// One registered workload: everything needed to enumerate and run its
/// cells.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Unique name; cells report as `<name>/<scheduler>` kinds.
    pub name: String,
    /// Service side (built once per host).
    pub service: ServiceSpec,
    /// The session's paths (any count — 1, 2, 3, …).
    pub paths: Vec<PathSetup>,
    /// Player family.
    pub player: PlayerKind,
    /// Schedulers to sweep (one cell group per entry).
    pub schedulers: Vec<SchedulerKind>,
    /// Initial/base chunk sizes (KB) to sweep.
    pub chunk_kb: Vec<u64>,
    /// Pre-buffering target in seconds.
    pub prebuffer_secs: f64,
    /// Stop condition for every cell.
    pub stop: StopCondition,
    /// Server-failure injections applied to every cell (storms).
    pub server_failures: Vec<ServerFailure>,
    /// Seeded repetitions per (scheduler, chunk) configuration.
    pub runs: u64,
    /// Mixed into every seed so different workloads draw different
    /// sessions; the six paper workloads use `0`.
    pub seed_salt: u64,
    /// Optional shadow ABR ladder applied to every cell's player (`None` =
    /// the paper's fixed-rate player).
    pub abr: Option<AbrLadderConfig>,
    /// Optional chaos plan layered onto every cell's session (`None` =
    /// fault-free). Layering is additive: the workload definition itself
    /// is untouched — see [`WorkloadSpec::with_chaos`].
    pub chaos: Option<ChaosPlan>,
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("paths", &self.paths.len())
            .field("player", &self.player)
            .field("schedulers", &self.schedulers)
            .field("chunk_kb", &self.chunk_kb)
            .field("prebuffer_secs", &self.prebuffer_secs)
            .field("stop", &self.stop)
            .field("server_failures", &self.server_failures.len())
            .field("runs", &self.runs)
            .field("seed_salt", &self.seed_salt)
            .field("abr", &self.abr.is_some())
            .field("chaos", &self.chaos.as_ref().map(ChaosPlan::to_string))
            .finish()
    }
}

impl WorkloadSpec {
    /// The seed of repetition `run`.
    pub fn seed(&self, run: u64) -> u64 {
        crate::BASE_SEED ^ self.seed_salt ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The player configuration for one cell of this workload.
    pub fn player_config(&self, scheduler: SchedulerKind, chunk_kb: u64) -> PlayerConfig {
        let cfg = match self.player {
            PlayerKind::MsPlayer => PlayerConfig::msplayer()
                .with_scheduler(scheduler)
                .with_initial_chunk(ByteSize::kb(chunk_kb)),
            PlayerKind::Commercial => PlayerConfig::commercial_single_path(ByteSize::kb(chunk_kb)),
        }
        .with_prebuffer_secs(self.prebuffer_secs);
        match &self.abr {
            Some(abr) => cfg.with_abr_ladder(abr.clone()),
            None => cfg,
        }
    }

    /// Validates the workload: non-empty grids and a valid session spec
    /// for every (scheduler, chunk) point (path set, failure targets,
    /// player config).
    pub fn validate(&self) -> Result<(), String> {
        if self.schedulers.is_empty() {
            return Err(format!("workload {:?} has no schedulers", self.name));
        }
        if self.chunk_kb.is_empty() {
            return Err(format!("workload {:?} has no chunk sizes", self.name));
        }
        for &scheduler in &self.schedulers {
            for &chunk_kb in &self.chunk_kb {
                self.session_spec(scheduler, chunk_kb, self.seed(0))
                    .validate()
                    .map_err(|e| format!("workload {:?}: {e}", self.name))?;
            }
        }
        Ok(())
    }

    /// The full session spec for one cell of this workload.
    pub fn session_spec(&self, scheduler: SchedulerKind, chunk_kb: u64, seed: u64) -> SessionSpec {
        let spec = SessionSpec {
            seed,
            paths: self.paths.clone(),
            player: self.player_config(scheduler, chunk_kb),
            stop: self.stop,
            server_failures: self.server_failures.clone(),
            chaos: None,
        };
        match &self.chaos {
            Some(plan) => spec.with_chaos(plan.clone()),
            None => spec,
        }
    }

    /// Layers a chaos plan onto this workload without touching its
    /// definition: every cell's session spec carries the plan, and the
    /// name grows a `+chaos[<plan>]` suffix so chaotic cells never
    /// conflate with their clean counterparts in reports or registries.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> WorkloadSpec {
        self.name = format!("{}+chaos[{plan}]", self.name);
        self.chaos = Some(plan);
        self
    }

    /// One row of the paper's evaluation grid: MSPlayer sweeps the three
    /// paper schedulers, the commercial single-path player pins `Fixed`;
    /// 256 KB chunks, 40 s pre-buffer, `seed_salt = 0`.
    fn paper(
        name: &str,
        service: &ServiceSpec,
        paths: &[PathSetup],
        player: PlayerKind,
        runs: u64,
    ) -> WorkloadSpec {
        let schedulers = match player {
            PlayerKind::MsPlayer => vec![
                SchedulerKind::Harmonic,
                SchedulerKind::Ewma,
                SchedulerKind::Ratio,
            ],
            PlayerKind::Commercial => vec![SchedulerKind::Fixed],
        };
        WorkloadSpec {
            name: name.into(),
            service: service.clone(),
            paths: paths.to_vec(),
            player,
            schedulers,
            chunk_kb: vec![256],
            prebuffer_secs: 40.0,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            runs,
            seed_salt: 0,
            abr: None,
            chaos: None,
        }
    }

    /// Three-path WiFi + LTE + ethernet testbed workload.
    pub fn three_path_testbed(runs: u64) -> WorkloadSpec {
        let mut paths = PathSetup::testbed_pair();
        paths.push(PathSetup::new(
            PathProfile::ethernet_testbed(),
            Network::Ethernet,
        ));
        WorkloadSpec {
            name: "testbed3/MSPlayer".into(),
            service: ServiceSpec::testbed(),
            paths,
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic, SchedulerKind::Ratio],
            chunk_kb: vec![256],
            prebuffer_secs: 10.0,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            runs,
            seed_salt: 0x3_9A7_0E7,
            abr: None,
            chaos: None,
        }
    }

    /// Mobility-outage storm: the WiFi path drops out repeatedly while the
    /// session streams through its first refill cycle.
    pub fn mobility_storm(runs: u64) -> WorkloadSpec {
        let outages = OutageSchedule::from_windows(vec![
            (SimTime::from_secs(3), SimTime::from_secs(8)),
            (SimTime::from_secs(15), SimTime::from_secs(19)),
            (SimTime::from_secs(28), SimTime::from_secs(33)),
        ]);
        let mut paths = PathSetup::testbed_pair();
        paths[0].outages = Some(outages);
        WorkloadSpec {
            name: "storm/mobility".into(),
            service: ServiceSpec::testbed(),
            paths,
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic],
            chunk_kb: vec![256],
            prebuffer_secs: 20.0,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            runs,
            seed_salt: 0x0B_1EE7,
            abr: None,
            chaos: None,
        }
    }

    /// Server-failure storm: both paths' primary servers fail in
    /// overlapping windows early in the session.
    pub fn server_failure_storm(runs: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "storm/server-failure".into(),
            service: ServiceSpec::testbed(),
            paths: PathSetup::testbed_pair(),
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic],
            chunk_kb: vec![256],
            prebuffer_secs: 15.0,
            stop: StopCondition::PrebufferDone,
            server_failures: vec![
                ServerFailure {
                    path: 0,
                    from: SimTime::from_secs(2),
                    until: SimTime::from_secs(30),
                },
                ServerFailure {
                    path: 1,
                    from: SimTime::from_secs(4),
                    until: SimTime::from_secs(25),
                },
            ],
            runs,
            seed_salt: 0x5707_4A11,
            abr: None,
            chaos: None,
        }
    }
}

impl WorkloadSpec {
    /// Four-path asymmetric-replica grid: WiFi + LTE + ethernet + a
    /// second, slower cellular modem that shares the **same** cellular
    /// network (and therefore the same replica fleet) as the LTE path.
    /// Two paths compete for one network's servers; the grid sweeps two
    /// schedulers × two chunk sizes over it.
    pub fn four_path_asymmetric_grid(runs: u64) -> WorkloadSpec {
        let mut paths = PathSetup::testbed_pair();
        paths.push(PathSetup::new(
            PathProfile::ethernet_testbed(),
            Network::Ethernet,
        ));
        paths.push(PathSetup::new(
            PathProfile::lte_youtube().scaled_to(msim_core::units::BitRate::mbps(4.2)),
            Network::Cellular,
        ));
        WorkloadSpec {
            name: "grid/4path-asym".into(),
            service: ServiceSpec::testbed(),
            paths,
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic, SchedulerKind::Ratio],
            chunk_kb: vec![256, 1024],
            prebuffer_secs: 10.0,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            runs,
            seed_salt: 0x4A57_4247,
            abr: None,
            chaos: None,
        }
    }

    /// Same-network dual-WiFi workload: two WiFi interfaces attached to
    /// one WiFi network (e.g. a phone bridging 2.4 GHz and 5 GHz radios).
    /// Both paths bootstrap against the *same* network's proxy and server
    /// fleet, which exercises the bootstrap cache's load-aware-ordering
    /// caveat: the second path sees a non-idle network, so the host must
    /// bypass its `(network, json_done)` cache to preserve exact
    /// load-aware server ordering.
    pub fn dual_wifi_same_network(runs: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "wifi/dual-same-network".into(),
            service: ServiceSpec::testbed(),
            paths: vec![
                PathSetup::new(PathProfile::wifi_testbed(), Network::Wifi),
                PathSetup::new(
                    PathProfile::wifi_testbed().scaled_to(msim_core::units::BitRate::mbps(6.3)),
                    Network::Wifi,
                ),
            ],
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic],
            chunk_kb: vec![256],
            prebuffer_secs: 10.0,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            runs,
            seed_salt: 0xD0A1_F1F1,
            abr: None,
            chaos: None,
        }
    }

    /// Closed-loop ABR grid: MSPlayer streams through two refill cycles
    /// with the damped rate policy *actually switching the streamed itag*
    /// (see [`msplayer_core::abr`]), swept over two schedulers × two base
    /// chunk sizes. WiFi + LTE afford well above the starting rung's
    /// 2.5 Mb/s, so sessions up-switch mid-stream — the scenario the
    /// shadow-only `abr/ladder` workload could never produce.
    pub fn abr_closed_loop_grid(runs: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "abr/closed-loop".into(),
            service: ServiceSpec::testbed(),
            paths: PathSetup::testbed_pair(),
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic, SchedulerKind::Ratio],
            chunk_kb: vec![256, 1024],
            prebuffer_secs: 15.0,
            stop: StopCondition::AfterRefills(2),
            server_failures: Vec::new(),
            runs,
            seed_salt: 0xC105_ED10,
            abr: Some(AbrLadderConfig::closed_loop()),
            chaos: None,
        }
    }

    /// Closed-loop ABR under an LTE→WiFi handoff: the session starts on
    /// LTE alone (the WiFi path is in an outage through its bootstrap),
    /// then WiFi comes up mid-stream. The hybrid policy rides the buffer
    /// down during the single-path phase and climbs after the handoff
    /// doubles the aggregate estimate — adaptation and multi-path
    /// scheduling interacting, not just coexisting.
    pub fn abr_mobility_handoff(runs: u64) -> WorkloadSpec {
        let mut paths = PathSetup::testbed_pair();
        paths[0].outages = Some(OutageSchedule::from_windows(vec![(
            SimTime::from_millis(200),
            SimTime::from_secs(12),
        )]));
        WorkloadSpec {
            name: "abr/mobility-handoff".into(),
            service: ServiceSpec::testbed(),
            paths,
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic],
            chunk_kb: vec![256],
            prebuffer_secs: 15.0,
            stop: StopCondition::AfterRefills(2),
            server_failures: Vec::new(),
            runs,
            seed_salt: 0x4A2D_0FF5,
            abr: Some(
                AbrLadderConfig::closed_loop()
                    .with_policy(msplayer_core::abr::AbrPolicyKind::Hybrid),
            ),
            chaos: None,
        }
    }

    /// Mixed mobility trace (the ROADMAP's scripted multi-segment trace):
    /// WiFi-only → LTE-only → dual. The LTE path is down through the
    /// early stream, WiFi then drops for a long stretch while LTE is
    /// back, and finally both run together — one session crossing three
    /// connectivity regimes.
    pub fn mobility_mixed_trace(runs: u64) -> WorkloadSpec {
        let mut paths = PathSetup::testbed_pair();
        paths[0].outages = Some(OutageSchedule::from_windows(vec![(
            SimTime::from_secs(8),
            SimTime::from_secs(25),
        )]));
        paths[1].outages = Some(OutageSchedule::from_windows(vec![(
            SimTime::from_millis(300),
            SimTime::from_secs(8),
        )]));
        WorkloadSpec {
            name: "mobility/mixed-trace".into(),
            service: ServiceSpec::testbed(),
            paths,
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic],
            chunk_kb: vec![256],
            prebuffer_secs: 20.0,
            stop: StopCondition::AfterRefills(1),
            server_failures: Vec::new(),
            runs,
            seed_salt: 0x3177_ACE5,
            abr: None,
            chaos: None,
        }
    }

    /// ABR-ladder workload: MSPlayer streams through two refill cycles
    /// with the shadow damped-rate policy (see [`msplayer_core::abr`])
    /// deciding a ladder rung every 250 ms. Because every decision is a
    /// timer wakeup, its cells are the registry's most tick-heavy
    /// sessions, exercising the event queue's near-horizon calendar path.
    pub fn abr_ladder(runs: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "abr/ladder".into(),
            service: ServiceSpec::testbed(),
            paths: PathSetup::testbed_pair(),
            player: PlayerKind::MsPlayer,
            schedulers: vec![SchedulerKind::Harmonic],
            chunk_kb: vec![256],
            prebuffer_secs: 15.0,
            stop: StopCondition::AfterRefills(2),
            server_failures: Vec::new(),
            runs,
            seed_salt: 0xAB_12AD,
            abr: Some(AbrLadderConfig::default()),
            chaos: None,
        }
    }
}

/// An ordered, open collection of workloads. Enumeration order is
/// registration order, so sweeps over a registry are deterministic.
#[derive(Clone, Default)]
pub struct WorkloadRegistry {
    specs: Vec<Arc<WorkloadSpec>>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> WorkloadRegistry {
        WorkloadRegistry::default()
    }

    /// The built-in catalogue: the paper's six workloads (§5 testbed and
    /// §6 YouTube × MSPlayer / WiFi-only / LTE-only) plus the N-path,
    /// storm, ABR and mobility scenarios, `runs` seeds each.
    pub fn builtin(runs: u64) -> WorkloadRegistry {
        let mut reg = WorkloadRegistry::new();
        use PlayerKind::{Commercial, MsPlayer};
        let (tb, yt) = (ServiceSpec::testbed(), ServiceSpec::youtube());
        let (tb_paths, yt_paths) = (PathSetup::testbed_pair(), PathSetup::youtube_pair());
        for (name, service, paths, player) in [
            ("testbed/MSPlayer", &tb, &tb_paths[..], MsPlayer),
            ("testbed/WiFi", &tb, &tb_paths[..1], Commercial),
            ("testbed/LTE", &tb, &tb_paths[1..], Commercial),
            ("youtube/MSPlayer", &yt, &yt_paths[..], MsPlayer),
            ("youtube/WiFi", &yt, &yt_paths[..1], Commercial),
            ("youtube/LTE", &yt, &yt_paths[1..], Commercial),
        ] {
            reg.register(WorkloadSpec::paper(name, service, paths, player, runs));
        }
        reg.register(WorkloadSpec::three_path_testbed(runs));
        reg.register(WorkloadSpec::mobility_storm(runs));
        reg.register(WorkloadSpec::server_failure_storm(runs));
        reg.register(WorkloadSpec::abr_ladder(runs));
        reg.register(WorkloadSpec::four_path_asymmetric_grid(runs));
        reg.register(WorkloadSpec::dual_wifi_same_network(runs));
        reg.register(WorkloadSpec::abr_closed_loop_grid(runs));
        reg.register(WorkloadSpec::abr_mobility_handoff(runs));
        reg.register(WorkloadSpec::mobility_mixed_trace(runs));
        reg
    }

    /// Registers a workload, returning its shared handle.
    ///
    /// Panics on a duplicate name (cell equality and the per-kind
    /// percentiles in `BENCH_*.json` key on the workload name, so two
    /// distinct workloads sharing one name would silently conflate) and
    /// on an invalid spec (see [`WorkloadSpec::validate`]) — failing fast
    /// at the registration boundary instead of mid-sweep inside a worker
    /// thread.
    pub fn register(&mut self, spec: WorkloadSpec) -> Arc<WorkloadSpec> {
        assert!(
            self.by_name(&spec.name).is_none(),
            "workload name {:?} already registered",
            spec.name
        );
        if let Err(why) = spec.validate() {
            panic!("invalid workload: {why}");
        }
        let spec = Arc::new(spec);
        self.specs.push(Arc::clone(&spec));
        spec
    }

    /// Looks a workload up by name.
    pub fn by_name(&self, name: &str) -> Option<&Arc<WorkloadSpec>> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All registered workloads in registration order.
    pub fn specs(&self) -> &[Arc<WorkloadSpec>] {
        &self.specs
    }

    /// Every registered workload name, registration order — used to make
    /// "unknown workload" errors actionable instead of a dead end.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Enumerates every registered workload into its cell list
    /// (registration order, then scheduler → chunk → seed within each
    /// workload).
    pub fn cells(&self) -> Vec<crate::sweep::Cell> {
        self.specs
            .iter()
            .flat_map(crate::sweep::expand_workload)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_open_and_ordered() {
        let mut reg = WorkloadRegistry::new();
        assert!(reg.specs().is_empty());
        reg.register(WorkloadSpec::three_path_testbed(2));
        reg.register(WorkloadSpec::mobility_storm(1));
        assert_eq!(reg.specs().len(), 2);
        assert_eq!(reg.specs()[0].name, "testbed3/MSPlayer");
        assert!(reg.by_name("storm/mobility").is_some());
        assert!(reg.by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_are_rejected() {
        let mut reg = WorkloadRegistry::new();
        reg.register(WorkloadSpec::mobility_storm(1));
        reg.register(WorkloadSpec::mobility_storm(2));
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn invalid_failure_targets_are_rejected_at_registration() {
        let mut w = WorkloadSpec::server_failure_storm(1);
        w.server_failures[0].path = 7; // the workload has only 2 paths
        WorkloadRegistry::new().register(w);
    }

    #[test]
    fn builtin_registers_fifteen_workloads_in_a_fixed_order() {
        let reg = WorkloadRegistry::builtin(2);
        // Registration order is cell order: the cluster's manifest
        // expansion and `sweep_fingerprint` depend on it.
        assert_eq!(
            reg.names(),
            [
                "testbed/MSPlayer",
                "testbed/WiFi",
                "testbed/LTE",
                "youtube/MSPlayer",
                "youtube/WiFi",
                "youtube/LTE",
                "testbed3/MSPlayer",
                "storm/mobility",
                "storm/server-failure",
                "abr/ladder",
                "grid/4path-asym",
                "wifi/dual-same-network",
                "abr/closed-loop",
                "abr/mobility-handoff",
                "mobility/mixed-trace",
            ]
        );
        assert!(reg.specs().iter().all(|w| w.runs == 2));
        let three = reg.by_name("testbed3/MSPlayer").unwrap();
        assert_eq!(three.paths.len(), 3);
        let four = reg.by_name("grid/4path-asym").unwrap();
        assert_eq!(four.paths.len(), 4);
        let dual = reg.by_name("wifi/dual-same-network").unwrap();
        assert_eq!(dual.paths.len(), 2);
        assert!(dual.paths.iter().all(|p| p.network == Network::Wifi));
    }

    #[test]
    fn four_path_asym_grid_uses_all_paths_and_shares_cellular() {
        let w = WorkloadSpec::four_path_asymmetric_grid(1);
        // Asymmetric replica pressure: two of the four paths share the
        // cellular network's replica fleet.
        let cellular = w
            .paths
            .iter()
            .filter(|p| p.network == Network::Cellular)
            .count();
        assert_eq!(cellular, 2);
        let cells = crate::sweep::expand_workload(&Arc::new(w));
        assert_eq!(cells.len(), 4, "2 schedulers × 2 chunks × 1 seed");
        let r = cells[0].run();
        assert!(r.expect_metrics().prebuffer_done_at.is_some());
        assert_eq!(r.expect_metrics().num_paths(), 4);
        for p in 0..4 {
            assert!(
                r.expect_metrics().chunk_count(p) > 0,
                "path {p} carried chunks"
            );
        }
    }

    #[test]
    fn dual_wifi_same_network_streams_on_both_interfaces() {
        let w = WorkloadSpec::dual_wifi_same_network(1);
        let cells = crate::sweep::expand_workload(&Arc::new(w));
        assert_eq!(cells.len(), 1);
        let a = cells[0].run();
        let b = cells[0].run();
        assert_eq!(
            a.expect_metrics(),
            b.expect_metrics(),
            "deterministic replay"
        );
        assert!(a.expect_metrics().prebuffer_done_at.is_some());
        assert!(a.expect_metrics().chunk_count(0) > 0 && a.expect_metrics().chunk_count(1) > 0);
    }

    #[test]
    fn abr_ladder_workload_produces_decision_traces() {
        // End-to-end: an abr/ladder cell streams through its refills and
        // leaves a non-empty, deterministic shadow-ABR decision trace.
        let w = Arc::new(WorkloadSpec::abr_ladder(1));
        let cells = crate::sweep::expand_workload(&w);
        assert_eq!(cells.len(), 1);
        let a = cells[0].run();
        let b = cells[0].run();
        assert_eq!(
            a.expect_metrics(),
            b.expect_metrics(),
            "deterministic replay"
        );
        assert!(
            !a.expect_metrics().abr.as_ref().unwrap().switches.is_empty(),
            "decision trace recorded"
        );
        assert!(
            a.expect_metrics().refills.len() >= 2,
            "streams through its refill cycles"
        );
        // Tick-heavy by construction: decisions every 250 ms dominate the
        // event count relative to a prebuffer-only session.
        assert!(
            a.expect_metrics().events > 200,
            "periodic decisions make the session tick-heavy: {} events",
            a.expect_metrics().events
        );
    }

    #[test]
    fn closed_loop_grid_switches_itags_mid_session() {
        let w = Arc::new(WorkloadSpec::abr_closed_loop_grid(1));
        let cells = crate::sweep::expand_workload(&w);
        assert_eq!(cells.len(), 4, "2 schedulers × 2 chunks × 1 seed");
        let mut switched_sessions = 0;
        for cell in &cells {
            let r = cell.run();
            let qoe = r
                .expect_metrics()
                .abr
                .as_ref()
                .and_then(|a| a.qoe)
                .expect("closed-loop cells carry QoE");
            if qoe.switches > 0 {
                switched_sessions += 1;
                // Time-weighted bitrate stays between the ladder endpoints.
                assert!(
                    qoe.time_weighted_bitrate_bps >= 120_000.0
                        && qoe.time_weighted_bitrate_bps <= 4.3e6,
                    "{:?}: twa {}",
                    cell,
                    qoe.time_weighted_bitrate_bps
                );
            }
            assert_eq!(
                cell.run().expect_metrics(),
                r.expect_metrics(),
                "deterministic replay"
            );
        }
        assert!(
            switched_sessions > 0,
            "no cell of the closed-loop grid ever switched"
        );
    }

    #[test]
    fn mobility_handoff_pairs_adaptation_with_the_handoff() {
        let w = Arc::new(WorkloadSpec::abr_mobility_handoff(1));
        let cells = crate::sweep::expand_workload(&w);
        let r = cells[0].run();
        assert!(r
            .expect_metrics()
            .abr
            .as_ref()
            .is_some_and(|a| a.qoe.is_some()));
        // LTE carried the early stream; WiFi joined after the handoff.
        assert!(r.expect_metrics().chunk_count(1) > 0, "LTE streamed");
        assert!(
            r.expect_metrics().chunk_count(0) > 0,
            "WiFi joined after handoff"
        );
        assert!(
            !r.expect_metrics()
                .abr
                .as_ref()
                .unwrap()
                .decisions
                .is_empty(),
            "the policy kept deciding through the handoff"
        );
    }

    #[test]
    fn mixed_trace_crosses_three_connectivity_regimes() {
        let w = Arc::new(WorkloadSpec::mobility_mixed_trace(1));
        let cells = crate::sweep::expand_workload(&w);
        let r = cells[0].run();
        let m = r.expect_metrics();
        assert!(m.prebuffer_done_at.is_some(), "session survived the trace");
        assert!(m.chunk_count(0) > 0 && m.chunk_count(1) > 0);
        // WiFi delivered both before its outage (the WiFi-only phase) and
        // after it ended (the dual phase).
        let wifi_early = m
            .chunks
            .iter()
            .any(|c| c.path == 0 && c.completed_at < msim_core::time::SimTime::from_secs(8));
        let wifi_late = m
            .chunks
            .iter()
            .any(|c| c.path == 0 && c.completed_at >= msim_core::time::SimTime::from_secs(25));
        assert!(wifi_early, "WiFi-only phase carried traffic");
        assert!(wifi_late, "dual phase resumed WiFi");
        assert_eq!(
            cells[0].run().expect_metrics(),
            r.expect_metrics(),
            "deterministic replay"
        );
    }

    #[test]
    fn paper_workloads_keep_the_unsalted_seed_formula() {
        let reg = WorkloadRegistry::builtin(3);
        for w in &reg.specs()[..6] {
            assert_eq!(w.seed_salt, 0, "{}", w.name);
            for run in 0..3u64 {
                let expected = crate::BASE_SEED ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(w.seed(run), expected, "{}", w.name);
            }
        }
    }

    #[test]
    fn paper_workloads_map_players_to_schedulers_and_paths() {
        let reg = WorkloadRegistry::builtin(1);
        for env in ["testbed", "youtube"] {
            let ms = reg.by_name(&format!("{env}/MSPlayer")).unwrap();
            assert_eq!(ms.player, PlayerKind::MsPlayer);
            assert_eq!(
                ms.schedulers,
                [
                    SchedulerKind::Harmonic,
                    SchedulerKind::Ewma,
                    SchedulerKind::Ratio
                ]
            );
            assert_eq!(ms.paths.len(), 2);
            for (single, network) in [("WiFi", Network::Wifi), ("LTE", Network::Cellular)] {
                let w = reg.by_name(&format!("{env}/{single}")).unwrap();
                assert_eq!(w.player, PlayerKind::Commercial, "{}", w.name);
                assert_eq!(w.schedulers, [SchedulerKind::Fixed], "{}", w.name);
                assert_eq!(w.paths.len(), 1, "{}", w.name);
                assert_eq!(w.paths[0].network, network, "{}", w.name);
                assert_eq!(w.chunk_kb, [256]);
                assert_eq!(w.prebuffer_secs, 40.0);
            }
        }
        let yt = reg.by_name("youtube/MSPlayer").unwrap();
        assert!(yt.service.copyrighted && yt.service.service.pacing.is_some());
    }

    #[test]
    fn storm_specs_validate() {
        for w in [
            WorkloadSpec::three_path_testbed(1),
            WorkloadSpec::mobility_storm(1),
            WorkloadSpec::server_failure_storm(1),
        ] {
            let spec = w.session_spec(w.schedulers[0], w.chunk_kb[0], w.seed(0));
            assert!(spec.validate().is_ok(), "{} invalid", w.name);
        }
    }
}
