//! Population-scale coupled fleet simulation: many sessions, one shared
//! replica fleet, Sunstar-style server selection.
//!
//! The single-session simulator ([`crate::sim::SessionHost`]) answers
//! "what does *one* MSPlayer session see?". This module answers the
//! operator-side questions of the paper's §7 discussion — what happens
//! when a *population* of sessions shares a capacitated server fleet, and
//! how should a selection policy trade delivery cost against QoE (the
//! Sunstar/video-CDN framing of [PAPERS.md]): per-server utilization
//! timelines, rebuffer-vs-load curves, and a cost-vs-QoE frontier.
//!
//! Two interoperable session backends drive the same [`FleetSpec`]:
//!
//! * **Exact** ([`FleetMode::Exact`]) runs every session through the real
//!   per-chunk [`SessionHost`](crate::sim::SessionHost), threading the
//!   fleet's shared state in as a [`FleetLoad`] (injected per-server
//!   session counts, a pacing override charging the session its fair
//!   capacity share, and a scaled admission threshold). With an empty
//!   load this is bit-identical to
//!   [`SessionHost::run`](crate::sim::SessionHost::run) (`tests/fleet.rs`
//!   pins the N=1 anchor).
//! * **Fluid** ([`FleetMode::Fluid`]) advances each session at flow level
//!   — per-server per-access-class virtual byte clocks integrate the fair
//!   share `min(a_k, C_s/n_s)` exactly between membership events, and the
//!   TCP model's closed-form slow-start ramp
//!   ([`msim_net::tcp::fluid::startup_ramp`]) charges each arrival its
//!   connection-ramp deficit. A session costs O(refill cycles) events
//!   instead of O(chunks × rounds), so 100k+ concurrent coupled sessions
//!   fit in one process (the benchmark's `fleet_fluid` workload runs
//!   120 000).
//!
//! Both backends are deterministic: same seed ⇒ bit-identical
//! [`FleetMetrics`], independent of [`FleetSpec::workers`]. Worker threads
//! precompute the per-session attribute streams (keyed by session index)
//! and, in fluid mode, run the replicas apart once nothing couples them.
//!
//! **Replicas.** A fluid session is placed on one replica at arrival and
//! touches no other. So a replica owns its server, the tables of its
//! sessions, one queue of their wakes and departures, and its tallies; a
//! thin coordinator owns a cursor over the arrival-ordered attribute table
//! (arrivals are not queued), the capacity edges, selection and admission,
//! and the final pass. Before an arrival or edge at `t` every replica runs
//! its queue up to, not through, `t`: at one instant arrivals run first,
//! then the edge, then replica events, as in one queue where arrivals and
//! edges were pushed first. After the last of them the replicas run to the
//! end on up to `workers` threads, one replica at a time per thread. Fleet
//! counts are sums and maxima of replica tallies, and the final pass reads
//! sessions in index order through their (replica, slot) placement.
//!
//! **Layout.** A 120 000-session fluid run is memory-bound: an event pops
//! one queue node and wakes one session out of a table far larger than
//! the cache, so what an event costs is the number of cache lines it
//! misses on, not its arithmetic; a replica running alone keeps its share
//! (≈ 2.4 MB at 15 000 sessions) in cache. A replica's per-session state
//! is two parallel tables. The *hot* record is everything a wake reads to
//! decide what happens next — download progress and its virtual-clock
//! base, the burst target, the playback anchor, the stall position, the
//! wake generation, and the class and phase as `u8`s — in exactly 64 bytes
//! at 64-byte alignment: one line per session per event. The *cold* record
//! is what a session only reports — arrival time, start-up time, stall
//! clock and total, its load bin — touched at arrival, at the start-up
//! crossing, when a stall starts or ends, and by the final pass. Three
//! tables per replica are in *arrival order*, not index order: these two
//! and its queue's slab. Sessions that arrive together prebuffer, pause and
//! refill together, so the lines (and pages) a stretch of simulated time
//! touches sit together. A replica's k-th session pushes its first wake
//! into slab slot k; slots are reused LIFO ([`msim_core::event`]) and a
//! handler pushes at most one event after its pop, so a session's events
//! keep its table slot (debug builds assert it) up to the replica's first
//! departure, whose slot the next arrival takes, or capacity edge, whose
//! re-arms take fresh slots while the wakes they supersede, counted in
//! `events`, still pop. The session index survives where results depend on
//! its order (same-instant arrivals, the re-arm order at a capacity edge,
//! the `f64` sums of the final pass). Servers keep what every event on them
//! would otherwise re-derive: the fair share `cap / n` (divided again only
//! where `cap` or `n` change) and the utilisation bucket of their clock.

use crate::chaos::{ChaosInjector, ChaosPlan};
use crate::config::PlayerConfig;
use crate::metrics::{qoe_score, SessionMetrics};
use crate::sim::{ServiceSpec, SessionSpec};
use msim_core::event::EventQueue;
use msim_core::rng::Prng;
use msim_core::telemetry::LazyCounter;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::{BitRate, ByteSize};
use msim_net::tcp::{fluid, TcpConfig};
use msim_youtube::by_itag;
use msim_youtube::dns::Network;
use msim_youtube::server::PacePolicy;
use msim_youtube::service::YoutubeService;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

static FLEET_ARRIVALS: LazyCounter = LazyCounter::new("msp_fleet_arrivals_total");
static FLEET_REJECTED: LazyCounter = LazyCounter::new("msp_fleet_rejected_total");
static FLEET_DEPARTURES: LazyCounter = LazyCounter::new("msp_fleet_departures_total");

/// Salt for the per-session attribute streams (arrival time, access
/// class, session seed); keyed by session *index* so any worker sharding
/// reproduces the same population.
const FLEET_SEED_SALT: u64 = 0xf1ee_7000_0000_0001;

/// Weyl increment separating per-index attribute streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Upper bound on fluid-mode wake spacing: a session re-checks its
/// predictions at least this often, bounding the staleness a rate change
/// on a shared server can introduce (crossings predicted under the old
/// rate are re-evaluated, at the latest, one horizon later).
const HORIZON: SimDuration = SimDuration::from_secs(30);

/// Minimum wake spacing (0.1 ms): keeps float-ε undershoots from
/// re-arming zero-delay wakes at one instant, at a timing resolution far
/// below anything the fluid approximation resolves.
const MIN_WAKE_SECS: f64 = 1e-4;

/// Hard ceiling on fleet-simulation time (guards against pathological
/// configurations; sessions still in flight when it trips are counted
/// neither completed nor rejected).
const MAX_FLEET_TIME: SimDuration = SimDuration::from_secs(24 * 3600);

/// Unpaced burst granted to exact-mode sessions by the fair-share pacing
/// override (roughly one pre-buffer chunk; the steady rate, not the
/// burst, carries the coupling).
const EXACT_PACE_BURST: ByteSize = ByteSize::kb(256);

/// QoE assigned to a session the fleet turned away at admission.
const REJECTED_QOE: f64 = -10.0;

/// Number of demand-ratio bins in [`FleetMetrics::rebuffer_vs_load`]
/// (bin width 0.1, covering offered-load ratios 0.0–2.0).
const LOAD_BINS: usize = 20;

/// Width of one rebuffer-vs-load bin in offered-load-ratio units.
const LOAD_BIN_WIDTH: f64 = 0.1;

/// Defensive clamp on utilization-bucket indices (~10⁶ buckets).
const MAX_BUCKETS: usize = 1 << 20;

/// Most replicas a fluid fleet can have: a session names its replica in
/// a `u16`.
const MAX_FLUID_SERVERS: usize = u16::MAX as usize + 1;

/// Most access classes a fluid fleet can have: a session names its class
/// in a `u8`.
const MAX_FLUID_CLASSES: usize = u8::MAX as usize + 1;

/// Most sessions plus capacity edges a fluid fleet can queue at once: the
/// event slab's slots are `u32`s below its end marker `u32::MAX`.
const MAX_FLUID_QUEUED: u64 = u32::MAX as u64;

/// Server-selection policy: how an arriving session is mapped to a
/// replica, in the Sunstar cost-vs-QoE framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Cheapest replica (per-GB cost, then standing cost) whose
    /// post-admission fair share still sustains the session's access
    /// rate; falls back to load-balancing when no replica is feasible.
    CheapestFeasible,
    /// Least-loaded replica (fewest attached sessions, lowest index
    /// tie-break) — mirrors the load-aware server ordering the emulated
    /// YouTube service itself applies, and is therefore the only policy
    /// the exact backend accepts.
    LoadBalanced,
    /// Replica offering the largest post-admission fair share,
    /// cost-blind.
    QoeFirst,
}

impl SelectionPolicy {
    /// Every policy, in frontier-sweep order.
    pub const ALL: [SelectionPolicy; 3] = [
        SelectionPolicy::CheapestFeasible,
        SelectionPolicy::LoadBalanced,
        SelectionPolicy::QoeFirst,
    ];

    /// Stable CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            SelectionPolicy::CheapestFeasible => "cheapest-feasible",
            SelectionPolicy::LoadBalanced => "load-balanced",
            SelectionPolicy::QoeFirst => "qoe-first",
        }
    }

    /// Inverse of [`SelectionPolicy::name`].
    pub fn parse(s: &str) -> Option<SelectionPolicy> {
        SelectionPolicy::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Which session backend advances the population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetMode {
    /// Every session is a full per-chunk [`SessionHost`](crate::sim::SessionHost)
    /// run under fleet-injected shared load.
    Exact,
    /// Flow-level sessions advanced by closed-form fair-share integration.
    Fluid,
}

impl FleetMode {
    /// Stable CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            FleetMode::Exact => "exact",
            FleetMode::Fluid => "fluid",
        }
    }

    /// Inverse of [`FleetMode::name`].
    pub fn parse(s: &str) -> Option<FleetMode> {
        match s {
            "exact" => Some(FleetMode::Exact),
            "fluid" => Some(FleetMode::Fluid),
            _ => None,
        }
    }
}

/// One replica of the capacitated fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetServerSpec {
    /// Aggregate service rate shared fairly across attached sessions.
    /// `None` = uncapacitated (exact mode only; fluid mode requires a
    /// rate on every replica).
    pub service_rate: Option<BitRate>,
    /// Admission ceiling: the most sessions the replica holds at once,
    /// counted from admission until the download completes (a session
    /// paused between refills keeps its slot); arrivals beyond it are
    /// turned away. `None` = unlimited.
    pub session_capacity: Option<u32>,
    /// Standing cost of keeping the replica up, per hour of fleet time.
    pub base_cost_per_hour: f64,
    /// Egress cost per decimal gigabyte served.
    pub cost_per_gb: f64,
}

impl FleetServerSpec {
    /// A capacitated, free replica (costs default to zero).
    pub fn new(service_rate: BitRate) -> FleetServerSpec {
        FleetServerSpec {
            service_rate: Some(service_rate),
            session_capacity: None,
            base_cost_per_hour: 0.0,
            cost_per_gb: 0.0,
        }
    }

    /// An uncapacitated, free replica (exact mode's default).
    pub fn uncapped() -> FleetServerSpec {
        FleetServerSpec {
            service_rate: None,
            session_capacity: None,
            base_cost_per_hour: 0.0,
            cost_per_gb: 0.0,
        }
    }

    /// Builder-style admission ceiling.
    pub fn with_capacity(mut self, sessions: u32) -> Self {
        self.session_capacity = Some(sessions);
        self
    }

    /// Builder-style cost model.
    pub fn with_cost(mut self, base_per_hour: f64, per_gb: f64) -> Self {
        self.base_cost_per_hour = base_per_hour;
        self.cost_per_gb = per_gb;
        self
    }
}

/// One access-link class of the arriving population (fluid mode): the
/// session's last-mile ceiling `a_k` and its sampling weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessClass {
    /// Label carried into reports.
    pub name: &'static str,
    /// Last-mile rate ceiling for sessions of this class.
    pub rate: BitRate,
    /// Relative sampling weight (classes are drawn ∝ weight).
    pub weight: u32,
}

/// A complete fleet experiment: the replica fleet, the arriving session
/// population, and the selection policy coupling them.
#[derive(Clone)]
pub struct FleetSpec {
    /// Master seed; the arrival process, class mix, per-session seeds and
    /// chaos schedule all derive from it.
    pub seed: u64,
    /// Session backend.
    pub mode: FleetMode,
    /// Server-selection policy (exact mode requires
    /// [`SelectionPolicy::LoadBalanced`]).
    pub policy: SelectionPolicy,
    /// The replica fleet. In fluid mode, one entry per server. In exact
    /// mode, entry `r` describes replica `r` of *every* access network
    /// (at most `servers_per_network` entries; missing entries are
    /// [`FleetServerSpec::uncapped`]).
    pub servers: Vec<FleetServerSpec>,
    /// Number of sessions arriving.
    pub sessions: u64,
    /// Arrivals are uniform over `[0, arrival_window)`.
    pub arrival_window: SimDuration,
    /// Video length per session, seconds.
    pub video_secs: f64,
    /// Video format (fixed-rate population).
    pub itag: u32,
    /// Player configuration: the fluid backend reads the buffer
    /// thresholds (pre-buffer, low watermark, refill, stall-resume); the
    /// exact backend runs the whole config.
    pub player: PlayerConfig,
    /// Access-class mix of the population (fluid mode).
    pub access: Vec<AccessClass>,
    /// Per-session RTT used for the fluid connection-ramp charge.
    pub rtt: SimDuration,
    /// Optional chaos plan; the fleet layer honours
    /// `fleet-overload` windows (capacity division) fleet-wide.
    pub chaos: Option<ChaosPlan>,
    /// Worker threads (0 or 1 = one): they shard the per-session attribute
    /// precomputation and, in fluid mode, run the replicas apart after the
    /// last arrival and capacity edge. Never changes results — determinism
    /// is by construction.
    pub workers: usize,
    /// Width of one per-server utilization-timeline bucket.
    pub util_bucket: SimDuration,
    /// Exact mode's base session: the service topology plus paths, player
    /// and stop condition. Each session runs this spec under its own seed
    /// and the fleet-injected load.
    pub exact_base: Option<(ServiceSpec, SessionSpec)>,
}

impl FleetSpec {
    /// A fluid-mode fleet: four 2.5 Gbps replicas, load-balanced
    /// selection, a WiFi/LTE/DSL population mix, 300 s of 720p video,
    /// arrivals over two minutes.
    pub fn fluid(seed: u64, sessions: u64) -> FleetSpec {
        FleetSpec {
            seed,
            mode: FleetMode::Fluid,
            policy: SelectionPolicy::LoadBalanced,
            servers: vec![FleetServerSpec::new(BitRate::mbps(2500.0)); 4],
            sessions,
            arrival_window: SimDuration::from_secs(120),
            video_secs: 300.0,
            itag: 22,
            player: PlayerConfig::msplayer(),
            access: vec![
                AccessClass {
                    name: "wifi",
                    rate: BitRate::mbps(12.0),
                    weight: 3,
                },
                AccessClass {
                    name: "lte",
                    rate: BitRate::mbps(6.0),
                    weight: 2,
                },
                AccessClass {
                    name: "dsl",
                    rate: BitRate::mbps(3.0),
                    weight: 1,
                },
            ],
            rtt: SimDuration::from_millis(40),
            chaos: None,
            workers: 0,
            util_bucket: SimDuration::from_secs(10),
            exact_base: None,
        }
    }

    /// An exact-mode fleet over `base`: every session is a full
    /// [`SessionHost`](crate::sim::SessionHost) run of `base` on `service`
    /// (fresh seed per session) under the fleet's shared load.
    pub fn exact(service: ServiceSpec, base: SessionSpec, sessions: u64) -> FleetSpec {
        FleetSpec {
            seed: base.seed,
            mode: FleetMode::Exact,
            policy: SelectionPolicy::LoadBalanced,
            servers: Vec::new(),
            sessions,
            arrival_window: SimDuration::from_secs(60),
            video_secs: service.video_secs,
            itag: service.itag,
            player: base.player.clone(),
            access: Vec::new(),
            rtt: SimDuration::from_millis(40),
            chaos: None,
            workers: 0,
            util_bucket: SimDuration::from_secs(10),
            exact_base: Some((service, base)),
        }
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style chaos-plan attachment.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The session seed fleet member `index` runs with — the handle for
    /// reproducing any one member of the population as a standalone
    /// session (exact mode hands this seed to
    /// [`SessionHost::run`](crate::sim::SessionHost::run) verbatim).
    pub fn session_seed(&self, index: u64) -> u64 {
        attrs_for(self, index).seed
    }
}

/// Shared-fleet state injected into one exact-mode session run: what the
/// rest of the population looks like, from this session's point of view,
/// for the duration of its run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetLoad {
    /// One entry per (network, replica) the session's service exposes.
    pub entries: Vec<FleetLoadEntry>,
}

/// Injected state of one replica.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetLoadEntry {
    /// Access network the replica serves.
    pub network: Network,
    /// Replica index within the network (id order).
    pub replica: u32,
    /// Concurrent sessions the fleet has attached to the replica.
    pub active: u32,
    /// Fair-share pacing override charging this session its slice of the
    /// replica's service rate (`None` = keep configured pacing).
    pub pace: Option<PacePolicy>,
    /// Admission-threshold override (`None` = keep configured).
    pub session_capacity: Option<u32>,
}

impl FleetLoad {
    /// The empty load: applying it is a no-op and
    /// [`SessionHost::run_with_load`](crate::sim::SessionHost::run_with_load)
    /// under it is bit-identical to a plain run.
    pub fn none() -> FleetLoad {
        FleetLoad::default()
    }

    /// True when every entry is inert (no load, no overrides).
    pub fn is_empty(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.active == 0 && e.pace.is_none() && e.session_capacity.is_none())
    }

    /// Installs the load on a warmed service (replicas addressed by
    /// `(network, id-order index)`; entries naming absent replicas are
    /// ignored).
    pub fn apply(&self, service: &mut YoutubeService) {
        for e in &self.entries {
            if let Some(server) = service.replica_mut(e.network, e.replica) {
                server.set_load(e.active);
                server.set_pace_override(e.pace);
                if let Some(cap) = e.session_capacity {
                    server.set_session_capacity(cap);
                }
            }
        }
    }
}

/// Usage and cost of one replica over the fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerUsage {
    /// Flat server index (fluid: spec order; exact:
    /// `network_index * servers_per_network + replica`).
    pub server: usize,
    /// Configured service rate, bits/s (0 when uncapacitated).
    pub capacity_bps: f64,
    /// Total bytes served.
    pub served_bytes: u64,
    /// Peak concurrently attached sessions.
    pub peak_sessions: u64,
    /// Standing + egress cost over the run.
    pub cost: f64,
    /// Width of one utilization bucket, seconds.
    pub bucket_secs: f64,
    /// Utilization timeline: served / deliverable bytes per bucket
    /// (0 when the capacity is unknown).
    pub utilization: Vec<f64>,
}

/// One offered-load bin of the rebuffer-vs-load curve. Sessions are
/// binned by the fleet's demand ratio at their arrival instant
/// (`(attached + 1) · video_rate / total_capacity`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadBin {
    /// Bin's demand-ratio range.
    pub demand_lo: f64,
    /// Exclusive upper edge (the last bin absorbs everything above).
    pub demand_hi: f64,
    /// Sessions that arrived in this bin (admitted + rejected).
    pub sessions: u64,
    /// Admitted sessions that stalled at least once.
    pub stalled: u64,
    /// Sessions turned away at admission.
    pub rejected: u64,
}

impl LoadBin {
    /// Fraction of admitted sessions that stalled (0 when empty).
    pub fn stall_fraction(&self) -> f64 {
        let admitted = self.sessions.saturating_sub(self.rejected);
        if admitted == 0 {
            0.0
        } else {
            self.stalled as f64 / admitted as f64
        }
    }
}

/// Fleet-level outputs: population summary, per-server usage timelines,
/// the rebuffer-vs-load curve, and the (cost, QoE) point this run
/// contributes to a policy frontier.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetMetrics {
    /// Backend that produced the run.
    pub mode: FleetMode,
    /// Selection policy in force.
    pub policy: SelectionPolicy,
    /// Sessions offered.
    pub sessions: u64,
    /// Sessions that played to the end of their video.
    pub completed: u64,
    /// Sessions turned away at admission.
    pub rejected: u64,
    /// Admitted sessions that stalled at least once.
    pub stalled_sessions: u64,
    /// Peak concurrent in-flight sessions.
    pub peak_concurrent: u64,
    /// Simulator events processed (fleet loop; exact mode adds each
    /// session's own event count).
    pub events: u64,
    /// When the last session ended.
    pub ended_at: SimTime,
    /// Mean startup (pre-buffer) time over sessions that started.
    pub startup_mean_secs: f64,
    /// Median startup time.
    pub startup_p50_secs: f64,
    /// 95th-percentile startup time.
    pub startup_p95_secs: f64,
    /// Total viewer-visible stall time across the population.
    pub total_stall_secs: f64,
    /// Total bytes served by the fleet.
    pub total_served_bytes: u64,
    /// Per-replica usage, cost, and utilization timeline.
    pub servers: Vec<ServerUsage>,
    /// Rebuffer-vs-load curve.
    pub rebuffer_vs_load: Vec<LoadBin>,
    /// Total fleet cost (standing + egress).
    pub total_cost: f64,
    /// Mean per-session QoE ([`qoe_score`]; rejected sessions score
    /// `REJECTED_QOE`).
    pub mean_qoe: f64,
    /// Exact mode: every session's full [`SessionMetrics`], in arrival
    /// order (empty in fluid mode).
    pub exact_sessions: Vec<SessionMetrics>,
}

impl FleetMetrics {
    /// This run's point in cost-vs-QoE space.
    pub fn cost_qoe(&self) -> (f64, f64) {
        (self.total_cost, self.mean_qoe)
    }
}

/// Indices of the Pareto-efficient points of a (cost, QoE) cloud —
/// minimal cost, maximal QoE — sorted by ascending cost. Ties on cost
/// keep only the best-QoE point.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[b].1.total_cmp(&points[a].1))
    });
    let mut frontier = Vec::new();
    let mut best_qoe = f64::NEG_INFINITY;
    for i in order {
        if points[i].1 > best_qoe {
            best_qoe = points[i].1;
            frontier.push(i);
        }
    }
    frontier
}

/// Per-session attributes drawn from the index-keyed attribute stream:
/// identical for any worker count because each index owns its own
/// generator.
#[derive(Clone, Copy, Debug)]
struct SessionAttrs {
    arrival: SimTime,
    class: usize,
    seed: u64,
}

fn attrs_for(spec: &FleetSpec, index: u64) -> SessionAttrs {
    let mut rng = Prng::new(spec.seed ^ FLEET_SEED_SALT ^ index.wrapping_mul(GOLDEN));
    let window_us = spec.arrival_window.as_micros();
    let arrival = if window_us == 0 {
        0
    } else {
        rng.below(window_us)
    };
    let total_weight: u64 = spec.access.iter().map(|c| u64::from(c.weight)).sum();
    let class = if total_weight == 0 {
        0
    } else {
        let mut draw = rng.below(total_weight);
        let mut picked = 0;
        for (k, c) in spec.access.iter().enumerate() {
            let w = u64::from(c.weight);
            if draw < w {
                picked = k;
                break;
            }
            draw -= w;
        }
        picked
    };
    SessionAttrs {
        arrival: SimTime::from_micros(arrival),
        class,
        seed: rng.next_u64(),
    }
}

/// Precomputes the population's rows `row(index, attributes)`, optionally
/// sharded across worker threads. Sharding never changes the result —
/// every index's stream is self-contained — so serial and parallel runs
/// are bit-identical (pinned by `tests/fleet.rs`).
fn precompute_attrs<T: Send>(
    spec: &FleetSpec,
    row: impl Fn(u64, SessionAttrs) -> T + Sync,
) -> Vec<T> {
    let n = spec.sessions as usize;
    let workers = spec.workers.max(1).min(n.max(1));
    let row = |i| row(i, attrs_for(spec, i));
    if workers <= 1 {
        return (0..spec.sessions).map(row).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<T> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(n) as u64;
                let hi = ((w + 1) * chunk).min(n) as u64;
                let row = &row;
                scope.spawn(move || (lo..hi).map(row).collect::<Vec<_>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("attribute worker panicked"));
        }
    });
    out
}

/// A validated, runnable fleet experiment.
pub struct FleetHost {
    spec: FleetSpec,
}

impl FleetHost {
    /// Validates `spec` and builds the host. Fluid mode requires a
    /// non-empty capacitated fleet of at most 65 536 replicas, a known
    /// itag, an access mix of 1 to 256 classes, and at most 2³² − 1
    /// sessions and capacity edges; exact mode requires a base scenario,
    /// load-balanced selection
    /// (the emulated service's own load-aware ordering does the
    /// choosing), and at most `servers_per_network` replica specs.
    pub fn new(spec: FleetSpec) -> Result<FleetHost, String> {
        if spec.sessions == 0 {
            return Err("fleet needs at least one session".into());
        }
        if spec.video_secs <= 0.0 {
            return Err("video_secs must be positive".into());
        }
        if spec.util_bucket.is_zero() {
            return Err("util_bucket must be positive".into());
        }
        if let Some(plan) = &spec.chaos {
            let n_paths = spec
                .exact_base
                .as_ref()
                .map_or(1, |(_, base)| base.paths.len());
            plan.validate(n_paths).map_err(|e| format!("chaos: {e}"))?;
        }
        match spec.mode {
            FleetMode::Fluid => {
                if by_itag(spec.itag).is_none() {
                    return Err(format!("unknown itag {}", spec.itag));
                }
                if spec.servers.is_empty() {
                    return Err("fluid mode needs at least one server".into());
                }
                for (i, s) in spec.servers.iter().enumerate() {
                    match s.service_rate {
                        Some(r) if r.as_bps() > 0.0 => {}
                        _ => {
                            return Err(format!(
                                "fluid mode needs a positive service_rate on every \
                                 server (server {i} has none)"
                            ))
                        }
                    }
                }
                if spec.servers.len() > MAX_FLUID_SERVERS {
                    return Err(format!(
                        "fluid mode takes at most {MAX_FLUID_SERVERS} servers, got {}",
                        spec.servers.len()
                    ));
                }
                if spec.access.is_empty() {
                    return Err("fluid mode needs at least one access class".into());
                }
                if spec.access.len() > MAX_FLUID_CLASSES {
                    return Err(format!(
                        "fluid mode takes at most {MAX_FLUID_CLASSES} access classes, got {}",
                        spec.access.len()
                    ));
                }
                if spec.access.iter().all(|c| c.weight == 0) {
                    return Err("access-class weights must not all be zero".into());
                }
                if spec.access.iter().any(|c| c.rate.as_bps() <= 0.0) {
                    return Err("access-class rates must be positive".into());
                }
                let crunches = spec.chaos.iter().flat_map(|plan| &plan.injectors);
                let edges = crunches.filter(|i| matches!(i, ChaosInjector::FleetOverload { .. }));
                let queued = spec.sessions.saturating_add(2 * edges.count() as u64);
                if queued > MAX_FLUID_QUEUED {
                    return Err(format!(
                        "fluid mode queues at most {MAX_FLUID_QUEUED} sessions and capacity \
                         edges, got {queued}"
                    ));
                }
                spec.player.validate().map_err(|e| format!("player: {e}"))?;
            }
            FleetMode::Exact => {
                let (service, base) = spec
                    .exact_base
                    .as_ref()
                    .ok_or("exact mode needs an exact_base session")?;
                if spec.policy != SelectionPolicy::LoadBalanced {
                    return Err(format!(
                        "exact mode supports only the load-balanced policy (the \
                         emulated service's load-aware ordering selects the \
                         replica); got {}",
                        spec.policy.name()
                    ));
                }
                if spec.servers.len() > service.service.servers_per_network as usize {
                    return Err(format!(
                        "exact mode takes at most servers_per_network={} replica \
                         specs, got {}",
                        service.service.servers_per_network,
                        spec.servers.len()
                    ));
                }
                base.validate().map_err(|e| format!("exact_base: {e}"))?;
            }
        }
        Ok(FleetHost { spec })
    }

    /// The validated spec.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Runs the fleet to completion and returns its metrics.
    /// Deterministic: same spec ⇒ bit-identical result, for any
    /// [`FleetSpec::workers`] value. A fluid run simulates on up to that
    /// many threads once no event couples two replicas; an exact run on
    /// one.
    pub fn run(&mut self) -> FleetMetrics {
        match self.spec.mode {
            FleetMode::Fluid => run_fluid(&self.spec, arrival_table(&self.spec)),
            FleetMode::Exact => run_exact(&self.spec),
        }
    }
}

fn empty_bins() -> Vec<LoadBin> {
    (0..LOAD_BINS)
        .map(|b| LoadBin {
            demand_lo: b as f64 * LOAD_BIN_WIDTH,
            demand_hi: (b + 1) as f64 * LOAD_BIN_WIDTH,
            sessions: 0,
            stalled: 0,
            rejected: 0,
        })
        .collect()
}

fn bin_for(demand: f64) -> usize {
    ((demand / LOAD_BIN_WIDTH) as usize).min(LOAD_BINS - 1)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

// ---- fluid engine ----

/// Fluid-session lifecycle. Attached (downloading) phases: `Prebuffer`,
/// `PlayingOn`, `Stalled`. Detached: `PlayingOff` (draining buffer),
/// `Done`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Prebuffer,
    PlayingOff,
    PlayingOn,
    Stalled,
    Done,
}

/// One capacitated replica, advanced lazily. `v[k]` is the class-`k`
/// virtual byte clock: the bytes a class-`k` session attached for the
/// whole interval would have downloaded (∫ min(a_k, cap/n) dt). Between
/// membership events the integrand is constant, so advancing at events
/// only is *exact*, in O(classes) per event.
struct FluidServer {
    base_cap: f64,
    cap: f64,
    /// `cap / max(n, 1)`: the fair share, divided once where `cap` or `n`
    /// change ([`FluidServer::attach`], [`FluidServer::detach`],
    /// [`FluidServer::set_cap`]) and read by every event in between.
    share: f64,
    counts: Vec<u64>,
    n: u64,
    /// Sessions admitted and still downloading or paused between refills
    /// (`n` counts only the attached ones); what the admission ceiling
    /// bounds.
    admitted: u64,
    v: Vec<f64>,
    last: SimTime,
    /// Utilisation bucket holding `last` (clamped to `MAX_BUCKETS - 1`).
    bucket: usize,
    /// Exclusive end of `bucket`, µs (`u64::MAX` for the clamp bucket).
    bucket_end: u64,
    served: f64,
    peak: u64,
    bucket_served: Vec<f64>,
    bucket_possible: Vec<f64>,
}

impl FluidServer {
    fn new(base_cap: f64, factor: u32, n_classes: usize, bucket_us: u64) -> FluidServer {
        let mut srv = FluidServer {
            base_cap,
            cap: 0.0,
            share: 0.0,
            counts: vec![0; n_classes],
            n: 0,
            admitted: 0,
            v: vec![0.0; n_classes],
            last: SimTime::ZERO,
            bucket: 0,
            bucket_end: bucket_us,
            served: 0.0,
            peak: 0,
            bucket_served: Vec::new(),
            bucket_possible: Vec::new(),
        };
        srv.set_cap(factor);
        srv
    }

    fn reshare(&mut self) {
        self.share = self.cap / self.n.max(1) as f64;
    }

    /// Rescales the (already-advanced) replica to `base_cap / factor`.
    fn set_cap(&mut self, factor: u32) {
        self.cap = self.base_cap / f64::from(factor.max(1));
        self.reshare();
    }

    /// A class-`k` session joins the (already-advanced) replica.
    fn attach(&mut self, k: usize) {
        self.counts[k] += 1;
        self.n += 1;
        self.peak = self.peak.max(self.n);
        self.reshare();
    }

    /// A class-`k` session leaves the (already-advanced) replica.
    fn detach(&mut self, k: usize) {
        self.counts[k] -= 1;
        self.n -= 1;
        self.reshare();
    }

    fn advance(&mut self, now: SimTime, rates: &[f64], bucket_us: u64) {
        if now <= self.last {
            return;
        }
        let mut t = self.last.as_micros();
        let end = now.as_micros();
        while t < end {
            let b = self.bucket;
            let seg_end = end.min(self.bucket_end);
            let dt = (seg_end - t) as f64 / 1e6;
            if self.bucket_possible.len() <= b {
                self.bucket_possible.resize(b + 1, 0.0);
                self.bucket_served.resize(b + 1, 0.0);
            }
            self.bucket_possible[b] += self.cap * dt;
            if self.n > 0 {
                let mut seg = 0.0;
                for (k, &a) in rates.iter().enumerate() {
                    let r = a.min(self.share);
                    self.v[k] += r * dt;
                    seg += self.counts[k] as f64 * r * dt;
                }
                self.served += seg;
                self.bucket_served[b] += seg;
            }
            t = seg_end;
            if t == self.bucket_end {
                self.bucket += 1;
                self.bucket_end = if self.bucket == MAX_BUCKETS - 1 {
                    u64::MAX
                } else {
                    self.bucket_end.saturating_add(bucket_us)
                };
            }
        }
        self.last = now;
    }
}

/// The per-session state every wake reads and writes: one cache line.
/// See the module doc's *Layout* paragraph.
#[repr(C, align(64))]
struct FluidSession {
    /// Bytes downloaded as of `synced_at`; starts *negative* by the
    /// connection-ramp deficit (see [`Replica::arrive`]).
    downloaded: f64,
    v_base: f64,
    synced_at: SimTime,
    target: f64,
    play_anchor: SimTime,
    anchor_pos: f64,
    frozen_pos: f64,
    gen: u32,
    class: u8,
    phase: Phase,
}

/// What a session records rather than steers by: read at arrival, at the
/// start-up crossing, at a stall's start and resume, and by the final
/// pass. Slotted like `Replica::sessions`.
struct SessionLog {
    arrival: SimTime,
    stall_started: SimTime,
    stall_secs: f64,
    startup_secs: Option<f64>,
    stalled_once: bool,
    bin: u8,
}

/// A replica's own events. Arrivals and capacity edges are the
/// coordinator's and are not queued.
enum FleetEv {
    Wake { s: u32, gen: u32 },
    Depart,
}

/// What every replica reads and none writes.
struct Params {
    rates: Vec<f64>,
    bps: f64,
    total_bytes: f64,
    prebuffer_bytes: f64,
    lw_bytes: f64,
    refill_bytes: f64,
    resume_bytes: f64,
    bucket_us: u64,
    tcp: TcpConfig,
    rtt: SimDuration,
}

/// What a replica counts of its own events and sessions. The fleet's
/// counts are the [`Tally::merge`] of every replica's: sums and maxima,
/// which no replica order moves.
#[derive(Clone, Copy, Default)]
struct Tally {
    events: u64,
    completed: u64,
    stalled_by_bin: [u64; LOAD_BINS],
    end_max: SimTime,
    /// The instant of the last event.
    last: SimTime,
}

impl Tally {
    fn merge(mut self, other: Tally) -> Tally {
        self.events += other.events;
        self.completed += other.completed;
        for (mine, theirs) in self.stalled_by_bin.iter_mut().zip(other.stalled_by_bin) {
            *mine += theirs;
        }
        self.end_max = self.end_max.max(other.end_max);
        self.last = self.last.max(other.last);
        self
    }
}

/// One replica and everything that happens on it: its server, the tables
/// of the sessions placed on it (in arrival order, see *Layout*), the
/// queue of their wakes and departures, and its tallies. No event of one
/// replica reads or writes another.
struct Replica {
    server: FluidServer,
    sessions: Vec<FluidSession>,
    log: Vec<SessionLog>,
    queue: EventQueue<FleetEv>,
    /// A capacity edge or a departure has popped: the next push may take
    /// a slab slot other than its session's table slot.
    slots_moved: bool,
    tally: Tally,
}

fn dur_f64(secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(secs)
}

/// The instant a linearly-growing quantity crossed `target` between two
/// observations (clamped into the interval; `t1` when no growth).
fn interp(t0: SimTime, t1: SimTime, d0: f64, d1: f64, target: f64) -> SimTime {
    if d1 <= d0 {
        return t1;
    }
    let frac = ((target - d0) / (d1 - d0)).clamp(0.0, 1.0);
    t0 + dur_f64(t1.saturating_since(t0).as_secs_f64() * frac)
}

impl Replica {
    /// A replica with room for `reserve` sessions in its tables and slab.
    fn new(server: FluidServer, reserve: usize) -> Replica {
        Replica {
            server,
            sessions: Vec::with_capacity(reserve),
            log: Vec::with_capacity(reserve),
            queue: EventQueue::with_capacity(reserve),
            slots_moved: false,
            tally: Tally::default(),
        }
    }

    /// Runs every queued event earlier than `until`: the barrier before a
    /// coordinator event at `until`, which comes before this replica's
    /// events at that instant.
    fn run_before(&mut self, p: &Params, until: SimTime) {
        // `(until, 0)` sorts before every event queued at `until`.
        while let Some((t, ev)) = self.queue.pop_before(until, 0) {
            self.tally.events += 1;
            self.tally.last = t;
            match ev {
                FleetEv::Wake { s, gen } => self.wake(p, s as usize, gen, t),
                FleetEv::Depart => {
                    self.slots_moved = true;
                    self.tally.completed += 1;
                    self.tally.end_max = self.tally.end_max.max(t);
                    FLEET_DEPARTURES.add(1);
                }
            }
        }
    }

    fn play_pos(&self, p: &Params, i: usize, now: SimTime) -> f64 {
        let s = &self.sessions[i];
        s.anchor_pos + p.bps * now.saturating_since(s.play_anchor).as_secs_f64()
    }

    /// Re-arms the session's next wake from its freshly-synced state and
    /// bumps its generation (older queued wakes become stale).
    fn schedule_wake(&mut self, p: &Params, i: usize, now: SimTime) {
        let s = &self.sessions[i];
        let dt = match s.phase {
            Phase::Prebuffer | Phase::PlayingOn | Phase::Stalled => {
                let r = p.rates[usize::from(s.class)].min(self.server.share);
                let to_target = ((s.target - s.downloaded) / r).max(0.0);
                let dt = match s.phase {
                    Phase::Prebuffer => to_target,
                    Phase::PlayingOn => {
                        let buffer = s.downloaded - self.play_pos(p, i, now);
                        let to_stall = if r < p.bps {
                            (buffer / (p.bps - r)).max(0.0)
                        } else {
                            f64::INFINITY
                        };
                        to_target.min(to_stall)
                    }
                    _ => {
                        let resume_eff = p.resume_bytes.min(p.total_bytes - s.frozen_pos);
                        ((s.frozen_pos + resume_eff - s.downloaded) / r).max(0.0)
                    }
                };
                // Floor the spacing: a crossing left a float-ε short of
                // its target would otherwise re-arm a zero-delay wake at
                // the same instant forever.
                dt.min(HORIZON.as_secs_f64()).max(MIN_WAKE_SECS)
            }
            Phase::PlayingOff => {
                // Exact: the buffer drains at the playback rate, nothing
                // else moves it.
                let t_lw =
                    s.play_anchor + dur_f64(((s.downloaded - p.lw_bytes) - s.anchor_pos) / p.bps);
                return self.push_wake(i, t_lw.max(now));
            }
            Phase::Done => return,
        };
        self.push_wake(i, now + dur_f64(dt));
    }

    fn push_wake(&mut self, i: usize, at: SimTime) {
        let s = &mut self.sessions[i];
        s.gen = s.gen.wrapping_add(1);
        let gen = s.gen;
        self.push_for(i, at, FleetEv::Wake { s: i as u32, gen });
    }

    /// Queues session `i`'s next event, in slab slot `i` until the
    /// replica's first capacity edge or departure (see *Layout*).
    fn push_for(&mut self, i: usize, at: SimTime, ev: FleetEv) {
        let slot = self.queue.push(at, ev).slot() as usize;
        debug_assert!(self.slots_moved || slot == i, "session {i} in slot {slot}");
    }

    /// Attach to the replica, for every burst of the download.
    fn attach(&mut self, p: &Params, i: usize, now: SimTime) {
        self.server.advance(now, &p.rates, p.bucket_us);
        let s = &mut self.sessions[i];
        let k = usize::from(s.class);
        self.server.attach(k);
        s.v_base = self.server.v[k];
        s.synced_at = now;
    }

    /// Admits a session arriving `now` into the next slot of the tables,
    /// attached and pre-buffering, and returns that slot.
    fn arrive(&mut self, p: &Params, class: u8, now: SimTime, bin: usize) -> usize {
        let i = self.sessions.len();
        self.sessions.push(FluidSession {
            downloaded: 0.0,
            v_base: 0.0,
            synced_at: now,
            target: p.prebuffer_bytes,
            play_anchor: SimTime::ZERO,
            anchor_pos: 0.0,
            frozen_pos: 0.0,
            gen: 0,
            class,
            phase: Phase::Prebuffer,
        });
        self.log.push(SessionLog {
            arrival: now,
            stall_started: SimTime::ZERO,
            stall_secs: 0.0,
            startup_secs: None,
            stalled_once: false,
            bin: bin as u8,
        });
        self.attach(p, i, now);
        self.server.admitted += 1;
        // Charge the TCP connection ramp as a byte deficit: relative to a
        // flow that runs at its fair share from t=0, slow start leaves the
        // session `share·latency − ramp_bytes` behind by the time it
        // reaches rate (`startup_ramp`'s closed form).
        let share = p.rates[usize::from(class)].min(self.server.share);
        let ramp = fluid::startup_ramp(&p.tcp, p.rtt, BitRate::bps(share * 8.0));
        let deficit = (share * ramp.latency.as_secs_f64() - ramp.ramp_bytes.as_f64()).max(0.0);
        self.sessions[i].downloaded = -deficit;
        self.schedule_wake(p, i, now);
        i
    }

    /// The current download burst reached its target (playback already
    /// anchored): finish the video, pause until the low watermark, or —
    /// when a late wake finds the buffer already drained — extend the
    /// burst in place.
    fn finish_download_burst(&mut self, p: &Params, i: usize, now: SimTime) {
        if self.sessions[i].downloaded >= p.total_bytes {
            self.server.detach(usize::from(self.sessions[i].class));
            self.server.admitted -= 1;
            let s = &mut self.sessions[i];
            s.phase = Phase::Done;
            let t_end = s.play_anchor + dur_f64((p.total_bytes - s.anchor_pos) / p.bps);
            self.push_for(i, t_end.max(now), FleetEv::Depart);
            return;
        }
        let buffer = self.sessions[i].downloaded - self.play_pos(p, i, now);
        if buffer <= p.lw_bytes {
            let s = &mut self.sessions[i];
            s.target = (s.downloaded + p.refill_bytes).min(p.total_bytes);
            s.phase = Phase::PlayingOn;
        } else {
            self.server.detach(usize::from(self.sessions[i].class));
            self.sessions[i].phase = Phase::PlayingOff;
        }
        self.schedule_wake(p, i, now);
    }

    fn wake(&mut self, p: &Params, i: usize, gen: u32, now: SimTime) {
        let s = &self.sessions[i];
        if s.gen != gen || s.phase == Phase::Done {
            return;
        }
        let phase = s.phase;
        if phase == Phase::PlayingOff {
            // Exact low-watermark crossing: re-attach and refill.
            self.attach(p, i, now);
            let s = &mut self.sessions[i];
            s.target = (s.downloaded + p.refill_bytes).min(p.total_bytes);
            s.phase = Phase::PlayingOn;
            self.schedule_wake(p, i, now);
            return;
        }
        // Attached phases: advance the server and read the exact download
        // progress off the class virtual clock.
        self.server.advance(now, &p.rates, p.bucket_us);
        let s = &mut self.sessions[i];
        let (d_prev, t_prev) = (s.downloaded, s.synced_at);
        let v = self.server.v[usize::from(s.class)];
        let d_now = s.downloaded + (v - s.v_base);
        s.downloaded = d_now;
        s.v_base = v;
        s.synced_at = now;
        match phase {
            Phase::Prebuffer => {
                if d_now >= s.target {
                    let t_cross = interp(t_prev, now, d_prev, d_now, s.target);
                    s.play_anchor = t_cross;
                    s.anchor_pos = 0.0;
                    let log = &mut self.log[i];
                    log.startup_secs = Some(t_cross.saturating_since(log.arrival).as_secs_f64());
                    self.finish_download_burst(p, i, now);
                } else {
                    self.schedule_wake(p, i, now);
                }
            }
            Phase::PlayingOn => {
                let pos = self.play_pos(p, i, now);
                let s = &mut self.sessions[i];
                if d_now >= s.target {
                    self.finish_download_burst(p, i, now);
                } else if d_now <= pos {
                    // The playhead caught the download: retro-date the
                    // stall to when it actually happened.
                    let t_catch =
                        (s.play_anchor + dur_f64((d_now - s.anchor_pos).max(0.0) / p.bps)).min(now);
                    s.frozen_pos = d_now;
                    s.phase = Phase::Stalled;
                    s.target = s.target.max((d_now + p.refill_bytes).min(p.total_bytes));
                    let log = &mut self.log[i];
                    log.stall_started = t_catch;
                    if !log.stalled_once {
                        log.stalled_once = true;
                        self.tally.stalled_by_bin[usize::from(log.bin)] += 1;
                    }
                    self.schedule_wake(p, i, now);
                } else {
                    self.schedule_wake(p, i, now);
                }
            }
            Phase::Stalled => {
                let frozen = s.frozen_pos;
                let resume_eff = p.resume_bytes.min(p.total_bytes - frozen);
                if d_now - frozen >= resume_eff {
                    let t_res = interp(t_prev, now, d_prev, d_now, frozen + resume_eff);
                    s.play_anchor = t_res;
                    s.anchor_pos = frozen;
                    let log = &mut self.log[i];
                    log.stall_secs += t_res.saturating_since(log.stall_started).as_secs_f64();
                    if d_now >= s.target {
                        self.finish_download_burst(p, i, now);
                    } else {
                        s.phase = Phase::PlayingOn;
                        self.schedule_wake(p, i, now);
                    }
                } else {
                    self.schedule_wake(p, i, now);
                }
            }
            _ => unreachable!("attached wake in phase {phase:?}"),
        }
    }

    /// At a capacity edge (the server already advanced to it and rescaled):
    /// syncs an attached session under the old rate and re-predicts it.
    fn rearm(&mut self, p: &Params, i: usize, now: SimTime) {
        let s = &mut self.sessions[i];
        if matches!(
            s.phase,
            Phase::Prebuffer | Phase::PlayingOn | Phase::Stalled
        ) {
            let v = self.server.v[usize::from(s.class)];
            s.downloaded += v - s.v_base;
            s.v_base = v;
            s.synced_at = now;
            self.schedule_wake(p, i, now);
        }
    }
}

/// One row of the arrival-ordered attribute table the coordinator walks.
#[derive(Clone, Copy)]
struct Arrival {
    at: SimTime,
    index: u32,
    class: u8,
}

/// The `(replica, slot)` of a session not admitted (yet, or ever).
const UNPLACED: (u32, u32) = (u32::MAX, 0);

/// The fluid engine's coordinator: what is global to the fleet (see the
/// module doc's *Replicas* paragraph).
struct Fluid<'a> {
    spec: &'a FleetSpec,
    chaos: Option<crate::chaos::ChaosState>,
    p: Params,
    video_bps: f64,
    replicas: Vec<Replica>,
    /// [`total_cap_bits`] of `replicas`, refreshed when capacities change.
    total_cap_bits: f64,
    /// Session index → the `(replica, slot)` of its records, for the passes
    /// whose order the results depend on (the re-arms at a capacity edge,
    /// the `f64` sums of the final pass).
    placement: Vec<(u32, u32)>,
    bins: Vec<LoadBin>,
    rejected: u64,
    admitted: u64,
    peak_concurrent: u64,
    /// Arrivals and capacity edges run, and the instant of the last.
    events: u64,
    last: SimTime,
}

impl Fluid<'_> {
    /// One pass over the replicas, no allocation: this runs per arrival.
    fn select_server(&self, class: usize) -> Option<usize> {
        let a_k = self.p.rates[class];
        let srv = |si: usize| &self.replicas[si].server;
        // The ceiling bounds the sessions a replica has admitted and not
        // finished serving, paused ones included: a session draining its
        // buffer comes back to the replica it left.
        let candidates = || {
            (0..self.replicas.len()).filter(|&si| {
                self.spec.servers[si]
                    .session_capacity
                    .is_none_or(|c| srv(si).admitted < u64::from(c))
            })
        };
        // The *unclipped* post-admission share: clipping by the access
        // rate would tie every lightly-loaded server and herd arrivals
        // onto the lowest index.
        let share = |si: usize| srv(si).cap / (srv(si).n + 1) as f64;
        let least_loaded = || candidates().min_by_key(|&si| (srv(si).n, si));
        match self.spec.policy {
            SelectionPolicy::LoadBalanced => least_loaded(),
            SelectionPolicy::QoeFirst => {
                candidates().min_by(|&a, &b| share(b).total_cmp(&share(a)).then(a.cmp(&b)))
            }
            SelectionPolicy::CheapestFeasible => candidates()
                .filter(|&si| share(si) >= a_k)
                .min_by(|&a, &b| {
                    let ca = &self.spec.servers[a];
                    let cb = &self.spec.servers[b];
                    ca.cost_per_gb
                        .total_cmp(&cb.cost_per_gb)
                        .then(ca.base_cost_per_hour.total_cmp(&cb.base_cost_per_hour))
                        .then(a.cmp(&b))
                })
                // No replica can sustain the class rate: degrade
                // gracefully toward the least-loaded one.
                .or_else(least_loaded),
        }
    }

    fn arrive(&mut self, a: &Arrival) {
        FLEET_ARRIVALS.add(1);
        let attached: u64 = self.replicas.iter().map(|r| r.server.n).sum();
        let demand = (attached + 1) as f64 * self.video_bps / self.total_cap_bits;
        let bin = bin_for(demand);
        self.bins[bin].sessions += 1;
        let Some(chosen) = self.select_server(usize::from(a.class)) else {
            self.rejected += 1;
            self.bins[bin].rejected += 1;
            FLEET_REJECTED.add(1);
            return;
        };
        let slot = self.replicas[chosen].arrive(&self.p, a.class, a.at, bin);
        self.placement[a.index as usize] = (chosen as u32, slot as u32);
        self.admitted += 1;
        let departed: u64 = self.replicas.iter().map(|r| r.tally.completed).sum();
        let concurrent = self.admitted - departed;
        self.peak_concurrent = self.peak_concurrent.max(concurrent);
        if msim_core::telemetry::enabled() {
            msim_core::telemetry::gauge("msp_fleet_concurrent").set(concurrent as i64);
        }
    }

    /// A chaos capacity edge: rescale every replica and re-arm every
    /// attached session (their rate predictions just went stale), in
    /// session-index order.
    fn cap_edge(&mut self, now: SimTime) {
        let factor = self
            .chaos
            .as_ref()
            .map_or(1, |c| c.fleet_capacity_factor(now));
        for r in &mut self.replicas {
            r.server.advance(now, &self.p.rates, self.p.bucket_us);
            r.server.set_cap(factor);
            r.slots_moved = true;
        }
        self.total_cap_bits = total_cap_bits(&self.replicas);
        for &(replica, slot) in &self.placement {
            if let Some(r) = self.replicas.get_mut(replica as usize) {
                r.rearm(&self.p, slot as usize, now);
            }
        }
    }
}

/// Aggregate replica capacity in bits/s (summed in replica order: the
/// load-bin boundaries depend on the exact `f64`).
fn total_cap_bits(replicas: &[Replica]) -> f64 {
    replicas.iter().map(|r| r.server.cap * 8.0).sum()
}

/// Runs every replica's events earlier than `until`, each thread one
/// replica at a time, and returns the merge of all their tallies. Replica
/// `r` runs on thread `r % workers` (the first on the calling thread):
/// fleets list alike replicas together, so dealing them out evens the
/// threads' loads.
fn run_apart(replicas: &mut [Replica], p: &Params, until: SimTime, workers: usize) -> Tally {
    let threads = workers.clamp(1, replicas.len());
    let mut sets: Vec<Vec<&mut Replica>> = (0..threads).map(|_| Vec::new()).collect();
    for (r, replica) in replicas.iter_mut().enumerate() {
        sets[r % threads].push(replica);
    }
    let run = |set: Vec<&mut Replica>| {
        set.into_iter().fold(Tally::default(), |tally, r| {
            r.run_before(p, until);
            tally.merge(r.tally)
        })
    };
    let mut sets = sets.into_iter();
    let first = sets.next().expect("validated: at least one replica");
    std::thread::scope(|scope| {
        let others: Vec<_> = sets.map(|set| scope.spawn(move || run(set))).collect();
        let tally = run(first);
        others
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .fold(tally, Tally::merge)
    })
}

/// The population in arrival order, same-instant arrivals in index order.
fn arrival_table(spec: &FleetSpec) -> Vec<Arrival> {
    let mut table = precompute_attrs(spec, |index, a| Arrival {
        at: a.arrival,
        index: index as u32,
        class: u8::try_from(a.class).expect("validated: at most 256 access classes"),
    });
    table.sort_unstable_by_key(|a| (a.at, a.index));
    table
}

fn run_fluid(spec: &FleetSpec, arrivals: Vec<Arrival>) -> FleetMetrics {
    let fmt = by_itag(spec.itag).expect("validated at construction");
    let bps = fmt.bytes_per_sec();
    let total_bytes = bps * spec.video_secs;
    let n_classes = spec.access.len();
    let bucket_us = spec.util_bucket.as_micros().max(1);
    let chaos = spec.chaos.as_ref().map(|p| p.resolve(spec.seed, 1));
    let factor0 = chaos
        .as_ref()
        .map_or(1, |c| c.fleet_capacity_factor(SimTime::ZERO));
    let mut edges: Vec<SimTime> = chaos
        .as_ref()
        .map(|c| {
            c.fleet_capacity_windows()
                .flat_map(|(from, until, _)| [from, until])
                .collect()
        })
        .unwrap_or_default();
    edges.sort();
    edges.dedup();
    // Room for an even spread plus 1/32: a balanced fleet never grows a
    // table. Room for the whole population in every replica would leave
    // the heap, reused from run to run, to make the unused tails resident.
    let even = arrivals.len().div_ceil(spec.servers.len());
    let reserve = even + even / 32;
    let replicas: Vec<Replica> = spec
        .servers
        .iter()
        .map(|s| {
            let base = s.service_rate.expect("validated").bytes_per_sec();
            let server = FluidServer::new(base, factor0, n_classes, bucket_us);
            Replica::new(server, reserve)
        })
        .collect();
    let mut sim = Fluid {
        spec,
        chaos,
        p: Params {
            rates: spec.access.iter().map(|c| c.rate.bytes_per_sec()).collect(),
            bps,
            total_bytes,
            prebuffer_bytes: (spec.player.prebuffer_secs * bps).min(total_bytes),
            lw_bytes: spec.player.low_watermark_secs * bps,
            refill_bytes: spec.player.rebuffer_secs * bps,
            resume_bytes: spec.player.stall_resume_secs * bps,
            bucket_us,
            tcp: TcpConfig::default(),
            rtt: spec.rtt,
        },
        video_bps: fmt.bitrate.as_bps(),
        total_cap_bits: total_cap_bits(&replicas),
        replicas,
        placement: vec![UNPLACED; arrivals.len()],
        bins: empty_bins(),
        rejected: 0,
        admitted: 0,
        peak_concurrent: 0,
        events: 0,
        last: SimTime::ZERO,
    };
    let guard = SimTime::ZERO + MAX_FLEET_TIME;
    // Arrivals and capacity edges in time order, an arrival first at a tie
    // (both tables are freed when the loop ends).
    let mut arrivals = arrivals.into_iter().peekable();
    let mut edges = edges.into_iter().peekable();
    let global = std::iter::from_fn(move || {
        let arrival_first = match (arrivals.peek(), edges.peek()) {
            (Some(a), Some(&t)) => a.at <= t,
            (next, _) => next.is_some(),
        };
        if arrival_first {
            arrivals.next().map(|a| (a.at, Some(a)))
        } else {
            edges.next().map(|t| (t, None))
        }
    });
    for (t, arrival) in global.take_while(|&(t, _)| t <= guard) {
        for r in &mut sim.replicas {
            r.run_before(&sim.p, t);
        }
        sim.events += 1;
        sim.last = t;
        match arrival {
            Some(a) => sim.arrive(&a),
            None => sim.cap_edge(t),
        }
    }
    // No later event couples two replicas.
    let until = guard + SimDuration::from_micros(1);
    let tally = run_apart(&mut sim.replicas, &sim.p, until, spec.workers);
    let now_last = sim.last.max(tally.last);
    // The final pass reads servers and logs only: free the rest first.
    for r in &mut sim.replicas {
        r.server.advance(now_last, &sim.p.rates, sim.p.bucket_us);
        (r.sessions, r.queue) = (Vec::new(), EventQueue::new());
    }
    if msim_core::telemetry::enabled() {
        let concurrent = sim.admitted - tally.completed;
        msim_core::telemetry::gauge("msp_fleet_concurrent").set(concurrent as i64);
    }
    for (bin, stalled) in sim.bins.iter_mut().zip(tally.stalled_by_bin) {
        bin.stalled = stalled;
    }
    let hours = now_last.as_secs_f64() / 3600.0;
    let bitrate_mbps = fmt.bitrate.as_mbps();
    let logs = sim.replicas.iter().flat_map(|r| &r.log);
    let mut startups: Vec<f64> = logs.filter_map(|l| l.startup_secs).collect();
    startups.sort_by(f64::total_cmp);
    let mut qoe_sum = 0.0;
    let mut total_stall = 0.0;
    for &(replica, slot) in &sim.placement {
        let Some(r) = sim.replicas.get(replica as usize) else {
            qoe_sum += REJECTED_QOE;
            continue;
        };
        let log = &r.log[slot as usize];
        let startup = log
            .startup_secs
            .unwrap_or_else(|| now_last.saturating_since(log.arrival).as_secs_f64());
        qoe_sum += qoe_score(bitrate_mbps, startup, log.stall_secs);
        total_stall += log.stall_secs;
    }
    let server_usage: Vec<ServerUsage> = sim
        .replicas
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (cfg, srv) = (&spec.servers[i], &r.server);
            let served = srv.served.max(0.0);
            ServerUsage {
                server: i,
                capacity_bps: cfg.service_rate.expect("validated").as_bps(),
                served_bytes: served as u64,
                peak_sessions: srv.peak,
                cost: cfg.base_cost_per_hour * hours + cfg.cost_per_gb * served / 1e9,
                bucket_secs: spec.util_bucket.as_secs_f64(),
                utilization: srv
                    .bucket_served
                    .iter()
                    .zip(&srv.bucket_possible)
                    .map(|(s, p)| if *p > 0.0 { s / p } else { 0.0 })
                    .collect(),
            }
        })
        .collect();
    let total_cost = server_usage.iter().map(|s| s.cost).sum();
    let total_served_bytes = server_usage.iter().map(|s| s.served_bytes).sum();
    FleetMetrics {
        mode: FleetMode::Fluid,
        policy: spec.policy,
        sessions: spec.sessions,
        completed: tally.completed,
        rejected: sim.rejected,
        stalled_sessions: tally.stalled_by_bin.iter().sum(),
        peak_concurrent: sim.peak_concurrent,
        events: sim.events + tally.events,
        ended_at: tally.end_max,
        startup_mean_secs: if startups.is_empty() {
            0.0
        } else {
            startups.iter().sum::<f64>() / startups.len() as f64
        },
        startup_p50_secs: percentile(&startups, 0.5),
        startup_p95_secs: percentile(&startups, 0.95),
        total_stall_secs: total_stall,
        total_served_bytes,
        servers: server_usage,
        rebuffer_vs_load: sim.bins,
        total_cost,
        mean_qoe: qoe_sum / spec.sessions as f64,
        exact_sessions: Vec::new(),
    }
}

// ---- exact engine ----

/// Spreads `bytes` uniformly over `[t0, t1]` into per-bucket
/// accumulators (all into `t0`'s bucket when the span is empty).
fn spread_bytes(buckets: &mut Vec<f64>, bytes: f64, t0_us: u64, t1_us: u64, bucket_us: u64) {
    let grow = |buckets: &mut Vec<f64>, b: usize| {
        if buckets.len() <= b {
            buckets.resize(b + 1, 0.0);
        }
    };
    if t1_us <= t0_us {
        let b = ((t0_us / bucket_us) as usize).min(MAX_BUCKETS - 1);
        grow(buckets, b);
        buckets[b] += bytes;
        return;
    }
    let span = (t1_us - t0_us) as f64;
    let mut t = t0_us;
    while t < t1_us {
        let b = ((t / bucket_us) as usize).min(MAX_BUCKETS - 1);
        let seg_end = if b == MAX_BUCKETS - 1 {
            t1_us
        } else {
            t1_us.min((t / bucket_us + 1) * bucket_us)
        };
        grow(buckets, b);
        buckets[b] += bytes * (seg_end - t) as f64 / span;
        t = seg_end;
    }
}

fn run_exact(spec: &FleetSpec) -> FleetMetrics {
    let (service, base) = spec.exact_base.as_ref().expect("validated at construction");
    let bitrate = by_itag(service.itag)
        .map(|f| f.bitrate)
        .unwrap_or(BitRate::bps(0.0));
    let mut host = crate::sim::SessionHost::new(service.clone());
    let chaos = spec
        .chaos
        .as_ref()
        .map(|p| p.resolve(spec.seed, base.paths.len()));
    let mut networks: Vec<Network> = Vec::new();
    for p in &base.paths {
        if !networks.contains(&p.network) {
            networks.push(p.network);
        }
    }
    let net_of: Vec<usize> = base
        .paths
        .iter()
        .map(|p| networks.iter().position(|n| *n == p.network).unwrap())
        .collect();
    let n_rep = service.service.servers_per_network as usize;
    let n_servers = networks.len() * n_rep;
    let mut counts: Vec<Vec<u32>> = vec![vec![0; n_rep]; networks.len()];
    let mut peaks: Vec<Vec<u32>> = vec![vec![0; n_rep]; networks.len()];
    let attrs = precompute_attrs(spec, |_, a| a);
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_by_key(|&i| (attrs[i].arrival, i));
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut assignment: Vec<Vec<(usize, usize)>> = vec![Vec::new(); attrs.len()];
    let mut bins = empty_bins();
    let mut exact_sessions: Vec<SessionMetrics> = Vec::new();
    let mut served: Vec<f64> = vec![0.0; n_servers];
    let mut bucket_served: Vec<Vec<f64>> = vec![Vec::new(); n_servers];
    let bucket_us = spec.util_bucket.as_micros().max(1);
    let mut startups: Vec<f64> = Vec::new();
    let mut qoe_sum = 0.0;
    let mut total_stall = 0.0;
    let mut stalled_sessions = 0u64;
    let mut rejected = 0u64;
    let mut completed = 0u64;
    let mut peak_concurrent = 0u64;
    let mut events = 0u64;
    let mut end_max = SimTime::ZERO;
    let video_bps = by_itag(service.itag)
        .map(|f| f.bitrate.as_bps())
        .unwrap_or(0.0);
    for &i in &order {
        let arrival = attrs[i].arrival;
        let arr_us = arrival.as_micros();
        while let Some(&Reverse((end_us, j))) = heap.peek() {
            if end_us > arr_us {
                break;
            }
            heap.pop();
            for &(net, r) in &assignment[j as usize] {
                counts[net][r] = counts[net][r].saturating_sub(1);
            }
        }
        events += 1;
        let factor = chaos
            .as_ref()
            .map(|c| c.fleet_capacity_factor(arrival))
            .unwrap_or(1);
        let scaled_cap = |r: usize| -> Option<u32> {
            spec.servers
                .get(r)
                .and_then(|s| s.session_capacity)
                .map(|c| (c / factor).max(1))
        };
        // Offered-load bin at this arrival (0 when the fleet is
        // uncapacitated and the ratio is undefined).
        let attached: u32 = counts.iter().flatten().sum();
        let total_cap_bps: f64 = (0..n_rep)
            .filter_map(|r| spec.servers.get(r).and_then(|s| s.service_rate))
            .map(|rate| rate.as_bps() / f64::from(factor))
            .sum::<f64>()
            * networks.len() as f64;
        let demand = if total_cap_bps > 0.0 {
            f64::from(attached + 1) * video_bps / total_cap_bps
        } else {
            0.0
        };
        let bin = bin_for(demand);
        bins[bin].sessions += 1;
        let admissible = net_of
            .iter()
            .all(|&net| (0..n_rep).any(|r| scaled_cap(r).is_none_or(|c| counts[net][r] < c)));
        if !admissible {
            rejected += 1;
            bins[bin].rejected += 1;
            qoe_sum += REJECTED_QOE;
            continue;
        }
        peak_concurrent = peak_concurrent.max(heap.len() as u64 + 1);
        // Injected loads are the pre-arrival counts: the in-run client
        // applies the service's own (load, id) ordering to them, so the
        // replica it connects to is exactly the one predicted below.
        let loads_before = counts.clone();
        for &net in &net_of {
            let r_star = (0..n_rep)
                .filter(|&r| scaled_cap(r).is_none_or(|c| counts[net][r] < c))
                .min_by_key(|&r| (counts[net][r], r))
                .expect("admissible path has a replica");
            counts[net][r_star] += 1;
            peaks[net][r_star] = peaks[net][r_star].max(counts[net][r_star]);
            assignment[i].push((net, r_star));
        }
        let mut load = FleetLoad::none();
        for (net_idx, &network) in networks.iter().enumerate() {
            for (r, &active) in loads_before[net_idx].iter().enumerate() {
                let pace = spec
                    .servers
                    .get(r)
                    .and_then(|s| s.service_rate)
                    .map(|rate| PacePolicy {
                        burst: EXACT_PACE_BURST,
                        rate: BitRate::bps(
                            rate.as_bps() / f64::from(factor) / f64::from(active + 1),
                        ),
                    });
                let session_capacity = match scaled_cap(r) {
                    Some(c) => Some(c),
                    // Lift the server's standalone 503 heuristic when the
                    // fleet injects real load: admission is the fleet's
                    // call here.
                    None if active > 0 => Some(u32::MAX),
                    None => None,
                };
                load.entries.push(FleetLoadEntry {
                    network,
                    replica: r as u32,
                    active,
                    pace,
                    session_capacity,
                });
            }
        }
        let ss = base.clone().with_seed(attrs[i].seed);
        let metrics = host
            .run_with_load(&ss, &load)
            .expect("base spec validated at construction");
        let duration = metrics
            .ended_at
            .map(|e| e.saturating_since(metrics.started_at))
            .unwrap_or(SimDuration::ZERO);
        let end = arrival + duration;
        let end_us = end.as_micros();
        heap.push(Reverse((end_us, i as u32)));
        end_max = end_max.max(end);
        let mut path_bytes = vec![0u64; base.paths.len()];
        for c in metrics.chunks.iter() {
            if c.path < path_bytes.len() {
                path_bytes[c.path] += c.bytes;
            }
        }
        for (p, &bytes) in path_bytes.iter().enumerate() {
            let (net, r) = assignment[i][p];
            let flat = net * n_rep + r;
            served[flat] += bytes as f64;
            spread_bytes(
                &mut bucket_served[flat],
                bytes as f64,
                arr_us,
                end_us,
                bucket_us,
            );
        }
        if let Some(d) = metrics.prebuffer_time() {
            startups.push(d.as_secs_f64());
        }
        if !metrics.stalls.is_empty() {
            stalled_sessions += 1;
            bins[bin].stalled += 1;
        }
        total_stall += metrics.total_stall_time().as_secs_f64();
        if metrics.ended_at.is_some() {
            completed += 1;
        }
        qoe_sum += metrics.qoe(bitrate);
        events += metrics.events;
        exact_sessions.push(metrics);
    }
    startups.sort_by(f64::total_cmp);
    let hours = end_max.as_secs_f64() / 3600.0;
    let end_us = end_max.as_micros();
    let server_usage: Vec<ServerUsage> = (0..n_servers)
        .map(|flat| {
            let (net, r) = (flat / n_rep, flat % n_rep);
            let cfg = spec.servers.get(r);
            let cap_bps = cfg.and_then(|c| c.service_rate).map(|b| b.as_bps());
            let utilization = match cap_bps {
                Some(cap) if cap > 0.0 => {
                    let cap_bytes = cap / 8.0;
                    bucket_served[flat]
                        .iter()
                        .enumerate()
                        .map(|(b, &s)| {
                            let lo = b as u64 * bucket_us;
                            let width_us = bucket_us.min(end_us.saturating_sub(lo)).max(1);
                            s / (cap_bytes * width_us as f64 / 1e6)
                        })
                        .collect()
                }
                _ => vec![0.0; bucket_served[flat].len()],
            };
            ServerUsage {
                server: flat,
                capacity_bps: cap_bps.unwrap_or(0.0),
                served_bytes: served[flat] as u64,
                peak_sessions: u64::from(peaks[net][r]),
                cost: cfg
                    .map(|c| c.base_cost_per_hour * hours + c.cost_per_gb * served[flat] / 1e9)
                    .unwrap_or(0.0),
                bucket_secs: spec.util_bucket.as_secs_f64(),
                utilization,
            }
        })
        .collect();
    let total_cost = server_usage.iter().map(|s| s.cost).sum();
    let total_served_bytes = server_usage.iter().map(|s| s.served_bytes).sum();
    FleetMetrics {
        mode: FleetMode::Exact,
        policy: spec.policy,
        sessions: spec.sessions,
        completed,
        rejected,
        stalled_sessions,
        peak_concurrent,
        events,
        ended_at: end_max,
        startup_mean_secs: if startups.is_empty() {
            0.0
        } else {
            startups.iter().sum::<f64>() / startups.len() as f64
        },
        startup_p50_secs: percentile(&startups, 0.5),
        startup_p95_secs: percentile(&startups, 0.95),
        total_stall_secs: total_stall,
        total_served_bytes,
        servers: server_usage,
        rebuffer_vs_load: bins,
        total_cost,
        mean_qoe: qoe_sum / spec.sessions as f64,
        exact_sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::check_fleet_invariants;
    use crate::sim::PathSetup;

    fn testbed_base(seed: u64) -> SessionSpec {
        SessionSpec::new(seed, PathSetup::testbed_pair(), PlayerConfig::msplayer())
    }

    #[test]
    fn pareto_frontier_keeps_min_cost_max_qoe() {
        let points = [(1.0, 5.0), (2.0, 4.0), (3.0, 6.0), (1.0, 4.0)];
        assert_eq!(pareto_frontier(&points), vec![0, 2]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn fluid_runs_are_bit_identical_for_any_worker_count() {
        let mut spec = FleetSpec::fluid(0xf1ee7, 400);
        spec.servers = vec![FleetServerSpec::new(BitRate::mbps(200.0)); 3];
        let serial = FleetHost::new(spec.clone()).unwrap().run();
        spec.workers = 5;
        let sharded = FleetHost::new(spec).unwrap().run();
        assert_eq!(serial, sharded);
        assert_eq!(serial.completed + serial.rejected, 400);
        assert!(serial.peak_concurrent > 0);
        assert!(serial.total_served_bytes > 0);
    }

    #[test]
    fn fluid_rejects_when_admission_capacity_is_exhausted() {
        let mut spec = FleetSpec::fluid(11, 50);
        spec.servers = vec![FleetServerSpec::new(BitRate::mbps(100.0)).with_capacity(2)];
        spec.arrival_window = SimDuration::from_secs(5);
        let m = FleetHost::new(spec).unwrap().run();
        assert!(m.rejected > 0, "2-session fleet must turn arrivals away");
        let binned: u64 = m.rebuffer_vs_load.iter().map(|b| b.rejected).sum();
        assert_eq!(binned, m.rejected);
        assert_eq!(
            m.rebuffer_vs_load.iter().map(|b| b.sessions).sum::<u64>(),
            m.sessions
        );
    }

    #[test]
    fn capacity_crunch_chaos_degrades_the_population() {
        let mut spec = FleetSpec::fluid(23, 300);
        // ~60% offered load at peak (300 × 2.5 Mbps / 1.25 Gbps): healthy
        // without chaos, starved under an 8× capacity crunch.
        spec.servers = vec![FleetServerSpec::new(BitRate::mbps(625.0)); 2];
        let calm = FleetHost::new(spec.clone()).unwrap().run();
        // Crunch the fleet while the bulk of the population is mid-
        // playback (the capacity-crunch preset's early window would end
        // before the first 40 s pre-buffer completes).
        spec.chaos = Some(ChaosPlan::parse("fleet-overload:from=60s,until=180s,factor=8").unwrap());
        let crunched = FleetHost::new(spec.clone()).unwrap().run();
        assert!(
            crunched.stalled_sessions > calm.stalled_sessions,
            "crunch {} vs calm {}",
            crunched.stalled_sessions,
            calm.stalled_sessions
        );
        assert!(crunched.mean_qoe < calm.mean_qoe);
        assert_eq!(check_fleet_invariants(&spec, &crunched), vec![]);
        // The capacity-edge path (every attached session synced and
        // re-armed, in session-index order) may change speed only:
        // recorded before the session tables were re-laid out.
        assert_eq!(
            (
                crunched.events,
                crunched.stalled_sessions,
                crunched.total_stall_secs.to_bits(),
                crunched.mean_qoe.to_bits()
            ),
            (13_576, 124, 4665613134183412750, 13859042469584168283)
        );
    }

    #[test]
    fn cheapest_feasible_concentrates_load_on_the_cheap_replica() {
        let mut spec = FleetSpec::fluid(5, 200);
        spec.servers = vec![
            FleetServerSpec::new(BitRate::mbps(400.0)).with_cost(10.0, 0.10),
            FleetServerSpec::new(BitRate::mbps(400.0)).with_cost(1.0, 0.01),
        ];
        spec.policy = SelectionPolicy::CheapestFeasible;
        let m = FleetHost::new(spec).unwrap().run();
        assert!(
            m.servers[1].served_bytes > m.servers[0].served_bytes,
            "cheap replica should carry the load while it stays feasible"
        );
        assert!(m.total_cost > 0.0);
    }

    /// A fixed population on unequal replicas, three of them capped.
    fn capped_fleet(policy: SelectionPolicy) -> FleetSpec {
        let mut spec = FleetSpec::fluid(9, 600).with_policy(policy);
        spec.servers = vec![
            FleetServerSpec::new(BitRate::mbps(300.0))
                .with_cost(4.0, 0.04)
                .with_capacity(60),
            FleetServerSpec::new(BitRate::mbps(500.0)).with_cost(1.0, 0.01),
            FleetServerSpec::new(BitRate::mbps(300.0))
                .with_cost(1.0, 0.01)
                .with_capacity(50),
            FleetServerSpec::new(BitRate::mbps(200.0))
                .with_cost(9.0, 0.09)
                .with_capacity(20),
        ];
        spec
    }

    /// Where each policy puts [`capped_fleet`]'s population — every
    /// tie-break and the feasible → least-loaded fallback included. The
    /// values are the reference: a rewrite of `select_server` must
    /// reproduce them.
    #[test]
    fn selection_policies_pin_their_placement() {
        let placement = |policy| {
            let m = FleetHost::new(capped_fleet(policy)).unwrap().run();
            let peaks: Vec<u64> = m.servers.iter().map(|s| s.peak_sessions).collect();
            (peaks, m.rejected, m.stalled_sessions, m.events)
        };
        assert_eq!(
            placement(SelectionPolicy::LoadBalanced),
            (vec![29, 470, 25, 16], 0, 470, 47263)
        );
        assert_eq!(
            placement(SelectionPolicy::QoeFirst),
            (vec![29, 470, 26, 13], 0, 470, 47531)
        );
        assert_eq!(
            placement(SelectionPolicy::CheapestFeasible),
            (vec![22, 470, 25, 20], 0, 470, 45728)
        );
    }

    /// A session paused between refills keeps its slot: it re-attaches to
    /// the replica it left, so handing the slot to a new arrival would put
    /// both on it.
    #[test]
    fn capped_replicas_never_hold_more_than_their_ceiling() {
        let mut specs: Vec<FleetSpec> = SelectionPolicy::ALL.map(capped_fleet).into();
        // Every replica capped: the fleet has to turn arrivals away.
        let mut tiny = FleetSpec::fluid(11, 50);
        tiny.servers = vec![FleetServerSpec::new(BitRate::mbps(100.0)).with_capacity(2); 2];
        specs.push(tiny);
        for spec in specs {
            let m = FleetHost::new(spec.clone()).unwrap().run();
            for (cfg, usage) in spec.servers.iter().zip(&m.servers) {
                if let Some(ceiling) = cfg.session_capacity {
                    assert!(
                        usage.peak_sessions <= u64::from(ceiling),
                        "{} replica {}: peak {} over ceiling {ceiling}",
                        spec.policy.name(),
                        usage.server,
                        usage.peak_sessions
                    );
                }
            }
            assert_eq!(check_fleet_invariants(&spec, &m), vec![]);
        }
    }

    /// A replica event at exactly an arrival's microsecond runs after the
    /// arrival, one a microsecond earlier before it: the order of one queue
    /// whose arrivals were pushed first. Seen through the concurrency the
    /// second arrival meets, 2 while the first session's departure is still
    /// queued and 1 once it has run.
    #[test]
    fn a_replica_event_at_an_arrivals_instant_runs_after_the_arrival() {
        let mut spec = FleetSpec::fluid(3, 2);
        spec.servers = vec![FleetServerSpec::new(BitRate::mbps(100.0))];
        spec.video_secs = 10.0;
        let arrival = |at, index| Arrival {
            at,
            index,
            class: 0,
        };
        let departs = run_fluid(&spec, vec![arrival(SimTime::ZERO, 0)]).ended_at;
        assert!(departs > SimTime::ZERO);
        for (second, peak) in [(departs, 2), (departs + SimDuration::from_micros(1), 1)] {
            let m = run_fluid(&spec, vec![arrival(SimTime::ZERO, 0), arrival(second, 1)]);
            assert_eq!(m.peak_concurrent, peak, "second arrival at {second:?}");
        }
    }

    #[test]
    fn fluid_session_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<FluidSession>(), 64);
        assert_eq!(std::mem::align_of::<FluidSession>(), 64);
    }

    /// The cached share and bucket cursor are the values the per-call
    /// divisions they replaced would give, after every kind of step.
    #[test]
    fn server_share_and_bucket_cursor_equal_recomputation() {
        let rates = [1.5e6, 0.75e6, 0.375e6];
        for bucket_us in [1, 7, 10_000_000] {
            let mut rng = Prng::new(0x5a4e ^ bucket_us);
            let mut srv = FluidServer::new(1.25e8, 1, rates.len(), bucket_us);
            let mut members: Vec<usize> = Vec::new();
            let mut now = 0;
            for _ in 0..4_000 {
                match rng.below(4) {
                    0 => {
                        let k = rng.below(rates.len() as u64) as usize;
                        srv.attach(k);
                        members.push(k);
                    }
                    1 => {
                        if let Some(k) = members.pop() {
                            srv.detach(k);
                        }
                    }
                    2 => srv.set_cap(rng.below(9) as u32),
                    _ => {
                        now += rng.below(3 * bucket_us + 5_000);
                        srv.advance(SimTime::from_micros(now), &rates, bucket_us);
                    }
                }
                assert_eq!(
                    srv.share.to_bits(),
                    (srv.cap / srv.n.max(1) as f64).to_bits()
                );
                let b = ((srv.last.as_micros() / bucket_us) as usize).min(MAX_BUCKETS - 1);
                let end = if b == MAX_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (b as u64 + 1) * bucket_us
                };
                assert_eq!((srv.bucket, srv.bucket_end), (b, end));
            }
            // 1 µs buckets run out of indices a second in.
            assert_eq!(bucket_us == 1, srv.bucket == MAX_BUCKETS - 1);
            assert_eq!(srv.bucket_possible.len(), srv.bucket + 1);
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut no_rate = FleetSpec::fluid(1, 10);
        no_rate.servers = vec![FleetServerSpec::uncapped()];
        assert!(FleetHost::new(no_rate).is_err());
        let mut wrong_policy = FleetSpec::exact(ServiceSpec::testbed(), testbed_base(1), 2);
        wrong_policy.policy = SelectionPolicy::QoeFirst;
        assert!(FleetHost::new(wrong_policy).is_err());
        // One more than a session's compact indices can name.
        let mut too_many_classes = FleetSpec::fluid(1, 10);
        too_many_classes.access = vec![too_many_classes.access[0]; 257];
        assert!(FleetHost::new(too_many_classes.clone()).is_err());
        too_many_classes.access.truncate(256);
        assert!(FleetHost::new(too_many_classes).is_ok());
        let mut too_many_servers = FleetSpec::fluid(1, 10);
        too_many_servers.servers = vec![too_many_servers.servers[0]; 65_537];
        assert!(FleetHost::new(too_many_servers.clone()).is_err());
        too_many_servers.servers.truncate(65_536);
        assert!(FleetHost::new(too_many_servers).is_ok());
        // One more than the event slab has slots for, refused before any
        // table is allocated; the two edges of a crunch window count too.
        let err = FleetHost::new(FleetSpec::fluid(1, u64::from(u32::MAX) + 1))
            .err()
            .expect("2³² sessions are refused");
        assert!(err.contains("at most 4294967295"), "{err}");
        let mut most = FleetSpec::fluid(1, u64::from(u32::MAX));
        assert!(FleetHost::new(most.clone()).is_ok());
        most.chaos = Some(ChaosPlan::parse("fleet-overload:from=1s,until=2s,factor=2").unwrap());
        assert!(FleetHost::new(most).is_err());
    }

    #[test]
    fn exact_mode_runs_deterministically() {
        let mut spec = FleetSpec::exact(ServiceSpec::testbed(), testbed_base(42), 3);
        spec.arrival_window = SimDuration::from_secs(10);
        let a = FleetHost::new(spec.clone()).unwrap().run();
        let b = FleetHost::new(spec).unwrap().run();
        assert_eq!(a, b);
        assert_eq!(a.exact_sessions.len(), 3);
        assert_eq!(a.completed, 3);
        assert!(a.total_served_bytes > 0);
    }

    #[test]
    fn policy_and_mode_names_round_trip() {
        for p in SelectionPolicy::ALL {
            assert_eq!(SelectionPolicy::parse(p.name()), Some(p));
        }
        for m in [FleetMode::Exact, FleetMode::Fluid] {
            assert_eq!(FleetMode::parse(m.name()), Some(m));
        }
        assert_eq!(SelectionPolicy::parse("nope"), None);
    }
}
