//! Deterministic simulation driver: runs complete MSPlayer (or single-path
//! baseline) sessions against the simulated links and the emulated YouTube
//! service.
//!
//! # The session API
//!
//! The experiment-facing API is split in two:
//!
//! * [`ServiceSpec`] describes the *service side* of an experiment — the
//!   emulated YouTube topology, the video, its format. Building this state
//!   (DNS zone, signature cipher, server/proxy fleet, catalog) used to
//!   dominate short sessions because it was redone per session.
//! * [`SessionSpec`] describes one *client session* — seed, paths, player
//!   configuration, stop condition, and server-failure injections.
//!
//! A [`SessionHost`] is built **once** from a `ServiceSpec`. A session
//! in flight is a [`Session`] value the caller steps over an
//! [`EventQueue`] it owns: [`SessionHost::start`] bootstraps the paths and
//! pushes their readiness wakeups, [`Session::next_event`] yields the next
//! event, [`SessionHost::step`] handles it and reports whether the stop
//! condition is reached, and [`SessionHost::finish`] returns the
//! [`SessionMetrics`]. Between steps the session lives only in that value
//! and its queue. [`SessionHost::run`] and [`SessionHost::run_batch`] are
//! one loop over these calls on the host's warm queue: next event, end at
//! the [horizon](Session::horizon) if it lies past it, step. A batch over
//! N seeds is bit-identical to N sessions each run on a fresh host
//! (asserted by `crates/bench/tests/batch_api.rs` and the in-crate
//! `host_batch_matches_individual_runs` test) — the only thing amortized
//! is the control-plane construction, never simulated behaviour.
//!
//! Sessions may use **any number of paths** (the mHTTP lineage's "more than
//! two" sources): all per-path state (scheduler, out-of-order gate, failure
//! injection) is indexed by path. Invalid specs (no paths, out-of-range
//! failure injection, bad player config) surface as [`SessionSpecError`]
//! instead of panics.

use crate::chaos::{ChaosPlan, ChaosState};
use crate::chunk::ChunkAssignment;
use crate::config::PlayerConfig;
use crate::fleet::FleetLoad;
use crate::metrics::{SessionMetrics, MAX_TRACE_PATHS};
use crate::player::{ChunkFailReason, Player, PlayerAction, PlayerEvent, TraceBuffers};
use msim_core::event::{EventQueue, QueueOps};
use msim_core::rng::Prng;
use msim_core::telemetry::{self, LazyCounter, LazyHistogram, TraceVal};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;
use msim_http::tls;
use msim_http::StatusCode;
use msim_net::mobility::OutageSchedule;
use msim_net::profile::PathProfile;
use msim_net::tcp::{TcpConfig, TcpConnection, TransferOutcome};
use msim_net::Link;
use msim_youtube::dns::{DnsResolver, Network};
use msim_youtube::proxy::{self, parse_video_info, VideoInfo};
use msim_youtube::service::{ServiceConfig, YoutubeService, PROXY_DOMAIN};
use msim_youtube::video::{Video, VideoId};
use msim_youtube::Catalog;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One path of a scenario.
#[derive(Clone)]
pub struct PathSetup {
    /// Link recipe.
    pub profile: PathProfile,
    /// Access network (decides DNS view, proxy, servers, client IP).
    pub network: Network,
    /// Optional mobility outages on this path.
    pub outages: Option<OutageSchedule>,
}

impl PathSetup {
    /// A path with no outages.
    pub fn new(profile: PathProfile, network: Network) -> PathSetup {
        PathSetup {
            profile,
            network,
            outages: None,
        }
    }

    /// The §5 emulated-testbed path pair: WiFi (index 0) + LTE (index 1),
    /// each in its own network. Single-path sessions take one element.
    pub fn testbed_pair() -> Vec<PathSetup> {
        vec![
            PathSetup::new(PathProfile::wifi_testbed(), Network::Wifi),
            PathSetup::new(PathProfile::lte_testbed(), Network::Cellular),
        ]
    }

    /// The §6 YouTube-profile path pair: WiFi (index 0) + LTE (index 1).
    pub fn youtube_pair() -> Vec<PathSetup> {
        vec![
            PathSetup::new(PathProfile::wifi_youtube(), Network::Wifi),
            PathSetup::new(PathProfile::lte_youtube(), Network::Cellular),
        ]
    }
}

/// When the session ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopCondition {
    /// Stop the moment the pre-buffer target is reached (Figs. 2–4).
    PrebufferDone,
    /// Stop after `n` completed refill cycles (Fig. 5, Table 1).
    AfterRefills(usize),
    /// Stop when the whole video has been fetched.
    DownloadComplete,
    /// Stop at an absolute time.
    AtTime(SimTime),
}

impl StopCondition {
    /// Whether the session stops after an event at `now`: the one stop
    /// rule of the simulator and the socket driver alike.
    pub fn reached(&self, player: &Player, now: SimTime) -> bool {
        match *self {
            StopCondition::PrebufferDone => player.prebuffer_done(),
            StopCondition::AfterRefills(n) => player.refill_count() >= n,
            StopCondition::DownloadComplete => player.download_complete(),
            StopCondition::AtTime(t) => now >= t,
        }
    }
}

/// Scheduled failure of a path's primary video server (robustness tests).
/// `path` indexes the session's path set — any path of an N-path session
/// can be targeted, and a session may carry several failures (storms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerFailure {
    /// Which path's primary server fails.
    pub path: usize,
    /// Failure window start.
    pub from: SimTime,
    /// Failure window end.
    pub until: SimTime,
}

/// Why a [`SessionSpec`] was rejected by the host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionSpecError {
    /// The spec has no paths at all.
    NoPaths,
    /// The spec has more paths than a chunk trace can tell apart
    /// ([`MAX_TRACE_PATHS`]).
    TooManyPaths {
        /// How many paths the spec has.
        n_paths: usize,
    },
    /// A [`ServerFailure`] targets a path index the spec does not have.
    FailurePathOutOfRange {
        /// The offending failure's path index.
        path: usize,
        /// How many paths the spec has.
        n_paths: usize,
    },
    /// A failure window is empty or inverted (`from >= until`).
    InvalidFailureWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// The player configuration failed [`PlayerConfig::validate`].
    InvalidPlayer(String),
    /// The ABR quality ladder is malformed: empty, bitrates not strictly
    /// ascending, an itag the catalog's format table does not maintain, or
    /// (closed loop only, checked by the host) a ladder that does not
    /// contain the session's starting itag.
    InvalidLadder {
        /// What is wrong with the ladder.
        reason: String,
    },
    /// The attached [`ChaosPlan`] failed validation (e.g. an injector
    /// targets a path index the spec does not have).
    InvalidChaos {
        /// What is wrong with the plan.
        reason: String,
    },
}

impl fmt::Display for SessionSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionSpecError::NoPaths => write!(f, "session spec has no paths"),
            SessionSpecError::TooManyPaths { n_paths } => write!(
                f,
                "session spec has {n_paths} paths; a chunk trace tells at most {MAX_TRACE_PATHS} apart"
            ),
            SessionSpecError::FailurePathOutOfRange { path, n_paths } => write!(
                f,
                "server failure targets path {path} but the spec has only {n_paths} path(s)"
            ),
            SessionSpecError::InvalidFailureWindow { from, until } => {
                write!(f, "empty or inverted failure window [{from}, {until})")
            }
            SessionSpecError::InvalidPlayer(why) => write!(f, "invalid player config: {why}"),
            SessionSpecError::InvalidLadder { reason } => {
                write!(f, "invalid abr ladder: {reason}")
            }
            SessionSpecError::InvalidChaos { reason } => {
                write!(f, "invalid chaos plan: {reason}")
            }
        }
    }
}

impl std::error::Error for SessionSpecError {}

/// The video format every session and fleet streams (unless closed-loop
/// ABR switches rungs): itag 22, the paper's HD 720p (§5–6).
pub const STREAM_ITAG: u32 = 22;

/// The service side of an experiment: everything a [`SessionHost`] builds
/// once and shares across every session it runs.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Service topology (replicas per network, pacing).
    pub service: ServiceConfig,
    /// Video length in seconds.
    pub video_secs: f64,
    /// Whether the video requires the signature-decipher bootstrap step.
    pub copyrighted: bool,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec::testbed()
    }
}

impl ServiceSpec {
    /// The §5 emulated-testbed service: two unpaced replicas per network,
    /// 10-minute non-copyrighted 720p video.
    pub fn testbed() -> ServiceSpec {
        ServiceSpec {
            service: ServiceConfig::default(),
            video_secs: 600.0,
            copyrighted: false,
        }
    }

    /// The §6 YouTube-service profile: paced servers, heavier control
    /// plane, copyrighted video (signature decipher step).
    pub fn youtube() -> ServiceSpec {
        ServiceSpec {
            service: youtube_service_config(),
            video_secs: 600.0,
            copyrighted: true,
        }
    }

    /// Builder-style video length override.
    pub fn with_video_secs(mut self, secs: f64) -> Self {
        self.video_secs = secs;
        self
    }
}

/// One client session to run against a [`SessionHost`]: seed, paths,
/// player, stop condition, and failure injections.
#[derive(Clone)]
pub struct SessionSpec {
    /// Master seed; every stochastic component forks from it.
    pub seed: u64,
    /// The session's paths, in scheduler index order (index 0 is WiFi by
    /// convention; any number of paths is allowed).
    pub paths: Vec<PathSetup>,
    /// Player configuration.
    pub player: PlayerConfig,
    /// Stop condition.
    pub stop: StopCondition,
    /// Server-failure injections (empty = healthy servers; several entries
    /// model failure storms). Each entry must target a valid path index.
    pub server_failures: Vec<ServerFailure>,
    /// Optional chaos plan layered onto the session: composable
    /// seed-deterministic fault injectors (clock skew, middlebox option
    /// strip, asymmetric outages, DNS flaps, token cuts, replica overload)
    /// that act purely in the data plane — the workload definition itself is
    /// untouched.
    pub chaos: Option<ChaosPlan>,
}

impl SessionSpec {
    /// A spec over `paths` with no failure injections.
    pub fn new(seed: u64, paths: Vec<PathSetup>, player: PlayerConfig) -> SessionSpec {
        SessionSpec {
            seed,
            paths,
            player,
            stop: StopCondition::PrebufferDone,
            server_failures: Vec::new(),
            chaos: None,
        }
    }

    /// Builder-style stop-condition override.
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Builder-style seed override (used by batch drivers).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style chaos-plan attachment.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Validates the spec: at least one path and at most
    /// [`MAX_TRACE_PATHS`], in-range failure targets, well-formed windows,
    /// well-formed ABR ladder, valid player config.
    pub fn validate(&self) -> Result<(), SessionSpecError> {
        if self.paths.is_empty() {
            return Err(SessionSpecError::NoPaths);
        }
        if self.paths.len() > MAX_TRACE_PATHS {
            return Err(SessionSpecError::TooManyPaths {
                n_paths: self.paths.len(),
            });
        }
        if let Some(abr) = &self.player.abr_ladder {
            abr.validate_ladder()
                .map_err(|reason| SessionSpecError::InvalidLadder { reason })?;
        }
        for failure in &self.server_failures {
            if failure.path >= self.paths.len() {
                return Err(SessionSpecError::FailurePathOutOfRange {
                    path: failure.path,
                    n_paths: self.paths.len(),
                });
            }
            if failure.from >= failure.until {
                return Err(SessionSpecError::InvalidFailureWindow {
                    from: failure.from,
                    until: failure.until,
                });
            }
        }
        if let Some(plan) = &self.chaos {
            plan.validate(self.paths.len())
                .map_err(|reason| SessionSpecError::InvalidChaos { reason })?;
        }
        self.player
            .validate()
            .map_err(SessionSpecError::InvalidPlayer)?;
        Ok(())
    }
}

/// The YouTube-service topology: generous Trickle-style pacing (the
/// production servers burst the pre-buffer then pace well above the
/// encoding rate; cf. the paper's \[12\]).
pub fn youtube_service_config() -> ServiceConfig {
    ServiceConfig {
        servers_per_network: 3,
        pacing: Some(msim_youtube::server::PacePolicy {
            burst: ByteSize::mb(6),
            rate: msim_core::units::BitRate::mbps(5.0),
        }),
    }
}

/// Hard ceiling on simulated session length (guards against pathological
/// configurations looping forever).
const MAX_SESSION: SimDuration = SimDuration::from_secs(4 * 3600);

/// Seed for the host-level service. The service's own randomness only
/// shapes *strings* (token wire form, signature content, cipher program) —
/// never timing — so a host-level constant reproduces the per-session
/// metrics exactly; `crates/bench/tests/batch_api.rs` and the in-crate
/// `host_batch_matches_individual_runs` test lock this equivalence in.
const HOST_SERVICE_SEED: u64 = 0x5e21_11ce;

/// The content half of one path's bootstrap: the decoded JSON and, for
/// copyrighted videos, the deciphered signature. For an idle service this
/// is a pure function of `(network, json_done)` — `json_done` derives from
/// the *base* RTT, never the jittered one — so hosts cache and share it
/// across sessions (see [`SessionHost`]).
struct PathBootstrap {
    info: VideoInfo,
    /// Pre-validated admission for this path's range requests: the token /
    /// signature checks (including the deciphered signature, for
    /// copyrighted videos) are time-independent per session, so they are
    /// performed once here instead of on every chunk (the per-request
    /// failure-window / overload / expiry checks remain per request; the
    /// service asserts verdict equivalence).
    grant: msim_youtube::service::StreamGrant,
}

/// One path of a session in flight: its link, its connection to the
/// current server, and what a failover needs to reach the next replica.
struct PathRt {
    link: Link,
    /// `None` only until the bootstrap opens the first connection.
    conn: Option<TcpConnection>,
    tcp_config: TcpConfig,
    resolver: DnsResolver,
    boot: Arc<PathBootstrap>,
    current_server: usize,
    server_addr: Ipv4Addr,
}

impl PathRt {
    /// Replaces the connection with a fresh one to the current server,
    /// that server's pacing applied, its handshake started at `t`; returns
    /// the instant its first request may go out.
    fn reconnect(&mut self, service: &YoutubeService, t: SimTime) -> SimTime {
        let mut conn = TcpConnection::new(self.tcp_config.clone());
        if let Some(pace) = service.server(self.server_addr).and_then(|s| s.pace()) {
            conn = conn.with_server_pacing(pace.burst, pace.rate);
        }
        let ready = conn.connect(&mut self.link, t);
        self.conn = Some(conn);
        ready
    }
}

/// Per-path `(path, from, until)` windows grouped by the server each path
/// is on, so storms may stack several windows on one address.
fn by_server(
    paths: &[PathRt],
    windows: impl Iterator<Item = (usize, SimTime, SimTime)>,
) -> BTreeMap<Ipv4Addr, Vec<(SimTime, SimTime)>> {
    let mut grouped: BTreeMap<Ipv4Addr, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for (path, from, until) in windows {
        grouped
            .entry(paths[path].server_addr)
            .or_default()
            .push((from, until));
    }
    grouped
}

fn client_ip_for(network: Network) -> &'static str {
    match network {
        Network::Wifi => "203.0.113.7",
        Network::Cellular => "198.51.100.23",
        Network::Ethernet => "192.0.2.41",
    }
}

fn map_status(status: StatusCode) -> ChunkFailReason {
    if status == StatusCode::FORBIDDEN {
        ChunkFailReason::Forbidden
    } else {
        ChunkFailReason::ServerError
    }
}

/// A warmed session runner: owns the emulated service, catalog, and video
/// format derived from one [`ServiceSpec`], and executes any number of
/// [`SessionSpec`]s against them, one at a time.
///
/// Construction is the expensive part (DNS zone strings, signature cipher,
/// proxy/server fleet); [`SessionHost::start`] only resets per-session
/// server state (load counters, failure plans), so batching sessions over
/// one host amortizes the bootstrap without changing any session's outcome.
pub struct SessionHost {
    /// The queue the host's own driver loop steps its sessions over, kept
    /// so batched sessions reuse its calendar-bucket / heap / slab storage
    /// *and* its adapted bucket width. [`EventQueue::reset`] between
    /// sessions restores pristine semantics; width carry-over affects only
    /// speed, never pop order. It sits beside `warm` so the loop can lend
    /// it to `start` and `step` while they borrow the rest of the host.
    queue: EventQueue<PlayerEvent>,
    warm: Warm,
}

/// The host minus its queue: what [`SessionHost::start`],
/// [`SessionHost::step`] and [`SessionHost::finish`] borrow.
struct Warm {
    service: YoutubeService,
    video_id: VideoId,
    bytes_per_sec: f64,
    total_bytes: u64,
    /// Action scratch buffer reused across events and sessions: the hot
    /// loop never allocates for actions.
    actions: Vec<PlayerAction>,
    /// Cached per-`(network, json_done, granted ladder)` bootstrap
    /// content. Valid only when the network is idle at watch time (always
    /// true for bootstraps on distinct networks; same-network multi-path
    /// sessions bypass the cache so load-aware server ordering is
    /// preserved exactly). The granted ladder is part of the key because
    /// the bootstrap's [`StreamGrant`] covers exactly the session's
    /// ladder: sessions with different ladders must not share grants.
    ///
    /// [`StreamGrant`]: msim_youtube::service::StreamGrant
    boot_cache: BTreeMap<(Network, SimTime, Vec<u32>), Arc<PathBootstrap>>,
    /// The trace buffers lent to each session's [`Player`] in turn: the
    /// `chunks` trace and the ABR switches and decisions grow in them,
    /// the finished [`SessionMetrics`] keeps exact-size copies, and the
    /// buffers come back here with their capacity. From the second session
    /// on, recording a trace allocates once, at its final size.
    traces: TraceBuffers,
}

/// One session in flight: its paths (links, connections, runtimes), its
/// player, its resolved chaos state, its pending tick (a value, not a queue
/// entry) and the count of events handled. [`SessionHost::start`] makes it,
/// [`Session::next_event`] and [`SessionHost::step`] advance it one event at
/// a time, [`SessionHost::finish`] ends it.
pub struct Session {
    paths: Vec<PathRt>,
    player: Player,
    chaos: Option<ChaosState>,
    /// The one outstanding tick, `(at, seq)` with a reserved queue `seq`.
    tick: Option<(SimTime, u64)>,
    /// Its queue operations: set = push, delivered = pop, overwritten = cancel.
    tick_ops: QueueOps,
    events: u64,
    stop: StopCondition,
    /// The trace flag, latched once at start.
    tracing: bool,
    stream_span: telemetry::Span,
}

impl SessionHost {
    /// Builds the host: assembles the service topology and resolves the
    /// video format once.
    pub fn new(spec: ServiceSpec) -> SessionHost {
        let video_id = VideoId::new("qjT4T2gU9sM").expect("static id");
        let mut catalog = Catalog::new();
        catalog.add(Video::new(
            video_id,
            "Experiment Stream",
            "umass-nets",
            SimDuration::from_secs_f64(spec.video_secs),
            spec.copyrighted,
        ));
        let service = YoutubeService::new(HOST_SERVICE_SEED, catalog, spec.service);
        let format = msim_youtube::by_itag(STREAM_ITAG).expect("known itag");
        let bytes_per_sec = format.bytes_per_sec();
        let total_bytes = format
            .size_for(SimDuration::from_secs_f64(spec.video_secs))
            .as_u64();
        SessionHost {
            queue: EventQueue::with_capacity(16),
            warm: Warm {
                service,
                video_id,
                bytes_per_sec,
                total_bytes,
                actions: Vec::with_capacity(8),
                boot_cache: BTreeMap::new(),
                traces: TraceBuffers::default(),
            },
        }
    }

    /// Runs one session to completion over the warmed service.
    pub fn run(&mut self, spec: &SessionSpec) -> Result<SessionMetrics, SessionSpecError> {
        self.run_with_load(spec, &FleetLoad::none())
    }

    /// Runs one session against a service carrying fleet-injected shared
    /// load: per-replica session counts, capacity-share pacing, and
    /// admission thresholds are installed before bootstrap, so load-aware
    /// server selection, 503 admission, and pacing all see the rest of the
    /// fleet. An [empty](FleetLoad::is_empty) load is bit-identical to
    /// [`SessionHost::run`] — the fleet's N=1 anchor.
    pub fn run_with_load(
        &mut self,
        spec: &SessionSpec,
        load: &FleetLoad,
    ) -> Result<SessionMetrics, SessionSpecError> {
        self.warm.validate(spec)?;
        Ok(self.drive(spec.seed, spec, load))
    }

    /// Runs the same session shape over many seeds, validating once.
    /// The result at position `i` is bit-identical to
    /// `self.run(&spec.with_seed(seeds[i]))`.
    ///
    /// Beyond one-time validation, batching keeps every session on the
    /// host's warm storage: the event queue's calendar buckets, the
    /// bootstrap cache and the lent trace buffers are reused across seeds.
    pub fn run_batch(
        &mut self,
        seeds: &[u64],
        spec: &SessionSpec,
    ) -> Result<Vec<SessionMetrics>, SessionSpecError> {
        self.warm.validate(spec)?;
        Ok(seeds
            .iter()
            .map(|&seed| self.drive(seed, spec, &FleetLoad::none()))
            .collect())
    }

    /// Validates `spec` and starts it with `seed` (in place of
    /// `spec.seed`): resets the service's per-session state, bootstraps
    /// every path and pushes the readiness wakeups onto `queue`, which
    /// must be empty at time zero (new or [reset](EventQueue::reset)).
    pub fn start(
        &mut self,
        seed: u64,
        spec: &SessionSpec,
        queue: &mut EventQueue<PlayerEvent>,
    ) -> Result<Session, SessionSpecError> {
        self.warm.validate(spec)?;
        Ok(self.warm.start(seed, spec, &FleetLoad::none(), queue))
    }

    /// Hands `event`, the session's [next event](Session::next_event) at
    /// `now`, to the player and carries out the actions it returns, pushing
    /// their outcomes onto `queue` and keeping a tick request in `session`.
    /// Returns whether the session's stop condition is reached. A driver
    /// whose next event lies later than [`Session::horizon`] ends the
    /// session there instead.
    pub fn step(
        &mut self,
        session: &mut Session,
        queue: &mut EventQueue<PlayerEvent>,
        now: SimTime,
        event: PlayerEvent,
    ) -> bool {
        self.warm.step(session, queue, now, event)
    }

    /// Ends the session at `end` and returns its metrics.
    pub fn finish(&mut self, session: Session, end: SimTime) -> SessionMetrics {
        self.warm.finish(session, end)
    }

    /// The one driver loop behind `run`, `run_batch` and `run_with_load`,
    /// on the host's warm queue: next event, end at the horizon if it lies
    /// past it, step. `spec` must already be validated.
    fn drive(&mut self, seed: u64, spec: &SessionSpec, load: &FleetLoad) -> SessionMetrics {
        static EVENT_PUSHES: LazyCounter = LazyCounter::new("msp_event_pushes_total");
        static EVENT_POPS: LazyCounter = LazyCounter::new("msp_event_pops_total");
        static EVENT_CANCELS: LazyCounter = LazyCounter::new("msp_event_cancels_total");
        // Pending events stay small: at most one chunk completion or error
        // per path, plus recovery timers (the tick is kept in the session).
        let queue = &mut self.queue;
        queue.reset();
        queue.reserve(16.max(2 * spec.paths.len()));
        let mut session = self.warm.start(seed, spec, load, queue);
        let horizon = session.horizon();
        let end = loop {
            let Some((now, event)) = session.next_event(queue) else {
                break queue.now();
            };
            if now > horizon {
                break horizon;
            }
            if self.warm.step(&mut session, queue, now, event) {
                break now;
            }
        };
        let (ops, ticks) = (queue.op_counts(), session.tick_ops);
        EVENT_PUSHES.add(ops.pushes + ticks.pushes);
        EVENT_POPS.add(ops.pops + ticks.pops);
        EVENT_CANCELS.add(ops.cancels + ticks.cancels);
        self.warm.finish(session, end)
    }
}

impl Warm {
    /// [`SessionSpec::validate`] plus the service-aware check: a
    /// closed-loop ABR ladder must contain the session's starting itag
    /// (the rung the stream begins on).
    fn validate(&self, spec: &SessionSpec) -> Result<(), SessionSpecError> {
        spec.validate()?;
        if let Some(abr) = &spec.player.abr_ladder {
            if abr.mode == crate::abr::AbrMode::ClosedLoop && !abr.ladder.contains(&STREAM_ITAG) {
                return Err(SessionSpecError::InvalidLadder {
                    reason: format!(
                        "closed-loop ladder {:?} does not contain the session's starting itag {}",
                        abr.ladder, STREAM_ITAG
                    ),
                });
            }
        }
        Ok(())
    }

    /// [`SessionHost::start`] of a validated `spec` under fleet-injected
    /// shared load (none for a plain session).
    fn start(
        &mut self,
        seed: u64,
        spec: &SessionSpec,
        load: &FleetLoad,
        queue: &mut EventQueue<PlayerEvent>,
    ) -> Session {
        // Per-session mutable service state back to pristine: load counts
        // and failure plans. Everything else on the service is immutable
        // topology or timing-neutral strings.
        self.service.reset_sessions();
        // Fleet coupling: install the rest of the fleet's state on the
        // replicas *before* bootstrap. Non-zero load makes
        // `network_is_idle` false, which also bypasses the bootstrap
        // cache — loaded networks are never cache-eligible.
        load.apply(&mut self.service);

        // Observability (never perturbs the session: counters/spans/trace
        // only — no RNG, no simulated time, no metrics mutation). The
        // driver writes only the `session.*` brackets; the player writes
        // the per-event records. Both latch the trace flag once per session.
        let tracing = telemetry::trace_enabled();
        let boot_span = telemetry::span("session.bootstrap");

        let mut rng = Prng::new(seed);
        let n_paths = spec.paths.len();
        if tracing {
            telemetry::trace(
                "session.start",
                0,
                &[
                    ("seed", TraceVal::U64(seed)),
                    ("paths", TraceVal::U64(n_paths as u64)),
                ],
            );
        }
        // The formats the session's grant must cover: closed-loop ABR
        // sessions are granted their whole quality ladder once (they may
        // switch the streamed itag mid-session); everything else streams
        // exactly the service's fixed itag.
        let grant_itags: Vec<u32> = match &spec.player.abr_ladder {
            Some(abr) if abr.mode == crate::abr::AbrMode::ClosedLoop => abr.ladder.clone(),
            _ => vec![STREAM_ITAG],
        };

        // --- Bootstrap each path (§3.2 + Fig. 1 + footnote 1) --------------
        // Only the link builds draw from `rng`, in path order.
        let mut paths = Vec::with_capacity(n_paths);
        let mut ready = Vec::with_capacity(n_paths);
        for (i, setup) in spec.paths.iter().enumerate() {
            let mut link = setup.profile.build(&mut rng);
            if let Some(outages) = &setup.outages {
                link = link.with_outages(outages.clone());
            }
            let network = setup.network;
            let tcp_config = setup.profile.tcp_config();
            let client_ip = client_ip_for(network);
            let mut resolver = DnsResolver::new(network);
            let rtt = link.base_rtt();
            // HTTPS: η minus the TCP round the connection model charges
            // itself.
            let tls_extra = tls::eta(rtt).saturating_sub(rtt);

            // DNS for the proxy.
            let (_proxy_ans, dns_done) = resolver
                .resolve(self.service.zone(), PROXY_DOMAIN, SimTime::ZERO, rtt)
                .expect("proxy resolvable");
            // HTTPS + OAuth + JSON (ψ + OAuth).
            let json_done = dns_done + proxy::json_ready_after(rtt);
            // The bootstrap *content* (decoded JSON + deciphered signature)
            // is a pure function of (network, json_done) while the network
            // is idle — serve it from the host cache when possible. The
            // bootstrap *timing* below is charged per session regardless.
            let cache_key = (network, json_done, grant_itags.clone());
            let idle = self.service.network_is_idle(network);
            let boot = match self.boot_cache.get(&cache_key) {
                Some(cached) if idle => Arc::clone(cached),
                _ => {
                    let json = self
                        .service
                        .watch_request(network, self.video_id, client_ip, json_done)
                        .expect("watch request succeeds");
                    let info = parse_video_info(&json).expect("well-formed JSON");
                    let signature = info
                        .enciphered_sig
                        .as_ref()
                        .map(|enc| self.service.decoder_page().decipher(enc));
                    // Pre-validate the per-session admission checks once;
                    // every range request then pays only the per-request
                    // (failure-window / overload / expiry) half.
                    let grant = self.service.grant_stream(
                        self.video_id,
                        client_ip,
                        &info.token,
                        signature.as_deref(),
                        &grant_itags,
                    );
                    let boot = Arc::new(PathBootstrap { info, grant });
                    if idle {
                        self.boot_cache.insert(cache_key, Arc::clone(&boot));
                    }
                    boot
                }
            };
            // JSON decode on the client.
            let mut t = json_done + SimDuration::from_millis(2);
            // Copyrighted: fetch the video web page carrying the decoder
            // (footnote 1) — a real ~300 KB transfer on a fresh connection to
            // the proxy, expensive on the high-RTT path — then decipher.
            if boot.info.enciphered_sig.is_some() {
                let mut page_conn = TcpConnection::new(tcp_config.clone());
                let page_start = page_conn.connect(&mut link, t + tls_extra);
                let page = page_conn.request(&mut link, page_start, ByteSize::kb(300));
                t = page.completed_at + SimDuration::from_millis(3);
            }
            // DNS for the chosen video server.
            let (ans, dns2_done) = resolver
                .resolve(self.service.zone(), &boot.info.server_domains[0], t, rtt)
                .expect("server resolvable");
            let server_addr = ans.addrs[0];
            let mut rt = PathRt {
                link,
                conn: None,
                tcp_config,
                resolver,
                boot,
                current_server: 0,
                server_addr,
            };
            // HTTPS to the video server.
            ready.push((rt.reconnect(&self.service, dns2_done + tls_extra), i));
            if let Some(s) = self.service.server_mut(server_addr) {
                s.begin_session();
            }
            paths.push(rt);
        }

        // Server-failure injections, then the chaos plan resolved against
        // this session's seed. Chaos acts strictly in the data plane (fetch
        // / failover dispatch) — never in the bootstrap above — so the boot
        // cache and the batch-vs-loop bit-equivalence stay intact. Both
        // install windows on the backing replicas; reset_sessions() clears
        // them before the next session.
        let failures = spec
            .server_failures
            .iter()
            .map(|f| (f.path, f.from, f.until));
        for (addr, w) in by_server(&paths, failures) {
            self.service.fail_server_windows(addr, w);
        }
        let chaos: Option<ChaosState> = spec.chaos.as_ref().map(|p| p.resolve(seed, n_paths));
        if let Some(cs) = &chaos {
            for (addr, w) in by_server(&paths, cs.overload_windows()) {
                self.service.overload_server_windows(addr, w);
            }
        }

        drop(boot_span);
        let stream_span = telemetry::span("session.stream");
        let player = Player::with_traces(
            spec.player.clone(),
            n_paths,
            self.total_bytes,
            self.bytes_per_sec,
            SimTime::ZERO,
            std::mem::take(&mut self.traces),
        );
        // Readiness wakeups (§3.2): with head start each path starts the
        // moment its own bootstrap is done; without it (ablation mode)
        // every path waits for the slowest. Same-instant wakeups coalesce
        // into one event, its paths in index order.
        if !spec.player.head_start {
            let latest = ready.iter().map(|r| r.0).max().unwrap_or(SimTime::ZERO);
            for (at, _) in &mut ready {
                *at = latest;
            }
        }
        ready.sort_unstable();
        for group in ready.chunk_by(|a, b| a.0 == b.0) {
            let event = match group {
                [(_, path)] => PlayerEvent::PathReady { path: *path },
                _ => PlayerEvent::PathsReady {
                    paths: group.iter().map(|&(_, path)| path).collect(),
                },
            };
            queue.push(group[0].0, event);
        }
        Session {
            paths,
            player,
            chaos,
            tick: None,
            tick_ops: QueueOps::default(),
            events: 0,
            stop: spec.stop,
            tracing,
            stream_span,
        }
    }

    /// [`SessionHost::step`].
    fn step(
        &mut self,
        session: &mut Session,
        queue: &mut EventQueue<PlayerEvent>,
        now: SimTime,
        event: PlayerEvent,
    ) -> bool {
        session.events += 1;
        if matches!(event, PlayerEvent::Tick) {
            session.tick = None;
        }
        session.player.handle_into(now, event, &mut self.actions);
        for action in self.actions.drain(..) {
            match action {
                PlayerAction::Fetch { assignment } => {
                    session.dispatch_fetch(&mut self.service, queue, now, assignment);
                }
                PlayerAction::Failover { path } => {
                    session.dispatch_failover(&mut self.service, queue, now, path);
                }
                PlayerAction::ScheduleTick { at } => {
                    // Tick coalescing: keep exactly one pending tick — the
                    // latest request overwrites the previous one.
                    let at = at.max(now);
                    if session.tick.is_none_or(|(t, _)| t != at) {
                        session.tick_ops.cancels += u64::from(session.tick.is_some());
                        session.tick_ops.pushes += 1;
                        session.tick = Some((at, queue.reserve_seq()));
                    }
                }
            }
        }
        session.stop.reached(&session.player, now)
    }

    /// [`SessionHost::finish`]: the metrics, and the lent trace buffers
    /// back to the host.
    fn finish(&mut self, session: Session, end: SimTime) -> SessionMetrics {
        static SESSIONS: LazyCounter = LazyCounter::new("msp_sessions_total");
        static STALLS: LazyCounter = LazyCounter::new("msp_stalls_total");
        static SESSION_EVENTS: LazyHistogram = LazyHistogram::new("msp_session_events");
        let (mut m, lent) = session.player.finish(end);
        self.traces = lent;
        m.events = session.events;
        drop(session.stream_span);
        // Observability reads only the finished metrics.
        SESSIONS.add(1);
        STALLS.add(m.stalls.len() as u64);
        SESSION_EVENTS.observe(m.events);
        if session.tracing {
            telemetry::trace(
                "session.end",
                end.as_micros(),
                &[
                    ("events", TraceVal::U64(m.events)),
                    ("stalls", TraceVal::U64(m.stalls.len() as u64)),
                ],
            );
        }
        m
    }
}

impl Session {
    /// The session's next event: its tick if that sorts first in `(time, seq)`
    /// order, else `queue`'s pop. `None`: the session ends at [`EventQueue::now`].
    /// A tick stays pending until it is handed to [`SessionHost::step`].
    pub fn next_event(
        &mut self,
        queue: &mut EventQueue<PlayerEvent>,
    ) -> Option<(SimTime, PlayerEvent)> {
        let Some((at, seq)) = self.tick else {
            return queue.pop();
        };
        queue.pop_before(at, seq).or_else(|| {
            self.tick_ops.pops += 1;
            Some((at, PlayerEvent::Tick))
        })
    }

    /// The instant of the tick the player asked for, until it is stepped.
    pub fn pending_tick(&self) -> Option<SimTime> {
        self.tick.map(|(at, _)| at)
    }

    /// The instant the session ends at if no stop comes first: the
    /// [`StopCondition::AtTime`] bound or the 4-hour ceiling, whichever is
    /// earlier. A driver that pops an event past it ends the session here,
    /// without handing it the event.
    pub fn horizon(&self) -> SimTime {
        let ceiling = SimTime::ZERO + MAX_SESSION;
        match self.stop {
            StopCondition::AtTime(t) => t.min(ceiling),
            _ => ceiling,
        }
    }

    /// Carries out a `Fetch` on its path: chaos first, then admission,
    /// then the transfer; pushes the event that reports its outcome.
    fn dispatch_fetch(
        &mut self,
        service: &mut YoutubeService,
        queue: &mut EventQueue<PlayerEvent>,
        now: SimTime,
        assignment: ChunkAssignment,
    ) {
        let p = assignment.path;
        // The format this range request streams: the rung its byte region
        // was planned at (closed-loop ABR sessions carry a rung map;
        // everything else is the session's fixed itag).
        let itag = self
            .player
            .itag_for_byte(assignment.range.start)
            .unwrap_or(STREAM_ITAG);
        let rt = &mut self.paths[p];
        let failed = |reason| PlayerEvent::ChunkFailed { path: p, reason };
        if let Some(cs) = self.chaos.as_mut() {
            let rtt = rt.link.base_rtt();
            // Middlebox started stripping MPTCP options on this path: the
            // established connection falls back per RFC 6824 — one reset, a
            // fresh plain-TCP handshake, and the request is lost. One-shot.
            if let Some(penalty_rtts) = cs.take_strip(p, now) {
                // The reconnect handshake itself charges one RTT; the rest of
                // the penalty (detecting the reset, SYN retries for the
                // option-dropping case) is charged up front.
                let reset_done = rt.reconnect(service, now + rtt * (penalty_rtts - 1));
                queue.push(reset_done, failed(ChunkFailReason::ServerError));
                return;
            }
            // Up-direction outage: the request never reaches the server; the
            // client gives up after a deterministic RTO.
            if cs.request_lost(p, now) {
                queue.push(now + rtt * 4, failed(ChunkFailReason::Timeout));
                return;
            }
            // Token cut: the CDN invalidated the session token; the first
            // request at/after the cut on each path is refused 403 (the retry
            // models a control-plane token refresh).
            if cs.token_cut_fires(p, now) {
                queue.push(now + rtt, failed(ChunkFailReason::Forbidden));
                return;
            }
        }
        // Server-side admission over the bootstrap's pre-validated grant:
        // failure windows, overload, token expiry, and ladder membership of
        // the requested format (the token / signature halves were checked once
        // at bootstrap — same verdicts, no per-chunk re-parse). Under clock
        // skew the servers see the skewed instant.
        let admit_now = self.chaos.as_ref().map_or(now, |cs| cs.skewed(now));
        let admission =
            service.check_range_request_granted(rt.server_addr, admit_now, &rt.boot.grant, itag);
        if let Err(status) = admission {
            // The error response costs one round trip.
            queue.push(now + rt.link.base_rtt(), failed(map_status(status)));
            return;
        }
        let conn = rt.conn.as_mut().expect("connection established");
        let result = conn.request(&mut rt.link, now, ByteSize::bytes(assignment.range.len()));
        match result.outcome {
            TransferOutcome::Complete => {
                // Down-direction outage: the transfer ran on the wire (the
                // server sent every byte, connection state advanced) but the
                // response never reached the client, which times out when the
                // transfer would have completed.
                if self
                    .chaos
                    .as_ref()
                    .is_some_and(|cs| cs.response_lost(p, now))
                {
                    queue.push(result.completed_at, failed(ChunkFailReason::Timeout));
                    return;
                }
                queue.push(
                    result.completed_at,
                    PlayerEvent::ChunkComplete {
                        path: p,
                        index: assignment.index,
                        bytes: result.delivered.as_u64(),
                        requested_at: now,
                        first_byte_at: result.first_byte_at,
                    },
                );
            }
            TransferOutcome::TimedOut => {
                // Link trouble. If the link is in an outage the whole path goes
                // down (the player reassigns the hole to the surviving path)
                // and recovers only after the outage ends plus a reconnect
                // handshake; a transient timeout is just a failed chunk.
                match rt.link.next_up_after(result.completed_at) {
                    Some(up_at) => {
                        queue.push(result.completed_at, PlayerEvent::PathDown { path: p });
                        let reconnect = tls::eta(rt.link.base_rtt());
                        queue.push(up_at + reconnect, PlayerEvent::PathRestored { path: p });
                    }
                    None => {
                        queue.push(result.completed_at, failed(ChunkFailReason::Timeout));
                    }
                }
            }
        }
    }

    /// Carries out a `Failover` on `path`: the next replica in the path's
    /// list, re-resolved and reconnected; pushes its `PathRestored`.
    fn dispatch_failover(
        &mut self,
        service: &mut YoutubeService,
        queue: &mut EventQueue<PlayerEvent>,
        now: SimTime,
        path: usize,
    ) {
        let rt = &mut self.paths[path];
        let rtt = rt.link.base_rtt();
        let tls_extra = tls::eta(rtt).saturating_sub(rtt);
        // DNS flap: the resolver keeps returning the stale record, so the
        // failover cannot rotate replicas — the client reconnects to the same
        // server after burning one extra RTT on the failed re-resolution.
        if self
            .chaos
            .as_ref()
            .is_some_and(|cs| cs.dns_flapping(path, now))
        {
            let ready = rt.reconnect(service, now + rtt + tls_extra);
            queue.push(ready, PlayerEvent::PathRestored { path });
            return;
        }
        if let Some(s) = service.server_mut(rt.server_addr) {
            s.end_session();
        }
        // Next replica in this network's list (§2: "If a server in a network
        // fails or is overloaded, MSPlayer switches to another server in that
        // network and resumes video streaming").
        rt.current_server = (rt.current_server + 1) % rt.boot.info.server_domains.len();
        let domain = &rt.boot.info.server_domains[rt.current_server];
        let (ans, dns_done) = rt
            .resolver
            .resolve(service.zone(), domain, now, rtt)
            .expect("replica resolvable");
        rt.server_addr = ans.addrs[0];
        if let Some(s) = service.server_mut(rt.server_addr) {
            s.begin_session();
        }
        // Fresh HTTPS connection to the new replica.
        let ready = rt.reconnect(service, dns_done + tls_extra);
        queue.push(ready, PlayerEvent::PathRestored { path });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;

    fn quick_player() -> PlayerConfig {
        PlayerConfig::msplayer().with_prebuffer_secs(10.0)
    }

    fn testbed(seed: u64, player: PlayerConfig) -> SessionSpec {
        SessionSpec::new(seed, PathSetup::testbed_pair(), player)
    }

    fn single_path(seed: u64, profile: PathProfile, player: PlayerConfig) -> SessionSpec {
        SessionSpec::new(seed, vec![PathSetup::new(profile, Network::Wifi)], player)
    }

    /// One session on a fresh testbed host.
    fn run(spec: &SessionSpec) -> SessionMetrics {
        SessionHost::new(ServiceSpec::testbed())
            .run(spec)
            .expect("valid spec")
    }

    /// The lent trace buffers keep their capacity across a batch: the
    /// sessions after the first record without growing them, the buffers
    /// end up at least as large as the longest trace, and what each
    /// session keeps is an exact-size copy. Fixed 16 KB chunks over a
    /// full download: several thousand records per trace.
    #[test]
    fn lent_trace_buffers_stop_growing_after_the_first_sessions() {
        let player = PlayerConfig::msplayer()
            .with_scheduler(SchedulerKind::Fixed)
            .with_initial_chunk(ByteSize::kb(16));
        let spec = testbed(0, player).with_stop(StopCondition::DownloadComplete);
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let mut sessions = host.run_batch(&[1, 2], &spec).expect("valid spec");
        let grown = host.warm.traces.chunks.capacity();
        sessions.extend(host.run_batch(&[3], &spec).expect("valid spec"));

        let longest = sessions.iter().map(|m| m.chunks.len()).max().unwrap();
        assert!(longest > 4096, "only {longest} chunks");
        assert!(host.warm.traces.chunks.capacity() >= longest);
        assert_eq!(
            host.warm.traces.chunks.capacity(),
            grown,
            "the third session reallocated the lent buffer"
        );
        for m in &sessions {
            assert_eq!(m.chunks.capacity(), m.chunks.len());
        }
        // The lent buffers came back; the next session reuses them.
        assert_eq!(host.warm.traces.chunks.len(), sessions[2].chunks.len());
    }

    /// An `AtTime` session ends at its bound, even when the next event
    /// lies past it (here inside an OFF period of the steady state).
    #[test]
    fn at_time_stop_ends_the_session_at_its_bound() {
        let bound = SimTime::from_secs(100);
        let spec = testbed(3, PlayerConfig::default()).with_stop(StopCondition::AtTime(bound));
        assert_eq!(run(&spec).ended_at, Some(bound));
    }

    /// A session the 4-hour ceiling cuts ends at the ceiling, not at the
    /// first event past it, which it never handles.
    #[test]
    fn a_session_cut_by_the_ceiling_ends_at_the_ceiling() {
        let spec =
            testbed(3, PlayerConfig::default()).with_stop(StopCondition::AfterRefills(1_000_000));
        let m = SessionHost::new(ServiceSpec::testbed().with_video_secs(6.0 * 3600.0))
            .run(&spec)
            .expect("valid spec");
        assert!(m.refills.len() > 10, "only {} refills", m.refills.len());
        assert_eq!(m.ended_at, Some(SimTime::ZERO + MAX_SESSION));
    }

    /// Tick coalescing: a tick superseded by a later request is
    /// overwritten, so every `Tick` delivered is the session's one pending
    /// tick, and each overwrite counts as one cancel.
    #[test]
    fn a_superseded_tick_is_cancelled_not_delivered() {
        let spec = testbed(3, quick_player()).with_stop(StopCondition::AfterRefills(2));
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let mut queue = EventQueue::new();
        let mut session = host.start(3, &spec, &mut queue).expect("valid spec");
        let (mut ticks, mut superseded) = (0, 0);
        loop {
            let pending = session.pending_tick();
            let Some((now, event)) = session.next_event(&mut queue) else {
                break;
            };
            let tick = matches!(event, PlayerEvent::Tick);
            if tick {
                ticks += 1;
                assert_eq!(pending, Some(now), "a superseded tick fired");
            }
            let before = session.tick;
            let stop = host.step(&mut session, &mut queue, now, event);
            superseded += u64::from(!tick && before.is_some() && session.tick != before);
            if stop {
                break;
            }
        }
        assert!(
            ticks > 0 && superseded > 0,
            "{ticks} ticks, {superseded} superseded"
        );
        assert_eq!(session.tick_ops.cancels, superseded);
    }

    /// A tick sorts where its push would have: after a same-instant event
    /// pushed before the tick was scheduled, before one pushed after. Two
    /// markers (never stepped) are pushed at a delivered tick's instant,
    /// one just before and one just after the step that scheduled it.
    #[test]
    fn a_tick_and_a_same_instant_outcome_pop_in_push_order() {
        let spec = testbed(3, quick_player()).with_stop(StopCondition::AfterRefills(1));
        let mut host = SessionHost::new(ServiceSpec::testbed());
        const TICK: usize = 2;
        let marker = |m| PlayerEvent::PathDown {
            path: usize::MAX - m,
        };
        let label = |event: &PlayerEvent| match *event {
            PlayerEvent::PathDown { path } if path > 1 << 20 => usize::MAX - path,
            PlayerEvent::Tick => TICK,
            _ => usize::MAX,
        };
        // Steps the session, pushing markers 0 and 1 around step `mark.0`
        // at `mark.1`; returns every delivered `(now, label)` and, for each
        // delivered tick, the step that scheduled it.
        let mut run = |mark: Option<(usize, SimTime)>| {
            let mut queue = EventQueue::new();
            let mut session = host.start(3, &spec, &mut queue).expect("valid spec");
            let (mut delivered, mut scheduled_by) = (Vec::new(), Vec::new());
            let (mut step, mut set_at) = (0, 0);
            while let Some((now, event)) = session.next_event(&mut queue) {
                delivered.push((now, label(&event)));
                if label(&event) < TICK {
                    continue;
                }
                if label(&event) == TICK {
                    scheduled_by.push((set_at, now));
                }
                let (before, marked) = (session.tick, mark.filter(|&(k, _)| k == step));
                if let Some((_, at)) = marked {
                    queue.push(at, marker(0));
                }
                let stop = host.step(&mut session, &mut queue, now, event);
                if let Some((_, at)) = marked {
                    queue.push(at, marker(1));
                }
                if session.tick != before && session.tick.is_some() {
                    set_at = step;
                }
                step += 1;
                if stop {
                    break;
                }
            }
            (delivered, scheduled_by)
        };
        let (_, scheduled_by) = run(None);
        let mark = scheduled_by[scheduled_by.len() / 2];
        let (delivered, _) = run(Some(mark));
        let at = mark.1;
        let position = |l| delivered.iter().position(|&d| d == (at, l));
        let (first, tick, second) = (
            position(0).expect("first marker delivered"),
            position(TICK).expect("tick delivered"),
            position(1).expect("second marker delivered"),
        );
        assert!(first < tick && tick < second, "{first} {tick} {second}");
    }

    #[test]
    fn msplayer_prebuffer_session_completes() {
        let m = run(&testbed(1, quick_player()));
        let t = m.prebuffer_time().expect("prebuffer reached");
        assert!(t.as_secs_f64() > 0.5, "takes real time: {t}");
        assert!(t.as_secs_f64() < 30.0, "finishes promptly: {t}");
        // Both paths carried traffic.
        assert!(m.chunk_count(0) > 0, "wifi chunks");
        assert!(m.chunk_count(1) > 0, "lte chunks");
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = run(&testbed(42, quick_player()));
        let b = run(&testbed(42, quick_player()));
        assert_eq!(a.prebuffer_done_at, b.prebuffer_done_at);
        assert_eq!(a.chunks.len(), b.chunks.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&testbed(1, quick_player()));
        let b = run(&testbed(2, quick_player()));
        assert_ne!(a.prebuffer_done_at, b.prebuffer_done_at);
    }

    #[test]
    fn msplayer_beats_single_path_on_average() {
        let runs = 8;
        let mut ms = 0.0;
        let mut wifi = 0.0;
        for seed in 0..runs {
            ms += run(&testbed(seed, quick_player()))
                .prebuffer_time()
                .unwrap()
                .as_secs_f64();
            wifi += run(&single_path(
                seed,
                PathProfile::wifi_testbed(),
                quick_player(),
            ))
            .prebuffer_time()
            .unwrap()
            .as_secs_f64();
        }
        assert!(
            ms < wifi,
            "MSPlayer mean {:.2}s should beat WiFi-only {:.2}s",
            ms / runs as f64,
            wifi / runs as f64
        );
    }

    #[test]
    fn wifi_head_start_is_positive() {
        let m = run(&testbed(5, quick_player()));
        let hs = m.observed_head_start().expect("both paths delivered");
        assert!(hs.as_secs_f64() > 0.05, "LTE starts later than WiFi: {hs}");
        // WiFi delivered its first byte first.
        assert!(m.paths[0].first_byte_at.unwrap() < m.paths[1].first_byte_at.unwrap());
    }

    /// §3.2's head start: each path starts when its own bootstrap is
    /// done, so WiFi's first request goes out before LTE is ready. Without
    /// it (the ablation) both paths wait for the slower bootstrap and
    /// their first requests leave together.
    #[test]
    fn head_start_sends_wifi_first_request_before_lte_is_ready() {
        let first_requests = |head_start| {
            let mut player = quick_player();
            player.head_start = head_start;
            let m = run(&testbed(5, player));
            let first = |path| {
                let on_path = m.chunks.iter().filter(|c| c.path == path);
                on_path.map(|c| c.requested_at).min().expect("a chunk")
            };
            (first(0), first(1))
        };
        let (wifi, lte) = first_requests(true);
        assert!(wifi < lte, "wifi {wifi} waited for lte {lte}");
        let (wifi, lte) = first_requests(false);
        assert_eq!(wifi, lte, "without head start both paths start together");
    }

    #[test]
    fn steady_state_reaches_refills() {
        let cfg = quick_player();
        let m = run(&testbed(3, cfg).with_stop(StopCondition::AfterRefills(2)));
        assert!(m.refills.len() >= 2, "refills: {}", m.refills.len());
        for r in &m.refills {
            assert!(r.duration().as_secs_f64() > 0.0);
            assert!(r.bytes > 0);
        }
    }

    #[test]
    fn server_failure_triggers_failover_and_session_survives() {
        let mut spec = testbed(9, quick_player()).with_stop(StopCondition::AfterRefills(1));
        spec.server_failures = vec![ServerFailure {
            path: 0,
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(60),
        }];
        let m = run(&spec);
        assert!(m.paths[0].failovers >= 1, "failover happened");
        assert!(!m.refills.is_empty(), "streaming continued after failover");
    }

    #[test]
    fn wifi_outage_mid_stream_recovers_on_lte() {
        let mut spec = testbed(11, quick_player()).with_stop(StopCondition::AfterRefills(1));
        // WiFi dies from t=3s to t=20s.
        spec.paths[0].outages = Some(OutageSchedule::from_windows(vec![(
            SimTime::from_secs(3),
            SimTime::from_secs(20),
        )]));
        let m = run(&spec);
        // The session still made progress (LTE carried it).
        assert!(m.prebuffer_done_at.is_some(), "prebuffer still completed");
        assert!(m.chunk_count(1) > 0);
    }

    #[test]
    fn copyrighted_video_still_streams() {
        let service = ServiceSpec {
            copyrighted: true,
            ..ServiceSpec::testbed()
        };
        let m = SessionHost::new(service)
            .run(&testbed(13, quick_player()))
            .expect("valid spec");
        assert!(m.prebuffer_done_at.is_some());
    }

    #[test]
    fn single_path_fixed_chunks_works() {
        let m = run(&single_path(
            17,
            PathProfile::wifi_testbed(),
            PlayerConfig::commercial_single_path(ByteSize::kb(256)).with_prebuffer_secs(10.0),
        ));
        assert!(m.prebuffer_done_at.is_some());
        assert_eq!(m.num_paths(), 1, "one per-path slot");
    }

    #[test]
    fn ratio_vs_harmonic_schedulers_both_run() {
        for kind in [
            SchedulerKind::Ratio,
            SchedulerKind::Ewma,
            SchedulerKind::Harmonic,
        ] {
            let cfg = quick_player().with_scheduler(kind);
            let m = run(&testbed(21, cfg));
            assert!(m.prebuffer_done_at.is_some(), "{kind:?}");
        }
    }

    #[test]
    fn youtube_profile_sessions_run() {
        let spec = SessionSpec::new(23, PathSetup::youtube_pair(), quick_player());
        let m = SessionHost::new(ServiceSpec::youtube())
            .run(&spec)
            .expect("valid spec");
        assert!(m.prebuffer_done_at.is_some());
        let wifi_frac = m
            .traffic_fraction(0, crate::metrics::TrafficPhase::PreBuffering)
            .unwrap();
        assert!(
            wifi_frac > 0.3,
            "wifi carries substantial traffic: {wifi_frac}"
        );
    }

    #[test]
    fn three_path_session_uses_all_paths() {
        let mut paths = PathSetup::testbed_pair();
        paths.push(PathSetup::new(
            PathProfile::ethernet_testbed(),
            Network::Ethernet,
        ));
        let m = run(&SessionSpec::new(31, paths, quick_player()));
        assert!(m.prebuffer_done_at.is_some(), "prebuffer completes");
        assert_eq!(m.num_paths(), 3);
        for path in 0..3 {
            assert!(m.chunk_count(path) > 0, "path {path} carried chunks");
        }
        // All three phases' traffic fractions sum to 1.
        let total: f64 = (0..3)
            .filter_map(|p| m.traffic_fraction(p, crate::metrics::TrafficPhase::PreBuffering))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1: {total}");
    }

    #[test]
    fn host_batch_matches_individual_runs() {
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = testbed(0, quick_player());
        let seeds = [3u64, 14, 15, 92];
        let batch = host.run_batch(&seeds, &spec).expect("valid spec");
        for (i, &seed) in seeds.iter().enumerate() {
            let single = run(&testbed(seed, quick_player()));
            assert_eq!(batch[i], single, "seed {seed} diverged in batch");
        }
    }

    /// A chunk trace tells 2^15 paths apart; a spec with one more is
    /// refused by name before anything runs.
    #[test]
    fn validate_refuses_more_paths_than_a_chunk_trace_tells_apart() {
        let mut spec = testbed(1, quick_player());
        spec.paths = vec![spec.paths[0].clone(); MAX_TRACE_PATHS];
        assert_eq!(spec.validate(), Ok(()));
        spec.paths.push(spec.paths[0].clone());
        assert_eq!(
            spec.validate(),
            Err(SessionSpecError::TooManyPaths { n_paths: 32_769 })
        );
    }

    #[test]
    fn spec_validation_catches_bad_specs() {
        let base = testbed(1, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());

        let mut spec = base.clone();
        spec.paths.clear();
        assert_eq!(host.run(&spec), Err(SessionSpecError::NoPaths));

        let mut spec = base.clone();
        spec.server_failures.push(ServerFailure {
            path: 5,
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
        });
        assert_eq!(
            host.run(&spec),
            Err(SessionSpecError::FailurePathOutOfRange {
                path: 5,
                n_paths: 2
            })
        );

        let mut spec = base.clone();
        spec.server_failures.push(ServerFailure {
            path: 0,
            from: SimTime::from_secs(2),
            until: SimTime::from_secs(2),
        });
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidFailureWindow { .. })
        ));

        let mut spec = base.clone();
        spec.player.delta = 2.0;
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidPlayer(_))
        ));

        let spec = testbed(1, quick_player().with_prebuffer_secs(f64::NAN));
        assert_eq!(
            spec.validate(),
            Err(SessionSpecError::InvalidPlayer(
                "buffer thresholds must be positive".into()
            ))
        );
    }

    #[test]
    fn closed_loop_abr_switches_the_streamed_itag_mid_session() {
        use crate::config::AbrLadderConfig;
        // WiFi (10.5 Mb/s) + LTE (8.2 Mb/s) afford far more than itag 22's
        // 2.5 Mb/s: the damped rate policy must climb to 1080p mid-stream.
        let cfg = quick_player().with_abr_ladder(AbrLadderConfig::closed_loop());
        let spec = testbed(5, cfg).with_stop(StopCondition::AfterRefills(2));
        let m = run(&spec);
        let abr = m.abr.as_deref().expect("a ladder ran");
        let qoe = abr.qoe.expect("closed-loop sessions carry QoE");
        assert!(qoe.switches > 0, "no switch fired: {qoe:?}");
        assert!(
            abr.decisions.iter().any(|d| d.switched && d.itag != 22),
            "streamed itag never changed: {:?}",
            abr.switches
        );
        // Time-weighted bitrate sits between the ladder endpoints and
        // above the starting rung (the session only switched up).
        assert!(
            qoe.time_weighted_bitrate_bps > 2.5e6 && qoe.time_weighted_bitrate_bps <= 4.3e6,
            "time-weighted bitrate {} outside (2.5M, 4.3M]",
            qoe.time_weighted_bitrate_bps
        );
        assert!(qoe.switch_magnitude_bps > 0.0);
        // Deterministic replay.
        let again = run(&spec);
        assert_eq!(m, again);
    }

    #[test]
    fn closed_loop_policies_all_run_and_differ_from_shadow() {
        use crate::abr::{AbrMode, AbrPolicyKind};
        use crate::config::AbrLadderConfig;
        for policy in [AbrPolicyKind::DampedRate, AbrPolicyKind::Hybrid] {
            let abr = AbrLadderConfig::closed_loop().with_policy(policy);
            let cfg = quick_player().with_abr_ladder(abr.clone());
            let spec = testbed(7, cfg).with_stop(StopCondition::AfterRefills(1));
            let m = run(&spec);
            let trace = m.abr.as_deref().expect("a ladder ran");
            assert!(
                trace.qoe.is_some() && !trace.decisions.is_empty(),
                "{policy:?} produced no decisions"
            );
            // The shadow twin of the same policy traces decisions but
            // never switches and carries no QoE record.
            let shadow = abr.with_mode(AbrMode::Shadow);
            let mut sh_spec = spec.clone();
            sh_spec.player = quick_player().with_abr_ladder(shadow);
            let sh = run(&sh_spec);
            let sh_abr = sh.abr.as_deref().expect("a ladder ran");
            assert!(sh_abr.qoe.is_none(), "{policy:?} shadow grew QoE");
            assert!(
                sh_abr.decisions.iter().all(|d| !d.switched),
                "{policy:?} shadow switched"
            );
        }
    }

    /// A session carries an ABR trace only if a ladder ran, and QoE only if
    /// that ladder was a closed loop; the boxed traces are exact-size.
    #[test]
    fn abr_trace_is_present_iff_a_ladder_ran() {
        use crate::config::AbrLadderConfig;
        let stop = StopCondition::AfterRefills(1);
        let fixed = run(&testbed(3, quick_player()).with_stop(stop));
        assert!(fixed.abr.is_none(), "fixed rate: {:?}", fixed.abr);
        for (ladder, closed) in [
            (AbrLadderConfig::default(), false),
            (AbrLadderConfig::closed_loop(), true),
        ] {
            let cfg = quick_player().with_abr_ladder(ladder);
            let m = run(&testbed(3, cfg).with_stop(stop));
            let abr = m.abr.as_deref().expect("a ladder ran");
            assert_eq!(abr.qoe.is_some(), closed, "{:?}", abr.qoe);
            assert!(!abr.switches.is_empty() && !abr.decisions.is_empty());
            assert_eq!(abr.switches.capacity(), abr.switches.len());
            assert_eq!(abr.decisions.capacity(), abr.decisions.len());
        }
    }

    #[test]
    fn ladder_validation_rejects_malformed_ladders() {
        use crate::config::AbrLadderConfig;
        let base = testbed(1, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());

        // Empty ladder.
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // Unknown itag.
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![18, 999]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // Non-monotone bitrates (43 is 650 kb/s, 18 is 600 kb/s).
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![43, 18, 22]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // Closed-loop ladder missing the session's starting itag (22).
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::closed_loop().with_ladder(vec![18, 37]));
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidLadder { .. })
        ));

        // The same ladder is fine in shadow mode (nothing streams off 22).
        let mut spec = base.clone();
        spec.player.abr_ladder = Some(AbrLadderConfig::default().with_ladder(vec![18, 37]));
        assert!(host.run(&spec).is_ok());
    }

    #[test]
    fn chaos_sessions_are_deterministic_and_pass_the_oracle() {
        use crate::chaos::{check_invariants, ChaosPlan};
        let plan = ChaosPlan::parse(
            "skew:+250ms;token-expiry:2s;outage:path=0,dir=down,from=3s,until=5s;\
             mptcp-strip:path=1,at=2s;overload:path=0,from=1s,until=8s;\
             dns-flap:path=0,from=1s,until=20s",
        )
        .unwrap();
        let base = testbed(33, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = base.clone().with_chaos(plan);
        let a = host.run(&spec).expect("valid chaotic spec");
        let b = host.run(&spec).expect("valid chaotic spec");
        assert_eq!(a, b, "chaos must be seed-deterministic");
        let violations = check_invariants(&a);
        assert!(violations.is_empty(), "oracle violated: {violations:?}");
        // The plan actually bit: the outcome differs from the clean run.
        let clean = host.run(&base.clone()).expect("valid spec");
        assert_ne!(a, clean, "chaos plan had no observable effect");
    }

    #[test]
    fn chaos_overload_triggers_failover_and_session_survives() {
        use crate::chaos::ChaosPlan;
        let plan = ChaosPlan::parse("overload:path=0,from=1s,until=60s").unwrap();
        let base = testbed(9, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = base.clone().with_chaos(plan);
        let m = host.run(&spec).expect("valid spec");
        assert!(m.paths[0].failovers >= 1, "503s force a replica switch");
        assert!(m.prebuffer_done_at.is_some(), "session survives overload");
    }

    #[test]
    fn chaos_batch_matches_individual_runs() {
        use crate::chaos::ChaosPlan;
        let plan =
            ChaosPlan::parse("token-expiry:2s;outage:path=1,dir=up,from=1s,until=3s;jitter:500ms")
                .unwrap();
        let base = testbed(0, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = base.clone().with_chaos(plan.clone());
        let seeds = [3u64, 14, 15, 92];
        let batch = host.run_batch(&seeds, &spec).expect("valid spec");
        for (i, &seed) in seeds.iter().enumerate() {
            let mut fresh = SessionHost::new(ServiceSpec::testbed());
            let single = fresh.run(&spec.clone().with_seed(seed)).expect("valid");
            assert_eq!(batch[i], single, "seed {seed} diverged under chaos");
        }
    }

    #[test]
    fn chaos_validation_rejects_out_of_range_paths() {
        use crate::chaos::ChaosPlan;
        let plan = ChaosPlan::parse("overload:path=7,from=1s,until=2s").unwrap();
        let base = testbed(1, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let spec = base.clone().with_chaos(plan);
        assert!(matches!(
            host.run(&spec),
            Err(SessionSpecError::InvalidChaos { .. })
        ));
    }

    #[test]
    fn failure_storm_on_two_paths_survives() {
        let base = testbed(7, quick_player());
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let mut spec = base.clone().with_stop(StopCondition::AfterRefills(1));
        spec.server_failures = vec![
            ServerFailure {
                path: 0,
                from: SimTime::from_secs(2),
                until: SimTime::from_secs(40),
            },
            ServerFailure {
                path: 1,
                from: SimTime::from_secs(5),
                until: SimTime::from_secs(45),
            },
        ];
        let m = host.run(&spec).expect("valid spec");
        let total_failovers: u32 = m.paths.iter().map(|p| p.failovers).sum();
        assert!(total_failovers >= 1, "storm triggered failovers");
        assert!(m.prebuffer_done_at.is_some(), "session survived the storm");
    }
}
