//! The MSPlayer state machine (sans-I/O).
//!
//! Following the event-driven style of embedded TCP stacks, the player is a
//! pure state machine: drivers feed it [`PlayerEvent`]s with the current
//! simulated (or wall-clock) time and execute the returned
//! [`PlayerAction`]s. The same machine runs on the deterministic simulator
//! (`sim`) and on real sockets (`msim-testbed`), which is how the §5
//! "testbed" and §6 "service" experiments share one implementation.
//!
//! Responsibilities owned here (paper §2/§3.3):
//! * chunk scheduling across both paths via the configured scheduler;
//! * the ≤ `ooo_cap` out-of-order gating rule;
//! * ON/OFF playout-buffer-driven downloading;
//! * per-path failure counting and failover requests;
//! * per-phase traffic accounting (Table 1) and QoE metrics;
//! * the per-event observer: the `chunk.done`, `chunk.error`,
//!   `path.recover`, `path.failover` and `abr.decision` trace records and
//!   the chunk-fetch, chunk-error, failover and ABR counters, so every
//!   driver writes the same per-chunk trace (drivers write only the
//!   `session.*` brackets).

use crate::abr::{AbrMode, AbrPolicy, RungMap, RungTimeline, SwitchReason, DECISION_INTERVAL};
use crate::buffer::{BufferPhase, PlayoutBuffer};
use crate::chunk::{ChunkAssignment, ChunkLedger, PathId};
use crate::config::{PlayerConfig, MIN_CHUNK};
use crate::metrics::{
    AbrDecision, AbrQoe, AbrSwitch, AbrTrace, ChunkRecord, ChunkTrace, SessionMetrics,
    TrafficPhase, MAX_TRACE_CHUNK_BYTES,
};
use crate::scheduler::Scheduler;
use msim_core::telemetry::{self, LazyCounter, LazyHistogram, TraceVal};
use msim_core::time::SimTime;

// Per-event telemetry series, resolved once per process.
static ABR_DECISIONS: LazyCounter = LazyCounter::new("msp_abr_decisions_total");
static ABR_SWITCHES: LazyCounter = LazyCounter::new("msp_abr_switches_total");
static CHUNK_FETCH_US: LazyHistogram = LazyHistogram::new("msp_chunk_fetch_us");
static CHUNK_ERRORS: LazyCounter = LazyCounter::new("msp_chunk_errors_total");
static FAILOVERS: LazyCounter = LazyCounter::new("msp_failovers_total");

/// Why a chunk transfer failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkFailReason {
    /// Transport-level timeout (dead link / unreachable server).
    Timeout,
    /// HTTP 5xx from the server (failed/overloaded).
    ServerError,
    /// HTTP 403 (token or signature problem).
    Forbidden,
}

/// Input events, stamped with the time they occurred.
#[derive(Clone, Debug)]
pub enum PlayerEvent {
    /// A path finished its bootstrap (JSON decoded, video-server connection
    /// established) and can carry range requests.
    PathReady {
        /// The path in question.
        path: PathId,
    },
    /// Several paths became ready at the same instant. Drivers coalesce
    /// same-timestamp readiness wakeups into one event so the loop pops
    /// once per instant; handling is equivalent to delivering
    /// [`PlayerEvent::PathReady`] for each path in order, with one shared
    /// pump at the end.
    PathsReady {
        /// The paths, in the order their individual events would have
        /// popped.
        paths: Vec<PathId>,
    },
    /// A chunk completed on `path`.
    ChunkComplete {
        /// Path that carried the chunk.
        path: PathId,
        /// Ledger index of the chunk.
        index: u64,
        /// Bytes delivered.
        bytes: u64,
        /// When the range request was issued.
        requested_at: SimTime,
        /// When this chunk's first byte arrived: §3.3's sample runs from
        /// it, and the path's first completion records it as the path's
        /// first byte.
        first_byte_at: SimTime,
    },
    /// A chunk failed on `path`.
    ChunkFailed {
        /// Path that carried the chunk.
        path: PathId,
        /// Failure class.
        reason: ChunkFailReason,
    },
    /// The driver detected the path is unusable (e.g. WiFi outage).
    PathDown {
        /// The affected path.
        path: PathId,
    },
    /// The path is usable again (reconnected, possibly to a new server).
    PathRestored {
        /// The affected path.
        path: PathId,
    },
    /// Timer wakeup for playout-buffer transitions.
    Tick,
}

/// Output actions for the driver to execute.
#[derive(Clone, Debug, PartialEq)]
pub enum PlayerAction {
    /// Issue a range request for `assignment` on its path.
    Fetch {
        /// What to fetch and where.
        assignment: ChunkAssignment,
    },
    /// Switch `path` to the next video server in its network and
    /// re-establish the connection (robustness, §2). The driver must send
    /// `PathRestored` when done.
    Failover {
        /// The path to re-home.
        path: PathId,
    },
    /// Ask for a `Tick` at the given time (buffer self-transition or ABR
    /// decision point).
    ///
    /// **Coalescing contract:** the player keeps exactly one wakeup
    /// outstanding — a new `ScheduleTick` *supersedes* any earlier
    /// undelivered one, so drivers keep only the latest (the simulator's
    /// `Session` and the socket driver each hold it as one value). The player
    /// re-derives its desired wakeup after every event, so dropping the
    /// superseded tick can never lose a transition.
    ScheduleTick {
        /// When to tick.
        at: SimTime,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathState {
    /// Bootstrap not finished.
    NotReady,
    /// Ready, no chunk in flight.
    Idle,
    /// A chunk is in flight.
    Fetching,
    /// Down (outage or mid-failover).
    Down,
}

/// The three per-event traces of a session while it is still recording:
/// plain growable `Vec`s whose *capacity* outlives the session. A driver
/// that runs many sessions lends the same buffers to each player in turn
/// ([`Player::with_traces`] clears them, [`Player::finish`] hands them
/// back), so after the first session the hot loop's pushes stop
/// reallocating whatever the stop condition.
#[derive(Default)]
pub(crate) struct TraceBuffers {
    pub(crate) chunks: ChunkTrace,
    pub(crate) abr_decisions: Vec<AbrDecision>,
    pub(crate) abr_switches: Vec<AbrSwitch>,
}

/// Leaves an exact-size copy of `buf` in its place (cloning a `Vec` or a
/// [`ChunkTrace`] allocates exactly its length) and returns the (possibly
/// over-allocated) original.
fn swap_for_exact<T: Clone>(buf: &mut T) -> T {
    let exact = buf.clone();
    std::mem::replace(buf, exact)
}

/// The player.
pub struct Player {
    cfg: PlayerConfig,
    scheduler: Scheduler,
    ledger: ChunkLedger,
    buffer: PlayoutBuffer,
    rate_bytes_per_sec: f64,
    paths: Vec<PathState>,
    consecutive_failures: Vec<u32>,
    /// Whether the path has completed its warm-up chunk. The first chunk of
    /// a fresh connection downloads inside TCP slow start; its throughput
    /// sample under-reads the path and would permanently anchor the
    /// full-history harmonic estimator (Eq. 2 never forgets), driving the
    /// Alg. 1 double/halve rule into a runaway spiral. Standard measurement
    /// practice: the warm-up sample is excluded from estimation (but still
    /// counted in traffic metrics).
    warmed_up: Vec<bool>,
    metrics: SessionMetrics,
    /// The ABR switches and decisions recorded so far (empty without a
    /// ladder). [`Player::finish`] sets its QoE and boxes it into
    /// `metrics` if a ladder ran.
    abr_trace: AbrTrace,
    /// The wakeup most recently requested via `ScheduleTick` (the single
    /// outstanding tick under the coalescing contract).
    last_wake_requested: Option<SimTime>,
    /// ABR ladder state (shadow or closed-loop), when configured.
    abr: Option<AbrRuntime>,
    /// Whether the trace sink was on when the player was built: latched
    /// once, so the hot path tests a bool instead of an atomic.
    tracing: bool,
}

/// Runtime state of the ABR ladder (see
/// [`crate::config::AbrLadderConfig`] and [`crate::abr`]).
struct AbrRuntime {
    policy: AbrPolicy,
    next_decision_at: SimTime,
    /// Whether decisions actually switch the streamed itag.
    closed_loop: bool,
    /// Piecewise byte → video-seconds map over the ledger's (possibly
    /// mixed-rung) byte space. Single-segment until the first switch; the
    /// player bypasses all conversion while it is one segment at the
    /// starting rate, which pins no-switch sessions bit-identical to the
    /// fixed-itag player.
    rung_map: RungMap,
    /// Total video duration in seconds (derived from the starting rung).
    video_secs: f64,
    /// Streamed-rung timeline for QoE accounting.
    timeline: RungTimeline,
}

impl Player {
    /// Creates a player with per-path state for `n_paths` paths, for a
    /// stream of `total_bytes` at `bytes_per_sec` (both derived from the
    /// video format chosen from the JSON info).
    ///
    /// # Panics
    /// If `cfg` is invalid, or the stream is 2^48 bytes or longer (the
    /// chunk trace's bytes field).
    pub fn new(
        cfg: PlayerConfig,
        n_paths: usize,
        total_bytes: u64,
        bytes_per_sec: f64,
        started_at: SimTime,
    ) -> Player {
        Player::with_traces(
            cfg,
            n_paths,
            total_bytes,
            bytes_per_sec,
            started_at,
            TraceBuffers::default(),
        )
    }

    /// [`Player::new`] recording its traces into `traces` (cleared
    /// here; get them back from [`Player::finish`]).
    pub(crate) fn with_traces(
        cfg: PlayerConfig,
        n_paths: usize,
        total_bytes: u64,
        bytes_per_sec: f64,
        started_at: SimTime,
        mut traces: TraceBuffers,
    ) -> Player {
        cfg.validate().expect("invalid player config");
        // No chunk is longer than its stream, so every chunk fits the trace.
        assert!(
            total_bytes < MAX_TRACE_CHUNK_BYTES,
            "a stream of {total_bytes} bytes overflows the chunk trace's 48-bit bytes field"
        );
        let n_paths = n_paths.max(1);
        let buffer = PlayoutBuffer::new(
            total_bytes,
            bytes_per_sec,
            cfg.prebuffer_secs,
            cfg.rebuffer_secs,
        );
        let scheduler = Scheduler::new(&cfg, n_paths);
        let abr = cfg.abr_ladder.as_ref().map(|abr| {
            let formats = crate::abr::resolve_ladder(&abr.ladder);
            // The streamed starting rung is the ladder entry matching the
            // session's format; `bytes_per_sec` comes from the same format
            // table, so the match is exact for validated specs (closest
            // rung as the backstop for hand-built players).
            let start = formats
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (a.bytes_per_sec() - bytes_per_sec).abs();
                    let db = (b.bytes_per_sec() - bytes_per_sec).abs();
                    da.partial_cmp(&db).expect("finite rates")
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            let start_fmt = formats
                .get(start)
                .copied()
                .unwrap_or(*msim_youtube::format::hd_720p());
            AbrRuntime {
                policy: AbrPolicy::new(abr.policy, formats),
                next_decision_at: started_at + DECISION_INTERVAL,
                closed_loop: abr.mode == AbrMode::ClosedLoop,
                rung_map: RungMap::new(start_fmt.itag, bytes_per_sec),
                video_secs: total_bytes as f64 / bytes_per_sec,
                timeline: RungTimeline::new(started_at, start_fmt.bitrate.as_bps()),
            }
        });
        traces.chunks.clear();
        traces.abr_decisions.clear();
        traces.abr_switches.clear();
        let metrics = SessionMetrics {
            chunks: traces.chunks,
            ..SessionMetrics::for_paths(n_paths, started_at)
        };
        Player {
            cfg,
            scheduler,
            ledger: ChunkLedger::new(total_bytes),
            buffer,
            rate_bytes_per_sec: bytes_per_sec,
            paths: vec![PathState::NotReady; n_paths],
            consecutive_failures: vec![0; n_paths],
            warmed_up: vec![false; n_paths],
            metrics,
            abr_trace: AbrTrace {
                switches: traces.abr_switches,
                decisions: traces.abr_decisions,
                qoe: None,
            },
            last_wake_requested: None,
            abr,
            tracing: telemetry::trace_enabled(),
        }
    }

    /// Number of path slots this player schedules over.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// The collected metrics so far (the ABR traces join them when the
    /// player finishes).
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Consumes the player, returning final metrics.
    pub fn into_metrics(self, ended_at: SimTime) -> SessionMetrics {
        self.finish(ended_at).0
    }

    /// Consumes the player, returning final metrics — every trace an
    /// exact-size copy of what was recorded, the ABR traces boxed only if a
    /// ladder ran — and the buffers the traces grew in, for the next
    /// session.
    pub(crate) fn finish(mut self, ended_at: SimTime) -> (SessionMetrics, TraceBuffers) {
        let traces = TraceBuffers {
            chunks: swap_for_exact(&mut self.metrics.chunks),
            abr_decisions: swap_for_exact(&mut self.abr_trace.decisions),
            abr_switches: swap_for_exact(&mut self.abr_trace.switches),
        };
        self.buffer.advance_to(ended_at);
        self.metrics.prebuffer_done_at = self.buffer.prebuffer_done_at();
        self.metrics.refills = self.buffer.refills().to_vec();
        self.metrics.stalls = self.buffer.stalls().to_vec();
        self.metrics.ended_at = Some(ended_at);
        if let Some(abr) = &self.abr {
            self.abr_trace.qoe = abr.closed_loop.then(|| AbrQoe {
                time_weighted_bitrate_bps: abr.timeline.time_weighted_bitrate_bps(ended_at),
                switches: abr.timeline.switches,
                switch_magnitude_bps: abr.timeline.switch_magnitude_bps,
                switch_rebuffer: abr.timeline.switch_rebuffer(&self.metrics.stalls, ended_at),
            });
            self.metrics.abr = Some(Box::new(self.abr_trace));
        }
        (self.metrics, traces)
    }

    /// Buffer phase (for drivers' stop conditions).
    pub fn buffer_phase(&self) -> BufferPhase {
        self.buffer.phase()
    }

    /// Number of completed refill cycles so far.
    pub fn refill_count(&self) -> usize {
        self.buffer.refills().len()
    }

    /// Whether the pre-buffer target has been reached.
    pub fn prebuffer_done(&self) -> bool {
        self.buffer.prebuffer_done_at().is_some()
    }

    /// True when every byte of the stream has been fetched.
    pub fn download_complete(&self) -> bool {
        self.ledger.is_complete()
    }

    /// Feeds one event; returns the actions to execute.
    ///
    /// Convenience wrapper over [`Player::handle_into`] that allocates a
    /// fresh action buffer. Drivers with a hot event loop should hold one
    /// `Vec<PlayerAction>` and call `handle_into` to avoid the per-event
    /// allocation.
    pub fn handle(&mut self, now: SimTime, event: PlayerEvent) -> Vec<PlayerAction> {
        let mut actions = Vec::new();
        self.handle_into(now, event, &mut actions);
        actions
    }

    /// Feeds one event, appending the actions to execute onto `actions`
    /// (which is *not* cleared — the caller owns its lifecycle).
    pub fn handle_into(
        &mut self,
        now: SimTime,
        event: PlayerEvent,
        actions: &mut Vec<PlayerAction>,
    ) {
        self.observe(now, &event);
        let mut failed_over = None;
        match event {
            PlayerEvent::PathReady { path } => {
                debug_assert!(path < self.paths.len());
                if self.paths[path] == PathState::NotReady {
                    self.paths[path] = PathState::Idle;
                }
            }
            PlayerEvent::PathsReady { paths } => {
                // Coalesced same-instant readiness: mark every path, pump
                // once (below). Path order matches the order the individual
                // events would have popped, so chunk assignment is
                // unchanged.
                for path in paths {
                    debug_assert!(path < self.paths.len());
                    if self.paths[path] == PathState::NotReady {
                        self.paths[path] = PathState::Idle;
                    }
                }
            }
            PlayerEvent::ChunkComplete {
                path,
                index,
                bytes,
                requested_at,
                first_byte_at,
            } => {
                let contiguous = self.ledger.complete(index);
                self.paths[path] = PathState::Idle;
                self.consecutive_failures[path] = 0;
                if self.metrics.paths[path].first_byte_at.is_none() {
                    self.metrics.paths[path].first_byte_at = Some(first_byte_at);
                }
                // Throughput sample w = S / T where T is "the time required
                // to download chunk S" (§3.3) — first byte to last byte.
                // Using request-to-completion instead would deflate samples
                // for small chunks (the request RTT is overhead, not
                // download), anchoring the estimate low and trapping the
                // Alg. 1 halving rule at the 16 KB floor.
                if now > first_byte_at && bytes > 0 {
                    let chunk = ChunkRecord {
                        path,
                        bytes,
                        requested_at,
                        first_byte_at,
                        completed_at: now,
                        phase: if self.buffer.prebuffer_done_at().is_some() {
                            TrafficPhase::ReBuffering
                        } else {
                            TrafficPhase::PreBuffering
                        },
                    };
                    if self.warmed_up[path] {
                        self.scheduler.on_sample(path, chunk.goodput_bps());
                    } else {
                        self.warmed_up[path] = true;
                    }
                    self.metrics.chunks.push(chunk);
                }
                let units = self.buffer_units(contiguous);
                self.buffer.on_playable(now, units);
            }
            PlayerEvent::ChunkFailed { path, reason } => {
                self.ledger.abort_in_flight(path);
                self.consecutive_failures[path] += 1;
                if self.consecutive_failures[path] >= self.cfg.failures_before_switch
                    && reason != ChunkFailReason::Timeout
                {
                    // Server-side trouble: switch to another replica in the
                    // same network (§2 robustness). Timeouts are link
                    // trouble; the driver signals PathDown for those.
                    self.paths[path] = PathState::Down;
                    self.scheduler.reset_path(path);
                    self.warmed_up[path] = false;
                    self.consecutive_failures[path] = 0;
                    self.metrics.paths[path].failovers += 1;
                    actions.push(PlayerAction::Failover { path });
                    failed_over = Some(path);
                } else {
                    self.paths[path] = PathState::Idle;
                }
            }
            PlayerEvent::PathDown { path } => {
                self.ledger.abort_in_flight(path);
                self.paths[path] = PathState::Down;
                self.scheduler.reset_path(path);
                self.warmed_up[path] = false;
            }
            PlayerEvent::PathRestored { path } => {
                if self.paths[path] == PathState::Down {
                    self.paths[path] = PathState::Idle;
                }
            }
            PlayerEvent::Tick => {
                self.buffer.advance_to(now);
            }
        }
        self.pump(now, actions);
        // Traced after the pump, so it follows the pump's `abr.decision`.
        if let Some(path) = failed_over {
            FAILOVERS.add(1);
            if self.tracing {
                telemetry::trace(
                    "path.failover",
                    now.as_micros(),
                    &[("path", TraceVal::U64(path as u64))],
                );
            }
        }
    }

    /// The observer half of [`Player::handle_into`]: counts and traces
    /// `event` before the player acts on it. Reads nothing the session
    /// computes with, so it never perturbs the session.
    fn observe(&self, now: SimTime, event: &PlayerEvent) {
        let (path, reason, link_down) = match *event {
            PlayerEvent::ChunkComplete {
                path,
                index,
                bytes,
                requested_at,
                ..
            } => {
                CHUNK_FETCH_US.observe(now.as_micros().saturating_sub(requested_at.as_micros()));
                if self.tracing {
                    telemetry::trace(
                        "chunk.done",
                        now.as_micros(),
                        &[
                            ("path", TraceVal::U64(path as u64)),
                            ("index", TraceVal::U64(index)),
                            ("bytes", TraceVal::U64(bytes)),
                            ("requested_us", TraceVal::U64(requested_at.as_micros())),
                        ],
                    );
                }
                return;
            }
            PlayerEvent::PathRestored { path } => {
                if self.tracing {
                    telemetry::trace(
                        "path.recover",
                        now.as_micros(),
                        &[("path", TraceVal::U64(path as u64))],
                    );
                }
                return;
            }
            PlayerEvent::ChunkFailed { path, reason } => (path, reason, false),
            PlayerEvent::PathDown { path } => (path, ChunkFailReason::Timeout, true),
            PlayerEvent::PathReady { .. } | PlayerEvent::PathsReady { .. } | PlayerEvent::Tick => {
                return
            }
        };
        CHUNK_ERRORS.add(1);
        if self.tracing {
            telemetry::trace(
                "chunk.error",
                now.as_micros(),
                &[
                    ("path", TraceVal::U64(path as u64)),
                    ("reason", TraceVal::Str(format!("{reason:?}"))),
                    ("link_down", TraceVal::U64(link_down as u64)),
                ],
            );
        }
    }

    /// Issues work to every idle path, respecting the download gate and the
    /// out-of-order cap, then arranges the next tick.
    fn pump(&mut self, now: SimTime, actions: &mut Vec<PlayerAction>) {
        self.buffer.advance_to(now);
        if self.buffer.wants_download() {
            for path in 0..self.paths.len() {
                if self.paths[path] != PathState::Idle {
                    continue;
                }
                if self.ledger.has_in_flight(path) {
                    continue;
                }
                // Out-of-order cap (§2: at most `ooo_cap` completed chunks
                // held ahead of the playable prefix). A path whose next
                // chunk would be out of order must wait while the cap is
                // reached.
                if self.ledger.ooo_completed() >= self.cfg.ooo_cap
                    && self.ledger.next_would_be_ooo(path)
                {
                    continue;
                }
                let size = self.next_chunk_len(path);
                if size == 0 {
                    continue;
                }
                if let Some(assignment) = self.ledger.assign(path, size) {
                    self.paths[path] = PathState::Fetching;
                    actions.push(PlayerAction::Fetch { assignment });
                }
            }
        }
        // ABR ladder: one quality decision per elapsed interval boundary,
        // from the aggregate estimate and the buffer level. In closed-loop
        // mode a rung change re-plans the remaining chunk map and switches
        // the streamed itag; in shadow mode it is traced only.
        if let Some(abr) = &mut self.abr {
            if now >= abr.next_decision_at && !self.buffer.finished() {
                let estimate = self.scheduler.aggregate_estimate_bps();
                let level = self.buffer.level_secs();
                let before = abr.policy.ladder()[abr.policy.current_index()].itag;
                let (rung, reason) = abr.policy.decide(estimate, level);
                let format = abr.policy.ladder()[rung];
                if format.itag != before || matches!(reason, SwitchReason::Initial) {
                    self.abr_trace.switches.push(AbrSwitch {
                        at: now,
                        itag: format.itag,
                        reason,
                    });
                }
                // Closed loop: adopt the selected rung for everything not
                // yet planned. In-flight requests and holes keep their
                // already-assigned ranges (old rung); the estimators and
                // per-path scheduler state carry across untouched.
                let mut switched = false;
                if abr.closed_loop
                    && format.itag != abr.rung_map.current().itag
                    && !self.ledger.is_complete()
                {
                    let frontier = self.ledger.frontier();
                    let frontier_secs = abr.rung_map.secs_at(frontier);
                    let new_bps = format.bytes_per_sec();
                    let remaining_secs = (abr.video_secs - frontier_secs).max(0.0);
                    let new_total = frontier + (remaining_secs * new_bps).round() as u64;
                    self.ledger.retarget_total(new_total);
                    abr.rung_map
                        .push(frontier, frontier_secs, new_bps, format.itag);
                    abr.timeline.switch_to(now, format.bitrate.as_bps());
                    switched = true;
                }
                self.abr_trace.decisions.push(AbrDecision {
                    at: now,
                    itag: format.itag,
                    estimate_bps: estimate.unwrap_or(0.0),
                    buffer_secs: level,
                    reason,
                    switched,
                });
                ABR_DECISIONS.add(1);
                if switched {
                    ABR_SWITCHES.add(1);
                }
                if self.tracing {
                    telemetry::trace(
                        "abr.decision",
                        now.as_micros(),
                        &[
                            ("itag", TraceVal::U64(format.itag as u64)),
                            ("switched", TraceVal::U64(switched as u64)),
                            ("buffer_secs", TraceVal::F64(level)),
                            ("reason", TraceVal::Str(format!("{reason:?}"))),
                        ],
                    );
                }
                while abr.next_decision_at <= now {
                    abr.next_decision_at += DECISION_INTERVAL;
                }
            }
        }
        // Keep exactly one wakeup pending: the earlier of the next buffer
        // self-transition and the next ABR decision. A changed request
        // supersedes the previous one (the driver drops it), so stale
        // wakeups never fire and a same-instant request is made once.
        let buffer_next = self.buffer.next_event_after(now);
        let abr_next = match &self.abr {
            Some(abr) if !self.buffer.finished() => Some(abr.next_decision_at),
            _ => None,
        };
        let wake = match (buffer_next, abr_next) {
            (Some(b), Some(a)) => Some(b.min(a)),
            (b, a) => b.or(a),
        };
        if let Some(at) = wake {
            if self.last_wake_requested != Some(at) {
                self.last_wake_requested = Some(at);
                actions.push(PlayerAction::ScheduleTick { at });
            }
        }
    }

    /// The next chunk length for `path` in bytes.
    fn next_chunk_len(&self, path: PathId) -> u64 {
        if self.cfg.single_request_prebuffer && self.buffer.prebuffer_done_at().is_none() {
            // Commercial-player emulation: the whole pre-buffer amount as
            // one request (clamped to what remains).
            let target = (self.cfg.prebuffer_secs * self.rate_bytes_per_sec) as u64;
            let already = self.ledger.contiguous_bytes();
            return target.saturating_sub(already).max(MIN_CHUNK.as_u64());
        }
        self.scheduler.chunk_size(path).as_u64()
    }

    /// Completed-but-unplayable chunk count (exposed for tests/invariants).
    pub fn ooo_completed(&self) -> usize {
        self.ledger.ooo_completed()
    }

    /// Converts the ledger's (possibly mixed-rung) contiguous byte counter
    /// into the playout buffer's byte space, which is the starting rung's
    /// for the whole session. While every planned byte is at the starting
    /// rate the raw counter passes through untouched: the bit-identity
    /// guarantee for no-switch sessions. A switch at frontier 0 rewrites
    /// the one segment's rate, so the test is on the rate, not on
    /// [`RungMap::is_single`]. Otherwise bytes map through the rung map
    /// into video seconds and back out at the starting rate; `secs_at` is
    /// monotone, so the prefix never shrinks.
    fn buffer_units(&self, contiguous: u64) -> f64 {
        match &self.abr {
            Some(abr)
                if !abr.rung_map.is_single()
                    || abr.rung_map.current().bytes_per_sec != self.rate_bytes_per_sec =>
            {
                let units = abr.rung_map.secs_at(contiguous) * self.rate_bytes_per_sec;
                if self.ledger.is_complete() {
                    // This defines "done" in buffer space: the last chunk
                    // ends the stream, whichever side of the buffer's
                    // total video seconds × the starting rate lands on.
                    units.max(self.buffer.total_bytes())
                } else {
                    units
                }
            }
            _ => contiguous as f64,
        }
    }

    /// The itag a range request starting at `byte` streams, for drivers
    /// that admit requests per format. `None` for fixed-rate and shadow
    /// sessions (the stream stays at the session's itag).
    pub fn itag_for_byte(&self, byte: u64) -> Option<u32> {
        self.abr
            .as_ref()
            .filter(|abr| abr.closed_loop)
            .map(|abr| abr.rung_map.itag_at(byte))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AbrLadderConfig;
    use msim_core::time::SimDuration;
    use msim_core::units::ByteSize;

    const RATE: f64 = 312_500.0; // 2.5 Mbit/s in bytes/s
    const TOTAL: u64 = 312_500 * 600; // 10 minutes

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn player(cfg: PlayerConfig) -> Player {
        Player::new(cfg, 2, TOTAL, RATE, SimTime::ZERO)
    }

    fn fetches(actions: &[PlayerAction]) -> Vec<ChunkAssignment> {
        actions
            .iter()
            .filter_map(|a| match a {
                PlayerAction::Fetch { assignment } => Some(*assignment),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn no_work_before_paths_ready() {
        let mut p = player(PlayerConfig::default());
        let actions = p.handle(SimTime::ZERO, PlayerEvent::Tick);
        assert!(fetches(&actions).is_empty());
    }

    #[test]
    fn both_paths_get_initial_chunks() {
        let mut p = player(PlayerConfig::default());
        let a0 = p.handle(secs(0.5), PlayerEvent::PathReady { path: 0 });
        let f0 = fetches(&a0);
        assert_eq!(f0.len(), 1, "fast path starts alone (head start)");
        assert_eq!(f0[0].path, 0);
        assert_eq!(f0[0].range.start, 0);
        let a1 = p.handle(secs(0.9), PlayerEvent::PathReady { path: 1 });
        let f1 = fetches(&a1);
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].path, 1);
        assert_eq!(f1[0].range.start, f0[0].range.len(), "sequential ranges");
    }

    #[test]
    fn chunk_completion_reissues_work() {
        let mut p = player(PlayerConfig::default());
        let a0 = p.handle(secs(0.5), PlayerEvent::PathReady { path: 0 });
        let f0 = fetches(&a0)[0];
        let a1 = p.handle(
            secs(1.0),
            PlayerEvent::ChunkComplete {
                path: 0,
                index: f0.index,
                bytes: f0.range.len(),
                requested_at: secs(0.5),
                first_byte_at: secs(0.6),
            },
        );
        let f1 = fetches(&a1);
        assert_eq!(f1.len(), 1, "path 0 re-armed");
        assert_eq!(p.metrics().paths[0].first_byte_at, Some(secs(0.6)));
        assert_eq!(p.metrics().chunks.len(), 1);
    }

    /// A path's first byte (§3.2's head start) is its first chunk's; a
    /// later chunk on the path does not move it.
    #[test]
    fn a_paths_first_byte_is_its_first_chunks() {
        let mut p = player(PlayerConfig::default());
        let mut next = fetches(&p.handle(secs(0.5), PlayerEvent::PathReady { path: 0 }))[0];
        for t in [1.0, 2.0] {
            let actions = p.handle(
                secs(t),
                PlayerEvent::ChunkComplete {
                    path: 0,
                    index: next.index,
                    bytes: next.range.len(),
                    requested_at: secs(t - 0.5),
                    first_byte_at: secs(t - 0.4),
                },
            );
            next = fetches(&actions)[0];
        }
        let m = p.metrics();
        assert_eq!(m.chunks.len(), 2);
        assert_eq!(m.paths[0].first_byte_at, Some(secs(0.6)));
        assert_eq!(m.chunks.get(0).map(|c| c.first_byte_at), Some(secs(0.6)));
        assert_eq!(m.paths[1].first_byte_at, None, "path 1 never delivered");
    }

    /// §3.3: a throughput sample is the chunk's bytes over the time from
    /// its first byte to its last, not from its request.
    #[test]
    fn throughput_sample_runs_from_first_byte_to_last() {
        let mut p = player(PlayerConfig::default());
        let f0 = fetches(&p.handle(secs(0.5), PlayerEvent::PathReady { path: 0 }))[0];
        let bytes = f0.range.len();
        p.handle(
            secs(1.0),
            PlayerEvent::ChunkComplete {
                path: 0,
                index: f0.index,
                bytes,
                requested_at: secs(0.2),
                first_byte_at: secs(0.6),
            },
        );
        let chunk = p.metrics().chunks.last().expect("recorded");
        assert_eq!(chunk.goodput_bps(), bytes as f64 * 8.0 / 0.4);
        assert_eq!(chunk.requested_at, secs(0.2));
        assert_eq!(chunk.first_byte_at, secs(0.6));
    }

    /// The first chunk of a path downloads inside slow start: it is
    /// recorded but does not reach the estimator; the second one does.
    #[test]
    fn the_warm_up_chunk_is_recorded_but_not_estimated() {
        let mut p = player(PlayerConfig::default());
        let mut next = fetches(&p.handle(secs(0.5), PlayerEvent::PathReady { path: 0 }))[0];
        // Two different samples: the estimate tells which one it holds.
        for (i, (t, transfer)) in [(1.0, 0.4), (2.0, 0.1)].into_iter().enumerate() {
            let actions = p.handle(
                secs(t),
                PlayerEvent::ChunkComplete {
                    path: 0,
                    index: next.index,
                    bytes: next.range.len(),
                    requested_at: secs(t - 0.5),
                    first_byte_at: secs(t - transfer),
                },
            );
            assert_eq!(p.metrics().chunks.len(), i + 1);
            next = fetches(&actions)[0];
        }
        let second = p.metrics().chunks.get(1).expect("recorded").goodput_bps();
        let estimate = p.scheduler.aggregate_estimate_bps().expect("one sample");
        assert!(
            (estimate - second).abs() <= 1e-9 * second,
            "estimate {estimate} is not the second sample {second} alone"
        );
    }

    #[test]
    fn ooo_cap_blocks_runahead_path() {
        let cfg = PlayerConfig::default();
        let mut p = player(cfg);
        let f0 = fetches(&p.handle(secs(0.1), PlayerEvent::PathReady { path: 0 }))[0];
        let f1 = fetches(&p.handle(secs(0.1), PlayerEvent::PathReady { path: 1 }))[0];
        // Path 1 completes its chunk while path 0's is still in flight:
        // 1 OOO chunk stored → path 1 may fetch one more (the gate counts
        // *completed* OOO chunks vs cap=1... completing makes it 1).
        let a = p.handle(
            secs(0.5),
            PlayerEvent::ChunkComplete {
                path: 1,
                index: f1.index,
                bytes: f1.range.len(),
                requested_at: secs(0.1),
                first_byte_at: secs(0.2),
            },
        );
        assert_eq!(p.ooo_completed(), 1);
        assert!(
            fetches(&a).is_empty(),
            "path 1 blocked: another chunk would strand a second OOO chunk"
        );
        // Path 0 completes: prefix folds, path 0 and 1 both resume.
        let a = p.handle(
            secs(0.9),
            PlayerEvent::ChunkComplete {
                path: 0,
                index: f0.index,
                bytes: f0.range.len(),
                requested_at: secs(0.1),
                first_byte_at: secs(0.2),
            },
        );
        assert_eq!(p.ooo_completed(), 0);
        assert_eq!(fetches(&a).len(), 2, "both paths re-armed");
    }

    #[test]
    fn failover_requested_after_server_error() {
        let cfg = PlayerConfig::default(); // failures_before_switch = 1
        let mut p = player(cfg);
        let _ = p.handle(secs(0.1), PlayerEvent::PathReady { path: 0 });
        let actions = p.handle(
            secs(0.5),
            PlayerEvent::ChunkFailed {
                path: 0,
                reason: ChunkFailReason::ServerError,
            },
        );
        assert!(
            actions.contains(&PlayerAction::Failover { path: 0 }),
            "server error triggers failover: {actions:?}"
        );
        assert_eq!(p.metrics().paths[0].failovers, 1);
        // While down, no fetches on path 0.
        assert!(fetches(&actions).iter().all(|f| f.path != 0));
        // Restoration re-arms it.
        let actions = p.handle(secs(1.0), PlayerEvent::PathRestored { path: 0 });
        assert_eq!(fetches(&actions).len(), 1);
    }

    #[test]
    fn timeout_does_not_failover_but_retries() {
        let mut p = player(PlayerConfig::default());
        let _ = p.handle(secs(0.1), PlayerEvent::PathReady { path: 0 });
        let actions = p.handle(
            secs(0.5),
            PlayerEvent::ChunkFailed {
                path: 0,
                reason: ChunkFailReason::Timeout,
            },
        );
        assert!(!actions.contains(&PlayerAction::Failover { path: 0 }));
        assert_eq!(fetches(&actions).len(), 1, "retry on the same server");
    }

    #[test]
    fn path_down_reassigns_hole_to_survivor() {
        let mut p = player(PlayerConfig::default());
        let f0 = fetches(&p.handle(secs(0.1), PlayerEvent::PathReady { path: 0 }))[0];
        let f1 = fetches(&p.handle(secs(0.1), PlayerEvent::PathReady { path: 1 }))[0];
        // Path 0 dies mid-flight.
        let _ = p.handle(secs(0.5), PlayerEvent::PathDown { path: 0 });
        // Path 1 completes; next assignment must fill path 0's hole.
        let a = p.handle(
            secs(0.8),
            PlayerEvent::ChunkComplete {
                path: 1,
                index: f1.index,
                bytes: f1.range.len(),
                requested_at: secs(0.1),
                first_byte_at: secs(0.2),
            },
        );
        let fs = fetches(&a);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].path, 1);
        assert_eq!(fs[0].range.start, f0.range.start, "hole filled first");
    }

    #[test]
    fn single_request_prebuffer_mode_issues_one_big_chunk() {
        let cfg = PlayerConfig::commercial_single_path(ByteSize::kb(64));
        let mut p = player(cfg.clone());
        let a = p.handle(secs(0.2), PlayerEvent::PathReady { path: 0 });
        let fs = fetches(&a);
        assert_eq!(fs.len(), 1);
        let expected = (cfg.prebuffer_secs * RATE) as u64;
        assert_eq!(
            fs[0].range.len(),
            expected,
            "whole pre-buffer in one request"
        );
    }

    #[test]
    fn download_pauses_when_buffer_is_full() {
        let mut p = player(PlayerConfig::default());
        let f0 = fetches(&p.handle(secs(0.1), PlayerEvent::PathReady { path: 0 }))[0];
        // Deliver the whole pre-buffer worth in one completion.
        let prebuffer_bytes = (40.0 * RATE) as u64;
        // Manually complete a huge chunk: first grow it via ledger by
        // completing f0 then asking again isn't one event... simulate by
        // completing f0 with its own size, then feeding a second chunk.
        let mut t = 1.0;
        let mut index = f0.index;
        let mut done = f0.range.len();
        let mut pending = f0;
        loop {
            let actions = p.handle(
                secs(t),
                PlayerEvent::ChunkComplete {
                    path: 0,
                    index,
                    bytes: pending.range.len(),
                    requested_at: secs(t - 0.2),
                    first_byte_at: secs(0.2),
                },
            );
            if done >= prebuffer_bytes {
                assert!(
                    fetches(&actions).is_empty(),
                    "no fetches once pre-buffer reached (OFF period)"
                );
                break;
            }
            let fs = fetches(&actions);
            assert_eq!(fs.len(), 1, "keep fetching until target");
            pending = fs[0];
            index = pending.index;
            done += pending.range.len();
            t += 0.2;
        }
        assert!(p.prebuffer_done());
        assert_eq!(p.buffer_phase(), BufferPhase::PlayingOff);
    }

    /// A closed-loop player on the two-rung ladder 144p / 720p, streaming
    /// 60 s of video from 720p.
    fn two_rung_player() -> Player {
        let cfg = PlayerConfig::default()
            .with_abr_ladder(AbrLadderConfig::closed_loop().with_ladder(vec![17, 22]));
        Player::new(cfg, 2, 60 * RATE as u64, RATE, SimTime::ZERO)
    }

    /// Serves `p` from the `actions` it returned at `now` until playback
    /// finishes or `limit` passes: a fetch of `n` bytes completes `n / bytes_per_sec` after it
    /// is issued, its first byte at once, and every requested tick fires.
    /// `each` sees the player after every completion. Returns the instant
    /// of the last event.
    fn serve(
        p: &mut Player,
        mut now: SimTime,
        mut actions: Vec<PlayerAction>,
        bytes_per_sec: f64,
        limit: SimTime,
        mut each: impl FnMut(&Player),
    ) -> SimTime {
        let (mut in_flight, mut tick) = (Vec::new(), None);
        while !p.buffer.finished() && now < limit {
            for action in actions.drain(..) {
                match action {
                    PlayerAction::Fetch { assignment } => {
                        let took = assignment.range.len() as f64 / bytes_per_sec;
                        in_flight.push((now, now + SimDuration::from_secs_f64(took), assignment));
                    }
                    PlayerAction::ScheduleTick { at } => tick = Some(at),
                    PlayerAction::Failover { .. } => panic!("no path fails here"),
                }
            }
            let next_fetch = (0..in_flight.len())
                .min_by_key(|&i| in_flight[i].1)
                .filter(|&i| tick.is_none_or(|t| in_flight[i].1 <= t));
            if let Some(i) = next_fetch {
                let (requested_at, done, f) = in_flight.swap_remove(i);
                now = done;
                let complete = PlayerEvent::ChunkComplete {
                    path: f.path,
                    index: f.index,
                    bytes: f.range.len(),
                    requested_at,
                    first_byte_at: requested_at,
                };
                actions = p.handle(now, complete);
                each(p);
            } else if let Some(t) = tick.take() {
                now = t;
                actions = p.handle(now, PlayerEvent::Tick);
            } else {
                break;
            }
        }
        now
    }

    /// The first ABR decision (0.25 s, no estimate yet: the floor) comes
    /// before any path is ready, so the switch lands at frontier 0 and
    /// rewrites the rung map's one segment. The buffer still counts 720p
    /// bytes, so the 144p stream must be converted, not passed through: a
    /// 144p byte read as a 720p byte would never fill the prebuffer.
    #[test]
    fn a_switch_before_the_first_assignment_still_plays_the_whole_video() {
        let mut p = two_rung_player();
        p.handle(secs(0.3), PlayerEvent::Tick);
        let abr = p.abr.as_ref().expect("closed loop");
        assert!(abr.rung_map.is_single(), "the switch replaced segment 0");
        assert_eq!(abr.rung_map.current().itag, 17);
        let actions = p.handle(secs(0.5), PlayerEvent::PathsReady { paths: vec![0, 1] });
        // 100 KB/s a path affords 144p but never 720p: the session stays
        // on the rung it switched to.
        let end = serve(&mut p, secs(0.5), actions, 100_000.0, secs(600.0), |_| {});
        assert!(p.buffer.finished(), "{:?} at {end}", p.buffer_phase());
        assert!(p.buffer.stalls().is_empty());
        let started = p.buffer.prebuffer_done_at().expect("playback started");
        let played = end.saturating_since(started).as_secs_f64();
        assert!((played - 60.0).abs() < 1e-6, "played {played} s of 60");
    }

    /// A switch after the first assignments leaves a two-segment stream.
    /// The buffer reads all-fetched at the last chunk and not before, and
    /// playback ends `Finished`, not `Stalled`.
    #[test]
    fn a_switching_player_reads_all_fetched_exactly_at_the_last_chunk() {
        let mut p = two_rung_player();
        let actions = p.handle(secs(0.1), PlayerEvent::PathsReady { paths: vec![0, 1] });
        let mut completions = 0;
        serve(&mut p, secs(0.1), actions, 100_000.0, secs(600.0), |p| {
            completions += 1;
            assert_eq!(p.buffer.all_fetched(), p.ledger.is_complete());
        });
        let abr = p.abr.as_ref().expect("closed loop");
        assert_eq!(abr.rung_map.segments().len(), 2, "one switch, mid-stream");
        assert!(p.download_complete(), "after {completions} completions");
        assert_eq!(p.buffer_phase(), BufferPhase::Finished);
    }

    #[test]
    fn ticks_resume_downloading_at_low_watermark() {
        let mut p = player(PlayerConfig::default());
        let mut pending = fetches(&p.handle(secs(0.0), PlayerEvent::PathReady { path: 0 }));
        // Complete chunks (capturing the follow-up fetch each completion
        // triggers) until the pre-buffer target is reached.
        let mut t = 0.0;
        while !p.prebuffer_done() {
            let f = pending
                .pop()
                .expect("a fetch is always in flight while filling");
            t += 0.3;
            let actions = p.handle(
                secs(t),
                PlayerEvent::ChunkComplete {
                    path: 0,
                    index: f.index,
                    bytes: f.range.len(),
                    requested_at: secs(t - 0.3),
                    first_byte_at: secs(0.1),
                },
            );
            pending.extend(fetches(&actions));
            assert!(t < 120.0, "prebuffer never completed");
        }
        assert!(
            pending.is_empty(),
            "no further fetches once the target is reached"
        );
        // Now in OFF period; tick far enough ahead to cross the watermark.
        let wait = 40.0 - 10.0 + 1.0;
        let actions = p.handle(secs(t + wait), PlayerEvent::Tick);
        assert!(
            !fetches(&actions).is_empty(),
            "ON cycle re-arms the paths: {actions:?}"
        );
    }
}
