//! The sweep coordinator: lease shards, survive workers, merge
//! crash-identically.
//!
//! The coordinator expands the manifest, then leases shards to workers
//! and reacts to what comes back on a single event channel (every worker
//! gets a reader thread feeding it — see [`msim_testbed::lines`]):
//!
//! * **Crashes** — a closed stream requeues the worker's lease (capped
//!   exponential backoff on the attempt count) and, in spawned mode,
//!   replaces the worker from a bounded respawn budget.
//! * **Hangs and stragglers** — leases carry deadlines, extended by
//!   heartbeats (which workers pace by wall time — see
//!   [`protocol`](super::protocol) — so a lease timeout must span several
//!   paces); an expired lease is speculatively re-leased while the
//!   original worker keeps running. Whichever completion arrives first
//!   wins; later duplicates are fingerprint-compared and a mismatch is
//!   recorded as a determinism violation (the one thing this
//!   infrastructure exists to catch).
//! * **Corrupt frames** — garbage or unparseable lines condemn the
//!   worker (requeue + replace): a peer that frames garbage once cannot
//!   be trusted about anything else.
//! * **Poison shards** — a shard exceeding `max_attempts` is executed
//!   inline by the coordinator itself, which also serves as the
//!   last-resort progress guarantee when no workers are available.
//!
//! Completed shards are journaled to an append-only [`Checkpoint`]
//! before anything else sees them, so a coordinator crash resumes
//! without re-running finished work — and the merged artifact is
//! bit-identical either way.
//!
//! ## What a run costs beyond its workers' compute
//!
//! A run is its workers' simulation time plus what the coordinator adds
//! in series, and the provenance says how much that was (`phases_us`):
//!
//! * `startup` (entry → first lease): expansion, checkpoint replay and
//!   one spawn-to-`Ready` latency. The first top-up spawns the whole pool
//!   before the loop first blocks, so the latency is paid once whatever
//!   the worker count; replacements come one per tick.
//! * `leasing` (first lease → last completion): the workers' compute plus
//!   one `Done` → `Lease` round trip a shard. Leases are not prefetched: a
//!   queued lease would save that ≈ 0.1 ms and could strand a
//!   multi-millisecond shard behind a busy worker at the tail.
//! * `drain`: `Shutdown` to every worker, then their streams closing.
//! * `reap`: waiting on the children. A worker that has closed its stdout
//!   is not always a zombie yet, so the wait polls, backing off from
//!   50 µs (doubling to a 10 ms cap) instead of sleeping a fixed 10 ms.
//! * `merge`: the deterministic merge of the accepted rows.
//!
//! Whatever way `run_cluster` returns (an error included), no spawned
//! child outlives it: a worker slot kills and waits its child when
//! dropped.

use super::checkpoint::{Checkpoint, CheckpointRecord};
use super::manifest::SweepManifest;
use super::merge::{merge_rows, row_for, CellRow, DIGEST_EPOCH};
use super::protocol::Frame;
use super::worker::WorkerChaos;
use crate::sweep::{Cell, HostCache};
use msim_json::Value;
use msim_testbed::{spawn_line_reader, LineEvent, LineServer, LineWriter};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How workers are obtained.
#[derive(Clone, Debug)]
pub enum Transport {
    /// Spawn worker child processes running `<program> worker` and speak
    /// over their stdio. Crashed workers are respawned from a bounded
    /// budget.
    Spawn {
        /// The worker executable (normally the `msplayer-sweepd` binary;
        /// tests pass `env!("CARGO_BIN_EXE_msplayer-sweepd")`).
        program: PathBuf,
    },
    /// Bind `addr` and accept workers that connect (multi-host mode).
    /// The coordinator cannot respawn TCP workers; it falls back to
    /// inline execution if they all disappear.
    Tcp {
        /// Bind address, e.g. `127.0.0.1:0`.
        addr: String,
    },
}

/// Full coordinator configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// What to sweep.
    pub manifest: SweepManifest,
    /// Target worker count.
    pub workers: usize,
    /// Lease deadline; heartbeats extend it. Expired leases are
    /// speculatively re-leased. Keep it at or above
    /// [`MIN_LEASE_TIMEOUT`](super::worker::MIN_LEASE_TIMEOUT).
    pub lease_timeout: Duration,
    /// Attempts before the coordinator runs a shard inline.
    pub max_attempts: u64,
    /// Base of the capped exponential retry backoff.
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_cap: Duration,
    /// Checkpoint journal path (`None` = no checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// Abort (simulating a coordinator crash) after this many shard
    /// completions *in this run* — the resume tests' lever.
    pub stop_after_shards: Option<u64>,
    /// Per-initial-slot chaos directives for spawned workers
    /// (respawned replacements are always clean).
    pub worker_chaos: Vec<Option<WorkerChaos>>,
    /// Worker transport.
    pub transport: Transport,
    /// When set, the coordinator refreshes this slot every scheduling
    /// tick with a JSON snapshot of shard/lease/worker state — the
    /// `/jobs` endpoint body (see [`msim_testbed::ObsServer`]).
    pub jobs_state: Option<Arc<Mutex<String>>>,
}

impl ClusterConfig {
    /// Defaults: 2 spawned workers, 10 s leases, 4 attempts, 50 ms–2 s
    /// backoff, no checkpoint.
    pub fn new(manifest: SweepManifest, program: PathBuf) -> ClusterConfig {
        ClusterConfig {
            manifest,
            workers: 2,
            lease_timeout: Duration::from_secs(10),
            max_attempts: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            checkpoint: None,
            stop_after_shards: None,
            worker_chaos: Vec::new(),
            transport: Transport::Spawn { program },
            jobs_state: None,
        }
    }
}

/// Fault-handling counters for provenance and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Leases requeued (crash, expiry, fail frame, protocol error).
    pub reassignments: u64,
    /// Duplicate completions received (speculation or chaos).
    pub duplicates: u64,
    /// Garbage/unparseable frames received.
    pub protocol_errors: u64,
    /// Workers replaced after death (spawn mode).
    pub respawns: u64,
    /// Shards the coordinator ran inline.
    pub inline_runs: u64,
    /// Shards restored from the checkpoint instead of run.
    pub resumed_shards: u64,
}

/// What a coordinator run produced.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Did every shard complete (false after `stop_after_shards` or an
    /// interrupt)?
    pub completed: bool,
    /// The deterministic merged artifact — present iff `completed`.
    /// Bit-identical to the serial reference by construction.
    pub artifact: Option<Value>,
    /// The nondeterministic side: per-shard worker/attempt/wall
    /// provenance plus the fault counters.
    pub provenance: Value,
    /// Determinism violations (digest-mismatching duplicate
    /// completions). Empty on a healthy cluster.
    pub violations: Vec<String>,
    /// Fault-handling counters.
    pub stats: ClusterStats,
}

#[derive(Clone, Debug)]
enum ShardState {
    Pending {
        eligible_at: Instant,
        attempt: u64,
    },
    Leased {
        worker: u64,
        attempt: u64,
        deadline: Instant,
    },
    Done,
}

struct DoneShard {
    record: CheckpointRecord,
    from_checkpoint: bool,
}

struct WorkerSlot {
    id: u64,
    writer: LineWriter,
    child: Option<Child>,
    alive: bool,
    ready: bool,
    /// The shard this worker believes it is running (it may have been
    /// speculatively re-leased elsewhere already).
    busy: Option<u64>,
    /// Leases sent to this worker (drives chaos-directive ordinals on
    /// the worker side; kept for symmetry/debugging).
    #[allow(dead_code)]
    leases: u64,
}

/// No child outlives its slot: every return from [`run_cluster`] (the
/// `Err` ones included) kills and reaps what it spawned. A no-op for a
/// child already waited on.
impl Drop for WorkerSlot {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs the distributed sweep to completion (or early stop). See the
/// module docs for the fault model.
pub fn run_cluster(config: &ClusterConfig) -> Result<ClusterOutcome, String> {
    let entered = Instant::now();
    let mut first_lease: Option<Instant> = None;
    let cells = config.manifest.expand()?;
    let shard_ranges = config.manifest.shards(cells.len());
    let n_shards = shard_ranges.len();
    let now = Instant::now();
    let mut states: Vec<ShardState> = (0..n_shards)
        .map(|_| ShardState::Pending {
            eligible_at: now,
            attempt: 0,
        })
        .collect();
    let mut done: HashMap<u64, DoneShard> = HashMap::new();
    let mut stats = ClusterStats::default();
    let mut violations: Vec<String> = Vec::new();

    // Checkpoint resume: journaled shards are already done.
    let mut checkpoint = match &config.checkpoint {
        Some(path) => {
            let (ckpt, replayed) = Checkpoint::open(path, &config.manifest)?;
            for record in replayed {
                if (record.shard as usize) < n_shards && !done.contains_key(&record.shard) {
                    states[record.shard as usize] = ShardState::Done;
                    stats.resumed_shards += 1;
                    done.insert(
                        record.shard,
                        DoneShard {
                            record,
                            from_checkpoint: true,
                        },
                    );
                }
            }
            Some(ckpt)
        }
        None => None,
    };

    let mut completed_this_run: u64 = 0;
    let (event_tx, event_rx) = mpsc::channel::<LineEvent>();
    let mut workers: Vec<WorkerSlot> = Vec::new();
    let mut next_worker_id: u64 = 1;
    let mut spawned_total: usize = 0;
    let spawn_budget = config.workers * 2 + 4;
    let mut inline_hosts = HostCache::new();
    let mut last_progress = Instant::now();
    let mut stats_published = ClusterStats::default();

    // TCP mode: accept connections in the background.
    let (conn_tx, conn_rx) = mpsc::channel();
    let _server = match &config.transport {
        Transport::Tcp { addr } => {
            let server =
                LineServer::start(addr, conn_tx).map_err(|e| format!("bind {addr}: {e}"))?;
            eprintln!("sweepd: coordinator listening on {}", server.addr);
            Some(server)
        }
        Transport::Spawn { .. } => None,
    };

    let remaining = |states: &[ShardState]| states.iter().any(|s| !matches!(s, ShardState::Done));

    let mut interrupted = false;
    let mut stopped_early = false;

    while remaining(&states) {
        if msim_testbed::shutdown_requested() {
            interrupted = true;
            break;
        }
        if let Some(stop) = config.stop_after_shards {
            if completed_this_run >= stop {
                stopped_early = true;
                break;
            }
        }

        // Top up worker capacity (spawn mode): the whole pool on the first
        // tick, so every worker starts before the loop first blocks and
        // the ramp is one spawn-to-`Ready` latency; after that one
        // replacement per outer-loop tick is plenty, `available`
        // re-evaluates naturally next time around.
        if let Transport::Spawn { program } = &config.transport {
            let alive = workers.iter().filter(|w| w.alive).count();
            let available = workers
                .iter()
                .filter(|w| w.alive && (w.busy.is_none() || !lease_expired(&states, w)))
                .count();
            for ordinal in top_up(
                config.workers,
                spawned_total,
                spawn_budget,
                alive,
                available,
            ) {
                let chaos = config.worker_chaos.get(ordinal).cloned().flatten();
                if ordinal >= config.workers {
                    stats.respawns += 1;
                }
                let slot =
                    spawn_worker(program, next_worker_id, &config.manifest, chaos, &event_tx)
                        .map_err(|e| format!("spawn worker: {e}"))?;
                workers.push(slot);
                next_worker_id += 1;
                spawned_total = ordinal + 1;
            }
        }

        // TCP mode: adopt newly connected workers.
        while let Ok(stream) = conn_rx.try_recv() {
            let id = next_worker_id;
            next_worker_id += 1;
            let read_half = stream
                .try_clone()
                .map_err(|e| format!("clone worker stream: {e}"))?;
            spawn_line_reader(id, read_half, event_tx.clone());
            let mut writer = LineWriter::new(stream);
            let hello = Frame::Hello {
                worker: id,
                manifest: config.manifest.clone(),
                digest_epoch: DIGEST_EPOCH,
            };
            if writer.send_line(&hello.to_line()).is_ok() {
                workers.push(WorkerSlot {
                    id,
                    writer,
                    child: None,
                    alive: true,
                    ready: false,
                    busy: None,
                    leases: 0,
                });
            }
        }

        // Lease eligible pending shards to idle ready workers.
        if assign_leases(config, &mut states, &mut workers, &mut stats) {
            first_lease.get_or_insert_with(Instant::now);
        }

        // Progress guarantee: a shard past max_attempts — or a cluster
        // with nothing alive to lease to for a full lease-timeout — runs
        // inline on the coordinator.
        let now = Instant::now();
        let starved = now.duration_since(last_progress) > config.lease_timeout
            && !workers.iter().any(|w| w.alive && w.ready);
        if let Some(shard) = states.iter().position(|s| match s {
            ShardState::Pending {
                eligible_at,
                attempt,
            } => *attempt >= config.max_attempts || (starved && *eligible_at <= now),
            _ => false,
        }) {
            let range = shard_ranges[shard].clone();
            let t0 = Instant::now();
            let rows: Vec<CellRow> = range
                .map(|i| row_for(i as u64, &cells[i], &mut inline_hosts))
                .collect();
            let record = CheckpointRecord {
                shard: shard as u64,
                worker: 0,
                attempt: attempt_of(&states[shard]) + 1,
                wall_us: t0.elapsed().as_micros() as u64,
                rows,
            };
            stats.inline_runs += 1;
            accept_completion(
                record,
                &mut states,
                &mut done,
                &mut checkpoint,
                &mut stats,
                &mut violations,
                &mut completed_this_run,
            )?;
            last_progress = Instant::now();
            continue;
        }

        // One event (or a short tick to rescan deadlines).
        match event_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(LineEvent::Line(peer, line)) => match Frame::from_line(&line) {
                Ok(frame) => {
                    if handle_frame(
                        peer,
                        frame,
                        config,
                        &mut states,
                        &mut workers,
                        &mut done,
                        &mut checkpoint,
                        &mut stats,
                        &mut violations,
                        &mut completed_this_run,
                    )? {
                        last_progress = Instant::now();
                    }
                }
                Err(_) => {
                    stats.protocol_errors += 1;
                    condemn_worker(peer, config, &mut states, &mut workers, &mut stats);
                }
            },
            Ok(LineEvent::Garbage(peer, _)) => {
                stats.protocol_errors += 1;
                condemn_worker(peer, config, &mut states, &mut workers, &mut stats);
            }
            Ok(LineEvent::Closed(peer)) => {
                if let Some(w) = workers.iter_mut().find(|w| w.id == peer) {
                    if w.alive {
                        w.alive = false;
                        w.ready = false;
                        if let Some(shard) = w.busy.take() {
                            requeue_if_leased_to(peer, shard, config, &mut states, &mut stats);
                        }
                        if let Some(child) = &mut w.child {
                            let _ = child.wait();
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("coordinator event channel closed".into())
            }
        }

        // Expired leases: speculative reassignment. The original worker
        // keeps running — its late completion becomes a duplicate.
        let now = Instant::now();
        for state in states.iter_mut() {
            if let ShardState::Leased {
                attempt, deadline, ..
            } = *state
            {
                // The leasing worker stays busy until it reports.
                if deadline <= now {
                    *state = pending_with_backoff(config, attempt);
                    stats.reassignments += 1;
                }
            }
        }

        publish_stats_delta(&stats, &mut stats_published);
        if let Some(slot) = &config.jobs_state {
            let snapshot = jobs_json(&states, &workers, completed_this_run);
            if let Ok(mut s) = slot.lock() {
                *s = snapshot;
            }
        }
    }
    publish_stats_delta(&stats, &mut stats_published);
    if let Some(slot) = &config.jobs_state {
        let snapshot = jobs_json(&states, &workers, completed_this_run);
        if let Ok(mut s) = slot.lock() {
            *s = snapshot;
        }
    }

    let leased_out = Instant::now();

    // Drain: ask every surviving worker to exit, then reap children.
    for w in &mut workers {
        if w.alive {
            let _ = w.writer.send_line(&Frame::Shutdown.to_line());
        }
    }
    // A worker's final frames can still be in flight when the last shard
    // completes — e.g. a late duplicate Done from a reassigned or
    // misbehaving worker. Keep reading until every reader thread closes
    // so those frames land in stats/violations instead of being dropped.
    if !stopped_early && !interrupted {
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while workers.iter().any(|w| w.alive) && Instant::now() < drain_deadline {
            match event_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(LineEvent::Line(peer, line)) => match Frame::from_line(&line) {
                    Ok(frame) => {
                        handle_frame(
                            peer,
                            frame,
                            config,
                            &mut states,
                            &mut workers,
                            &mut done,
                            &mut checkpoint,
                            &mut stats,
                            &mut violations,
                            &mut completed_this_run,
                        )?;
                    }
                    Err(_) => stats.protocol_errors += 1,
                },
                Ok(LineEvent::Garbage(..)) => stats.protocol_errors += 1,
                Ok(LineEvent::Closed(peer)) => {
                    if let Some(w) = workers.iter_mut().find(|w| w.id == peer) {
                        w.alive = false;
                        w.ready = false;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    let drained = Instant::now();
    for w in &mut workers {
        if let Some(child) = &mut w.child {
            if stopped_early || interrupted {
                let _ = child.kill();
            }
            wait_with_timeout(child, Duration::from_secs(5));
        }
    }
    let reaped = Instant::now();

    let completed = !stopped_early && !interrupted && !remaining(&states);
    let artifact = if completed {
        let mut rows: Vec<CellRow> = Vec::with_capacity(cells.len());
        for shard in done.values() {
            rows.extend(shard.record.rows.iter().copied());
        }
        Some(merge_rows(
            &config.manifest.name,
            config.manifest.fingerprint(),
            &cells,
            &rows,
        )?)
    } else {
        None
    };
    let first_lease = first_lease.unwrap_or(leased_out);
    let phases = [
        ("startup", first_lease - entered),
        ("leasing", leased_out - first_lease),
        ("drain", drained - leased_out),
        ("reap", reaped - drained),
        ("merge", reaped.elapsed()),
    ];
    let provenance = provenance_json(config, &done, &stats, &violations, completed, &phases);
    if interrupted {
        return Ok(ClusterOutcome {
            completed: false,
            artifact: None,
            provenance,
            violations,
            stats,
        });
    }
    Ok(ClusterOutcome {
        completed,
        artifact,
        provenance,
        violations,
        stats,
    })
}

fn attempt_of(state: &ShardState) -> u64 {
    match state {
        ShardState::Pending { attempt, .. } => *attempt,
        ShardState::Leased { attempt, .. } => *attempt,
        ShardState::Done => 0,
    }
}

fn lease_expired(states: &[ShardState], w: &WorkerSlot) -> bool {
    w.busy.is_some_and(|shard| {
        !matches!(
            states.get(shard as usize),
            Some(ShardState::Leased { worker, deadline, .. })
                if *worker == w.id && *deadline > Instant::now()
        )
    })
}

fn pending_with_backoff(config: &ClusterConfig, attempt: u64) -> ShardState {
    let factor = 1u32 << attempt.min(10) as u32;
    let delay = config
        .backoff_base
        .saturating_mul(factor)
        .min(config.backoff_cap);
    ShardState::Pending {
        eligible_at: Instant::now() + delay,
        attempt,
    }
}

fn spawn_worker(
    program: &PathBuf,
    id: u64,
    manifest: &SweepManifest,
    chaos: Option<WorkerChaos>,
    event_tx: &mpsc::Sender<LineEvent>,
) -> std::io::Result<WorkerSlot> {
    let mut cmd = Command::new(program);
    cmd.arg("worker");
    if let Some(chaos) = &chaos {
        cmd.args(["--chaos", &chaos.to_directive()]);
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    spawn_line_reader(id, stdout, event_tx.clone());
    let mut writer = LineWriter::new(stdin);
    let hello = Frame::Hello {
        worker: id,
        manifest: manifest.clone(),
        digest_epoch: DIGEST_EPOCH,
    };
    let _ = writer.send_line(&hello.to_line());
    Ok(WorkerSlot {
        id,
        writer,
        child: Some(child),
        alive: true,
        ready: false,
        busy: None,
        leases: 0,
    })
}

/// Leases eligible pending shards to idle ready workers; returns whether
/// any lease went out.
fn assign_leases(
    config: &ClusterConfig,
    states: &mut [ShardState],
    workers: &mut [WorkerSlot],
    stats: &mut ClusterStats,
) -> bool {
    let now = Instant::now();
    let mut leased = false;
    for (shard, state) in states.iter_mut().enumerate() {
        let attempt = match state {
            ShardState::Pending {
                eligible_at,
                attempt,
            } if *eligible_at <= now && *attempt < config.max_attempts => *attempt,
            _ => continue,
        };
        let Some(w) = workers
            .iter_mut()
            .find(|w| w.alive && w.ready && w.busy.is_none())
        else {
            break; // nobody free — try again next tick
        };
        let lease = Frame::Lease {
            shard: shard as u64,
            attempt: attempt + 1,
        };
        if w.writer.send_line(&lease.to_line()).is_err() {
            w.alive = false;
            stats.reassignments += 1;
            continue;
        }
        w.busy = Some(shard as u64);
        w.leases += 1;
        msim_core::telemetry::count("msp_leases_total", 1);
        *state = ShardState::Leased {
            worker: w.id,
            attempt: attempt + 1,
            deadline: now + config.lease_timeout,
        };
        leased = true;
    }
    leased
}

/// The spawn ordinals this tick's top-up starts. The first top-up fills
/// the pool (`target`, at least one); afterwards a short-handed pool
/// (fewer alive than `target`, or nobody able to take a lease) gets one
/// replacement a tick; nothing is spawned past `budget`. The ordinal
/// indexes `ClusterConfig::worker_chaos` and, from `target` on, counts as
/// a respawn.
fn top_up(
    target: usize,
    spawned_total: usize,
    budget: usize,
    alive: usize,
    available: usize,
) -> std::ops::Range<usize> {
    let target = target.max(1);
    let want = if spawned_total == 0 {
        target
    } else {
        usize::from(alive < target || available < 1)
    };
    spawned_total..(spawned_total + want).min(budget.max(spawned_total))
}

/// Requeues `shard` iff it is still leased to `worker` (it may have been
/// speculatively re-leased or even completed meanwhile).
fn requeue_if_leased_to(
    worker: u64,
    shard: u64,
    config: &ClusterConfig,
    states: &mut [ShardState],
    stats: &mut ClusterStats,
) {
    if let Some(state) = states.get_mut(shard as usize) {
        if matches!(state, ShardState::Leased { worker: w, .. } if *w == worker) {
            let attempt = attempt_of(state);
            *state = pending_with_backoff(config, attempt);
            stats.reassignments += 1;
        }
    }
}

/// Kills and retires a worker that framed garbage; its lease requeues.
fn condemn_worker(
    peer: u64,
    config: &ClusterConfig,
    states: &mut [ShardState],
    workers: &mut [WorkerSlot],
    stats: &mut ClusterStats,
) {
    if let Some(w) = workers.iter_mut().find(|w| w.id == peer) {
        w.alive = false;
        w.ready = false;
        if let Some(shard) = w.busy.take() {
            requeue_if_leased_to(peer, shard, config, states, stats);
        }
        if let Some(child) = &mut w.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Accepts one completion: journal it, mark done. Returns Err only on
/// checkpoint I/O failure.
fn accept_completion(
    record: CheckpointRecord,
    states: &mut [ShardState],
    done: &mut HashMap<u64, DoneShard>,
    checkpoint: &mut Option<Checkpoint>,
    _stats: &mut ClusterStats,
    _violations: &mut [String],
    completed_this_run: &mut u64,
) -> Result<(), String> {
    if let Some(ckpt) = checkpoint {
        ckpt.append(&record)?;
    }
    msim_core::telemetry::count("msp_shard_merges_total", 1);
    states[record.shard as usize] = ShardState::Done;
    done.insert(
        record.shard,
        DoneShard {
            record,
            from_checkpoint: false,
        },
    );
    *completed_this_run += 1;
    Ok(())
}

/// Handles one parsed frame; returns whether it constituted progress.
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    peer: u64,
    frame: Frame,
    config: &ClusterConfig,
    states: &mut [ShardState],
    workers: &mut [WorkerSlot],
    done: &mut HashMap<u64, DoneShard>,
    checkpoint: &mut Option<Checkpoint>,
    stats: &mut ClusterStats,
    violations: &mut Vec<String>,
    completed_this_run: &mut u64,
) -> Result<bool, String> {
    match frame {
        Frame::Ready {
            worker,
            digest_epoch,
        } => {
            if digest_epoch != DIGEST_EPOCH {
                // Its rows would be digests of another definition. (An
                // epoch-1 worker never sees the mismatch itself: it
                // ignores the hello's unknown field.)
                eprintln!(
                    "sweepd: worker {peer} runs digest_epoch {digest_epoch}, this coordinator \
                     {DIGEST_EPOCH} — refusing it"
                );
                if let Some(w) = workers.iter_mut().find(|w| w.id == peer) {
                    let _ = w.writer.send_line(&Frame::Shutdown.to_line());
                }
                condemn_worker(peer, config, states, workers, stats);
                return Ok(false);
            }
            if let Some(w) = workers.iter_mut().find(|w| w.id == worker && w.id == peer) {
                w.ready = true;
            }
            Ok(true)
        }
        Frame::Heartbeat {
            worker,
            shard,
            counters,
            ..
        } => {
            if let Some(ShardState::Leased {
                worker: leased_to,
                deadline,
                ..
            }) = states.get_mut(shard as usize)
            {
                if *leased_to == worker && worker == peer {
                    *deadline = Instant::now() + config.lease_timeout;
                }
            }
            // Fold the worker's telemetry increments into this process's
            // registry so a `/metrics` scrape of the coordinator covers
            // the whole fleet. Duplicate-completion shards still count:
            // the work genuinely ran twice.
            msim_core::telemetry::apply_counter_deltas(&counters);
            Ok(false)
        }
        Frame::Done {
            worker,
            shard,
            attempt,
            wall_us,
            rows,
        } => {
            if let Some(w) = workers.iter_mut().find(|w| w.id == peer) {
                if w.busy == Some(shard) {
                    w.busy = None;
                }
            }
            if let Some(existing) = done.get(&shard) {
                stats.duplicates += 1;
                if existing.record.rows != rows {
                    violations.push(format!(
                        "determinism violation: shard {shard} attempt {attempt} (worker \
                         {worker}) produced digests diverging from the accepted attempt \
                         {} (worker {})",
                        existing.record.attempt, existing.record.worker
                    ));
                }
                return Ok(true);
            }
            if states.get(shard as usize).is_none() {
                stats.protocol_errors += 1;
                return Ok(false);
            }
            accept_completion(
                CheckpointRecord {
                    shard,
                    worker,
                    attempt,
                    wall_us,
                    rows,
                },
                states,
                done,
                checkpoint,
                stats,
                violations,
                completed_this_run,
            )?;
            Ok(true)
        }
        Frame::Fail {
            worker: _,
            shard,
            message,
        } => {
            if let Some(w) = workers.iter_mut().find(|w| w.id == peer) {
                if w.busy == Some(shard) {
                    w.busy = None;
                }
            }
            if shard != u64::MAX {
                requeue_if_leased_to(peer, shard, config, states, stats);
            } else {
                // Setup failure (e.g. manifest expansion): the worker is
                // useless.
                eprintln!("sweepd: worker {peer} failed setup: {message}");
                condemn_worker(peer, config, states, workers, stats);
            }
            Ok(true)
        }
        // Coordinator-direction frames from a worker = confusion.
        Frame::Hello { .. } | Frame::Lease { .. } | Frame::Shutdown => {
            stats.protocol_errors += 1;
            condemn_worker(peer, config, states, workers, stats);
            Ok(false)
        }
    }
}

/// First pause of the reap poll. A worker that answered `Shutdown` has
/// closed its stdout but is often not a zombie yet on the first
/// `try_wait`; it is one within tens of microseconds.
const REAP_FIRST_PAUSE: Duration = Duration::from_micros(50);

/// Cap of the reap poll's doubling pauses.
const REAP_MAX_PAUSE: Duration = Duration::from_millis(10);

/// Waits up to `timeout` for `child` to exit, then kills and waits.
fn wait_with_timeout(child: &mut Child, timeout: Duration) {
    if !poll_exit(|| child.try_wait(), timeout, std::thread::sleep) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Polls `try_wait` until it reports an exit, pausing through `sleep`
/// between polls: [`REAP_FIRST_PAUSE`], doubling to [`REAP_MAX_PAUSE`], and
/// `timeout` in all (the budget is the pauses asked for, so it needs no
/// clock). `false` means the caller must kill: the budget ran out, or
/// `try_wait` failed.
fn poll_exit(
    mut try_wait: impl FnMut() -> std::io::Result<Option<ExitStatus>>,
    timeout: Duration,
    mut sleep: impl FnMut(Duration),
) -> bool {
    let mut pause = REAP_FIRST_PAUSE;
    let mut left = timeout;
    loop {
        match try_wait() {
            Ok(Some(_)) => return true,
            Ok(None) if !left.is_zero() => {
                let nap = pause.min(left);
                sleep(nap);
                left -= nap;
                pause = (pause * 2).min(REAP_MAX_PAUSE);
            }
            _ => return false,
        }
    }
}

/// Mirrors [`ClusterStats`] increments since the last call into the
/// telemetry registry as monotonic counters, so lease/retry/merge
/// traffic shows up on `/metrics` without double counting.
fn publish_stats_delta(stats: &ClusterStats, prev: &mut ClusterStats) {
    use msim_core::telemetry as tel;
    if !tel::enabled() {
        *prev = *stats;
        return;
    }
    tel::count(
        "msp_lease_reassignments_total",
        stats.reassignments - prev.reassignments,
    );
    tel::count(
        "msp_duplicate_completions_total",
        stats.duplicates - prev.duplicates,
    );
    tel::count(
        "msp_protocol_errors_total",
        stats.protocol_errors - prev.protocol_errors,
    );
    tel::count("msp_worker_respawns_total", stats.respawns - prev.respawns);
    tel::count(
        "msp_inline_runs_total",
        stats.inline_runs - prev.inline_runs,
    );
    tel::count(
        "msp_resumed_shards_total",
        stats.resumed_shards - prev.resumed_shards,
    );
    *prev = *stats;
}

/// Renders the `/jobs` endpoint body: one entry per shard with its
/// state/attempt/lease, plus the worker roster.
fn jobs_json(states: &[ShardState], workers: &[WorkerSlot], completed_this_run: u64) -> String {
    let now = Instant::now();
    let shard_values: Vec<Value> = states
        .iter()
        .enumerate()
        .map(|(i, state)| {
            let obj = Value::object().with("shard", i as u64);
            match state {
                ShardState::Pending { attempt, .. } => {
                    obj.with("attempt", *attempt).with("state", "pending")
                }
                ShardState::Leased {
                    worker,
                    attempt,
                    deadline,
                } => obj
                    .with("attempt", *attempt)
                    .with(
                        "lease_remaining_ms",
                        deadline.saturating_duration_since(now).as_millis() as u64,
                    )
                    .with("state", "leased")
                    .with("worker", *worker),
                ShardState::Done => obj.with("state", "done"),
            }
        })
        .collect();
    let worker_values: Vec<Value> = workers
        .iter()
        .map(|w| {
            let obj = Value::object()
                .with("alive", w.alive)
                .with("id", w.id)
                .with("ready", w.ready);
            match w.busy {
                Some(shard) => obj.with("busy_shard", shard),
                None => obj,
            }
        })
        .collect();
    msim_json::to_string(
        &Value::object()
            .with("completed_this_run", completed_this_run)
            .with("shards", Value::Array(shard_values))
            .with("workers", Value::Array(worker_values)),
    )
}

/// The nondeterministic provenance artifact: who ran what, how many
/// times, how long — everything deliberately excluded from the
/// deterministic merge.
fn provenance_json(
    config: &ClusterConfig,
    done: &HashMap<u64, DoneShard>,
    stats: &ClusterStats,
    violations: &[String],
    completed: bool,
    phases: &[(&str, Duration)],
) -> Value {
    let phases_us = phases.iter().fold(Value::object(), |obj, (name, took)| {
        obj.with(name, took.as_micros() as u64)
    });
    let mut shards: Vec<&DoneShard> = done.values().collect();
    shards.sort_by_key(|s| s.record.shard);
    let shard_values: Vec<Value> = shards
        .iter()
        .map(|s| {
            Value::object()
                .with("attempts", s.record.attempt)
                .with("cells", s.record.rows.len() as u64)
                .with("from_checkpoint", s.from_checkpoint)
                .with("shard", s.record.shard)
                .with("wall_us", s.record.wall_us)
                .with("worker", s.record.worker)
        })
        .collect();
    let violation_values: Vec<Value> = violations
        .iter()
        .map(|v| Value::String(v.clone()))
        .collect();
    Value::object()
        .with("completed", completed)
        .with("digest_epoch", DIGEST_EPOCH as u64)
        .with("duplicates", stats.duplicates)
        .with("inline_runs", stats.inline_runs)
        .with(
            "manifest_fingerprint",
            config.manifest.fingerprint_hex().as_str(),
        )
        .with("name", config.manifest.name.as_str())
        .with("phases_us", phases_us)
        .with("protocol_errors", stats.protocol_errors)
        .with("reassignments", stats.reassignments)
        .with("respawns", stats.respawns)
        .with("resumed_shards", stats.resumed_shards)
        .with("schema", "cluster-provenance")
        .with("shards", Value::Array(shard_values))
        .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
        .with("violations", Value::Array(violation_values))
        .with("workers", config.workers as u64)
}

/// The serial in-process reference: expand, run every cell on this
/// thread, merge. The distributed artifact must be bit-identical to this.
pub fn serial_artifact(manifest: &SweepManifest) -> Result<Value, String> {
    let cells = manifest.expand()?;
    let mut hosts = HostCache::new();
    let rows: Vec<CellRow> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| row_for(i as u64, cell, &mut hosts))
        .collect();
    merge_rows(&manifest.name, manifest.fingerprint(), &cells, &rows)
}

/// Convenience for tests: the serial artifact's rows without the merge.
pub fn serial_rows(manifest: &SweepManifest) -> Result<(Vec<Cell>, Vec<CellRow>), String> {
    let cells = manifest.expand()?;
    let mut hosts = HostCache::new();
    let rows: Vec<CellRow> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| row_for(i as u64, cell, &mut hosts))
        .collect();
    Ok((cells, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let config = ClusterConfig::new(SweepManifest::smoke(), PathBuf::from("unused"));
        let base = config.backoff_base;
        let delay_of = |attempt: u64| match pending_with_backoff(&config, attempt) {
            ShardState::Pending { eligible_at, .. } => {
                eligible_at.saturating_duration_since(Instant::now())
            }
            _ => unreachable!(),
        };
        // Allow scheduling slop: compare against generous bounds.
        assert!(delay_of(0) <= base * 2);
        assert!(delay_of(3) >= base * 4 && delay_of(3) <= base * 16);
        assert!(delay_of(40) <= config.backoff_cap + base, "capped");
    }

    #[test]
    fn reap_poll_backs_off_from_50us_to_the_10ms_cap_within_its_budget() {
        let us = Duration::from_micros;
        let poll = |exit_on_poll: usize, timeout: Duration| {
            let mut polls = 0;
            let mut pauses = Vec::new();
            let exited = poll_exit(
                || {
                    polls += 1;
                    Ok((polls == exit_on_poll).then(ExitStatus::default))
                },
                timeout,
                |pause| pauses.push(pause),
            );
            (exited, pauses)
        };
        // Already a zombie: no pause at all. Gone by the third poll (the
        // usual case after `Shutdown`): 150 µs, not 10 ms.
        assert_eq!(poll(1, us(5_000_000)), (true, vec![]));
        assert_eq!(poll(3, us(5_000_000)), (true, vec![us(50), us(100)]));
        // Never exits: doubling pauses up to the cap, summing to exactly the
        // timeout (the last one clipped), then `false` = kill.
        let (exited, pauses) = poll(usize::MAX, us(40_000));
        assert!(!exited);
        let want = [
            50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 10_000, 10_000, 7_250,
        ];
        assert_eq!(pauses, want.map(us));
        assert_eq!(pauses.iter().sum::<Duration>(), us(40_000));
        // No budget: one poll, no pause. A failing `try_wait`: kill at once.
        assert_eq!(poll(usize::MAX, Duration::ZERO), (false, vec![]));
        let failed = poll_exit(
            || Err(std::io::ErrorKind::Other.into()),
            us(5_000_000),
            |_| panic!("no pause after a failed poll"),
        );
        assert!(!failed);
    }

    #[test]
    fn top_up_fills_the_pool_once_then_replaces_one_a_tick_within_the_budget() {
        let budget = 3 * 2 + 4;
        // First tick: the whole pool, ordinals (= `worker_chaos` slots) 0..3.
        assert_eq!(top_up(3, 0, budget, 0, 0), 0..3);
        // A full pool with someone free: nothing.
        assert_eq!(top_up(3, 3, budget, 3, 1), 3..3);
        // Two died in one tick: still one replacement a tick, and its
        // ordinal (the first past the pool) is what counts as a respawn.
        assert_eq!(top_up(3, 3, budget, 1, 1), 3..4);
        assert_eq!(top_up(3, 4, budget, 2, 2), 4..5);
        // Everyone alive but stuck on an expired lease: one more.
        assert_eq!(top_up(3, 5, budget, 3, 0), 5..6);
        // The respawn budget is a hard stop.
        assert_eq!(top_up(3, budget - 1, budget, 0, 0), budget - 1..budget);
        assert!(top_up(3, budget, budget, 0, 0).is_empty());
        // `workers: 0` still gets the one worker it always got.
        assert_eq!(top_up(0, 0, 4, 0, 0), 0..1);
        assert!(top_up(0, 1, 4, 1, 1).is_empty());
    }

    #[test]
    fn serial_artifact_is_reproducible_bytes() {
        let manifest = SweepManifest {
            workloads: vec!["testbed/MSPlayer".into()],
            runs: 1,
            ..SweepManifest::smoke()
        };
        let a = msim_json::to_string_pretty(&serial_artifact(&manifest).unwrap());
        let b = msim_json::to_string_pretty(&serial_artifact(&manifest).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("\"sweep_fingerprint\""));
        assert!(a.contains("\"schema\": \"cluster-sweep\""));
    }
}
