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
//!   [`worker`](super::worker) — so a lease timeout must span several
//!   paces); an expired lease is speculatively re-leased while the
//!   original worker keeps running. Whichever completion arrives first
//!   wins; later duplicates are fingerprint-compared and a mismatch is
//!   recorded as a determinism violation (the one thing this
//!   infrastructure exists to catch).
//! * **Corrupt frames** — garbage, unparseable lines and a `done` that is
//!   not its shard's or its sender's condemn the worker (requeue +
//!   replace): a peer that frames garbage once cannot be trusted.
//! * **Poison shards** — a shard exceeding [`MAX_ATTEMPTS`] is executed
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
//!
//! ## State and driver
//!
//! Everything that is decided (whom to lease, when a lease has expired,
//! how long to back off, whom to condemn, what to accept, when to run a
//! shard here) is decided by the private `Coordinator`, whose methods take
//! the instant as an argument and read no clock. [`run_cluster`] is only
//! its driver: it spawns or accepts workers, blocks on the event channel,
//! reads the clock, drains, reaps and stamps the phases. A worker slot is
//! a line sink plus an optional child, so the tests below drive the same
//! `Coordinator` with in-memory sinks and made-up instants, no process and
//! no waiting; their schedule explorer puts a [`Worker`](super::Worker)
//! machine behind every slot.

use super::checkpoint::{Checkpoint, CheckpointRecord};
use super::manifest::SweepManifest;
use super::merge::{cell_row, covers, merge_rows, CellRow, DIGEST_EPOCH};
use super::protocol::Frame;
use super::worker::WorkerChaos;
use crate::sweep::{Cell, HostCache};
use msim_json::Value;
use msim_testbed::{spawn_line_reader, LineEvent, LineServer, LineWriter};
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
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
        /// The worker executable (normally the `msplayer` binary; tests
        /// pass `env!("CARGO_BIN_EXE_msplayer")`).
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

/// Attempts before the coordinator runs a shard inline.
pub const MAX_ATTEMPTS: u64 = 4;

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
    /// Defaults: 2 spawned workers, 10 s leases, 50 ms–2 s backoff, no
    /// checkpoint.
    pub fn new(manifest: SweepManifest, program: PathBuf) -> ClusterConfig {
        ClusterConfig {
            manifest,
            workers: 2,
            lease_timeout: Duration::from_secs(10),
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
}

impl WorkerSlot {
    /// A worker reachable through `writer` that has not said `Ready` yet;
    /// `child` is the process to reap, for a spawned one.
    fn new(id: u64, writer: LineWriter, child: Option<Child>) -> WorkerSlot {
        WorkerSlot {
            id,
            writer,
            child,
            alive: true,
            ready: false,
            busy: None,
        }
    }
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

/// Everything a run decides and remembers (see "State and driver" in the
/// module docs). No method reads a clock: each takes `now`.
struct Coordinator<'a> {
    config: &'a ClusterConfig,
    cells: Vec<Cell>,
    shard_ranges: Vec<Range<usize>>,
    states: Vec<ShardState>,
    done: HashMap<u64, DoneShard>,
    stats: ClusterStats,
    violations: Vec<String>,
    checkpoint: Option<Checkpoint>,
    workers: Vec<WorkerSlot>,
    /// Workers the driver has been told to spawn so far.
    spawned_total: usize,
    inline_hosts: HostCache,
    completed_this_run: u64,
    last_progress: Instant,
    first_lease: Option<Instant>,
}

impl<'a> Coordinator<'a> {
    /// Expands the manifest and replays the checkpoint, if any: journaled
    /// shards are already done. A record whose rows are not its shard's
    /// is skipped, so the shard runs again.
    fn new(config: &'a ClusterConfig, now: Instant) -> Result<Coordinator<'a>, String> {
        let cells = config.manifest.expand()?;
        let shard_ranges = config.manifest.shards(cells.len());
        let mut coordinator = Coordinator {
            config,
            states: vec![
                ShardState::Pending {
                    eligible_at: now,
                    attempt: 0,
                };
                shard_ranges.len()
            ],
            cells,
            shard_ranges,
            done: HashMap::new(),
            stats: ClusterStats::default(),
            violations: Vec::new(),
            checkpoint: None,
            workers: Vec::new(),
            spawned_total: 0,
            inline_hosts: HostCache::new(),
            completed_this_run: 0,
            last_progress: now,
            first_lease: None,
        };
        if let Some(path) = &config.checkpoint {
            let (checkpoint, replayed) = Checkpoint::open(path, &config.manifest)?;
            coordinator.checkpoint = Some(checkpoint);
            for record in replayed {
                if coordinator.covered_by(record.shard, &record.rows)
                    && !coordinator.done.contains_key(&record.shard)
                {
                    coordinator.stats.resumed_shards += 1;
                    coordinator.mark_done(record, true);
                }
            }
        }
        Ok(coordinator)
    }

    /// Whether `shard` exists and `rows` are exactly its cells' rows.
    fn covered_by(&self, shard: u64, rows: &[CellRow]) -> bool {
        self.shard_ranges
            .get(shard as usize)
            .is_some_and(|range| covers(range, rows))
    }

    /// Every shard is done.
    fn complete(&self) -> bool {
        self.states.iter().all(|s| matches!(s, ShardState::Done))
    }

    /// Nothing is left for the lease loop: complete, or stopped by
    /// `stop_after_shards`.
    fn finished(&self) -> bool {
        self.complete()
            || self
                .config
                .stop_after_shards
                .is_some_and(|stop| self.completed_this_run >= stop)
    }

    /// Takes a new worker onto the roster and greets it. A worker that
    /// cannot be written to is kept, dead, for the reap.
    fn adopt(&mut self, mut slot: WorkerSlot) {
        let hello = Frame::Hello {
            worker: slot.id,
            manifest: self.config.manifest.clone(),
            digest_epoch: DIGEST_EPOCH,
        };
        slot.alive = slot.writer.send_line(&hello.to_line()).is_ok();
        self.workers.push(slot);
    }

    /// The spawn ordinals the driver must start and [`adopt`](Self::adopt)
    /// now (spawn mode): the whole pool the first time, so every worker
    /// starts before the loop first blocks and the ramp is one
    /// spawn-to-`Ready` latency; after that one replacement a tick is
    /// plenty. An ordinal indexes `ClusterConfig::worker_chaos` and, past
    /// the pool, counts as a respawn.
    fn spawn_wanted(&mut self, now: Instant) -> Range<usize> {
        let alive = self.workers.iter().filter(|w| w.alive).count();
        let available = self
            .workers
            .iter()
            .filter(|w| self.can_lease_to(w, now))
            .count();
        let ordinals = top_up(
            self.config.workers,
            self.spawned_total,
            self.config.workers * 2 + 4,
            alive,
            available,
        );
        self.stats.respawns += ordinals
            .clone()
            .filter(|ordinal| *ordinal >= self.config.workers)
            .count() as u64;
        self.spawned_total = ordinals.end;
        ordinals
    }

    /// The one place a transport event becomes state.
    fn on_event(&mut self, event: LineEvent, now: Instant) -> Result<(), String> {
        match event {
            LineEvent::Line(peer, line) => match Frame::from_line(&line) {
                Ok(frame) => {
                    if self.on_frame(peer, frame, now)? {
                        self.last_progress = now;
                    }
                }
                Err(_) => self.protocol_error(peer, now),
            },
            LineEvent::Garbage(peer, _) => self.protocol_error(peer, now),
            // The stream ended: a crash, or the exit `Shutdown` asked for.
            // The child itself is waited on in the reap.
            LineEvent::Closed(peer) => {
                self.retire(peer, now);
            }
        }
        Ok(())
    }

    /// One scheduling step: expire leases (speculative reassignment — the
    /// original worker keeps running, its late completion becomes a
    /// duplicate), lease eligible shards to idle workers, and keep the
    /// progress guarantee: a shard past [`MAX_ATTEMPTS`], or a cluster with
    /// nobody to lease to (see [`can_lease_to`](Self::can_lease_to)) for a
    /// full lease timeout, has one shard run here. `true` means a shard
    /// ran inline and the next step should follow without waiting.
    fn tick(&mut self, now: Instant) -> Result<bool, String> {
        for state in &mut self.states {
            if let ShardState::Leased {
                attempt, deadline, ..
            } = *state
            {
                // The leasing worker stays busy until it reports.
                if deadline <= now {
                    *state = pending_with_backoff(self.config, attempt, now);
                    self.stats.reassignments += 1;
                }
            }
        }
        self.assign_leases(now);

        let idle = now.saturating_duration_since(self.last_progress);
        let starved = idle > self.config.lease_timeout
            && !self
                .workers
                .iter()
                .any(|w| w.ready && self.can_lease_to(w, now));
        let due = self.states.iter().position(|s| match s {
            ShardState::Pending {
                eligible_at,
                attempt,
            } => *attempt >= MAX_ATTEMPTS || (starved && *eligible_at <= now),
            _ => false,
        });
        let Some(shard) = due else {
            return Ok(false);
        };
        let rows = (self.shard_ranges[shard].clone())
            .map(|index| cell_row(&self.cells, index, &mut self.inline_hosts))
            .collect();
        self.stats.inline_runs += 1;
        // `wall_us` is a worker's measurement; here nothing reads a clock
        // and the time shows in `phases_us.leasing`.
        self.accept_completion(CheckpointRecord {
            shard: shard as u64,
            worker: 0,
            attempt: attempt_of(&self.states[shard]) + 1,
            wall_us: 0,
            rows,
        })?;
        self.last_progress = now;
        Ok(true)
    }

    /// Leases eligible pending shards to idle ready workers.
    fn assign_leases(&mut self, now: Instant) {
        for (shard, state) in self.states.iter_mut().enumerate() {
            let attempt = match state {
                ShardState::Pending {
                    eligible_at,
                    attempt,
                } if *eligible_at <= now && *attempt < MAX_ATTEMPTS => *attempt,
                _ => continue,
            };
            let Some(w) = self
                .workers
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
                self.stats.reassignments += 1;
                continue;
            }
            w.busy = Some(shard as u64);
            msim_core::telemetry::count("msp_leases_total", 1);
            *state = ShardState::Leased {
                worker: w.id,
                attempt: attempt + 1,
                deadline: now + self.config.lease_timeout,
            };
            self.first_lease.get_or_insert(now);
        }
    }

    /// Whether `w` is, or will be once `Ready` or done with a lease it
    /// still holds, someone to lease to. A worker that let its lease lapse
    /// (expired, re-leased elsewhere, completed by someone else) and has
    /// not reported since is not: it may never come back.
    fn can_lease_to(&self, w: &WorkerSlot, now: Instant) -> bool {
        w.alive
            && w.busy.is_none_or(|shard| {
                matches!(
                    self.states.get(shard as usize),
                    Some(ShardState::Leased { worker, deadline, .. })
                        if *worker == w.id && *deadline > now
                )
            })
    }

    /// `peer` has reported on `shard`: if that is what it was busy with,
    /// it is free again.
    fn release(&mut self, peer: u64, shard: u64) {
        if let Some(w) = self.workers.iter_mut().find(|w| w.id == peer) {
            if w.busy == Some(shard) {
                w.busy = None;
            }
        }
    }

    /// Requeues `shard` iff it is still leased to `worker` (it may have
    /// been speculatively re-leased or even completed meanwhile).
    fn requeue_if_leased_to(&mut self, worker: u64, shard: u64, now: Instant) {
        if let Some(state) = self.states.get_mut(shard as usize) {
            if matches!(state, ShardState::Leased { worker: w, .. } if *w == worker) {
                *state = pending_with_backoff(self.config, attempt_of(state), now);
                self.stats.reassignments += 1;
            }
        }
    }

    /// Takes `peer` out of service: dead, and its lease requeued.
    fn retire(&mut self, peer: u64, now: Instant) -> Option<&mut WorkerSlot> {
        let slot = self.workers.iter().position(|w| w.id == peer)?;
        let w = &mut self.workers[slot];
        w.alive = false;
        w.ready = false;
        if let Some(shard) = w.busy.take() {
            self.requeue_if_leased_to(peer, shard, now);
        }
        Some(&mut self.workers[slot])
    }

    /// Retires and kills a worker that cannot be trusted.
    fn condemn(&mut self, peer: u64, now: Instant) {
        if let Some(child) = self.retire(peer, now).and_then(|w| w.child.as_mut()) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// A frame that is garbage, unparseable, coordinator-direction or a
    /// completion of the wrong shape: a peer that frames one cannot be
    /// trusted about anything else.
    fn protocol_error(&mut self, peer: u64, now: Instant) {
        self.stats.protocol_errors += 1;
        self.condemn(peer, now);
    }

    /// Accepts one completion: journal it, mark done. Returns Err only on
    /// checkpoint I/O failure.
    fn accept_completion(&mut self, record: CheckpointRecord) -> Result<(), String> {
        if let Some(checkpoint) = &mut self.checkpoint {
            checkpoint.append(&record)?;
        }
        msim_core::telemetry::count("msp_shard_merges_total", 1);
        self.mark_done(record, false);
        self.completed_this_run += 1;
        Ok(())
    }

    fn mark_done(&mut self, record: CheckpointRecord, from_checkpoint: bool) {
        self.states[record.shard as usize] = ShardState::Done;
        let shard = DoneShard {
            record,
            from_checkpoint,
        };
        self.done.insert(shard.record.shard, shard);
    }

    /// Handles one parsed frame; returns whether it constituted progress.
    fn on_frame(&mut self, peer: u64, frame: Frame, now: Instant) -> Result<bool, String> {
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
                        "sweepd: worker {peer} runs digest_epoch {digest_epoch}, this \
                         coordinator {DIGEST_EPOCH} — refusing it"
                    );
                    if let Some(w) = self.workers.iter_mut().find(|w| w.id == peer) {
                        let _ = w.writer.send_line(&Frame::Shutdown.to_line());
                    }
                    self.condemn(peer, now);
                    return Ok(false);
                }
                if let Some(w) = self
                    .workers
                    .iter_mut()
                    .find(|w| w.id == worker && w.id == peer)
                {
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
                }) = self.states.get_mut(shard as usize)
                {
                    if *leased_to == worker && worker == peer {
                        *deadline = now + self.config.lease_timeout;
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
                // Checked before anything keeps the rows: a short or
                // misindexed completion would fail the merge after the
                // whole sweep has run, and once journaled every resume. A
                // completion naming another worker would be journaled,
                // provenanced and blamed for a violation under that name.
                if worker != peer || !self.covered_by(shard, &rows) {
                    self.protocol_error(peer, now);
                    return Ok(false);
                }
                self.release(peer, shard);
                if let Some(existing) = self.done.get(&shard) {
                    self.stats.duplicates += 1;
                    if existing.record.rows != rows {
                        self.violations.push(format!(
                            "determinism violation: shard {shard} attempt {attempt} (worker \
                             {worker}) produced digests diverging from the accepted attempt \
                             {} (worker {})",
                            existing.record.attempt, existing.record.worker
                        ));
                    }
                    return Ok(true);
                }
                self.accept_completion(CheckpointRecord {
                    shard,
                    worker,
                    attempt,
                    wall_us,
                    rows,
                })?;
                Ok(true)
            }
            Frame::Fail {
                worker: _,
                shard,
                message,
            } => {
                if let Some(shard) = shard {
                    self.release(peer, shard);
                    self.requeue_if_leased_to(peer, shard, now);
                } else {
                    // Setup failure (e.g. manifest expansion): the worker is
                    // useless.
                    eprintln!("sweepd: worker {peer} failed setup: {message}");
                    self.condemn(peer, now);
                }
                Ok(true)
            }
            // Coordinator-direction frames from a worker = confusion.
            Frame::Hello { .. } | Frame::Lease { .. } | Frame::Shutdown => {
                self.protocol_error(peer, now);
                Ok(false)
            }
        }
    }

    /// Asks every surviving worker to exit.
    fn dismiss_workers(&mut self) {
        for w in self.workers.iter_mut().filter(|w| w.alive) {
            let _ = w.writer.send_line(&Frame::Shutdown.to_line());
        }
    }

    /// Renders the `/jobs` endpoint body: one entry per shard with its
    /// state/attempt/lease, plus the worker roster.
    fn jobs_json(&self, now: Instant) -> String {
        let shard_values: Vec<Value> = self
            .states
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
        let worker_values: Vec<Value> = self
            .workers
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
                .with("completed_this_run", self.completed_this_run)
                .with("shards", Value::Array(shard_values))
                .with("workers", Value::Array(worker_values)),
        )
    }

    /// The deterministic merge of the accepted rows — `None` unless every
    /// shard is done.
    fn merged(&self) -> Result<Option<Value>, String> {
        if !self.complete() {
            return Ok(None);
        }
        let rows: Vec<CellRow> = self
            .done
            .values()
            .flat_map(|shard| shard.record.rows.iter().copied())
            .collect();
        let manifest = &self.config.manifest;
        merge_rows(&manifest.name, manifest.fingerprint(), &self.cells, &rows).map(Some)
    }

    /// Closes the run: `artifact` is [`merged`](Self::merged)'s, `phases`
    /// the driver's wall clock by phase.
    fn into_outcome(self, artifact: Option<Value>, phases: &[(&str, Duration)]) -> ClusterOutcome {
        ClusterOutcome {
            completed: artifact.is_some(),
            provenance: self.provenance_json(artifact.is_some(), phases),
            artifact,
            violations: self.violations,
            stats: self.stats,
        }
    }

    /// The nondeterministic provenance artifact: who ran what, how many
    /// times, how long — everything deliberately excluded from the
    /// deterministic merge.
    fn provenance_json(&self, completed: bool, phases: &[(&str, Duration)]) -> Value {
        let phases_us = phases.iter().fold(Value::object(), |obj, (name, took)| {
            obj.with(name, took.as_micros() as u64)
        });
        let mut shards: Vec<&DoneShard> = self.done.values().collect();
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
        let violation_values: Vec<Value> = self
            .violations
            .iter()
            .map(|v| Value::String(v.clone()))
            .collect();
        let stats = &self.stats;
        Value::object()
            .with("completed", completed)
            .with("digest_epoch", DIGEST_EPOCH as u64)
            .with("duplicates", stats.duplicates)
            .with("inline_runs", stats.inline_runs)
            .with(
                "manifest_fingerprint",
                self.config.manifest.fingerprint_hex().as_str(),
            )
            .with("name", self.config.manifest.name.as_str())
            .with("phases_us", phases_us)
            .with("protocol_errors", stats.protocol_errors)
            .with("reassignments", stats.reassignments)
            .with("respawns", stats.respawns)
            .with("resumed_shards", stats.resumed_shards)
            .with("schema", "cluster-provenance")
            .with("shards", Value::Array(shard_values))
            .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
            .with("violations", Value::Array(violation_values))
            .with("workers", self.config.workers as u64)
    }
}

/// Runs the distributed sweep to completion (or early stop). See the
/// module docs for the fault model.
pub fn run_cluster(config: &ClusterConfig) -> Result<ClusterOutcome, String> {
    let entered = Instant::now();
    let mut coordinator = Coordinator::new(config, entered)?;
    let (event_tx, event_rx) = mpsc::channel::<LineEvent>();
    let mut next_worker_id: u64 = 1;
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

    loop {
        let now = Instant::now();
        publish_stats_delta(&coordinator.stats, &mut stats_published);
        if let Some(slot) = &config.jobs_state {
            if let Ok(mut s) = slot.lock() {
                *s = coordinator.jobs_json(now);
            }
        }
        if coordinator.finished() || msim_testbed::shutdown_requested() {
            break;
        }

        // New workers: spawned to top the pool up, or connected over TCP.
        match &config.transport {
            Transport::Spawn { program } => {
                for ordinal in coordinator.spawn_wanted(now) {
                    let chaos = config.worker_chaos.get(ordinal).cloned().flatten();
                    let slot = spawn_worker(program, next_worker_id, chaos, &event_tx)
                        .map_err(|e| format!("spawn worker: {e}"))?;
                    coordinator.adopt(slot);
                    next_worker_id += 1;
                }
            }
            Transport::Tcp { .. } => {
                while let Ok(stream) = conn_rx.try_recv() {
                    let read_half = stream
                        .try_clone()
                        .map_err(|e| format!("clone worker stream: {e}"))?;
                    spawn_line_reader(next_worker_id, read_half, event_tx.clone());
                    let writer = LineWriter::new(stream);
                    coordinator.adopt(WorkerSlot::new(next_worker_id, writer, None));
                    next_worker_id += 1;
                }
            }
        }

        // One event, or a short wait to rescan deadlines (none after an
        // inline run: more may be due, and events are still read between).
        let wait = if coordinator.tick(now)? { 0 } else { 25 };
        match event_rx.recv_timeout(Duration::from_millis(wait)) {
            Ok(event) => coordinator.on_event(event, Instant::now())?,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("coordinator event channel closed".into())
            }
        }
    }
    let leased_out = Instant::now();

    // Drain: ask every surviving worker to exit, then reap children.
    coordinator.dismiss_workers();
    // A worker's final frames can still be in flight when the last shard
    // completes — e.g. a late duplicate Done from a reassigned or
    // misbehaving worker. Keep reading until every reader thread closes
    // so those frames land in stats/violations instead of being dropped.
    // A run cut short (early stop, signal) kills its workers instead.
    let cut_short = !coordinator.complete();
    if !cut_short {
        let drain_deadline = leased_out + Duration::from_secs(5);
        while coordinator.workers.iter().any(|w| w.alive) && Instant::now() < drain_deadline {
            match event_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(event) => coordinator.on_event(event, Instant::now())?,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    let drained = Instant::now();
    for w in &mut coordinator.workers {
        if let Some(child) = &mut w.child {
            if cut_short {
                let _ = child.kill();
            }
            wait_with_timeout(child, Duration::from_secs(5));
        }
    }
    let reaped = Instant::now();

    let artifact = coordinator.merged()?;
    let first_lease = coordinator.first_lease.unwrap_or(leased_out);
    let phases = [
        ("startup", first_lease - entered),
        ("leasing", leased_out - first_lease),
        ("drain", drained - leased_out),
        ("reap", reaped - drained),
        ("merge", reaped.elapsed()),
    ];
    Ok(coordinator.into_outcome(artifact, &phases))
}

fn attempt_of(state: &ShardState) -> u64 {
    match state {
        ShardState::Pending { attempt, .. } => *attempt,
        ShardState::Leased { attempt, .. } => *attempt,
        ShardState::Done => 0,
    }
}

fn pending_with_backoff(config: &ClusterConfig, attempt: u64, now: Instant) -> ShardState {
    let factor = 1u32 << attempt.min(10) as u32;
    let delay = config
        .backoff_base
        .saturating_mul(factor)
        .min(config.backoff_cap);
    ShardState::Pending {
        eligible_at: now + delay,
        attempt,
    }
}

/// Starts `<program> worker` with piped stdio and a reader thread feeding
/// `event_tx`.
fn spawn_worker(
    program: &Path,
    id: u64,
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
    Ok(WorkerSlot::new(id, LineWriter::new(stdin), Some(child)))
}

/// The spawn ordinals this tick's top-up starts. The first top-up fills
/// the pool (`target`, at least one); afterwards a short-handed pool
/// (fewer alive than `target`, or nobody able to take a lease) gets one
/// replacement a tick; nothing is spawned past `budget`.
fn top_up(
    target: usize,
    spawned_total: usize,
    budget: usize,
    alive: usize,
    available: usize,
) -> Range<usize> {
    let target = target.max(1);
    let want = if spawned_total == 0 {
        target
    } else {
        usize::from(alive < target || available < 1)
    };
    spawned_total..(spawned_total + want).min(budget.max(spawned_total))
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
    if msim_core::telemetry::enabled() {
        for (series, now, before) in [
            (
                "msp_lease_reassignments_total",
                stats.reassignments,
                prev.reassignments,
            ),
            (
                "msp_duplicate_completions_total",
                stats.duplicates,
                prev.duplicates,
            ),
            (
                "msp_protocol_errors_total",
                stats.protocol_errors,
                prev.protocol_errors,
            ),
            ("msp_worker_respawns_total", stats.respawns, prev.respawns),
            ("msp_inline_runs_total", stats.inline_runs, prev.inline_runs),
            (
                "msp_resumed_shards_total",
                stats.resumed_shards,
                prev.resumed_shards,
            ),
        ] {
            msim_core::telemetry::count(series, now - before);
        }
    }
    *prev = *stats;
}

/// The serial in-process reference: expand, run every cell on this
/// thread, merge. The distributed artifact must be bit-identical to this.
pub fn serial_artifact(manifest: &SweepManifest) -> Result<Value, String> {
    let (cells, rows) = serial_rows(manifest)?;
    merge_rows(&manifest.name, manifest.fingerprint(), &cells, &rows)
}

/// Convenience for tests: the serial artifact's rows without the merge.
pub fn serial_rows(manifest: &SweepManifest) -> Result<(Vec<Cell>, Vec<CellRow>), String> {
    let cells = manifest.expand()?;
    let mut hosts = HostCache::new();
    let rows = (0..cells.len())
        .map(|index| cell_row(&cells, index, &mut hosts))
        .collect();
    Ok((cells, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let config = ClusterConfig::new(SweepManifest::smoke(), PathBuf::from("unused"));
        let now = Instant::now();
        let delay_of = |attempt: u64| match pending_with_backoff(&config, attempt, now) {
            ShardState::Pending { eligible_at, .. } => eligible_at - now,
            _ => unreachable!(),
        };
        assert_eq!(delay_of(0), config.backoff_base);
        assert_eq!(delay_of(3), config.backoff_base * 8);
        assert_eq!(delay_of(40), config.backoff_cap);
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

    // ---- the Coordinator against scripted workers -----------------------
    //
    // No process, no thread, no sleep: a worker is a slot whose writer is
    // an in-memory sink the test reads back, its frames are fed through
    // `on_event`, and every instant is `t0` plus made-up milliseconds.

    use msim_core::rng::Prng;
    use std::io::Write;
    use std::sync::OnceLock;

    /// What the coordinator wrote to one worker.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        /// The frames written since the last call.
        fn take(&self) -> Vec<Frame> {
            let bytes = std::mem::take(&mut *self.0.lock().unwrap());
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(|line| Frame::from_line(line).unwrap())
                .collect()
        }
    }

    const SHARDS: u64 = 3;

    /// Three shards of two cells.
    fn manifest() -> SweepManifest {
        SweepManifest {
            name: "scripted".into(),
            workloads: vec!["testbed/MSPlayer".into()],
            runs: 2,
            shard_cells: 2,
        }
    }

    /// The manifest's serial rows and serial artifact bytes, run once.
    fn truth() -> &'static (Vec<CellRow>, String) {
        static TRUTH: OnceLock<(Vec<CellRow>, String)> = OnceLock::new();
        TRUTH.get_or_init(|| {
            let (cells, rows) = serial_rows(&manifest()).unwrap();
            assert_eq!(manifest().shards(cells.len()).len() as u64, SHARDS);
            let artifact = serial_artifact(&manifest()).unwrap();
            (rows, msim_json::to_string_pretty(&artifact))
        })
    }

    /// 200 ms leases, 10 ms backoff capped at 40 ms, two workers.
    fn config() -> ClusterConfig {
        ClusterConfig {
            lease_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..ClusterConfig::new(manifest(), PathBuf::from("unused"))
        }
    }

    /// A coordinator, its made-up clock and the sinks of its workers
    /// (worker `id` writes to `sinks[id - 1]`).
    struct Rig<'a> {
        c: Coordinator<'a>,
        t0: Instant,
        sinks: Vec<Sink>,
    }

    impl<'a> Rig<'a> {
        fn new(config: &'a ClusterConfig) -> Rig<'a> {
            let t0 = Instant::now();
            Rig {
                c: Coordinator::new(config, t0).unwrap(),
                t0,
                sinks: Vec::new(),
            }
        }

        fn at(&self, ms: u64) -> Instant {
            self.t0 + Duration::from_millis(ms)
        }

        /// Adopts one more worker; returns its id. Its hello waits in its
        /// sink.
        fn attach(&mut self) -> u64 {
            let sink = Sink::default();
            self.sinks.push(sink.clone());
            let id = self.sinks.len() as u64;
            self.c
                .adopt(WorkerSlot::new(id, LineWriter::new(sink), None));
            id
        }

        /// Adopts one more worker, which is greeted; returns its id.
        fn adopt(&mut self) -> u64 {
            let id = self.attach();
            match &self.sent(id)[..] {
                [Frame::Hello {
                    worker,
                    manifest,
                    digest_epoch: DIGEST_EPOCH,
                }] => assert_eq!((*worker, manifest), (id, &self.c.config.manifest)),
                other => panic!("worker {id} was greeted with {other:?}"),
            }
            id
        }

        /// Adopts a worker and has it say `Ready` at `ms`.
        fn ready_worker(&mut self, ms: u64) -> u64 {
            let id = self.adopt();
            let ready = Frame::Ready {
                worker: id,
                digest_epoch: DIGEST_EPOCH,
            };
            self.frame(id, ready, ms);
            id
        }

        fn event(&mut self, event: LineEvent, ms: u64) {
            self.c.on_event(event, self.at(ms)).unwrap();
        }

        fn frame(&mut self, peer: u64, frame: Frame, ms: u64) {
            self.event(LineEvent::Line(peer, frame.to_line()), ms);
        }

        fn tick(&mut self, ms: u64) -> bool {
            self.c.tick(self.at(ms)).unwrap()
        }

        /// The coordinator crashes at `ms`: it and its workers are gone, and
        /// a new one starts from whatever the journal holds.
        fn restart(&mut self, ms: u64) -> Result<(), String> {
            self.sinks.clear();
            self.c = Coordinator::new(self.c.config, self.at(ms))?;
            Ok(())
        }

        /// What worker `id` was sent since the last look.
        fn sent(&self, id: u64) -> Vec<Frame> {
            self.sinks[id as usize - 1].take()
        }

        /// `(attempt, ms until eligible)` of a pending shard, as of `ms`.
        fn pending(&self, shard: usize, ms: u64) -> (u64, u64) {
            match self.c.states[shard] {
                ShardState::Pending {
                    eligible_at,
                    attempt,
                } => (
                    attempt,
                    eligible_at
                        .saturating_duration_since(self.at(ms))
                        .as_millis() as u64,
                ),
                ref other => panic!("shard {shard} is {other:?}, not pending"),
            }
        }

        fn merged_bytes(&self) -> String {
            msim_json::to_string_pretty(&self.c.merged().unwrap().expect("complete"))
        }
    }

    /// The true rows of `shard`.
    fn rows_of(shard: u64) -> Vec<CellRow> {
        truth().0[shard as usize * 2..][..2].to_vec()
    }

    fn done(worker: u64, shard: u64, attempt: u64, rows: Vec<CellRow>) -> Frame {
        Frame::Done {
            worker,
            shard,
            attempt,
            wall_us: 1,
            rows,
        }
    }

    fn lease(shard: u64, attempt: u64) -> Frame {
        Frame::Lease { shard, attempt }
    }

    #[test]
    fn expired_lease_is_re_leased_and_the_late_duplicate_is_counted_and_compared() {
        let config = config();
        let mut rig = Rig::new(&config);
        let (a, b) = (rig.ready_worker(0), rig.ready_worker(0));
        assert!(!rig.tick(0));
        assert_eq!(rig.sent(a), [lease(0, 1)]);
        assert_eq!(rig.sent(b), [lease(1, 1)]);
        assert_eq!(rig.c.first_lease, Some(rig.at(0)));

        // `b` works through shards 1 and 2; `a` says nothing.
        rig.frame(b, done(b, 1, 1, rows_of(1)), 50);
        rig.tick(50);
        assert_eq!(rig.sent(b), [lease(2, 1)]);
        rig.frame(b, done(b, 2, 1, rows_of(2)), 120);
        // A heartbeat from the wrong worker extends nothing.
        let beat = Frame::Heartbeat {
            worker: b,
            shard: 0,
            cells_done: 1,
            counters: Vec::new(),
        };
        rig.frame(b, beat, 150);
        rig.tick(199);
        assert_eq!(rig.c.stats.reassignments, 0, "deadline is at 200");

        // Expiry: back to pending behind a 20 ms backoff, `a` still busy.
        rig.tick(200);
        assert_eq!(rig.c.stats.reassignments, 1);
        assert_eq!(rig.pending(0, 200), (1, 20));
        assert_eq!(rig.sent(b), [], "not eligible before the backoff");
        rig.tick(220);
        assert_eq!(rig.sent(b), [lease(0, 2)], "speculative re-lease");
        rig.frame(b, done(b, 0, 2, rows_of(0)), 260);
        assert!(rig.c.finished() && rig.c.complete());

        // The straggler reports at last: a duplicate, compared by digest.
        rig.frame(a, done(a, 0, 1, rows_of(0)), 900);
        assert_eq!(rig.c.stats.duplicates, 1);
        assert!(rig.c.violations.is_empty());
        let mut diverged = rows_of(0);
        diverged[1].digest ^= 1;
        rig.frame(a, done(a, 0, 1, diverged), 901);
        assert_eq!(rig.c.stats.duplicates, 2);
        assert_eq!(rig.c.violations.len(), 1, "{:?}", rig.c.violations);
        assert!(rig.c.violations[0].contains("shard 0 attempt 1 (worker 1)"));

        assert_eq!(rig.merged_bytes(), truth().1);
        let outcome = rig.c.into_outcome(None, &[]);
        assert_eq!(outcome.stats.protocol_errors, 0);
    }

    #[test]
    fn a_heartbeat_from_the_lease_holder_extends_the_lease() {
        let config = config();
        let mut rig = Rig::new(&config);
        let a = rig.ready_worker(0);
        rig.tick(0);
        let beat = Frame::Heartbeat {
            worker: a,
            shard: 0,
            cells_done: 1,
            counters: Vec::new(),
        };
        rig.frame(a, beat, 150);
        rig.tick(349);
        assert_eq!(rig.c.stats.reassignments, 0);
        let jobs = rig.c.jobs_json(rig.at(349));
        assert!(jobs.contains(r#""lease_remaining_ms":1,"#), "{jobs}");
        rig.tick(350);
        assert_eq!(rig.c.stats.reassignments, 1);
    }

    #[test]
    fn garbage_and_coordinator_direction_frames_condemn_and_requeue_with_capped_backoff() {
        let config = config();
        let mut rig = Rig::new(&config);
        // Each worker in turn takes shard 0 and then frames something no
        // worker may: bytes that are not UTF-8, a line that is not a
        // frame, a frame only a coordinator sends.
        let offences = [
            LineEvent::Garbage(1, 7),
            LineEvent::Line(2, "{\"type\":".into()),
            LineEvent::Line(3, lease(0, 9).to_line()),
            LineEvent::Line(4, Frame::Shutdown.to_line()),
        ];
        let mut ms = 0;
        for (n, offence) in offences.into_iter().enumerate() {
            let (id, attempt) = (n as u64 + 1, n as u64 + 1);
            assert_eq!(rig.ready_worker(ms), id);
            assert!(!rig.tick(ms));
            assert_eq!(rig.sent(id), [lease(0, attempt)]);
            rig.event(offence, ms + 1);
            assert_eq!(rig.c.stats.protocol_errors, attempt);
            assert_eq!(rig.c.stats.reassignments, attempt);
            let w = &rig.c.workers[n];
            assert!(!w.alive && !w.ready && w.busy.is_none());
            // 10 ms doubling per attempt, capped at 40.
            let backoff = [20, 40, 40, 40][n];
            assert_eq!(rig.pending(0, ms + 1), (attempt, backoff));
            ms += 1 + backoff;
        }
        // Four attempts spent: nobody is leased it again, it runs here.
        let id = rig.ready_worker(ms);
        assert!(rig.tick(ms));
        assert_eq!(rig.sent(id), [lease(1, 1)]);
        assert_eq!(rig.c.stats.inline_runs, 1);
        assert_eq!(rig.c.done[&0].record.rows, rows_of(0));
        assert_eq!(
            (rig.c.done[&0].record.worker, rig.c.done[&0].record.attempt),
            (0, 5)
        );
    }

    #[test]
    fn ready_of_another_digest_epoch_is_refused_and_never_leased() {
        let config = config();
        let mut rig = Rig::new(&config);
        let old = rig.adopt();
        let ready = Frame::Ready {
            worker: old,
            digest_epoch: DIGEST_EPOCH - 1,
        };
        rig.frame(old, ready, 0);
        assert_eq!(rig.sent(old), [Frame::Shutdown]);
        assert!(!rig.c.workers[0].alive);
        for ms in [0, 100, 200] {
            rig.tick(ms);
        }
        assert_eq!(rig.sent(old), [], "no lease for a refused worker");
        assert_eq!(rig.c.completed_this_run, 0);
    }

    #[test]
    fn a_done_whose_rows_are_not_its_shards_is_refused_not_journaled() {
        let journal = std::env::temp_dir().join(format!(
            "msp-coordinator-{}-wrong-rows.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let config = ClusterConfig {
            checkpoint: Some(journal.clone()),
            ..config()
        };
        let mut rig = Rig::new(&config);
        let wrong: [Vec<CellRow>; 4] = [
            rows_of(0)[..1].to_vec(),                        // too few
            rows_of(1),                                      // another shard's
            rows_of(0).into_iter().rev().collect(),          // out of order
            [rows_of(0), rows_of(0)[..1].to_vec()].concat(), // too many
        ];
        let mut ms = 0;
        for (n, rows) in wrong.into_iter().enumerate() {
            let id = rig.ready_worker(ms);
            rig.tick(ms);
            assert_eq!(rig.sent(id), [lease(0, n as u64 + 1)]);
            rig.frame(id, done(id, 0, n as u64 + 1, rows), ms + 1);
            assert_eq!(rig.c.stats.protocol_errors, n as u64 + 1);
            assert!(!rig.c.workers[n].alive, "condemned");
            assert_eq!(rig.pending(0, ms + 1).0, n as u64 + 1, "lease requeued");
            assert!(rig.c.done.is_empty());
            ms += 50;
        }
        // A shard nobody has is as wrong.
        let id = rig.ready_worker(ms);
        rig.frame(id, done(id, SHARDS, 1, rows_of(0)), ms);
        assert_eq!(rig.c.stats.protocol_errors, 5);
        assert!(!rig.c.workers[4].alive);

        // Honest workers finish the sweep; the journal holds their records
        // only, so a resume merges.
        let id = rig.ready_worker(ms);
        for shard in [1, 2] {
            rig.tick(ms);
            assert_eq!(rig.sent(id).last(), Some(&lease(shard, 1)));
            rig.frame(id, done(id, shard, 1, rows_of(shard)), ms);
        }
        assert_eq!(rig.c.stats.inline_runs, 1, "shard 0, past MAX_ATTEMPTS");
        assert_eq!(rig.merged_bytes(), truth().1);
        drop(rig);
        let resumed = Rig::new(&config);
        assert_eq!(resumed.c.stats.resumed_shards, SHARDS);
        assert_eq!(resumed.merged_bytes(), truth().1);
        let _ = std::fs::remove_file(&journal);
    }

    /// The stream a `done` arrives on is who sent it: one naming another
    /// worker is refused like one with the wrong rows, so a journal,
    /// provenance or violation never blames a worker for what another did.
    #[test]
    fn a_done_naming_another_worker_is_refused_not_journaled() {
        let journal = std::env::temp_dir().join(format!(
            "msp-coordinator-{}-wrong-worker.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let config = ClusterConfig {
            checkpoint: Some(journal.clone()),
            ..config()
        };
        let mut rig = Rig::new(&config);
        let (a, b) = (rig.ready_worker(0), rig.ready_worker(0));
        rig.tick(0);
        assert_eq!(rig.sent(a), [lease(0, 1)]);
        rig.frame(a, done(b, 0, 1, rows_of(0)), 1);
        assert_eq!(rig.c.stats.protocol_errors, 1);
        assert!(!rig.c.workers[0].alive, "condemned");
        assert_eq!(rig.pending(0, 1).0, 1, "lease requeued");
        assert!(rig.c.done.is_empty());
        drop(rig);
        let (_, replayed) = Checkpoint::open(&journal, &manifest()).unwrap();
        assert!(replayed.is_empty(), "nothing journaled: {replayed:?}");
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn a_journal_record_whose_rows_are_not_its_shards_is_skipped_on_replay() {
        let journal = std::env::temp_dir().join(format!(
            "msp-coordinator-{}-poisoned.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let record = |shard, rows| CheckpointRecord {
            shard,
            worker: 1,
            attempt: 1,
            wall_us: 1,
            rows,
        };
        let (mut checkpoint, _) = Checkpoint::open(&journal, &manifest()).unwrap();
        checkpoint
            .append(&record(0, rows_of(0)[..1].to_vec()))
            .unwrap();
        checkpoint.append(&record(1, rows_of(1))).unwrap();
        checkpoint.append(&record(2, rows_of(0))).unwrap();
        checkpoint.append(&record(7, rows_of(0))).unwrap();
        drop(checkpoint);

        let config = ClusterConfig {
            checkpoint: Some(journal.clone()),
            ..config()
        };
        let mut rig = Rig::new(&config);
        assert_eq!(rig.c.stats.resumed_shards, 1);
        assert_eq!(rig.pending(0, 0), (0, 0));
        assert!(matches!(rig.c.states[1], ShardState::Done));
        assert_eq!(rig.pending(2, 0), (0, 0));
        // The skipped shards run again and the sweep merges.
        let id = rig.ready_worker(0);
        for shard in [0, 2] {
            rig.tick(0);
            assert_eq!(rig.sent(id).last(), Some(&lease(shard, 1)));
            rig.frame(id, done(id, shard, 1, rows_of(shard)), 1);
        }
        assert_eq!(rig.merged_bytes(), truth().1);
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn a_starved_cluster_runs_its_shards_inline() {
        let config = config();
        let mut rig = Rig::new(&config);
        // One shard each time a full lease timeout has passed with nobody
        // to lease to and no progress (an inline run is progress).
        for n in 1..=SHARDS {
            assert!(!rig.c.finished());
            assert!(!rig.tick(n * 201 - 1));
            assert!(rig.tick(n * 201));
        }
        assert!(rig.c.finished());
        assert_eq!(rig.c.stats.inline_runs, SHARDS);
        assert_eq!(rig.merged_bytes(), truth().1);
    }

    /// Every worker holds a lease it let lapse and never reports again,
    /// and the respawn budget is spent: they are alive and `Ready`, yet
    /// nobody to lease to, so the progress guarantee must step in.
    #[test]
    fn workers_hung_past_their_leases_do_not_keep_the_cluster_from_starving() {
        let config = config();
        let mut rig = Rig::new(&config);
        let budget = config.workers * 2 + 4;
        let mut ms = 0;
        while rig.c.spawned_total < budget {
            assert!(ms < 10_000, "hung workers are never replaced");
            for _ in rig.c.spawn_wanted(rig.at(ms)) {
                rig.ready_worker(ms);
            }
            rig.tick(ms);
            ms += 250; // every lease handed out so far has lapsed
        }
        assert!(rig.c.spawn_wanted(rig.at(ms)).is_empty(), "budget spent");
        assert_eq!(rig.c.stats.respawns as usize, budget - config.workers);
        assert!(rig.c.workers.iter().all(|w| w.alive && w.ready));
        while !rig.c.finished() {
            ms += 50;
            assert!(ms < 10_000, "hung workers starve the cluster for good");
            rig.tick(ms);
        }
        assert!(rig.c.stats.inline_runs > 0);
        assert_eq!(rig.merged_bytes(), truth().1);
    }

    #[test]
    fn stop_after_shards_finishes_early_and_yields_no_artifact() {
        let config = ClusterConfig {
            stop_after_shards: Some(1),
            ..config()
        };
        let mut rig = Rig::new(&config);
        let a = rig.ready_worker(0);
        rig.tick(0);
        assert!(!rig.c.finished());
        rig.frame(a, done(a, 0, 1, rows_of(0)), 10);
        assert!(rig.c.finished() && !rig.c.complete());
        let artifact = rig.c.merged().unwrap();
        assert!(artifact.is_none());
        let took = Duration::from_micros(7);
        let outcome = rig.c.into_outcome(artifact, &[("startup", took)]);
        assert!(!outcome.completed && outcome.artifact.is_none());
        let provenance = msim_json::to_string(&outcome.provenance);
        assert!(
            provenance.contains(r#""phases_us":{"startup":7}"#),
            "{provenance}"
        );
        assert!(provenance.contains(r#""completed":false"#), "{provenance}");
    }

    #[test]
    fn a_stream_closed_mid_lease_requeues_it_and_a_replacement_is_wanted() {
        let config = config();
        let mut rig = Rig::new(&config);
        assert_eq!(
            rig.c.spawn_wanted(rig.at(0)),
            0..2,
            "the whole pool at once"
        );
        let (a, b) = (rig.ready_worker(0), rig.ready_worker(0));
        rig.tick(0);
        assert!(rig.c.spawn_wanted(rig.at(1)).is_empty());
        rig.event(LineEvent::Closed(a), 5);
        assert!(!rig.c.workers[0].alive);
        assert_eq!(rig.c.stats.reassignments, 1);
        assert_eq!(rig.pending(0, 5), (1, 20));
        assert_eq!(rig.c.spawn_wanted(rig.at(5)), 2..3, "one replacement");
        assert_eq!(rig.c.stats.respawns, 1);
        // A second close of the same stream changes nothing.
        rig.event(LineEvent::Closed(a), 6);
        assert_eq!(rig.c.stats.reassignments, 1);
        // A worker that reports failure keeps serving; its lease requeues.
        let fail = Frame::Fail {
            worker: b,
            shard: Some(1),
            message: "interrupted".into(),
        };
        rig.frame(b, fail, 7);
        assert_eq!(rig.c.stats.reassignments, 2);
        assert!(rig.c.workers[1].alive && rig.c.workers[1].busy.is_none());
        let jobs = rig.c.jobs_json(rig.at(7));
        assert!(
            jobs.starts_with(
                r#"{"completed_this_run":0,"shards":[{"attempt":1,"shard":0,"state":"pending"},"#
            ),
            "{jobs}"
        );
        assert!(jobs.ends_with(r#""workers":[{"alive":false,"id":1,"ready":false},{"alive":true,"id":2,"ready":true}]}"#), "{jobs}");
    }

    // ---- the schedule explorer -------------------------------------------
    //
    // Behind every adopted slot is a real `Worker` whose cells are the
    // serial run's rows, looked up. What the coordinator writes to a slot
    // is parsed and fed to its worker; what the worker frames crosses a
    // seeded wire that delays, reorders, drops, duplicates, corrupts and
    // partitions, and the worker itself may hang or die. Every instant is
    // made up.

    use super::super::worker::Worker;

    /// An explorer worker's cell: the serial run's row.
    fn true_row(_: &[Cell], index: usize, _: &mut HostCache) -> CellRow {
        truth().0[index]
    }

    /// Cuts the journal at `path` where a crash could have left it: at a
    /// random byte at or past the header line, at a line end half the time.
    /// Returns the whole records left, which is what a resume must restore.
    fn tear(path: &Path, rng: &mut Prng) -> Result<u64, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let newline = |i: &usize| bytes[*i - 1] == b'\n';
        let header = (1..=bytes.len()).find(newline).ok_or("no header line")?;
        let cut = if rng.chance(0.5) {
            let ends: Vec<usize> = (header..=bytes.len()).filter(newline).collect();
            ends[rng.below(ends.len() as u64) as usize]
        } else {
            rng.range(header as u64, bytes.len() as u64 + 1) as usize
        };
        let file = std::fs::OpenOptions::new().write(true).open(path);
        file.and_then(|f| f.set_len(cut as u64))
            .map_err(|e| e.to_string())?;
        Ok((header + 1..=cut).filter(newline).count() as u64)
    }

    /// The far end of one slot.
    #[derive(Default)]
    struct Node {
        worker: Worker,
        /// When its current cell ends and it steps again.
        next_step: u64,
        /// Hung, exited, crashed or killed: it frames nothing more.
        gone: bool,
        /// When its stream closes of its own accord.
        crash_at: Option<u64>,
        /// What it frames in this window is held until the window ends.
        partition: Range<u64>,
    }

    /// One seeded schedule: a coordinator, the far ends of its slots (worker
    /// `id` is `nodes[id - 1]`) and the wire between them.
    struct Sim<'a> {
        rig: Rig<'a>,
        nodes: Vec<Node>,
        rng: Prng,
        /// `(due ms, event, whether it is a protocol error)`, in the order
        /// sent: delays are drawn per frame, so frames of one worker
        /// reorder, and a dropped frame is one never queued.
        wire: Vec<(u64, LineEvent, bool)>,
        /// Protocol errors delivered to this coordinator.
        errors: u64,
        /// Workers dealt a fault, or whose stream closes: the ones this
        /// coordinator may condemn or lose.
        excused: Vec<u64>,
        /// Frames a partition held.
        held: u64,
    }

    impl Sim<'_> {
        fn queue(&mut self, due: u64, event: LineEvent) {
            self.wire.push((due, event, false));
        }

        /// A protocol error dealt to worker `id`.
        fn fault(&mut self, id: u64, due: u64, event: LineEvent) {
            self.excused.push(id);
            self.wire.push((due, event, true));
        }

        /// How long a worker's next cell takes: one in twelve outlasts the
        /// heartbeat pace, and may outlast the lease.
        fn cell_ms(&mut self) -> u64 {
            match self.rng.below(12) {
                0 => self.rng.range(100, 500),
                _ => self.rng.range(1, 40),
            }
        }

        /// Worker `id`'s stream closes at `ms`: it exited, crashed, or
        /// died mid-write.
        fn close(&mut self, id: u64, ms: u64) {
            self.nodes[id as usize - 1].gone = true;
            self.excused.push(id);
            let delay = self.rng.range(1, 30);
            self.queue(ms + delay, LineEvent::Closed(id));
        }

        /// What a lease may bring its worker: a hang, a crash mid-lease, a
        /// partition.
        fn doom(&mut self, id: u64, ms: u64) {
            let fate = self.rng.below(40);
            let crash_at = ms + self.rng.range(1, 190);
            let from = ms + self.rng.range(0, 100);
            let partition = from..from + self.rng.range(20, 600);
            let node = &mut self.nodes[id as usize - 1];
            node.next_step = ms;
            node.gone |= fate == 0;
            node.crash_at = (fate == 1 || fate == 2).then_some(crash_at);
            if self.rng.below(10) == 0 {
                node.partition = partition;
            }
        }

        /// Puts what worker `id` framed at `ms` on the wire, faults and all.
        fn carry(&mut self, id: u64, frame: Frame, ms: u64) {
            let line = |frame: &Frame| LineEvent::Line(id, frame.to_line());
            let partition = self.nodes[id as usize - 1].partition.clone();
            if partition.contains(&ms) {
                // Held until the link heals, then delivered in order.
                self.held += 1;
                return self.queue(partition.end, line(&frame));
            }
            let ready = matches!(frame, Frame::Ready { .. });
            let due = ms + self.rng.range(1, if ready { 30 } else { 190 });
            let lost = self.rng.below(30) == 0;
            match frame {
                // A `Ready` in thirty is lost, and one in thirty rewritten
                // to another digest epoch: its worker must be condemned.
                Frame::Ready { worker, .. } if !lost && self.rng.below(30) == 0 => {
                    let old = Frame::Ready {
                        worker,
                        digest_epoch: DIGEST_EPOCH - 1,
                    };
                    self.excused.push(id);
                    self.queue(due, line(&old));
                }
                Frame::Done {
                    worker,
                    shard,
                    attempt,
                    ..
                } => match self.rng.below(20) {
                    // Delivered after the lease has expired.
                    0 => {
                        let late = ms + self.rng.range(210, 900);
                        self.queue(late, line(&frame));
                    }
                    // Delivered twice.
                    1 => {
                        let again = ms + self.rng.range(1, 400);
                        self.queue(due, line(&frame));
                        self.queue(again, line(&frame));
                    }
                    // Dropped.
                    2 => {}
                    // Its rows rewritten to another shard's.
                    3 => {
                        let rows = rows_of((shard + 1) % SHARDS);
                        self.fault(id, due, line(&done(worker, shard, attempt, rows)));
                    }
                    // Garbage, or a frame only a coordinator sends, instead.
                    4 => self.fault(id, due, LineEvent::Garbage(id, 3)),
                    5 => self.fault(id, due, line(&lease(shard, attempt))),
                    // Half of it, then the close of a worker that died
                    // mid-write.
                    6 => {
                        let text = frame.to_line();
                        self.fault(id, due, LineEvent::Line(id, text[..text.len() / 2].into()));
                        self.close(id, due);
                    }
                    _ => self.queue(due, line(&frame)),
                },
                // One frame in thirty is lost.
                _ if lost => {}
                frame => self.queue(due, line(&frame)),
            }
        }

        /// Delivers what is due at `ms` (everything, once `drain`), and
        /// checks that each protocol error the coordinator counts, and each
        /// worker it condemns, traces to a fault the explorer dealt: a
        /// worker that frames wrongly on a clean stream fails the seed.
        fn deliver(&mut self, ms: u64, drain: bool) -> Result<(), String> {
            self.wire.sort_by_key(|(due, ..)| *due);
            let due = self.wire.iter().filter(|(due, ..)| drain || *due <= ms);
            for (due, event, error) in self.wire.drain(..due.count()).collect::<Vec<_>>() {
                self.errors += u64::from(error);
                self.rig.c.on_event(event, self.rig.at(due.max(ms)))?;
                let counted = self.rig.c.stats.protocol_errors;
                if counted != self.errors {
                    return Err(format!(
                        "at {ms} ms: {counted} protocol errors, {} dealt",
                        self.errors
                    ));
                }
                let excused = |w: &&WorkerSlot| w.alive || self.excused.contains(&w.id);
                if let Some(w) = self.rig.c.workers.iter().find(|w| !excused(w)) {
                    return Err(format!(
                        "at {ms} ms: worker {} condemned, no fault dealt",
                        w.id
                    ));
                }
            }
            Ok(())
        }

        /// Runs every live worker at `ms`: feeds it what the coordinator
        /// wrote to it, then steps its lease if its cell has ended, and
        /// puts what it frames on the wire. A worker the coordinator
        /// condemned was killed, and a lease may doom its worker.
        fn run_workers(&mut self, ms: u64) {
            for id in 1..=self.nodes.len() as u64 {
                let (slot, now) = (id as usize - 1, self.rig.at(ms));
                self.nodes[slot].gone |= !self.rig.c.workers[slot].alive;
                for frame in self.rig.sent(id) {
                    if self.nodes[slot].gone {
                        continue;
                    }
                    let leased = matches!(frame, Frame::Lease { .. });
                    let (frames, exit) = self.nodes[slot].worker.on_frame(frame, now);
                    for frame in frames {
                        self.carry(id, frame, ms);
                    }
                    if exit.is_some() {
                        self.close(id, ms);
                    } else if leased {
                        self.doom(id, ms);
                    }
                }
                let node = &mut self.nodes[slot];
                if node.gone {
                    continue;
                }
                if node.crash_at.is_some_and(|at| at <= ms) {
                    self.close(id, ms);
                } else if node.next_step <= ms && node.worker.progress().is_some() {
                    for frame in node.worker.step(now) {
                        self.carry(id, frame, ms);
                    }
                    self.nodes[slot].next_step = ms + self.cell_ms();
                }
            }
        }
    }

    /// Runs one seeded schedule to the end and checks safety and liveness;
    /// `Err` names what broke, `Ok` is what the coordinator had to handle
    /// and how many frames a partition held. One seed in four journals its
    /// completions and crashes the coordinator once or twice: everything it
    /// had, workers and wire included, is gone, the journal is [`tear`]n,
    /// and a new coordinator must restore exactly the whole records left.
    fn explore(seed: u64) -> Result<(ClusterStats, u64), String> {
        // As the driver: a step per event, 25 ms apart at most.
        const STEP_MS: u64 = 25;
        const BOUND_MS: u64 = 20_000;
        // Coordinator crashes draw from their own stream: a seed without
        // them runs the schedule it would run if they did not exist.
        let mut crashes = Prng::new(seed ^ 0x0C_0A5E_D0FF);
        let journal = crashes.chance(0.25).then(|| {
            let name = format!("msp-explore-{}-{seed}.ndjson", std::process::id());
            std::env::temp_dir().join(name)
        });
        if let Some(path) = &journal {
            let _ = std::fs::remove_file(path);
        }
        let mut crashes_left = journal.as_ref().map_or(0, |_| 1 + crashes.below(2));
        let mut next_crash = crashes.range(1, 300);
        let config = ClusterConfig {
            checkpoint: journal.clone(),
            ..config()
        };
        let mut sim = Sim {
            rig: Rig::new(&config),
            nodes: Vec::new(),
            rng: Prng::new(seed ^ 0xC0_0D1A_7012),
            wire: Vec::new(),
            errors: 0,
            excused: Vec::new(),
            held: 0,
        };
        let mut ms = 0;
        while !sim.rig.c.finished() {
            if ms > BOUND_MS {
                return Err(format!("not finished after {BOUND_MS} simulated ms"));
            }
            if crashes_left > 0 && next_crash <= ms {
                crashes_left -= 1;
                next_crash = ms + crashes.range(1, 300);
                let path = journal.as_deref().expect("only a journaled run crashes");
                let whole = tear(path, &mut crashes)?;
                sim.rig.restart(ms)?;
                (sim.nodes, sim.wire, sim.errors, sim.excused) = Default::default();
                let resumed = sim.rig.c.stats.resumed_shards;
                if resumed != whole {
                    return Err(format!(
                        "restart at {ms} ms: {whole} whole journal records, {resumed} resumed"
                    ));
                }
            }
            sim.deliver(ms, false)?;
            for _ in sim.rig.c.spawn_wanted(sim.rig.at(ms)) {
                sim.rig.attach();
                let worker = Worker::scripted(true_row);
                sim.nodes.push(Node {
                    worker,
                    ..Node::default()
                });
            }
            while sim.rig.c.tick(sim.rig.at(ms))? {}
            sim.run_workers(ms);
            let wakes = sim.nodes.iter().filter(|n| !n.gone).flat_map(|n| {
                let step = n.worker.progress().map(|_| n.next_step);
                step.into_iter().chain(n.crash_at)
            });
            let next_due = sim.wire.iter().map(|(due, ..)| *due).chain(wakes).min();
            ms = next_due.map_or(ms + STEP_MS, |due| due.clamp(ms + 1, ms + STEP_MS));
        }

        // Drain: the workers are dismissed, and what is still on the wire
        // (a partition's held frames included) lands as duplicates.
        sim.rig.c.dismiss_workers();
        sim.run_workers(ms);
        sim.deliver(ms, true)?;
        let c = &sim.rig.c;
        let (resumed, completed) = (c.stats.resumed_shards, c.completed_this_run);
        if resumed + completed != SHARDS {
            return Err(format!(
                "{resumed} shards resumed and {completed} completions accepted for {SHARDS} shards"
            ));
        }
        if !c.violations.is_empty() {
            return Err(format!("violations: {:?}", c.violations));
        }
        let merged = c.merged()?.ok_or("finished but not complete")?;
        if msim_json::to_string_pretty(&merged) != truth().1 {
            return Err("merged artifact differs from the serial one".into());
        }
        if let Some(path) = &journal {
            let _ = std::fs::remove_file(path);
        }
        Ok((c.stats, sim.held))
    }

    /// 2 500 seeded schedules against real workers (wire delay, reorder,
    /// drop, duplicate and partition; hangs, closes mid-lease, a torn
    /// `Done` and a close, wrong-rows `Done`, garbage, coordinator frames,
    /// a `Ready` of another digest epoch; coordinator restarts from a torn
    /// journal): each must finish in bounded simulated time, count a
    /// protocol error or condemn a worker only for a fault it was dealt,
    /// accept every shard exactly once and merge to the serial artifact's
    /// bytes. A failure names its seed: `explore(seed)` in a test of its
    /// own pins it.
    #[test]
    fn explorer_every_seeded_schedule_finishes_and_merges_to_the_serial_bytes() {
        let (mut seen, mut partitioned) = ([0u64; 6], 0);
        for seed in 0..2_500 {
            let (stats, held) =
                explore(seed).unwrap_or_else(|what| panic!("schedule seed {seed}: {what}"));
            let faults = [
                stats.reassignments,
                stats.duplicates,
                stats.protocol_errors,
                stats.respawns,
                stats.inline_runs,
                stats.resumed_shards,
            ];
            for (seen, n) in seen.iter_mut().zip(faults) {
                *seen += u64::from(n > 0);
            }
            partitioned += u64::from(held > 0);
        }
        // The schedules reach every way of handling a fault, often.
        assert!(seen.iter().all(|&seeds| seeds >= 50), "{seen:?}");
        assert!(
            partitioned >= 50,
            "partitions held frames in {partitioned} seeds"
        );
    }
}
