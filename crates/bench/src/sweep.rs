//! Deterministic parallel sweep engine.
//!
//! Every figure in the paper is a sweep over workload cells, each cell one
//! session. Cells are enumerated from [`WorkloadSpec`]s (open registry —
//! see [`crate::workload`]); the engine fans them across a thread pool
//! drawing from one shared cursor (std threads only — no external deps)
//! and merges results **in cell order**, so the output is bit-for-bit
//! identical to the serial runner no matter how the OS schedules the
//! workers (asserted by `tests/sweep_determinism.rs`).
//!
//! Cells that share a workload also share a warmed [`SessionHost`] per
//! worker, so the per-session control-plane bootstrap is paid once per
//! (worker, workload) instead of once per cell — without affecting results,
//! since a host batch is bit-identical to independent sessions.
//!
//! * Thread count: `MSP_THREADS` env var, else
//!   [`std::thread::available_parallelism`].
//! * Each run can emit a machine-readable `BENCH_<name>.json` (wall time,
//!   sessions/sec, events/sec, per-cell-kind wall-time percentiles) via
//!   [`write_bench_json`]. Performance *claims* are made with `benchmark/`
//!   (trials, spread, host stamp), not with these single-pass artifacts.

use crate::workload::WorkloadSpec;
use msplayer_core::config::SchedulerKind;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::SessionHost;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One sweep cell: a fully determined session to run.
///
/// The workload handle carries the path set, service profile, player
/// family, and stop condition; the cell pins one (scheduler, chunk, seed)
/// point of the workload's grid.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The workload this cell belongs to.
    pub workload: Arc<WorkloadSpec>,
    /// Scheduler under test (single-path commercial workloads pin
    /// `Fixed`).
    pub scheduler: SchedulerKind,
    /// Initial/base chunk size in KB.
    pub chunk_kb: u64,
    /// Session seed.
    pub seed: u64,
    /// Interned kind label, shared by every cell of the same
    /// (workload, scheduler) group — [`Cell::kind`] hands out `&str`
    /// without allocating per cell.
    kind: Arc<str>,
}

/// Cells compare by their determining parameters (workload name + grid
/// point) — two cells with equal parameters run identical sessions.
impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        self.workload.name == other.workload.name
            && self.scheduler == other.scheduler
            && self.chunk_kb == other.chunk_kb
            && self.seed == other.seed
    }
}

impl Cell {
    /// Builds a cell, interning its kind label. Cells created through
    /// [`expand_workload`] share one label allocation per
    /// (workload, scheduler) group.
    pub fn new(
        workload: Arc<WorkloadSpec>,
        scheduler: SchedulerKind,
        chunk_kb: u64,
        seed: u64,
    ) -> Cell {
        let kind: Arc<str> = kind_label(&workload, scheduler).into();
        Cell {
            workload,
            scheduler,
            chunk_kb,
            seed,
            kind,
        }
    }

    /// The cell's kind label (`<workload>/<scheduler>`): the grouping key
    /// for the per-kind timing percentiles in `BENCH_*.json`. Borrowed
    /// from the interned label — no allocation per call.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Runs this cell's session on a one-shot host. Prefer
    /// [`Cell::run_on`] with a [`HostCache`] when running many cells.
    pub fn run(&self) -> CellResult {
        let mut host = SessionHost::new(self.workload.service.clone());
        self.run_on(&mut host)
    }

    /// Runs this cell's session over an already-warmed host (which must
    /// have been built from this cell's workload service spec).
    pub fn run_on(&self, host: &mut SessionHost) -> CellResult {
        let spec = self
            .workload
            .session_spec(self.scheduler, self.chunk_kb, self.seed);
        let t0 = Instant::now();
        let metrics = host.run(&spec).expect("registered workloads validate");
        CellResult {
            cell: self.clone(),
            outcome: CellOutcome::Done(Box::new(metrics)),
            wall_secs: t0.elapsed().as_secs_f64(),
        }
    }

    /// The one-line `sweep` case-mode invocation reproducing this cell —
    /// attached to watchdog rows so a timed-out cell is immediately
    /// re-runnable in isolation.
    pub fn repro(&self) -> String {
        format!(
            "sweep --workload {:?} --scheduler {} --chunk-kb {} --seed {}",
            self.workload.name,
            self.scheduler.name(),
            self.chunk_kb,
            self.seed
        )
    }
}

/// The kind label of a (workload, scheduler) cell group.
fn kind_label(workload: &WorkloadSpec, scheduler: SchedulerKind) -> String {
    format!("{}/{}", workload.name, scheduler.name())
}

/// Expands one workload into its cell list (scheduler → chunk → seed, all
/// deterministic). The kind label is interned once per scheduler group and
/// shared by its cells.
pub fn expand_workload(workload: &Arc<WorkloadSpec>) -> Vec<Cell> {
    let mut out = Vec::new();
    for &scheduler in &workload.schedulers {
        let kind: Arc<str> = kind_label(workload, scheduler).into();
        for &chunk_kb in &workload.chunk_kb {
            for run in 0..workload.runs {
                out.push(Cell {
                    workload: Arc::clone(workload),
                    scheduler,
                    chunk_kb,
                    seed: workload.seed(run),
                    kind: Arc::clone(&kind),
                });
            }
        }
    }
    out
}

/// What running one cell produced: a completed session, or a typed
/// watchdog row when the cell blew its wall-time budget.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The session ran to completion. Boxed: full session metrics dwarf
    /// the timeout variant, and sweeps hold thousands of these.
    Done(Box<SessionMetrics>),
    /// The cell exceeded the sweep's per-cell wall-time budget (see
    /// [`SweepOptions::cell_budget`]). The sweep keeps going; the row
    /// carries the one-line repro so the hang is reproducible in
    /// isolation.
    TimedOut {
        /// The budget that was exceeded, in seconds.
        budget_secs: f64,
        /// One-line `sweep` case-mode invocation reproducing the cell.
        repro: String,
    },
}

/// A cell together with its complete session metrics.
///
/// Equality compares the cell parameters and *everything* in the outcome
/// (chunk records, f64 goodputs, event counts) — which is what lets the
/// determinism tests assert bit-identical parallel/serial output. The
/// measured wall time is deliberately excluded: it is a property of the
/// execution, not of the session.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: Cell,
    /// Completed metrics, or the typed watchdog row.
    pub outcome: CellOutcome,
    /// Wall-clock seconds this cell's session took to execute (the
    /// budget, for timed-out cells).
    pub wall_secs: f64,
}

impl CellResult {
    /// The session metrics, when the cell completed.
    pub fn metrics(&self) -> Option<&SessionMetrics> {
        match &self.outcome {
            CellOutcome::Done(m) => Some(m.as_ref()),
            CellOutcome::TimedOut { .. } => None,
        }
    }

    /// The session metrics; panics on a watchdog row. For call sites that
    /// run without a cell budget (where a timeout is impossible).
    pub fn expect_metrics(&self) -> &SessionMetrics {
        match &self.outcome {
            CellOutcome::Done(m) => m.as_ref(),
            CellOutcome::TimedOut { repro, .. } => {
                panic!("cell timed out under the watchdog (repro: {repro})")
            }
        }
    }

    /// Did the watchdog cut this cell short?
    pub fn timed_out(&self) -> bool {
        matches!(self.outcome, CellOutcome::TimedOut { .. })
    }
}

impl PartialEq for CellResult {
    fn eq(&self, other: &CellResult) -> bool {
        self.cell == other.cell && self.outcome == other.outcome
    }
}

/// Execution options for a sweep run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Per-cell wall-time budget. A cell still running past the budget is
    /// abandoned and reported as [`CellOutcome::TimedOut`] instead of
    /// hanging the whole sweep; the sweep continues on a fresh runner.
    /// `None` (the default) preserves the historical run-to-completion
    /// behaviour with zero overhead.
    pub cell_budget: Option<Duration>,
}

impl SweepOptions {
    /// Options from the environment: `MSP_CELL_BUDGET_SECS` (fractional
    /// seconds; unset or 0 disables the watchdog). A value that is not a
    /// representable, non-negative number of seconds ends the process
    /// (exit code 2), as a bad `MSP_RUNS` does.
    pub fn from_env() -> SweepOptions {
        SweepOptions {
            cell_budget: crate::env_or_exit("MSP_CELL_BUDGET_SECS", parse_cell_budget),
        }
    }
}

/// `MSP_CELL_BUDGET_SECS` as read from the environment (`None` = unset)
/// to a watchdog budget (`None` = no watchdog).
fn parse_cell_budget(value: Option<&str>) -> Result<Option<Duration>, String> {
    let Some(v) = value else { return Ok(None) };
    let secs = v.trim().parse::<f64>().ok();
    match secs.and_then(|s| Duration::try_from_secs_f64(s).ok()) {
        Some(budget) => Ok(Some(budget).filter(|b| !b.is_zero())),
        None => Err(format!(
            "MSP_CELL_BUDGET_SECS={v:?}: expected a finite number of seconds >= 0 (0 = no watchdog)"
        )),
    }
}

/// A watchdog-guarded cell runner: cells execute on a helper thread that
/// owns its [`HostCache`]; if one exceeds the budget, the thread is
/// abandoned (it parks on a dead channel when the hung session ever
/// finishes) and a fresh runner takes over for the next cell.
struct WatchdogRunner {
    budget: Duration,
    lane: Option<RunnerLane>,
}

struct RunnerLane {
    tx: mpsc::Sender<Cell>,
    rx: mpsc::Receiver<CellResult>,
}

impl WatchdogRunner {
    fn new(budget: Duration) -> WatchdogRunner {
        WatchdogRunner { budget, lane: None }
    }

    fn lane(&mut self) -> &RunnerLane {
        if self.lane.is_none() {
            let (cell_tx, cell_rx) = mpsc::channel::<Cell>();
            let (result_tx, result_rx) = mpsc::channel::<CellResult>();
            std::thread::spawn(move || {
                let mut hosts = HostCache::new();
                while let Ok(cell) = cell_rx.recv() {
                    let result = cell.run_on(hosts.host_for(&cell.workload));
                    if result_tx.send(result).is_err() {
                        // The sweep abandoned this lane mid-cell (watchdog
                        // fired); drop the stale result and retire.
                        return;
                    }
                }
            });
            self.lane = Some(RunnerLane {
                tx: cell_tx,
                rx: result_rx,
            });
        }
        self.lane.as_ref().expect("just installed")
    }

    fn run(&mut self, cell: &Cell) -> CellResult {
        let budget = self.budget;
        let lane = self.lane();
        if lane.tx.send(cell.clone()).is_err() {
            // Lane thread died (a previous hung cell panicked after
            // abandonment); replace it and retry once.
            self.lane = None;
            let lane = self.lane();
            lane.tx.send(cell.clone()).expect("fresh lane accepts work");
        }
        let lane = self.lane.as_ref().expect("lane exists");
        let t0 = Instant::now();
        // The budget is a contract on elapsed wall time, not on channel
        // luck: a result that arrives after the deadline (possible when
        // this thread was descheduled between send and receive — the
        // queued message would otherwise win over the timeout) is still
        // a timeout. That keeps TimedOut independent of scheduler noise.
        if let Ok(result) = lane.rx.recv_timeout(budget) {
            if t0.elapsed() <= budget {
                return result;
            }
        }
        // Budget blown (or lane lost): abandon the lane — its host
        // cache goes with it — and emit the typed row.
        self.lane = None;
        CellResult {
            cell: cell.clone(),
            outcome: CellOutcome::TimedOut {
                budget_secs: budget.as_secs_f64(),
                repro: cell.repro(),
            },
            wall_secs: budget.as_secs_f64(),
        }
    }
}

/// Worker count: `MSP_THREADS` env var, else (unset or 0) the machine's
/// available parallelism, else 1. A value that is not a non-negative
/// integer ends the process (exit code 2), as a bad `MSP_RUNS` does.
pub fn threads() -> usize {
    crate::env_or_exit("MSP_THREADS", parse_threads).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `MSP_THREADS` as read from the environment (`None` = unset) to a
/// worker count (`None` = one per available core).
fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(v) = value else { return Ok(None) };
    match v.trim().parse::<usize>() {
        Ok(n) => Ok(Some(n).filter(|&n| n > 0)),
        Err(_) => Err(format!(
            "MSP_THREADS={v:?}: expected a non-negative integer (0 = all cores)"
        )),
    }
}

/// A per-worker cache of warmed [`SessionHost`]s, one per workload.
///
/// Keyed by the workload's `Arc` pointer: cells expanded from the same
/// registration share a host, cells from different registrations (even
/// with equal specs) get their own. The list stays tiny — a handful of
/// workloads per sweep — so a linear scan beats a hash map.
#[derive(Default)]
pub struct HostCache {
    hosts: Vec<(Arc<WorkloadSpec>, SessionHost)>,
}

impl HostCache {
    /// An empty cache.
    pub fn new() -> HostCache {
        HostCache::default()
    }

    /// The cached host for `workload`, building it on first use. The key
    /// `Arc` is retained by the cache, so its address can never be
    /// recycled for a different workload while the entry lives.
    pub fn host_for(&mut self, workload: &Arc<WorkloadSpec>) -> &mut SessionHost {
        if let Some(i) = self
            .hosts
            .iter()
            .position(|(k, _)| Arc::ptr_eq(k, workload))
        {
            return &mut self.hosts[i].1;
        }
        self.hosts.push((
            Arc::clone(workload),
            SessionHost::new(workload.service.clone()),
        ));
        &mut self.hosts.last_mut().expect("just pushed").1
    }
}

/// Per-thread cell executor: the direct host-cache path when no budget is
/// configured (zero overhead — the historical behaviour), the watchdog
/// lane otherwise.
enum CellExecutor {
    Direct(HostCache),
    Watchdog(WatchdogRunner),
}

impl CellExecutor {
    fn new(opts: &SweepOptions) -> CellExecutor {
        match opts.cell_budget {
            None => CellExecutor::Direct(HostCache::new()),
            Some(budget) => CellExecutor::Watchdog(WatchdogRunner::new(budget)),
        }
    }

    fn run(&mut self, cell: &Cell) -> CellResult {
        match self {
            CellExecutor::Direct(hosts) => cell.run_on(hosts.host_for(&cell.workload)),
            CellExecutor::Watchdog(runner) => runner.run(cell),
        }
    }
}

/// Runs every cell on the calling thread, in order, sharing hosts across
/// cells of the same workload.
pub fn run_serial(cells: &[Cell]) -> Vec<CellResult> {
    run_serial_with(cells, &SweepOptions::default())
}

/// [`run_serial`] with execution options (per-cell watchdog budget).
pub fn run_serial_with(cells: &[Cell], opts: &SweepOptions) -> Vec<CellResult> {
    let mut exec = CellExecutor::new(opts);
    cells.iter().map(|c| exec.run(c)).collect()
}

/// Runs the cells across `n_threads` workers, returning results **in cell
/// order** — bit-for-bit identical to [`run_serial`].
///
/// The workers share one cursor into the cell list: each claims the next
/// unclaimed index until the list is spent, so a slow cell delays only
/// the worker that drew it. Each result is tagged with its cell index, so
/// the merge is a deterministic scatter regardless of which worker ran
/// what. Every worker keeps its own [`HostCache`] — hosts are not shared
/// across threads, and host reuse cannot change results (bit-identical
/// batch guarantee).
pub fn run_parallel(cells: &[Cell], n_threads: usize) -> Vec<CellResult> {
    run_parallel_with(cells, n_threads, &SweepOptions::default())
}

/// [`run_parallel`] with execution options (per-cell watchdog budget —
/// each worker guards its own cells, so one hung cell stalls at most one
/// worker for one budget instead of wedging the pool).
pub fn run_parallel_with(cells: &[Cell], n_threads: usize, opts: &SweepOptions) -> Vec<CellResult> {
    let n_threads = n_threads.max(1).min(cells.len().max(1));
    if n_threads <= 1 || cells.len() <= 1 {
        return run_serial_with(cells, opts);
    }

    // Publishes nothing but the claim itself: results travel through `join`.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<CellResult>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut exec = CellExecutor::new(opts);
                    let mut done: Vec<(usize, CellResult)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(idx) else { break };
                        done.push((idx, exec.run(cell)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (idx, result) in worker.join().expect("sweep worker panicked") {
                debug_assert!(slots[idx].is_none(), "cell {idx} ran twice");
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("cell {i} never ran")))
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample, `q` in (0, 1].
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-cell-kind wall-time statistics (milliseconds), recorded in
/// `BENCH_*.json` so scheduler-level regressions are attributable to the
/// kind that slowed down.
#[derive(Clone, Debug, PartialEq)]
pub struct CellKindStats {
    /// The kind label (`<workload>/<scheduler>`).
    pub kind: String,
    /// Cells of this kind in the sweep.
    pub cells: u64,
    /// Median per-cell wall time, ms.
    pub p50_ms: f64,
    /// 95th-percentile per-cell wall time, ms.
    pub p95_ms: f64,
    /// 99th-percentile per-cell wall time, ms.
    pub p99_ms: f64,
    /// Total wall time spent in this kind, ms.
    pub total_ms: f64,
}

/// Groups results by cell kind and computes per-kind wall-time
/// percentiles. Output order follows first appearance in `results`
/// (deterministic, since results are merged in cell order).
pub fn cell_kind_stats(results: &[CellResult]) -> Vec<CellKindStats> {
    let mut order: Vec<String> = Vec::new();
    let mut samples: Vec<Vec<f64>> = Vec::new();
    for r in results {
        let kind = r.cell.kind();
        let idx = match order.iter().position(|k| k == kind) {
            Some(i) => i,
            None => {
                order.push(kind.to_string());
                samples.push(Vec::new());
                order.len() - 1
            }
        };
        samples[idx].push(r.wall_secs * 1e3);
    }
    order
        .into_iter()
        .zip(samples)
        .map(|(kind, mut ms)| {
            let total_ms = ms.iter().sum();
            ms.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
            CellKindStats {
                kind,
                cells: ms.len() as u64,
                p50_ms: percentile_sorted(&ms, 0.50),
                p95_ms: percentile_sorted(&ms, 0.95),
                p99_ms: percentile_sorted(&ms, 0.99),
                total_ms,
            }
        })
        .collect()
}

/// Timing + throughput summary of one sweep execution.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Label, used in the output filename (`BENCH_<name>.json`).
    pub name: String,
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Number of cells (sessions) executed.
    pub sessions: u64,
    /// Total simulator events processed across all sessions.
    pub events: u64,
    /// Wall-clock duration of the sweep.
    pub wall_secs: f64,
    /// Serial wall-clock reference, when measured alongside.
    pub serial_wall_secs: Option<f64>,
    /// Per-cell-kind wall-time percentiles.
    pub cell_kinds: Vec<CellKindStats>,
    /// Cells the watchdog cut short (0 without a cell budget).
    pub timed_out: u64,
}

impl BenchReport {
    /// Builds a report by timing `f`.
    ///
    /// Per-cell-kind percentiles are recorded for single-threaded runs
    /// only: under a thread pool, per-cell wall times are inflated by
    /// worker contention, which would poison the regression-attribution
    /// data the percentiles exist for.
    pub fn measure<F>(name: &str, threads: usize, f: F) -> (BenchReport, Vec<CellResult>)
    where
        F: FnOnce() -> Vec<CellResult>,
    {
        let t0 = Instant::now();
        let results = f();
        let wall = t0.elapsed().as_secs_f64();
        let report = BenchReport {
            name: name.to_string(),
            threads,
            sessions: results.len() as u64,
            events: results
                .iter()
                .filter_map(|r| r.metrics().map(|m| m.events))
                .sum(),
            wall_secs: wall,
            serial_wall_secs: None,
            cell_kinds: if threads <= 1 {
                cell_kind_stats(&results)
            } else {
                Vec::new()
            },
            timed_out: results.iter().filter(|r| r.timed_out()).count() as u64,
        };
        (report, results)
    }

    /// Sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions as f64 / self.wall_secs.max(1e-12)
    }

    /// Simulator events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-12)
    }

    /// Speedup over the serial reference, when one was recorded.
    pub fn speedup(&self) -> Option<f64> {
        self.serial_wall_secs.map(|s| s / self.wall_secs.max(1e-12))
    }

    /// Renders the report as a JSON value. The pre-existing fields (name,
    /// threads, sessions, events, wall_secs, sessions_per_sec,
    /// events_per_sec, serial_wall_secs, speedup) are stable; `cell_kinds`
    /// extends the schema (present on single-threaded reports only — see
    /// [`BenchReport::measure`]), and `stream_epoch` records which
    /// deviate-stream definition ([`msim_core::rng::STREAM_EPOCH`]) the
    /// numbers were measured against.
    pub fn to_json(&self) -> msim_json::Value {
        let mut v = msim_json::Value::object()
            .with("name", self.name.as_str())
            .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
            .with("threads", self.threads as u64)
            .with("sessions", self.sessions)
            .with("events", self.events)
            .with("wall_secs", self.wall_secs)
            .with("sessions_per_sec", self.sessions_per_sec())
            .with("events_per_sec", self.events_per_sec());
        if let Some(s) = self.serial_wall_secs {
            v = v.with("serial_wall_secs", s);
            if let Some(x) = self.speedup() {
                v = v.with("speedup", x);
            }
        }
        if self.timed_out > 0 {
            v = v.with("timed_out", self.timed_out);
        }
        if !self.cell_kinds.is_empty() {
            let kinds: Vec<msim_json::Value> = self
                .cell_kinds
                .iter()
                .map(|k| {
                    msim_json::Value::object()
                        .with("kind", k.kind.as_str())
                        .with("cells", k.cells)
                        .with("p50_ms", k.p50_ms)
                        .with("p95_ms", k.p95_ms)
                        .with("p99_ms", k.p99_ms)
                        .with("total_ms", k.total_ms)
                })
                .collect();
            v = v.with("cell_kinds", msim_json::Value::Array(kinds));
        }
        v
    }
}

/// Directory for bench JSON artifacts, created if missing: `MSP_BENCH_DIR`
/// as read from the environment (`None` = unset), else `target/bench/`
/// under the workspace root. Bins resolve it once at start-up through
/// [`crate::env_or_exit`], so a directory that cannot be created ends the
/// process (exit code 2) before any cell runs instead of after the last.
pub fn bench_dir(msp_bench_dir: Option<&str>) -> Result<std::path::PathBuf, String> {
    let dir = match msp_bench_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let mut base = std::env::current_dir().unwrap_or_else(|_| ".".into());
            for _ in 0..4 {
                if base.join("target").is_dir() && base.join("Cargo.toml").is_file() {
                    break;
                }
                if let Some(parent) = base.parent() {
                    base = parent.to_path_buf();
                }
            }
            base.join("target").join("bench")
        }
    };
    match std::fs::create_dir_all(&dir) {
        Ok(()) => Ok(dir),
        Err(e) => Err(match msp_bench_dir {
            Some(v) => format!("MSP_BENCH_DIR={v:?}: {e}"),
            None => format!("MSP_BENCH_DIR unset, {}: {e}", dir.display()),
        }),
    }
}

/// Writes `BENCH_<report.name>.json` into `dir` (see [`bench_dir`]),
/// returning the path.
pub fn write_bench_json(
    dir: &std::path::Path,
    report: &BenchReport,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join(format!("BENCH_{}.json", report.name));
    std::fs::write(&path, msim_json::to_string_pretty(&report.to_json()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Testbed MSPlayer (Harmonic, Ratio) + WiFi-only, 10 s pre-buffer,
    /// two seeds each: six cells.
    fn tiny_cells() -> Vec<Cell> {
        let reg = crate::workload::WorkloadRegistry::builtin(2);
        ["testbed/MSPlayer", "testbed/WiFi"]
            .iter()
            .flat_map(|name| {
                let mut w = WorkloadSpec::clone(reg.by_name(name).expect("builtin"));
                w.prebuffer_secs = 10.0;
                w.schedulers.retain(|&s| s != SchedulerKind::Ewma);
                expand_workload(&Arc::new(w))
            })
            .collect()
    }

    #[test]
    fn msp_cell_budget_secs_accepts_seconds_and_treats_unset_or_zero_as_off() {
        assert_eq!(parse_cell_budget(None), Ok(None));
        assert_eq!(parse_cell_budget(Some("0")), Ok(None));
        assert_eq!(parse_cell_budget(Some("0.0")), Ok(None));
        assert_eq!(
            parse_cell_budget(Some(" 2.5 ")),
            Ok(Some(Duration::from_millis(2500)))
        );
        assert_eq!(
            parse_cell_budget(Some("30")),
            Ok(Some(Duration::from_secs(30)))
        );
    }

    #[test]
    fn msp_cell_budget_secs_rejects_what_no_duration_holds_naming_the_variable() {
        for bad in ["inf", "1e300", "nan", "-1", "soon", ""] {
            let err = parse_cell_budget(Some(bad)).unwrap_err();
            assert!(
                err.starts_with(&format!("MSP_CELL_BUDGET_SECS={bad:?}: expected ")),
                "{err}"
            );
        }
    }

    #[test]
    fn msp_threads_accepts_counts_and_treats_unset_or_zero_as_all_cores() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("0")), Ok(None));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
    }

    #[test]
    fn msp_threads_rejects_garbage_naming_the_variable() {
        for bad in ["two", "-1", "2.5", ""] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(
                err.starts_with(&format!("MSP_THREADS={bad:?}: expected ")),
                "{err}"
            );
        }
    }

    #[test]
    fn expansion_order_is_stable() {
        let a = tiny_cells();
        let b = tiny_cells();
        assert_eq!(a, b);
        // MSPlayer × 2 schedulers × 2 seeds + WifiOnly × 1 × 2 seeds.
        assert_eq!(a.len(), 6);
        assert_eq!(a[0].scheduler, SchedulerKind::Harmonic);
        assert_eq!(a[4].workload.name, "testbed/WiFi");
        assert_eq!(a[4].scheduler, SchedulerKind::Fixed);
    }

    #[test]
    fn parallel_merge_is_cell_ordered() {
        let cells = tiny_cells();
        let serial = run_serial(&cells);
        let parallel = run_parallel(&cells, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p);
        }
    }

    #[test]
    fn single_thread_parallel_equals_serial() {
        let cells = tiny_cells();
        assert_eq!(run_serial(&cells), run_parallel(&cells, 1));
    }

    #[test]
    fn host_reuse_matches_one_shot_cells() {
        let cells = tiny_cells();
        let shared = run_serial(&cells);
        let one_shot: Vec<CellResult> = cells.iter().map(Cell::run).collect();
        assert_eq!(shared, one_shot, "host reuse changed a session");
    }

    #[test]
    fn cell_kinds_group_and_count() {
        let cells = tiny_cells();
        let results = run_serial(&cells);
        let kinds = cell_kind_stats(&results);
        assert_eq!(kinds.len(), 3, "2 MSPlayer schedulers + WiFi/Fixed");
        assert_eq!(kinds[0].kind, "testbed/MSPlayer/Harmonic");
        assert!(kinds.iter().all(|k| k.cells == 2));
        for k in &kinds {
            assert!(k.p50_ms <= k.p95_ms && k.p95_ms <= k.p99_ms, "{k:?}");
            assert!(k.total_ms > 0.0);
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 0.50), 2.0);
        assert_eq!(percentile_sorted(&s, 0.95), 4.0);
        assert_eq!(percentile_sorted(&s, 1.0), 4.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn watchdog_times_out_slow_cell_and_sweep_continues() {
        let cells = tiny_cells();
        // A 1ns budget: every cell (real sessions take microseconds at
        // least) becomes a typed TimedOut row instead of hanging.
        let opts = SweepOptions {
            cell_budget: Some(Duration::from_nanos(1)),
        };
        let results = run_serial_with(&cells, &opts);
        assert_eq!(results.len(), cells.len(), "sweep kept going");
        let first = &results[0];
        assert!(first.timed_out());
        assert!(first.metrics().is_none());
        match &first.outcome {
            CellOutcome::TimedOut { budget_secs, repro } => {
                assert!(*budget_secs > 0.0);
                assert!(repro.contains("sweep --workload"), "{repro}");
                assert!(repro.contains("--scheduler"), "{repro}");
                assert!(repro.contains("--seed"), "{repro}");
            }
            other => panic!("{other:?}"),
        }
        // The report counts the watchdog rows instead of crashing on them.
        let (report, _) = BenchReport::measure("wd", 1, || run_serial_with(&cells, &opts));
        assert_eq!(report.timed_out, report.sessions);
        assert!(msim_json::to_string(&report.to_json()).contains("\"timed_out\""));
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        let cells = tiny_cells();
        let opts = SweepOptions {
            cell_budget: Some(Duration::from_secs(120)),
        };
        assert_eq!(run_serial(&cells), run_serial_with(&cells, &opts));
        assert_eq!(run_serial(&cells), run_parallel_with(&cells, 3, &opts));
    }

    #[test]
    fn report_rates_and_json_fields() {
        let r = BenchReport {
            name: "t".into(),
            threads: 2,
            sessions: 10,
            events: 1000,
            wall_secs: 2.0,
            serial_wall_secs: Some(4.0),
            cell_kinds: vec![CellKindStats {
                kind: "testbed/MSPlayer/Harmonic".into(),
                cells: 10,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
                total_ms: 12.0,
            }],
            timed_out: 0,
        };
        assert_eq!(r.sessions_per_sec(), 5.0);
        assert_eq!(r.events_per_sec(), 500.0);
        assert_eq!(r.speedup(), Some(2.0));
        let json = msim_json::to_string(&r.to_json());
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"cell_kinds\""));
        assert!(json.contains("\"p99_ms\""));
    }
}
