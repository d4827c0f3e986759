//! Deterministic sweep engine: the library half only.
//!
//! Every figure in the paper is a sweep over workload cells, each cell one
//! session. This module is what runs them in process:
//!
//! * [`Cell`] and [`expand_workload`]: a workload's grid as a list of fully
//!   determined sessions (scheduler → chunk → seed, always in that order);
//! * [`HostCache`]: cells that share a workload share a warmed
//!   [`SessionHost`], so the control-plane bootstrap is paid once per
//!   (worker, workload) and not once per cell. A host batch is bit-identical
//!   to independent sessions, so this cannot change a result;
//! * [`run_serial`] and [`run_parallel`]: the second fans the cells across
//!   std threads drawing from one shared cursor and merges **in cell
//!   order**, so its output is bit-for-bit the first's however the OS
//!   schedules the workers (`tests/sweep_determinism.rs`);
//! * [`CellResult`]: a cell with the metrics of its session.
//!
//! There is no front end here. A sweep that must survive a stuck or dying
//! executor is `msplayer coordinator` ([`crate::cluster`]: lease expiry,
//! re-lease, poison), the figures are `msplayer scorecard`, and speed is
//! measured by `benchmark/` alone.

use crate::workload::WorkloadSpec;
use msplayer_core::config::SchedulerKind;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::SessionHost;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

    /// The cell's kind label (`<workload>/<scheduler>`), as the cluster
    /// artifact's rows carry it. Borrowed from the interned label — no
    /// allocation per call.
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
        CellResult {
            cell: self.clone(),
            metrics: Box::new(host.run(&spec).expect("registered workloads validate")),
        }
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

/// A cell together with its complete session metrics.
///
/// Equality compares the cell parameters and *everything* in the metrics
/// (chunk records, f64 ABR traces, event counts) — which is what lets the
/// determinism tests assert bit-identical parallel/serial output.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: Cell,
    /// Boxed: a sweep holds thousands of results and moves each one a few
    /// times on its way into the merged list.
    metrics: Box<SessionMetrics>,
}

impl CellResult {
    /// The session metrics. Always `Some`: every cell runs to completion.
    /// The `Option` is kept only because the frozen
    /// `benchmark/src/entry.rs` calls `.is_some()` on it; it goes when
    /// `benchmark/` thaws (ROADMAP item 1).
    pub fn metrics(&self) -> Option<&SessionMetrics> {
        Some(&self.metrics)
    }

    /// The session metrics.
    pub fn expect_metrics(&self) -> &SessionMetrics {
        &self.metrics
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

/// Runs every cell on the calling thread, in order, sharing hosts across
/// cells of the same workload.
pub fn run_serial(cells: &[Cell]) -> Vec<CellResult> {
    let mut hosts = HostCache::new();
    cells
        .iter()
        .map(|c| c.run_on(hosts.host_for(&c.workload)))
        .collect()
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
    let n_threads = n_threads.max(1).min(cells.len().max(1));
    if n_threads <= 1 || cells.len() <= 1 {
        return run_serial(cells);
    }

    // Publishes nothing but the claim itself: results travel through `join`.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<CellResult>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut hosts = HostCache::new();
                    let mut done: Vec<(usize, CellResult)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(idx) else { break };
                        done.push((idx, cell.run_on(hosts.host_for(&cell.workload))));
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
}
