//! The four workloads, and how one trial of each runs and is checked.
//!
//! Every workload is a closed loop: a trial is a fixed amount of work (same
//! sessions, same seeds, every trial), and the next trial starts when the
//! previous one has finished and been checked.

use crate::entry::{
    self, ClusterOutcome, FleetHost, FleetMetrics, SchedulerKind, SessionHost, SessionMetrics,
    SessionSpec, SweepManifest, WorkloadRegistry, WorkloadSpec,
};
use crate::span::Tracer;
use std::path::PathBuf;
use std::sync::Arc;

/// Workload names, as in `BENCHMARK.json`.
pub const NAMES: [&str; 4] = [
    "sweep_events",
    "sweep_transfer",
    "cluster_ticks",
    "fleet_fluid",
];

/// `--smoke` runs every workload at 1/50 of its size.
const SMOKE_DIVISOR: u64 = 50;

/// Seeds per kind of `sweep_events`: 12 kinds × 300 = 3 600 sessions/trial.
const EVENTS_SEEDS: u64 = 300;
/// Seeds per kind of `sweep_transfer`: 10 kinds × 1 000 = 10 000 per trial.
const TRANSFER_SEEDS: u64 = 1_000;
/// `cluster_ticks` manifest: 7 cell kinds × 500 runs = 3 500 cells/trial.
const CLUSTER_WORKLOADS: [&str; 4] = [
    "abr/closed-loop",
    "abr/mobility-handoff",
    "abr/ladder",
    "mobility/mixed-trace",
];
const CLUSTER_RUNS: u64 = 500;
const CLUSTER_SHARD_CELLS: u64 = 125;
/// `fleet_fluid`: headline population, then the overloaded frontier cell.
const FLEET_HEADLINE_SESSIONS: u64 = 120_000;
const FLEET_OVERLOAD_SESSIONS: u64 = 20_000;

/// Every how-many-th session has its digest compared between the first and
/// the last trial.
const DIGEST_STRIDE: usize = 16;

fn scaled(n: u64, smoke: bool) -> u64 {
    if smoke {
        (n / SMOKE_DIVISOR).max(1)
    } else {
        n
    }
}

/// Mixes `--seed` into session seeds: a SplitMix64 finaliser, so nearby
/// seeds give unrelated sessions, and seed 0 leaves the registry's own seeds
/// untouched.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Failed sessions and checks: all are counted, the first few are kept.
#[derive(Default)]
pub struct Failures {
    /// How many failed.
    pub count: u64,
    /// The first messages.
    pub messages: Vec<String>,
}

impl Failures {
    /// Records one failure.
    pub fn push(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 12 {
            self.messages.push(message);
        }
    }
}

/// How a trial is run. Every mode does the same simulated work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// As a user runs it: batched calls, telemetry off. The only mode an
    /// end-to-end number ever comes from.
    Plain,
    /// Telemetry off, but calls made one session at a time, each inside a
    /// span: per-session timings from outside.
    Spans,
    /// Batched calls with the repository's telemetry on: its counters and
    /// phase accumulators, and what collecting them costs.
    Telemetry,
}

/// The modes a traced run cycles through.
pub const MODES: [Mode; 3] = [Mode::Plain, Mode::Spans, Mode::Telemetry];

/// One workload, set up and ready to run trials.
pub trait Runner {
    /// Sessions one trial attempts.
    fn sessions_per_trial(&self) -> u64;
    /// One trial in the given mode.
    fn trial(&mut self, tr: &mut Tracer, mode: Mode) -> Result<(), String>;
    /// Checks the trial that just ran; not timed.
    fn check_trial(&mut self, failures: &mut Failures);
    /// Checks made once, after the last trial.
    fn finish(&mut self, tr: &mut Tracer, failures: &mut Failures);
    /// A note for the result, if the run needs one.
    fn note(&self) -> Option<String> {
        None
    }
    /// Fills this workload's rows of the per-layer table (traced run only).
    fn layers(
        &mut self,
        tr: &mut Tracer,
        log: &crate::layers::TrialLog,
        table: &mut crate::report::LayerTable,
    ) -> Result<(), String>;
}

/// Sets a workload up: registry, hosts, specs. `seed` is the `--seed`.
pub fn build(
    name: &str,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
) -> Result<Box<dyn Runner>, String> {
    use SchedulerKind::{Ewma, Harmonic, Ratio};
    let open = tr.open("sim.registry");
    let reg = entry::registry();
    tr.close(open);
    let msplayer = ["testbed/MSPlayer", "youtube/MSPlayer"];
    let single_path = ["testbed/WiFi", "testbed/LTE", "youtube/WiFi", "youtube/LTE"];
    Ok(match name {
        // Small chunks: 80–620 events per session, so the per-event
        // machinery (queue, player, scheduler, grant check) dominates.
        "sweep_events" => {
            let grid = Grid::of(
                &reg,
                &msplayer,
                Some(&[Harmonic, Ewma, Ratio]),
                Some(&[16, 64]),
            )?;
            Box::new(SessionSweep::new(
                grid,
                scaled(EVENTS_SEEDS, smoke),
                seed,
                tr,
            ))
        }
        // 1 MB chunks and single-path players: 2–21 events per session, so
        // the transfer engine, link sampling and bootstrap dominate.
        "sweep_transfer" => {
            let mut grid = Grid::of(
                &reg,
                &msplayer,
                Some(&[Harmonic, Ewma, Ratio]),
                Some(&[1024]),
            )?;
            grid.0
                .extend(Grid::of(&reg, &single_path, None, Some(&[1024]))?.0);
            Box::new(SessionSweep::new(
                grid,
                scaled(TRANSFER_SEEDS, smoke),
                seed,
                tr,
            ))
        }
        "cluster_ticks" => Box::new(ClusterTicks::new(seed, smoke)?),
        "fleet_fluid" => Box::new(FleetFluid::new(seed, smoke, tr)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Replays the frozen sampling corpus on fresh hosts and compares digests:
/// the simulator under test must still be the simulator the corpus pins.
/// Returns the rows replayed.
pub fn corpus_precheck(tr: &mut Tracer, failures: &mut Failures) -> u64 {
    let open = tr.open("check.corpus");
    let rows = match entry::corpus() {
        Ok(rows) => rows,
        Err(e) => {
            failures.push(format!("sampling corpus: {e}"));
            tr.close(open);
            return 1;
        }
    };
    let reg = entry::registry();
    for row in &rows {
        let outcome = entry::workload(&reg, &row.workload).and_then(|w| {
            let scheduler = *w
                .schedulers
                .iter()
                .find(|s| s.name() == row.scheduler)
                .ok_or_else(|| format!("no scheduler {:?}", row.scheduler))?;
            let spec = w.session_spec(scheduler, row.chunk_kb, row.seed);
            let mut host = entry::host_new(&w);
            let metrics = entry::run_batch(&mut host, &spec, &[row.seed])?;
            Ok(entry::digest(&metrics[0]))
        });
        match outcome {
            Ok(digest) if digest == row.digest => {}
            Ok(digest) => failures.push(format!(
                "corpus row {}/{}/{}KB/{:016x}: digest {digest:016x}, pinned {:016x}",
                row.workload, row.scheduler, row.chunk_kb, row.seed, row.digest
            )),
            Err(e) => failures.push(format!("corpus row {}: {e}", row.workload)),
        }
    }
    tr.close(open);
    rows.len() as u64
}

// ---- sweep_events, sweep_transfer ------------------------------------------

/// (workload, scheduler, chunk KB) points to sweep.
pub struct Grid(Vec<(Arc<WorkloadSpec>, SchedulerKind, u64)>);

impl Grid {
    /// `workloads` × `schedulers` × `chunk_kb`; `None` takes each workload's
    /// own scheduler and chunk lists (what a manifest expands to).
    pub fn of(
        reg: &WorkloadRegistry,
        workloads: &[&str],
        schedulers: Option<&[SchedulerKind]>,
        chunk_kb: Option<&[u64]>,
    ) -> Result<Grid, String> {
        let mut points = Vec::new();
        for name in workloads {
            let w = entry::workload(reg, name)?;
            for &scheduler in schedulers.unwrap_or(&w.schedulers) {
                for &kb in chunk_kb.unwrap_or(&w.chunk_kb) {
                    points.push((Arc::clone(&w), scheduler, kb));
                }
            }
        }
        Ok(Grid(points))
    }
}

/// One (workload, scheduler, chunk) point with its seeds.
pub struct Kind {
    /// The registered workload.
    pub workload: Arc<WorkloadSpec>,
    /// Index into [`SessionSweep::hosts`].
    pub host: usize,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Initial chunk size.
    pub chunk_kb: u64,
    /// The session shape (its seed field is overridden per session).
    pub spec: SessionSpec,
    /// One session per seed.
    pub seeds: Vec<u64>,
}

/// Serial `SessionHost::run_batch` over a grid of kinds.
pub struct SessionSweep {
    /// The kinds, in grid order.
    pub kinds: Vec<Kind>,
    /// One warmed host per distinct workload.
    pub hosts: Vec<SessionHost>,
    /// Results of the latest trial, per kind.
    pub last: Vec<Vec<SessionMetrics>>,
    /// Sessions run with telemetry on so far.
    pub counted_sessions: u64,
    /// Digests of every [`DIGEST_STRIDE`]-th session of the first trial.
    reference: Vec<u64>,
}

impl SessionSweep {
    /// Builds hosts and specs. Session `run` of a kind gets the seed the
    /// registry would give it, xor the mixed `--seed`.
    pub fn new(grid: Grid, seeds_per_kind: u64, seed: u64, tr: &mut Tracer) -> SessionSweep {
        let mut owners: Vec<Arc<WorkloadSpec>> = Vec::new();
        let mut hosts = Vec::new();
        let mut kinds = Vec::new();
        for (workload, scheduler, chunk_kb) in grid.0 {
            let host = match owners.iter().position(|w| Arc::ptr_eq(w, &workload)) {
                Some(i) => i,
                None => {
                    let open = tr.open("sim.host_new");
                    hosts.push(entry::host_new(&workload));
                    tr.close(open);
                    owners.push(Arc::clone(&workload));
                    owners.len() - 1
                }
            };
            let seeds: Vec<u64> = (0..seeds_per_kind)
                .map(|run| workload.seed(run) ^ mix(seed))
                .collect();
            kinds.push(Kind {
                spec: workload.session_spec(scheduler, chunk_kb, seeds[0]),
                workload,
                host,
                scheduler,
                chunk_kb,
                seeds,
            });
        }
        SessionSweep {
            last: kinds.iter().map(|_| Vec::new()).collect(),
            kinds,
            hosts,
            counted_sessions: 0,
            reference: Vec::new(),
        }
    }

    fn sampled_digests(&self) -> Vec<u64> {
        self.last
            .iter()
            .flatten()
            .step_by(DIGEST_STRIDE)
            .map(entry::digest)
            .collect()
    }
}

impl Runner for SessionSweep {
    fn sessions_per_trial(&self) -> u64 {
        self.kinds.iter().map(|k| k.seeds.len() as u64).sum()
    }

    fn trial(&mut self, tr: &mut Tracer, mode: Mode) -> Result<(), String> {
        // The previous trial's results go before this one's are made.
        self.last.iter_mut().for_each(Vec::clear);
        entry::telemetry_enable(mode == Mode::Telemetry);
        for (kind, out) in self.kinds.iter().zip(&mut self.last) {
            let host = &mut self.hosts[kind.host];
            let batch = tr.open("sim.run_batch");
            if mode == Mode::Spans {
                for seed in &kind.seeds {
                    let session = tr.open("sim.session");
                    let result = entry::run_batch(host, &kind.spec, &[*seed]);
                    tr.close(session);
                    out.extend(result?);
                }
            } else {
                *out = entry::run_batch(host, &kind.spec, &kind.seeds)?;
            }
            tr.close(batch);
        }
        entry::telemetry_enable(false);
        if mode == Mode::Telemetry {
            self.counted_sessions += self.sessions_per_trial();
        }
        Ok(())
    }

    fn check_trial(&mut self, failures: &mut Failures) {
        for (kind, out) in self.kinds.iter().zip(&self.last) {
            if out.len() != kind.seeds.len() {
                failures.push(format!(
                    "{}: {} sessions ran, {} expected",
                    kind.workload.name,
                    out.len(),
                    kind.seeds.len()
                ));
            }
            for (m, seed) in out.iter().zip(&kind.seeds) {
                if !entry::stop_reached(&kind.spec, m) {
                    failures.push(format!(
                        "{}/{}/{}KB seed {seed:016x}: ended without reaching {:?}",
                        kind.workload.name,
                        kind.scheduler.name(),
                        kind.chunk_kb,
                        kind.spec.stop
                    ));
                }
            }
        }
        if self.reference.is_empty() {
            self.reference = self.sampled_digests();
        }
    }

    fn finish(&mut self, tr: &mut Tracer, failures: &mut Failures) {
        let open = tr.open("check.last_trial");
        if self.sampled_digests() != self.reference {
            failures.push("sampled session digests differ between first and last trial".into());
        }
        for (kind, out) in self.kinds.iter().zip(&self.last) {
            for (m, seed) in out.iter().zip(&kind.seeds) {
                for violation in entry::invariant_violations(m) {
                    failures.push(format!(
                        "{}/{}/{}KB seed {seed:016x}: {violation}",
                        kind.workload.name,
                        kind.scheduler.name(),
                        kind.chunk_kb
                    ));
                }
            }
        }
        tr.close(open);
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        log: &crate::layers::TrialLog,
        table: &mut crate::report::LayerTable,
    ) -> Result<(), String> {
        crate::layers::session_layers(self, tr, crate::stats::median(&log.plain_s), table)
            .map(|_| ())
    }
}

// ---- cluster_ticks ---------------------------------------------------------

/// `cluster::run_cluster` over spawned workers; this binary re-executes
/// itself as `worker`.
pub struct ClusterTicks {
    /// What each trial sweeps.
    pub manifest: SweepManifest,
    /// Worker processes per trial (`nproc`).
    pub workers: usize,
    /// This executable.
    pub program: PathBuf,
    /// Cells (= sessions) per trial.
    pub cells: u64,
    /// `--seed`: recorded, not applied.
    pub seed: u64,
    /// Cells per configuration.
    pub runs: u64,
    /// Sum of the coordinator's retry counters over all trials:
    /// reassignments, inline runs, respawns, duplicates.
    pub retries: [u64; 4],
    /// The serial reference fingerprint, once computed.
    pub serial_fingerprint: Option<String>,
    last: Option<ClusterOutcome>,
    reference: Option<String>,
}

impl ClusterTicks {
    fn new(seed: u64, smoke: bool) -> Result<ClusterTicks, String> {
        let runs = scaled(CLUSTER_RUNS, smoke);
        let manifest = entry::manifest(
            "benchmark_cluster_ticks",
            &CLUSTER_WORKLOADS,
            runs,
            scaled(CLUSTER_SHARD_CELLS, smoke).max(2),
        );
        let cells = entry::expand(&manifest)?.len() as u64;
        let program =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        Ok(ClusterTicks {
            manifest,
            workers: crate::host::nproc(),
            program,
            cells,
            seed,
            runs,
            retries: [0; 4],
            serial_fingerprint: None,
            last: None,
            reference: None,
        })
    }

    /// The same cells as an in-process sweep (registry seeds: a manifest
    /// carries no seed).
    pub fn in_process_twin(&self, tr: &mut Tracer) -> Result<SessionSweep, String> {
        let grid = Grid::of(&entry::registry(), &CLUSTER_WORKLOADS, None, None)?;
        Ok(SessionSweep::new(grid, self.runs, 0, tr))
    }

    /// Computes (once) the fingerprint of `serial_artifact`.
    pub fn serial_reference(&mut self, tr: &mut Tracer) -> Result<String, String> {
        if let Some(fp) = &self.serial_fingerprint {
            return Ok(fp.clone());
        }
        let open = tr.open("cluster.serial_artifact");
        let artifact = entry::serial_artifact(&self.manifest);
        tr.close(open);
        let fp = entry::sweep_fingerprint(&artifact?)
            .ok_or("serial artifact has no sweep_fingerprint")?;
        self.serial_fingerprint = Some(fp.clone());
        Ok(fp)
    }
}

impl Runner for ClusterTicks {
    fn sessions_per_trial(&self) -> u64 {
        self.cells
    }

    fn trial(&mut self, tr: &mut Tracer, mode: Mode) -> Result<(), String> {
        self.last = None;
        entry::telemetry_enable(mode == Mode::Telemetry);
        let open = tr.open("cluster.run_cluster");
        let outcome = entry::run_cluster(&self.manifest, self.workers, self.program.clone());
        tr.close(open);
        entry::telemetry_enable(false);
        self.last = Some(outcome?);
        Ok(())
    }

    fn check_trial(&mut self, failures: &mut Failures) {
        let Some(outcome) = &self.last else {
            return failures.push("no cluster outcome to check".into());
        };
        if !outcome.completed {
            failures.push("cluster run did not complete".into());
        }
        for violation in &outcome.violations {
            failures.push(format!("cluster determinism violation: {violation}"));
        }
        let s = outcome.stats;
        for (sum, n) in
            self.retries
                .iter_mut()
                .zip([s.reassignments, s.inline_runs, s.respawns, s.duplicates])
        {
            *sum += n;
        }
        let fingerprint = outcome.artifact.as_ref().and_then(entry::sweep_fingerprint);
        match (&self.reference, fingerprint) {
            (_, None) => failures.push("cluster run produced no merged fingerprint".into()),
            (None, Some(fp)) => self.reference = Some(fp),
            (Some(reference), Some(fp)) if *reference != fp => failures.push(format!(
                "merged fingerprint {fp} differs from the first trial's {reference}"
            )),
            _ => {}
        }
    }

    fn finish(&mut self, tr: &mut Tracer, failures: &mut Failures) {
        match (self.serial_reference(tr), &self.reference) {
            (Ok(serial), Some(merged)) if serial == *merged => {}
            (Ok(serial), merged) => failures.push(format!(
                "cluster fingerprint {merged:?} differs from serial_artifact's {serial}"
            )),
            (Err(e), _) => failures.push(format!("serial_artifact: {e}")),
        }
    }

    fn note(&self) -> Option<String> {
        (self.seed != 0).then(|| {
            format!(
                "--seed {} is recorded but not applied: SweepManifest has no seed field",
                self.seed
            )
        })
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        log: &crate::layers::TrialLog,
        table: &mut crate::report::LayerTable,
    ) -> Result<(), String> {
        crate::layers::cluster_layers(self, tr, log, table)
    }
}

// ---- fleet_fluid -----------------------------------------------------------

/// `FleetHost::run` in two regimes: smooth headline, then stall storm.
pub struct FleetFluid {
    hosts: [FleetHost; 2],
    /// Metrics of the latest trial: headline, overload.
    pub last: Vec<FleetMetrics>,
    reference: Vec<FleetMetrics>,
}

/// Span names of the two regimes, in run order.
pub const FLEET_SPANS: [&str; 2] = ["fleet.run_headline", "fleet.run_overload"];

impl FleetFluid {
    fn new(seed: u64, smoke: bool, tr: &mut Tracer) -> Result<FleetFluid, String> {
        let [headline, overload] = entry::fleet_specs(
            scaled(FLEET_HEADLINE_SESSIONS, smoke),
            scaled(FLEET_OVERLOAD_SESSIONS, smoke),
            mix(seed),
            crate::host::nproc(),
        )?;
        let open = tr.open("fleet.new");
        let hosts = [entry::fleet_new(headline)?, entry::fleet_new(overload)?];
        tr.close(open);
        Ok(FleetFluid {
            hosts,
            last: Vec::new(),
            reference: Vec::new(),
        })
    }
}

impl Runner for FleetFluid {
    fn sessions_per_trial(&self) -> u64 {
        self.hosts.iter().map(|h| h.spec().sessions).sum()
    }

    fn trial(&mut self, tr: &mut Tracer, mode: Mode) -> Result<(), String> {
        self.last.clear();
        entry::telemetry_enable(mode == Mode::Telemetry);
        for (host, name) in self.hosts.iter_mut().zip(FLEET_SPANS) {
            let open = tr.open(name);
            let metrics = entry::fleet_run(host);
            tr.close(open);
            self.last.push(metrics);
        }
        entry::telemetry_enable(false);
        Ok(())
    }

    fn check_trial(&mut self, failures: &mut Failures) {
        for (m, name) in self.last.iter().zip(FLEET_SPANS) {
            if m.completed + m.rejected != m.sessions {
                failures.push(format!(
                    "{name}: completed {} + rejected {} != sessions {}",
                    m.completed, m.rejected, m.sessions
                ));
            }
        }
        if self.reference.is_empty() {
            self.reference = self.last.clone();
        } else if self.reference != self.last {
            failures.push("FleetMetrics differ from the first trial's".into());
        }
    }

    fn finish(&mut self, _tr: &mut Tracer, _failures: &mut Failures) {}

    fn layers(
        &mut self,
        tr: &mut Tracer,
        log: &crate::layers::TrialLog,
        table: &mut crate::report::LayerTable,
    ) -> Result<(), String> {
        crate::layers::fleet_layers(self, tr, log, table);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_registry_seeds_and_others_scatter() {
        assert_eq!(mix(0), 0);
        assert_ne!(mix(1), mix(2));
        assert_ne!(mix(1) >> 32, 0, "high bits are mixed too");
    }

    #[test]
    fn failures_count_everything_but_keep_few_messages() {
        let mut f = Failures::default();
        for i in 0..100 {
            f.push(format!("failure {i}"));
        }
        assert_eq!(f.count, 100);
        assert_eq!(f.messages.len(), 12);
    }

    #[test]
    fn smoke_is_a_fiftieth_and_never_empty() {
        assert_eq!(scaled(300, true), 6);
        assert_eq!(scaled(300, false), 300);
        assert_eq!(scaled(20, true), 1);
    }
}
