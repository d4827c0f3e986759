//! Self-chaos for the sweep service: seeded fault schedules, replayable
//! violations.
//!
//! Each case derives — deterministically from one seed — a cluster shape
//! (worker count, shard size), a fault schedule (which workers crash,
//! stall, corrupt, or duplicate, and when), and optionally a simulated
//! coordinator crash (`stop_after`) followed by a checkpoint resume. The
//! case then runs a **real** coordinator with **real** worker processes
//! and asserts the two invariants the service stakes its name on:
//!
//! 1. the merged artifact is bit-identical to the serial in-process
//!    reference, and
//! 2. no duplicate completion ever disagreed about a digest.
//!
//! Violating seeds are recorded as JSON cases under
//! `tests/cluster_corpus/` (the format of [`crate::corpus`], shared with
//! the session-level chaos corpus) and replayed forever by
//! `tests/cluster_corpus.rs`.

use super::coordinator::{run_cluster, serial_artifact, ClusterConfig, Transport};
use super::manifest::SweepManifest;
use super::worker::WorkerChaos;
use crate::corpus::{self, CorpusCase};
use msim_json::Value;
use std::path::Path;
use std::time::Duration;

/// Salt for the cluster chaos seed stream (distinct from both the bench
/// seeds and the session-chaos explorer).
pub const CLUSTER_CHAOS_SALT: u64 = 0xC1_05_7E_12;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One replayable cluster-chaos case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterChaosCase {
    /// The deriving seed.
    pub seed: u64,
    /// Worker count.
    pub workers: u64,
    /// Cells per shard.
    pub shard_cells: u64,
    /// Per-initial-worker chaos directives (`""` = clean worker); see
    /// [`WorkerChaos::parse`].
    pub directives: Vec<String>,
    /// Simulated coordinator crash: abort after this many completions,
    /// then resume from the checkpoint.
    pub stop_after: Option<u64>,
    /// Violations observed when recorded (documentation; replay
    /// re-derives its own verdict).
    pub recorded_violations: Vec<String>,
}

impl ClusterChaosCase {
    /// Derives the full fault schedule from a seed.
    pub fn from_seed(seed: u64) -> ClusterChaosCase {
        let mut s = seed;
        let workers = 2 + splitmix(&mut s) % 2; // 2–3
        let shard_cells = 2 + splitmix(&mut s) % 4; // 2–5
        let directives = (0..workers)
            .map(|_| {
                let roll = splitmix(&mut s);
                let lease = roll >> 8 & 1;
                match roll % 6 {
                    0 => String::new(), // clean worker
                    1 => WorkerChaos {
                        lease,
                        kind: super::worker::Misbehavior::CrashAfterCells(splitmix(&mut s) % 3),
                    }
                    .to_directive(),
                    2 => WorkerChaos {
                        lease,
                        kind: super::worker::Misbehavior::StallMs(900),
                    }
                    .to_directive(),
                    3 => WorkerChaos {
                        lease,
                        kind: super::worker::Misbehavior::CorruptDone,
                    }
                    .to_directive(),
                    4 => WorkerChaos {
                        lease,
                        kind: super::worker::Misbehavior::TruncateDone,
                    }
                    .to_directive(),
                    _ => WorkerChaos {
                        lease,
                        kind: super::worker::Misbehavior::DuplicateDone,
                    }
                    .to_directive(),
                }
            })
            .collect();
        let stop_after = match splitmix(&mut s) % 3 {
            0 => Some(1 + splitmix(&mut s) % 2),
            _ => None,
        };
        ClusterChaosCase {
            seed,
            workers,
            shard_cells,
            directives,
            stop_after,
            recorded_violations: Vec::new(),
        }
    }

    /// The manifest every chaos case sweeps: one 2-path workload, 2 runs
    /// — small enough that a case (including its serial reference) runs
    /// in well under a second of compute.
    pub fn manifest(&self) -> SweepManifest {
        SweepManifest {
            name: format!("cluster_chaos_{:016x}", self.seed),
            workloads: vec!["testbed/MSPlayer".into()],
            runs: 2,
            shard_cells: self.shard_cells,
        }
    }
}

impl CorpusCase for ClusterChaosCase {
    const DIR: &'static str = "cluster_corpus";

    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("seed", corpus::seed_to_json(self.seed))
            .with("workers", self.workers)
            .with("shard_cells", self.shard_cells)
            .with("directives", self.directives.clone())
            .with("recorded_violations", self.recorded_violations.clone());
        if let Some(stop) = self.stop_after {
            v = v.with("stop_after", stop);
        }
        v
    }

    fn from_json(v: &Value) -> Result<ClusterChaosCase, String> {
        Ok(ClusterChaosCase {
            seed: corpus::seed_from_json(v)?,
            workers: corpus::u64_from_json(v, "workers")?,
            shard_cells: corpus::u64_from_json(v, "shard_cells")?,
            directives: corpus::strings_from_json(v, "directives")?,
            stop_after: v.get("stop_after").and_then(Value::as_u64),
            recorded_violations: corpus::strings_from_json(v, "recorded_violations")?,
        })
    }

    fn recorded_violations(&mut self) -> &mut Vec<String> {
        &mut self.recorded_violations
    }
}

/// The verdict of one cluster-chaos run.
#[derive(Clone, Debug)]
pub struct ClusterCaseOutcome {
    /// Invariant violations (empty = the cluster held).
    pub violations: Vec<String>,
    /// Fault counters aggregated across the run (and the resume run, if
    /// any) — lets callers assert the schedule actually exercised faults.
    pub stats: super::coordinator::ClusterStats,
}

impl ClusterCaseOutcome {
    /// Did the case hold every invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one case against a real coordinator + worker processes.
/// `program` is the `msplayer-sweepd` binary (tests pass
/// `env!("CARGO_BIN_EXE_msplayer-sweepd")`); `scratch` hosts the
/// checkpoint journal and is wiped first.
pub fn run_cluster_case(
    case: &ClusterChaosCase,
    program: &Path,
    scratch: &Path,
) -> ClusterCaseOutcome {
    let mut violations = Vec::new();
    let mut stats = super::coordinator::ClusterStats::default();
    let manifest = case.manifest();
    let _ = std::fs::remove_dir_all(scratch);
    if let Err(e) = std::fs::create_dir_all(scratch) {
        return ClusterCaseOutcome {
            violations: vec![format!("setup: scratch dir: {e}")],
            stats,
        };
    }
    let checkpoint = scratch.join("journal.ndjson");

    let worker_chaos: Vec<Option<WorkerChaos>> = case
        .directives
        .iter()
        .map(|d| {
            if d.is_empty() {
                None
            } else {
                WorkerChaos::parse(d).ok()
            }
        })
        .collect();
    let mut config = ClusterConfig::new(manifest.clone(), program.to_path_buf());
    config.workers = case.workers as usize;
    config.lease_timeout = Duration::from_millis(400);
    config.backoff_base = Duration::from_millis(10);
    config.backoff_cap = Duration::from_millis(100);
    config.max_attempts = 4;
    config.checkpoint = Some(checkpoint.clone());
    config.worker_chaos = worker_chaos;
    config.stop_after_shards = case.stop_after;
    config.transport = Transport::Spawn {
        program: program.to_path_buf(),
    };

    // Phase 1: the chaotic run (possibly aborted early to simulate a
    // coordinator crash).
    let first = match run_cluster(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            return ClusterCaseOutcome {
                violations: vec![format!("coordinator error: {e}")],
                stats,
            }
        }
    };
    violations.extend(first.violations.iter().cloned());
    accumulate(&mut stats, &first.stats);
    let final_outcome = if case.stop_after.is_some() {
        if first.completed {
            // stop_after larger than the shard count: the run finished
            // before the simulated crash could fire. Fine — use it.
            first
        } else {
            // Phase 2: resume from the checkpoint with clean workers.
            config.stop_after_shards = None;
            config.worker_chaos = Vec::new();
            match run_cluster(&config) {
                Ok(outcome) => {
                    violations.extend(outcome.violations.iter().cloned());
                    accumulate(&mut stats, &outcome.stats);
                    if outcome.stats.resumed_shards == 0 && stats.inline_runs == 0 {
                        violations
                            .push("resume: second run restored nothing from the checkpoint".into());
                    }
                    outcome
                }
                Err(e) => {
                    return ClusterCaseOutcome {
                        violations: vec![format!("resume coordinator error: {e}")],
                        stats,
                    }
                }
            }
        }
    } else {
        first
    };

    if !final_outcome.completed {
        violations.push("cluster run did not complete".into());
    }
    // The headline invariant: merged bytes == serial bytes.
    match (&final_outcome.artifact, serial_artifact(&manifest)) {
        (Some(merged), Ok(serial)) => {
            let merged_bytes = msim_json::to_string_pretty(merged);
            let serial_bytes = msim_json::to_string_pretty(&serial);
            if merged_bytes != serial_bytes {
                violations.push(format!(
                    "crash-identical merge violated: cluster artifact diverges from the \
                     serial reference (cluster {} bytes, serial {} bytes)",
                    merged_bytes.len(),
                    serial_bytes.len()
                ));
            }
        }
        (None, _) => {} // already reported as not-completed
        (_, Err(e)) => violations.push(format!("serial reference failed: {e}")),
    }

    let _ = std::fs::remove_dir_all(scratch);
    ClusterCaseOutcome { violations, stats }
}

fn accumulate(
    into: &mut super::coordinator::ClusterStats,
    from: &super::coordinator::ClusterStats,
) {
    into.reassignments += from.reassignments;
    into.duplicates += from.duplicates;
    into.protocol_errors += from.protocol_errors;
    into.respawns += from.respawns;
    into.inline_runs += from.inline_runs;
    into.resumed_shards += from.resumed_shards;
}

/// Sweeps `seeds` deterministic cases, recording violators when asked.
/// Returns (cases run, violating cases). Stops between cases when a
/// shutdown was requested, returning what it finished.
pub fn explore_cluster(
    window: u64,
    seeds: u64,
    program: &Path,
    scratch_base: &Path,
    record: bool,
) -> (u64, Vec<ClusterChaosCase>) {
    let mut violating = Vec::new();
    let mut run = 0;
    for i in 0..seeds {
        if msim_testbed::shutdown_requested() {
            return (run, violating);
        }
        let seed = corpus::seed(CLUSTER_CHAOS_SALT, window, i);
        let case = ClusterChaosCase::from_seed(seed);
        let scratch = scratch_base.join(format!("case-{seed:016x}"));
        let outcome = run_cluster_case(&case, program, &scratch);
        run += 1;
        if !outcome.ok() {
            corpus::keep(case, outcome.violations, record, &mut violating);
        }
    }
    (run, violating)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_deterministic() {
        let a = ClusterChaosCase::from_seed(42);
        let b = ClusterChaosCase::from_seed(42);
        assert_eq!(a, b);
        assert_ne!(a, ClusterChaosCase::from_seed(43));
        assert!(a.workers >= 2 && a.workers <= 3);
        assert!(a.shard_cells >= 2 && a.shard_cells <= 5);
        assert_eq!(a.directives.len(), a.workers as usize);
        for d in a.directives.iter().filter(|d| !d.is_empty()) {
            WorkerChaos::parse(d).expect("derived directives parse");
        }
    }

    #[test]
    fn case_json_roundtrip_and_stable_file_name() {
        // A seed above 2^53 exercises the hex path.
        let mut case = ClusterChaosCase::from_seed(u64::MAX - 12345);
        case.recorded_violations = vec!["crash-identical merge violated".into()];
        let back = ClusterChaosCase::from_json(
            &msim_json::from_str(&msim_json::to_string_pretty(&case.to_json())).unwrap(),
        )
        .unwrap();
        assert_eq!(back, case);
        // Recorded violations don't perturb the identity filename.
        let mut clean = case.clone();
        clean.recorded_violations = Vec::new();
        assert_eq!(corpus::file_name(&case), corpus::file_name(&clean));
        assert_ne!(
            corpus::file_name(&case),
            corpus::file_name(&ClusterChaosCase::from_seed(7))
        );
    }
}
