//! The chaos explorer: sweeps deterministic seed budgets against
//! plan × workload grids, runs every session under the invariant oracle
//! (plus a batch-vs-fresh bit-equivalence check and a panic trap), and
//! records every violating `(seed, plan, workload)` triple as a JSON
//! case under `tests/chaos_corpus/` (format: [`crate::corpus`]) — replayed
//! forever after by the tier-1 regression test `tests/chaos_corpus.rs`.
//!
//! The sweep is deterministic end to end: the same budget enumerates the
//! same seeds, the same plans resolve to the same injector windows, and
//! the same verdicts come back — so a violation seen once is a violation
//! reproducible from its recorded case alone.

use crate::corpus;
use crate::workload::{WorkloadRegistry, WorkloadSpec};
use msim_json::Value;
use msplayer_core::chaos::{check_invariants, ChaosPlan, Violation};
use msplayer_core::config::SchedulerKind;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::SessionHost;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Salt mixed into the explorer's seed enumeration (distinct from the
/// sweep engine's, so chaos seeds never shadow benchmark seeds).
pub const CHAOS_EXPLORER_SALT: u64 = 0xC4A0_5EED;

/// One replayable chaos case: everything needed to reconstruct and
/// re-run a `(seed, plan, workload)` triple.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCase {
    /// Base workload name in the builtin registry (the *clean* name; the
    /// plan is layered on top at replay time).
    pub workload: String,
    /// Scheduler name (see [`SchedulerKind::name`]).
    pub scheduler: String,
    /// Initial/base chunk size in KB.
    pub chunk_kb: u64,
    /// Session seed.
    pub seed: u64,
    /// Canonical chaos-plan string (see [`ChaosPlan`]'s `Display`).
    pub plan: String,
    /// Violations observed when the case was recorded (documentation;
    /// replay re-derives its own verdict).
    pub recorded_violations: Vec<String>,
}

impl ChaosCase {
    /// The case as its corpus JSON object (format: [`crate::corpus`]).
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("workload", self.workload.as_str())
            .with("scheduler", self.scheduler.as_str())
            .with("chunk_kb", self.chunk_kb)
            .with("seed", corpus::seed_to_json(self.seed))
            .with("plan", self.plan.as_str())
            .with("recorded_violations", self.recorded_violations.clone())
    }

    /// A corpus JSON object back into a case.
    pub fn from_json(v: &Value) -> Result<ChaosCase, String> {
        let text = |k: &str| {
            let field = v.get(k).and_then(Value::as_str);
            field
                .map(str::to_string)
                .ok_or(format!("field {k:?} is missing or not a string"))
        };
        Ok(ChaosCase {
            workload: text("workload")?,
            scheduler: text("scheduler")?,
            chunk_kb: corpus::u64_from_json(v, "chunk_kb")?,
            seed: corpus::seed_from_json(v)?,
            plan: text("plan")?,
            recorded_violations: corpus::strings_from_json(v, "recorded_violations")?,
        })
    }
}

/// The verdict of one chaos run.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Oracle violations (empty = the session held every invariant).
    pub violations: Vec<String>,
    /// Small deterministic fingerprint of the session, for
    /// same-seed-same-verdict assertions without hauling full metrics.
    pub fingerprint: Option<Fingerprint>,
}

impl CaseOutcome {
    /// Did the case hold every invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A compact deterministic summary of one session: the session digest
/// plus a few legible totals. Displays as the one line repro output
/// prints, digest first in the same 16-hex form as a sampling-corpus row
/// or a cluster `CellRow`, so the three can be compared by eye.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// [`SessionMetrics::digest`] — what `cluster::digest_metrics` and
    /// the sampling corpus record for the same session.
    pub digest: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Chunks fetched.
    pub chunks: u64,
    /// Total video bytes across the chunk ledger.
    pub bytes: u64,
    /// Session end, µs (0 if the session never ended — the oracle flags
    /// that separately).
    pub ended_at_us: u64,
    /// Failovers summed over paths.
    pub failovers: u64,
    /// Stall intervals recorded.
    pub stalls: u64,
}

impl Fingerprint {
    /// Digests a session's metrics.
    pub fn of(m: &SessionMetrics) -> Fingerprint {
        Fingerprint {
            digest: m.digest(),
            events: m.events,
            chunks: m.chunks.len() as u64,
            bytes: m.chunks.iter().map(|c| c.bytes).sum(),
            ended_at_us: m.ended_at.map(|t| t.as_micros()).unwrap_or(0),
            failovers: m.paths.iter().map(|p| u64::from(p.failovers)).sum(),
            stalls: m.stalls.len() as u64,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "digest={:016x} events={} chunks={} bytes={} ended_at_us={} failovers={} stalls={}",
            self.digest,
            self.events,
            self.chunks,
            self.bytes,
            self.ended_at_us,
            self.failovers,
            self.stalls
        )
    }
}

/// Runs one case under the standard invariant oracle.
pub fn run_case(case: &ChaosCase, registry: &WorkloadRegistry) -> CaseOutcome {
    run_case_with_oracle(case, registry, check_invariants)
}

/// Runs one case under a caller-supplied oracle (the corpus round-trip
/// test injects a deliberately stricter oracle to manufacture a
/// violation and watch it survive recording + replay).
pub fn run_case_with_oracle(
    case: &ChaosCase,
    registry: &WorkloadRegistry,
    oracle: impl Fn(&SessionMetrics) -> Vec<Violation>,
) -> CaseOutcome {
    let Some(base) = registry.by_name(&case.workload) else {
        return CaseOutcome {
            violations: vec![format!(
                "setup: unknown workload {:?} (registry has: {})",
                case.workload,
                registry.names().join(", ")
            )],
            fingerprint: None,
        };
    };
    let Some(scheduler) = SchedulerKind::parse(&case.scheduler) else {
        return CaseOutcome {
            violations: vec![format!("setup: unknown scheduler {:?}", case.scheduler)],
            fingerprint: None,
        };
    };
    let plan = match ChaosPlan::preset(&case.plan) {
        Ok(p) => p,
        Err(e) => {
            return CaseOutcome {
                violations: vec![format!("setup: bad plan: {e}")],
                fingerprint: None,
            }
        }
    };
    if let Err(reason) = plan.validate(base.paths.len()) {
        return CaseOutcome {
            violations: vec![format!("setup: plan invalid for workload: {reason}")],
            fingerprint: None,
        };
    }
    let workload: WorkloadSpec = (**base).clone().with_chaos(plan);
    let spec = workload.session_spec(scheduler, case.chunk_kb, case.seed);

    // The whole run sits inside a panic trap: under chaos, "no panics"
    // is itself one of the invariants under test.
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut warmed = SessionHost::new(workload.service.clone());
        let batch = warmed
            .run_batch(&[case.seed], &spec)
            .map_err(|e| format!("setup: {e}"))?;
        let fresh = SessionHost::new(workload.service.clone())
            .run(&spec)
            .map_err(|e| format!("setup: {e}"))?;
        Ok::<(SessionMetrics, SessionMetrics), String>((
            batch.into_iter().next().expect("one seed in, one out"),
            fresh,
        ))
    }));
    match run {
        Ok(Ok((batch, fresh))) => {
            let mut violations: Vec<String> =
                oracle(&fresh).into_iter().map(|v| v.to_string()).collect();
            if batch != fresh {
                violations.push(
                    "batch-equivalence: batch run diverged from a fresh-host run".to_string(),
                );
            }
            CaseOutcome {
                fingerprint: Some(Fingerprint::of(&fresh)),
                violations,
            }
        }
        Ok(Err(setup)) => CaseOutcome {
            violations: vec![setup],
            fingerprint: None,
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            CaseOutcome {
                violations: vec![format!("no-panics: session paniced: {msg}")],
                fingerprint: None,
            }
        }
    }
}

/// Configuration of one explorer sweep.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Seeds per (plan, workload) grid point.
    pub seeds_per_point: u64,
    /// Plans to sweep: preset names or raw plan strings.
    pub plans: Vec<String>,
    /// Base workload names to sweep (must exist in the registry).
    pub workloads: Vec<String>,
    /// Record violating cases into the committed corpus
    /// ([`corpus::dir`])?
    pub record: bool,
    /// Seed-rotation window (see [`corpus::seed`]); window 0 is the
    /// historical enumeration.
    pub window: u64,
}

impl ExploreConfig {
    /// A small default sweep: every preset × a spread of builtin
    /// workloads, `seeds_per_point` seeds each.
    pub fn smoke(seeds_per_point: u64) -> ExploreConfig {
        ExploreConfig {
            seeds_per_point,
            plans: ChaosPlan::preset_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            workloads: vec![
                "testbed/MSPlayer".into(),
                "youtube/MSPlayer".into(),
                "testbed3/MSPlayer".into(),
                "storm/mobility".into(),
                "abr/closed-loop".into(),
            ],
            record: false,
            window: 0,
        }
    }
}

/// Per-plan tallies of one explorer sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanTally {
    /// The plan preset (or raw plan string) of the grid column.
    pub plan: String,
    /// Cases executed for this plan.
    pub cases: u64,
    /// Cases that violated an invariant.
    pub violations: u64,
}

/// The result of one explorer sweep.
#[derive(Clone, Debug)]
pub struct ExploreSummary {
    /// Seed-rotation window the sweep ran in.
    pub window: u64,
    /// Grid points skipped because the plan does not validate against
    /// the workload's path set (e.g. `path=1` on a 1-path workload).
    pub skipped_points: u64,
    /// Cases executed.
    pub cases_run: u64,
    /// The violating cases, in discovery order.
    pub violating: Vec<ChaosCase>,
    /// Violating case files written (empty unless recording).
    pub recorded: Vec<PathBuf>,
    /// Per-plan case/violation tallies, in `cfg.plans` order (a plan that
    /// ran no case has no row).
    pub per_plan: Vec<PlanTally>,
}

impl ExploreSummary {
    /// Renders the sweep summary as a JSON value (written as
    /// `CHAOS_summary.json` by the explorer binary and the CI smoke job).
    pub fn to_json(&self) -> Value {
        let violating: Vec<Value> = self.violating.iter().map(ChaosCase::to_json).collect();
        let per_plan: Vec<Value> = self
            .per_plan
            .iter()
            .map(|t| {
                Value::object()
                    .with("plan", t.plan.as_str())
                    .with("cases", t.cases)
                    .with("violations", t.violations)
            })
            .collect();
        Value::object()
            .with("seed_window", self.window)
            .with("skipped_points", self.skipped_points)
            .with("cases_run", self.cases_run)
            .with("per_plan", Value::Array(per_plan))
            .with("violations", self.violating.len() as u64)
            .with("violating_cases", Value::Array(violating))
    }
}

/// Sweeps `cfg.seeds_per_point` deterministic seeds against the
/// plan × workload grid, collecting (and optionally recording) every
/// violating triple. Grid order is workloads → plans → seeds, so the
/// case stream — and therefore the verdict stream — is reproducible.
///
/// Stops between cases when a shutdown was requested (see
/// [`msim_testbed::signal`]), returning the partial summary so the
/// caller can still flush its artifacts.
pub fn explore(registry: &WorkloadRegistry, cfg: &ExploreConfig) -> ExploreSummary {
    let mut summary = ExploreSummary {
        window: cfg.window,
        skipped_points: 0,
        cases_run: 0,
        violating: Vec::new(),
        recorded: Vec::new(),
        per_plan: Vec::new(),
    };
    let mut tallies: Vec<PlanTally> = cfg
        .plans
        .iter()
        .map(|plan| PlanTally {
            plan: plan.clone(),
            ..PlanTally::default()
        })
        .collect();
    let mut iteration: u64 = 0;
    'grid: for workload_name in &cfg.workloads {
        let Some(base) = registry.by_name(workload_name) else {
            summary.skipped_points += cfg.plans.len() as u64;
            continue;
        };
        for (plan_idx, plan_text) in cfg.plans.iter().enumerate() {
            let Ok(plan) = ChaosPlan::preset(plan_text) else {
                summary.skipped_points += 1;
                continue;
            };
            if plan.validate(base.paths.len()).is_err() {
                summary.skipped_points += 1;
                continue;
            }
            for i in 0..cfg.seeds_per_point {
                if msim_testbed::shutdown_requested() {
                    break 'grid;
                }
                let case = ChaosCase {
                    workload: workload_name.clone(),
                    scheduler: base.schedulers[0].name().to_string(),
                    chunk_kb: base.chunk_kb[0],
                    seed: corpus::seed(
                        CHAOS_EXPLORER_SALT,
                        cfg.window,
                        iteration.wrapping_mul(0x10001).wrapping_add(i),
                    ),
                    plan: plan.to_string(),
                    recorded_violations: Vec::new(),
                };
                let outcome = run_case(&case, registry);
                summary.cases_run += 1;
                tallies[plan_idx].cases += 1;
                if !outcome.ok() {
                    tallies[plan_idx].violations += 1;
                    let case = ChaosCase {
                        recorded_violations: outcome.violations,
                        ..case
                    };
                    if cfg.record {
                        summary
                            .recorded
                            .extend(corpus::record(&case, &corpus::dir()).ok());
                    }
                    summary.violating.push(case);
                }
            }
            iteration += 1;
        }
    }
    summary.per_plan = tallies.into_iter().filter(|t| t.cases > 0).collect();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> WorkloadRegistry {
        WorkloadRegistry::builtin(1)
    }

    fn pin_case() -> ChaosCase {
        ChaosCase {
            workload: "testbed/MSPlayer".into(),
            scheduler: "Harmonic".into(),
            chunk_kb: 256,
            seed: 33,
            plan: "kitchen-sink".into(),
            recorded_violations: Vec::new(),
        }
    }

    #[test]
    fn case_json_roundtrip() {
        let mut case = pin_case();
        case.recorded_violations = vec!["finite-metrics: goodput is NaN".into()];
        let back = ChaosCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back, case);
        // Filenames are deterministic and seed-sensitive.
        assert_eq!(corpus::file_name(&case), corpus::file_name(&back));
        let mut other = case.clone();
        other.seed += 1;
        assert_ne!(corpus::file_name(&case), corpus::file_name(&other));
    }

    #[test]
    fn same_seed_same_verdict() {
        let reg = registry();
        let case = pin_case();
        let a = run_case(&case, &reg);
        let b = run_case(&case, &reg);
        assert!(a.ok(), "pin case must hold invariants: {:?}", a.violations);
        assert_eq!(a.fingerprint, b.fingerprint, "verdicts must be stable");
        // Repro lines lead with the session digest, 16 hex digits.
        let fp = a.fingerprint.expect("a completed case has a fingerprint");
        let line = fp.to_string();
        assert!(
            line.starts_with(&format!("digest={:016x} events=", fp.digest)),
            "{line}"
        );
    }

    #[test]
    fn setup_errors_are_reported_not_panics() {
        let reg = registry();
        let mut unknown = pin_case();
        unknown.workload = "no/such-workload".into();
        assert!(run_case(&unknown, &reg).violations[0].starts_with("setup:"));
        let mut bad_plan = pin_case();
        bad_plan.plan = "warp-drive:11".into();
        assert!(run_case(&bad_plan, &reg).violations[0].starts_with("setup:"));
        let mut bad_path = pin_case();
        bad_path.workload = "testbed/WiFi".into(); // 1 path
        bad_path.scheduler = "Fixed".into();
        bad_path.plan = "outage:path=1,dir=up,from=1s,until=2s".into();
        assert!(run_case(&bad_path, &reg).violations[0].starts_with("setup:"));
    }

    #[test]
    fn explorer_is_deterministic_and_skips_invalid_points() {
        let reg = registry();
        let cfg = ExploreConfig {
            seeds_per_point: 2,
            plans: vec![
                "clock-skew".into(),
                // path=2 is invalid for the 2-path workload → skipped.
                "outage:path=2,dir=up,from=1s,until=2s".into(),
            ],
            workloads: vec!["testbed/MSPlayer".into()],
            record: false,
            window: 0,
        };
        let a = explore(&reg, &cfg);
        let b = explore(&reg, &cfg);
        assert_eq!(a.cases_run, 2);
        assert_eq!(a.skipped_points, 1);
        assert_eq!(a.violating, b.violating);
        assert!(a.violating.is_empty(), "{:?}", a.violating);
        // One row for the plan that ran, none for the skipped one.
        let clock = PlanTally {
            plan: "clock-skew".into(),
            cases: 2,
            violations: 0,
        };
        assert_eq!(a.per_plan, [clock]);
    }

    #[test]
    fn unknown_workload_errors_name_the_registry() {
        let reg = registry();
        let mut unknown = pin_case();
        unknown.workload = "no/such-workload".into();
        let msg = &run_case(&unknown, &reg).violations[0];
        assert!(msg.starts_with("setup:"), "{msg}");
        assert!(
            msg.contains("testbed/MSPlayer"),
            "error must list registry names: {msg}"
        );
    }
}
