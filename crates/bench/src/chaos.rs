//! The chaos explorer: sweeps deterministic seed budgets against
//! plan × workload grids, runs every session under the invariant oracle
//! (plus a batch-vs-fresh bit-equivalence check and a panic trap), and
//! records every violating `(seed, plan, workload)` triple as a JSON
//! case under `tests/chaos_corpus/` — replayed forever after by the
//! tier-1 regression test `tests/chaos_corpus.rs`.
//!
//! The sweep is deterministic end to end: the same budget enumerates the
//! same seeds, the same plans resolve to the same injector windows, and
//! the same verdicts come back — so a violation seen once is a violation
//! reproducible from its recorded case alone.

use crate::workload::{WorkloadRegistry, WorkloadSpec};
use msim_json::Value;
use msplayer_core::chaos::{check_invariants, ChaosPlan, Violation};
use msplayer_core::config::SchedulerKind;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::SessionHost;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Salt mixed into the explorer's seed enumeration (distinct from the
/// sweep engine's, so chaos seeds never shadow benchmark seeds).
pub const CHAOS_EXPLORER_SALT: u64 = 0xC4A0_5EED;

/// The seed of explorer iteration `i` — the same enumeration every run.
pub fn explorer_seed(i: u64) -> u64 {
    explorer_seed_with_window(0, i)
}

/// The seed of explorer iteration `i` inside rotation `window`.
///
/// Window 0 reproduces the historical [`explorer_seed`] enumeration
/// exactly; every other window shifts the whole enumeration onto fresh
/// seeds. Periodic CI runs derive the window from the calendar date, so
/// over time the explorer covers new seed territory instead of
/// re-checking day one's seeds forever — while any given window stays
/// fully reproducible from its number alone.
pub fn explorer_seed_with_window(window: u64, i: u64) -> u64 {
    crate::BASE_SEED
        ^ CHAOS_EXPLORER_SALT
        ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ window.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

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
    /// Serialises the case to its corpus JSON object.
    pub fn to_json(&self) -> Value {
        let violations: Vec<Value> = self
            .recorded_violations
            .iter()
            .map(|v| Value::String(v.clone()))
            .collect();
        Value::object()
            .with("workload", self.workload.as_str())
            .with("scheduler", self.scheduler.as_str())
            .with("chunk_kb", self.chunk_kb)
            .with("seed", self.seed)
            .with("plan", self.plan.as_str())
            .with("recorded_violations", Value::Array(violations))
    }

    /// Parses a corpus JSON object back into a case.
    pub fn from_json(v: &Value) -> Result<ChaosCase, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let text = |k: &str| {
            field(k).and_then(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field {k:?} is not a string"))
            })
        };
        let num = |k: &str| {
            field(k).and_then(|f| {
                f.as_u64()
                    .ok_or_else(|| format!("field {k:?} is not an integer"))
            })
        };
        let recorded_violations = match v.get("recorded_violations") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "non-string violation entry".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("recorded_violations is not an array".into()),
            None => Vec::new(),
        };
        Ok(ChaosCase {
            workload: text("workload")?,
            scheduler: text("scheduler")?,
            chunk_kb: num("chunk_kb")?,
            seed: num("seed")?,
            plan: text("plan")?,
            recorded_violations,
        })
    }

    /// Deterministic corpus filename for this case (FNV-1a over the
    /// identifying fields — stable across platforms and runs).
    pub fn file_name(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.workload.as_bytes());
        eat(self.scheduler.as_bytes());
        eat(&self.chunk_kb.to_le_bytes());
        eat(&self.seed.to_le_bytes());
        eat(self.plan.as_bytes());
        format!("case-{h:016x}.json")
    }
}

/// Looks a scheduler up by its [`SchedulerKind::name`] label.
pub fn scheduler_by_name(name: &str) -> Option<SchedulerKind> {
    [
        SchedulerKind::Ratio,
        SchedulerKind::Ewma,
        SchedulerKind::Harmonic,
        SchedulerKind::HarmonicWindowed,
        SchedulerKind::Fixed,
    ]
    .into_iter()
    .find(|k| k.name() == name)
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
            failovers: m.failovers.iter().map(|&f| f as u64).sum(),
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
    let Some(scheduler) = scheduler_by_name(&case.scheduler) else {
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
    /// Record violating cases into [`corpus_dir`]?
    pub record: bool,
    /// Seed-rotation window (see [`explorer_seed_with_window`]); window 0
    /// is the historical enumeration.
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

/// Per-plan tallies of one explorer sweep, derived from the telemetry
/// registry (`msp_chaos_cases_total{plan=...}` /
/// `msp_chaos_violations_total{plan=...}`) rather than hand-rolled
/// counters.
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
    /// Per-plan case/violation tallies, read back from the telemetry
    /// registry after the sweep.
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
    // The per-plan tallies flow through the telemetry registry instead of
    // ad-hoc counters: count during the sweep, read the deltas back at
    // the end. A live /metrics scrape of a long explorer run sees them
    // move.
    use msim_core::telemetry;
    let tel_was = telemetry::enabled();
    telemetry::set_enabled(true);
    let mut counters_before = telemetry::counter_values();
    let mut iteration: u64 = 0;
    'grid: for workload_name in &cfg.workloads {
        let Some(base) = registry.by_name(workload_name) else {
            summary.skipped_points += cfg.plans.len() as u64;
            continue;
        };
        for plan_text in &cfg.plans {
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
                    seed: explorer_seed_with_window(
                        cfg.window,
                        iteration.wrapping_mul(0x10001).wrapping_add(i),
                    ),
                    plan: plan.to_string(),
                    recorded_violations: Vec::new(),
                };
                let outcome = run_case(&case, registry);
                summary.cases_run += 1;
                telemetry::count_with("msp_chaos_cases_total", &[("plan", plan_text)], 1);
                if !outcome.ok() {
                    telemetry::count_with("msp_chaos_violations_total", &[("plan", plan_text)], 1);
                    let mut found = case;
                    found.recorded_violations = outcome.violations;
                    if cfg.record {
                        if let Ok(path) = record_case(&found, &corpus_dir()) {
                            summary.recorded.push(path);
                        }
                    }
                    summary.violating.push(found);
                }
            }
            iteration += 1;
        }
    }
    summary.per_plan = plan_tallies(&telemetry::counter_deltas(&mut counters_before), &cfg.plans);
    telemetry::set_enabled(tel_was);
    summary
}

/// Extracts per-plan tallies from registry counter deltas, in `plans`
/// order (plans that never ran get zero rows only if another metric
/// mentioned them — i.e. they are simply absent).
fn plan_tallies(deltas: &[(String, u64)], plans: &[String]) -> Vec<PlanTally> {
    let mut tallies: Vec<PlanTally> = Vec::new();
    for (key, delta) in deltas {
        // Keys are exposition-format sample names; reuse the exposition
        // parser rather than hand-parsing label syntax.
        let Ok(Some(line)) = msim_core::telemetry::parse_exposition_line(&format!("{key} 0"))
        else {
            continue;
        };
        let is_cases = line.name == "msp_chaos_cases_total";
        let is_violations = line.name == "msp_chaos_violations_total";
        if !is_cases && !is_violations {
            continue;
        }
        let Some(plan) = line
            .labels
            .iter()
            .find(|(k, _)| k == "plan")
            .map(|(_, v)| v.clone())
        else {
            continue;
        };
        let tally = match tallies.iter_mut().find(|t| t.plan == plan) {
            Some(t) => t,
            None => {
                tallies.push(PlanTally {
                    plan,
                    ..PlanTally::default()
                });
                tallies.last_mut().expect("just pushed")
            }
        };
        if is_cases {
            tally.cases += delta;
        } else {
            tally.violations += delta;
        }
    }
    // Deterministic order: follow the configured plan list, then any
    // stragglers (raw plan strings) in discovery order.
    tallies.sort_by_key(|t| {
        plans
            .iter()
            .position(|p| p == &t.plan)
            .unwrap_or(usize::MAX)
    });
    tallies
}

/// The committed corpus directory: `tests/chaos_corpus/` at the
/// workspace root.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("chaos_corpus")
}

/// Writes one case into `dir` under its deterministic filename.
pub fn record_case(case: &ChaosCase, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(case.file_name());
    std::fs::write(&path, msim_json::to_string_pretty(&case.to_json()))?;
    Ok(path)
}

/// Loads every `*.json` case in `dir`, sorted by filename (deterministic
/// replay order). A missing directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, ChaosCase)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(Vec::new()),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = msim_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let case = ChaosCase::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
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
        assert_eq!(case.file_name(), back.file_name());
        let mut other = case.clone();
        other.seed += 1;
        assert_ne!(case.file_name(), other.file_name());
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
        // Per-plan tallies come back out of the telemetry registry. ≥
        // rather than ==: the registry is process-global and sibling
        // tests may run explorer sweeps concurrently.
        let clock = a
            .per_plan
            .iter()
            .find(|t| t.plan == "clock-skew")
            .expect("registry tally for the ran plan");
        assert!(clock.cases >= 2, "{clock:?}");
        assert!(
            a.per_plan.iter().all(|t| t.violations <= t.cases),
            "{:?}",
            a.per_plan
        );
    }

    #[test]
    fn seed_windows_rotate_without_breaking_window_zero() {
        // Window 0 is the historical enumeration, bit for bit.
        for i in [0u64, 1, 7, 1000] {
            assert_eq!(explorer_seed(i), explorer_seed_with_window(0, i));
        }
        // Distinct windows enumerate disjoint seeds for the same index,
        // and each window is internally deterministic.
        assert_ne!(
            explorer_seed_with_window(1, 0),
            explorer_seed_with_window(2, 0)
        );
        assert_ne!(explorer_seed_with_window(20_000, 3), explorer_seed(3));
        assert_eq!(
            explorer_seed_with_window(20_000, 3),
            explorer_seed_with_window(20_000, 3)
        );
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
