//! `msplayer chaos`: the chaos explorer. It sweeps a deterministic seed
//! budget over a plan × workload grid, checks every session against the
//! invariant oracle, writes `CHAOS_summary.json`, and with `--record`
//! drops each violating case under `tests/chaos_corpus/`. It also replays
//! that corpus (`--replay-corpus`), one case file (`--case`), or a case
//! described by hand (`--workload` and the flags after it). Exit 0 when
//! every case holds the invariants, 1 otherwise, 2 for a workload, a plan
//! or a seed count no case can be run from.

use crate::Set::{Switch, Value};
use crate::{parsed, positive, Flag};
use msplayer_bench::chaos::{explore, run_case, ChaosCase, ExploreConfig, ExploreSummary};
use msplayer_bench::cluster::merge::{hex_u64, parse_hex_u64};
use msplayer_bench::corpus;
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::chaos::ChaosPlan;
use std::path::Path;

const SYNOPSIS: &str = "chaos [flags] — explore seeds × plans × workloads, or replay cases";

#[derive(Default)]
struct Options {
    seeds: Option<u64>,
    plans: Option<Vec<String>>,
    workloads: Option<Vec<String>>,
    window: Option<u64>,
    record: bool,
    replay_corpus: bool,
    list: bool,
    /// Replay-one mode: the case `--case` loaded and the field flags
    /// edited (or built from nothing).
    case: Option<ChaosCase>,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Options>] = &[
    ("--seeds", "<N> seeds per (plan, workload) grid point [3]", Value(|o, v| positive(v).map(|n| o.seeds = Some(n)))),
    ("--plans", "<LIST> comma-separated presets or plan strings [every preset]", Value(|o, v| plans(v).map(|p| o.plans = Some(p)))),
    ("--workloads", "<LIST> comma-separated builtin workloads [a 5-workload spread]", Value(|o, v| workloads(v).map(|w| o.workloads = Some(w)))),
    ("--window", "<N> seed-rotation window, 0 the historical one [days since 1970]", Value(|o, v| parsed(v).map(|n| o.window = Some(n)))),
    ("--record", "write violating cases into tests/chaos_corpus/", Switch(|o| o.record = true)),
    ("--replay-corpus", "replay every committed corpus case instead", Switch(|o| o.replay_corpus = true)),
    ("--list", "print the presets and builtin workloads", Switch(|o| o.list = true)),
    ("--case", "<FILE> replay this case; the flags below edit it", Value(|o, v| corpus::load_file(Path::new(v)).map(|c| o.case = Some(c)))),
    ("--workload", "<NAME> the case's builtin workload", Value(|o, v| parsed(v).map(|w| case(o).workload = w))),
    ("--scheduler", "<NAME> [Harmonic]", Value(|o, v| parsed(v).map(|s| case(o).scheduler = s))),
    ("--chunk-kb", "<N> [256]", Value(|o, v| parsed(v).map(|n| case(o).chunk_kb = n))),
    ("--seed", "<N> decimal, or the 16 hex digits of a case file [0]", Value(|o, v| parse_seed(v).map(|s| case(o).seed = s))),
    ("--chaos", "<PLAN> preset or plan string [none]", Value(|o, v| parsed(v).map(|p| case(o).plan = p))),
];

/// The case the field flags edit: `--case`'s, else one built by hand.
fn case(o: &mut Options) -> &mut ChaosCase {
    o.case.get_or_insert_with(|| ChaosCase {
        workload: String::new(),
        scheduler: "Harmonic".into(),
        chunk_kb: 256,
        seed: 0,
        plan: String::new(),
        recorded_violations: Vec::new(),
    })
}

/// `--seed`: the 16 hex digits of a case file, else a decimal integer.
fn parse_seed(v: &str) -> Result<u64, String> {
    let hex = v.len() == 16 && v.bytes().all(|b| b.is_ascii_hexdigit());
    if hex {
        parse_hex_u64(v)
    } else {
        parsed(v)
    }
}

/// `--plans`: each entry a preset or a plan string `ChaosPlan` accepts.
fn plans(v: &str) -> Result<Vec<String>, String> {
    let check = |p: &str| ChaosPlan::preset(p).map(|_| p.to_string());
    v.split(',')
        .map(|p| check(p).map_err(|e| format!("{p:?}: {e}")))
        .collect()
}

/// `--workloads`: each entry a builtin workload name.
fn workloads(v: &str) -> Result<Vec<String>, String> {
    let registry = WorkloadRegistry::builtin(1);
    v.split(',')
        .map(|name| match registry.by_name(name) {
            Some(_) => Ok(name.to_string()),
            None => Err(format!(
                "unknown workload {name:?} (registry has: {})",
                registry.names().join(", ")
            )),
        })
        .collect()
}

/// Replays one case and reports its verdict; returns the exit code.
fn replay_one(case: &ChaosCase, registry: &WorkloadRegistry) -> i32 {
    println!(
        "case: workload={} scheduler={} chunk_kb={} seed={} plan={:?}",
        case.workload,
        case.scheduler,
        case.chunk_kb,
        hex_u64(case.seed),
        case.plan
    );
    let outcome = run_case(case, registry);
    if let Some(fp) = &outcome.fingerprint {
        println!("fingerprint: {fp}");
    }
    if outcome.ok() {
        println!("verdict: all invariants hold");
        0
    } else {
        println!("verdict: {} violation(s)", outcome.violations.len());
        for v in &outcome.violations {
            println!("  {v}");
        }
        1
    }
}

/// Replays every committed corpus case; returns the exit code.
fn replay_corpus(registry: &WorkloadRegistry) -> i32 {
    let corpus = match corpus::load(&corpus::dir()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus unreadable: {e}");
            return 2;
        }
    };
    println!("replaying {} corpus case(s)", corpus.len());
    let mut failed = 0;
    for (path, case) in &corpus {
        let outcome = run_case(case, registry);
        if outcome.ok() {
            println!("  ok   {}", path.display());
        } else {
            failed += 1;
            println!("  FAIL {}", path.display());
            if let Some(fp) = &outcome.fingerprint {
                println!("       fingerprint: {fp}");
            }
            for v in &outcome.violations {
                println!("       {v}");
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} corpus case(s) violate invariants");
        return 1;
    }
    0
}

pub fn main(args: &[String], bench_dir: &Path) -> i32 {
    let opts = match crate::parse(args, SYNOPSIS, FLAGS) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    if opts.case.as_ref().is_some_and(|c| c.workload.is_empty()) {
        eprint!(
            "--workload (or --case) is required\n\n{}",
            crate::usage_of(SYNOPSIS, FLAGS)
        );
        return 2;
    }
    let registry = WorkloadRegistry::builtin(1);

    if opts.list {
        println!("presets:");
        for p in ChaosPlan::preset_names() {
            println!("  {p}");
        }
        println!("workloads:");
        for w in registry.specs() {
            println!("  {} ({} paths)", w.name, w.paths.len());
        }
        return 0;
    }
    if let Some(case) = &opts.case {
        return replay_one(case, &registry);
    }
    if opts.replay_corpus {
        return replay_corpus(&registry);
    }

    let mut cfg = ExploreConfig::smoke(opts.seeds.unwrap_or(3));
    if let Some(plans) = opts.plans {
        cfg.plans = plans;
    }
    if let Some(workloads) = opts.workloads {
        cfg.workloads = workloads;
    }
    cfg.record = opts.record;
    cfg.window = opts.window.unwrap_or_else(corpus::default_window);

    println!(
        "chaos: {} workload(s) × {} plan(s) × {} seed(s), seed window {}",
        cfg.workloads.len(),
        cfg.plans.len(),
        cfg.seeds_per_point,
        cfg.window
    );
    let summary = explore(&registry, &cfg);
    report(&summary);

    let path = bench_dir.join("CHAOS_summary.json");
    match std::fs::write(&path, msim_json::to_string_pretty(&summary.to_json())) {
        Ok(()) => println!("[chaos] {}", path.display()),
        Err(e) => eprintln!("[chaos] could not write summary: {e}"),
    }
    if msim_testbed::shutdown_requested() {
        eprintln!("[chaos] interrupted — partial summary flushed");
        return msim_testbed::signal::SIGINT_EXIT;
    }
    if summary.violating.is_empty() {
        0
    } else {
        1
    }
}

fn report(summary: &ExploreSummary) {
    println!(
        "ran {} case(s), skipped {} invalid grid point(s), {} violation(s)",
        summary.cases_run,
        summary.skipped_points,
        summary.violating.len()
    );
    for tally in &summary.per_plan {
        println!(
            "  plan {:<40} {:>5} case(s)  {:>3} violation(s)",
            tally.plan, tally.cases, tally.violations
        );
    }
    for case in &summary.violating {
        println!(
            "  VIOLATION workload={} scheduler={} chunk_kb={} seed={} plan={:?}",
            case.workload,
            case.scheduler,
            case.chunk_kb,
            hex_u64(case.seed),
            case.plan
        );
        for v in &case.recorded_violations {
            println!("    {v}");
        }
    }
    for path in &summary.recorded {
        println!("  recorded {}", path.display());
    }
}
