//! `chaos` — the chaos explorer binary: sweeps a deterministic seed
//! budget against plan × workload grids, checks every session against
//! the invariant oracle, writes `CHAOS_summary.json` into the bench
//! artifact directory, and (with `--record`) drops every violating
//! `(seed, plan, workload)` triple as a replayable JSON case under
//! `tests/chaos_corpus/`. The same executable replays the committed
//! corpus, one case file, or any ad-hoc seed/plan point.
//!
//! ```sh
//! cargo run --release -p msplayer-bench --bin chaos -- --seeds 5
//! cargo run --release -p msplayer-bench --bin chaos -- \
//!     --plans kitchen-sink,outage-up --workloads testbed/MSPlayer --record
//! cargo run --release -p msplayer-bench --bin chaos -- --replay-corpus
//! cargo run --release -p msplayer-bench --bin chaos -- \
//!     --case tests/chaos_corpus/case-<id>.json
//! cargo run --release -p msplayer-bench --bin chaos -- \
//!     --workload testbed/MSPlayer --scheduler Harmonic --chunk-kb 256 \
//!     --seed 33 --chaos kitchen-sink
//! ```
//!
//! Exit status: 0 when every case holds the invariants, 1 otherwise —
//! so CI can gate on a fixed seed budget; 2 for a command line or an
//! environment it cannot read.

use msplayer_bench::chaos::{explore, run_case, ChaosCase, ExploreConfig, ExploreSummary};
use msplayer_bench::cluster::merge::{hex_u64, parse_hex_u64};
use msplayer_bench::corpus;
use msplayer_bench::env_or_exit;
use msplayer_bench::sweep::bench_dir;
use msplayer_bench::workload::WorkloadRegistry;

const USAGE: &str = "\
chaos — deterministic fault-injection explorer

USAGE:
    chaos [--seeds N] [--plans a,b,..] [--workloads a,b,..] [--record]
    chaos --replay-corpus
    chaos --case <file.json>
    chaos --workload <name> [--scheduler <name>] [--chunk-kb <n>]
          [--seed <n>] [--chaos <plan-or-preset>]

OPTIONS:
    --seeds N          seeds per (plan, workload) grid point [default: 3]
    --plans LIST       comma-separated preset names or raw plan strings
                       [default: every preset]
    --workloads LIST   comma-separated builtin workload names
                       [default: a 5-workload smoke spread]
    --window N         seed-rotation window; 0 = the historical
                       enumeration [default: $MSP_CHAOS_WINDOW, else
                       days since the Unix epoch — so periodic CI runs
                       rotate onto fresh seeds each day]
    --record           write violating cases into tests/chaos_corpus/
    --replay-corpus    replay every committed corpus case instead of
                       sweeping
    --case FILE        replay the one case in FILE and print its
                       fingerprint and verdict; the five flags below
                       change a field of it, or describe a case by hand
    --workload NAME    builtin workload of the case
    --scheduler NAME   [default: Harmonic]
    --chunk-kb N       [default: 256]
    --seed N           decimal, or the 16 hex digits a case file holds
                       [default: 0]
    --chaos PLAN       preset name or raw plan string [default: none]
    --list             print presets and builtin workloads, then exit
    -h, --help         this text
";

struct Options {
    seeds: u64,
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

/// The case the field flags start from when no `--case` came first.
fn by_hand() -> ChaosCase {
    ChaosCase {
        workload: String::new(),
        scheduler: "Harmonic".into(),
        chunk_kb: 256,
        seed: 0,
        plan: String::new(),
        recorded_violations: Vec::new(),
    }
}

/// `--seed`: the 16 hex digits of a case file, else a decimal integer.
fn parse_seed(v: &str) -> Result<u64, String> {
    let hex = v.len() == 16 && v.bytes().all(|b| b.is_ascii_hexdigit());
    if hex {
        parse_hex_u64(v)
    } else {
        v.parse().map_err(|_| format!("bad --seed {v:?}"))
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seeds: 3,
        plans: None,
        workloads: None,
        window: None,
        record: false,
        replay_corpus: false,
        list: false,
        case: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--case" => {
                let v = it.next().ok_or("--case needs a value")?;
                opts.case = Some(corpus::load_file(std::path::Path::new(v))?);
            }
            "--workload" | "--scheduler" | "--chunk-kb" | "--seed" | "--chaos" => {
                let v = it.next().ok_or(format!("{arg} needs a value"))?;
                let case = opts.case.get_or_insert_with(by_hand);
                match arg.as_str() {
                    "--workload" => case.workload = v.clone(),
                    "--scheduler" => case.scheduler = v.clone(),
                    "--chunk-kb" => {
                        case.chunk_kb = v.parse().map_err(|_| format!("bad --chunk-kb {v:?}"))?
                    }
                    "--seed" => case.seed = parse_seed(v)?,
                    _ => case.plan = v.clone(),
                }
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                opts.seeds = v.parse().map_err(|_| format!("bad --seeds value {v:?}"))?;
            }
            "--plans" => {
                let v = it.next().ok_or("--plans needs a value")?;
                opts.plans = Some(v.split(',').map(str::to_string).collect());
            }
            "--workloads" => {
                let v = it.next().ok_or("--workloads needs a value")?;
                opts.workloads = Some(v.split(',').map(str::to_string).collect());
            }
            "--window" => {
                let v = it.next().ok_or("--window needs a value")?;
                opts.window = Some(v.parse().map_err(|_| format!("bad --window value {v:?}"))?);
            }
            "--record" => opts.record = true,
            "--replay-corpus" => opts.replay_corpus = true,
            "--list" => opts.list = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    if opts.case.as_ref().is_some_and(|c| c.workload.is_empty()) {
        return Err(format!("--workload (or --case) is required\n\n{USAGE}"));
    }
    Ok(opts)
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

fn main() {
    msim_testbed::install_shutdown_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let registry = WorkloadRegistry::builtin(1);

    if opts.list {
        println!("presets:");
        for p in msplayer_core::chaos::ChaosPlan::preset_names() {
            println!("  {p}");
        }
        println!("workloads:");
        for w in registry.specs() {
            println!("  {} ({} paths)", w.name, w.paths.len());
        }
        return;
    }

    if let Some(case) = &opts.case {
        std::process::exit(replay_one(case, &registry));
    }

    if opts.replay_corpus {
        let corpus = match corpus::load(&corpus::dir()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("corpus unreadable: {e}");
                std::process::exit(2);
            }
        };
        println!("replaying {} corpus case(s)", corpus.len());
        let mut failed = 0;
        for (path, case) in &corpus {
            let outcome = run_case(case, &registry);
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
            std::process::exit(1);
        }
        return;
    }

    let mut cfg = ExploreConfig::smoke(opts.seeds);
    if let Some(plans) = opts.plans {
        cfg.plans = plans;
    }
    if let Some(workloads) = opts.workloads {
        cfg.workloads = workloads;
    }
    cfg.record = opts.record;
    cfg.window = opts.window.unwrap_or_else(corpus::default_window);
    let bench_dir = env_or_exit("MSP_BENCH_DIR", bench_dir);

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
        std::process::exit(msim_testbed::signal::SIGINT_EXIT);
    }
    if !summary.violating.is_empty() {
        std::process::exit(1);
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
