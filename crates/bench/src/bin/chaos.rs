//! `chaos` — the chaos explorer binary: sweeps a deterministic seed
//! budget against plan × workload grids, checks every session against
//! the invariant oracle, writes `CHAOS_summary.json` into the bench
//! artifact directory, and (with `--record`) drops every violating
//! `(seed, plan, workload)` triple as a replayable JSON case under
//! `tests/chaos_corpus/`.
//!
//! ```sh
//! cargo run --release -p msplayer-bench --bin chaos -- --seeds 5
//! cargo run --release -p msplayer-bench --bin chaos -- \
//!     --plans kitchen-sink,outage-up --workloads testbed/MSPlayer --record
//! cargo run --release -p msplayer-bench --bin chaos -- --replay-corpus
//! ```
//!
//! Exit status: 0 when every case holds the invariants, 1 otherwise —
//! so CI can gate on a fixed seed budget.

use msplayer_bench::chaos::{
    corpus_dir, explore, load_corpus, run_case, ExploreConfig, ExploreSummary,
};
use msplayer_bench::env_or_exit;
use msplayer_bench::sweep::bench_dir;
use msplayer_bench::workload::WorkloadRegistry;

const USAGE: &str = "\
chaos — deterministic fault-injection explorer

USAGE:
    chaos [--seeds N] [--plans a,b,..] [--workloads a,b,..] [--record]
    chaos --replay-corpus

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
    --list             print presets and builtin workloads, then exit
    -h, --help         this text
";

/// The default seed-rotation window: `MSP_CHAOS_WINDOW` when set (a value
/// that is not a window ends the process, exit code 2 — a pinned window
/// must never silently become today's), else days since the Unix epoch.
/// Any violation a rotated run finds is recorded as a self-contained
/// corpus case, so reproducibility never depends on knowing which day
/// found it.
fn default_window() -> u64 {
    env_or_exit("MSP_CHAOS_WINDOW", parse_window).unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs() / 86_400)
            .unwrap_or(0)
    })
}

/// `MSP_CHAOS_WINDOW` as read from the environment (`None` = unset) to a
/// pinned window (`None` = rotate daily).
fn parse_window(value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(v) = value else { return Ok(None) };
    match v.trim().parse::<u64>() {
        Ok(w) => Ok(Some(w)),
        Err(_) => Err(format!(
            "MSP_CHAOS_WINDOW={v:?}: expected a non-negative integer (0 = the historical enumeration)"
        )),
    }
}

struct Options {
    seeds: u64,
    plans: Option<Vec<String>>,
    workloads: Option<Vec<String>>,
    window: Option<u64>,
    record: bool,
    replay_corpus: bool,
    list: bool,
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
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
    Ok(opts)
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

    if opts.replay_corpus {
        let corpus = match load_corpus(&corpus_dir()) {
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
    cfg.window = opts.window.unwrap_or_else(default_window);
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
            case.workload, case.scheduler, case.chunk_kb, case.seed, case.plan
        );
        for v in &case.recorded_violations {
            println!("    {v}");
        }
    }
    for path in &summary.recorded {
        println!("  recorded {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::parse_window;

    #[test]
    fn msp_chaos_window_accepts_windows_and_treats_unset_as_rotate_daily() {
        assert_eq!(parse_window(None), Ok(None));
        assert_eq!(parse_window(Some("0")), Ok(Some(0)));
        assert_eq!(parse_window(Some(" 20726 ")), Ok(Some(20726)));
    }

    #[test]
    fn msp_chaos_window_rejects_garbage_naming_the_variable() {
        for bad in ["banana", "-1", "2.5", ""] {
            let err = parse_window(Some(bad)).unwrap_err();
            assert!(
                err.starts_with(&format!("MSP_CHAOS_WINDOW={bad:?}: expected ")),
                "{err}"
            );
        }
    }
}
