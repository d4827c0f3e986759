//! `sweep` — runs the Fig. 3-style scheduler sweep serially and in
//! parallel, verifies the outputs are bit-identical, and records
//! `BENCH_*.json` perf artifacts (wall time, sessions/sec, events/sec).
//!
//! ```sh
//! MSP_RUNS=20 MSP_THREADS=8 cargo run --release -p msplayer-bench --bin sweep
//! ```
//!
//! Case mode reproduces a single chaos-corpus case (or any ad-hoc
//! seed/plan point) in one command instead of sweeping:
//!
//! ```sh
//! cargo run -p msplayer-bench --bin sweep -- --case tests/chaos_corpus/case-<id>.json
//! cargo run -p msplayer-bench --bin sweep -- \
//!     --workload testbed/MSPlayer --scheduler Harmonic --chunk-kb 256 \
//!     --seed 33 --chaos kitchen-sink
//! ```
//!
//! Exit status in case mode: 0 when the session holds every invariant,
//! 1 otherwise.

use msim_core::stats::median;
use msim_testbed::{install_shutdown_handler, shutdown_requested};
use msplayer_bench::chaos::{run_case, ChaosCase};
use msplayer_bench::sweep::{
    bench_dir, expand_workload, run_parallel_with, run_serial_with, threads, write_bench_json,
    BenchReport, SweepOptions,
};
use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
use msplayer_bench::{env_or_exit, runs};
use std::sync::Arc;

const CASE_USAGE: &str = "\
sweep case mode:
    sweep --case <file.json>
    sweep --workload <name> [--scheduler <name>] [--chunk-kb <n>]
          [--seed <n>] [--chaos <plan-or-preset>]
(no flags = the legacy Fig. 3 sweep)
";

/// Parses case-mode flags; `None` means legacy sweep mode (no flags).
fn parse_case_args(args: &[String]) -> Result<Option<ChaosCase>, String> {
    if args.is_empty() {
        return Ok(None);
    }
    let mut case = ChaosCase {
        workload: String::new(),
        scheduler: "Harmonic".into(),
        chunk_kb: 256,
        seed: 0,
        plan: String::new(),
        recorded_violations: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n\n{CASE_USAGE}"))
        };
        match arg.as_str() {
            "--case" => {
                let path = value("--case")?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let json = msim_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
                case = ChaosCase::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
            }
            "--workload" => case.workload = value("--workload")?,
            "--scheduler" => case.scheduler = value("--scheduler")?,
            "--chunk-kb" => {
                let v = value("--chunk-kb")?;
                case.chunk_kb = v.parse().map_err(|_| format!("bad --chunk-kb {v:?}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                case.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--chaos" => case.plan = value("--chaos")?,
            "-h" | "--help" => return Err(CASE_USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{CASE_USAGE}")),
        }
    }
    if case.workload.is_empty() {
        return Err(format!(
            "--workload (or --case) is required\n\n{CASE_USAGE}"
        ));
    }
    Ok(Some(case))
}

/// Reproduces one case and reports its verdict; returns the exit code.
fn run_case_mode(case: &ChaosCase) -> i32 {
    let registry = WorkloadRegistry::builtin(1);
    println!(
        "case: workload={} scheduler={} chunk_kb={} seed={} plan={:?}",
        case.workload, case.scheduler, case.chunk_kb, case.seed, case.plan
    );
    let outcome = run_case(case, &registry);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_case_args(&args) {
        Ok(Some(case)) => std::process::exit(run_case_mode(&case)),
        Ok(None) => {}
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
    install_shutdown_handler();
    let bench_dir = env_or_exit("MSP_BENCH_DIR", bench_dir);
    // MSP_METRICS_ADDR=127.0.0.1:9464 exposes /metrics, /healthz (and an
    // empty /jobs) for the duration of the run. Opting in enables the
    // telemetry registry, so the headline numbers of such a run are not
    // comparable to the recorded telemetry-disabled baselines.
    let _obs = match std::env::var("MSP_METRICS_ADDR") {
        Ok(addr) if !addr.is_empty() => {
            msim_core::telemetry::set_enabled(true);
            msim_core::telemetry::register_core_counters();
            match msim_testbed::ObsServer::start(&addr, msim_testbed::ObsServer::no_jobs()) {
                Ok(server) => {
                    eprintln!("sweep: metrics on http://{}/metrics", server.addr);
                    Some(server)
                }
                Err(e) => {
                    eprintln!("sweep: bind metrics {addr}: {e}");
                    None
                }
            }
        }
        _ => None,
    };
    // The Fig. 3-style sweep: testbed MSPlayer across the three paper
    // schedulers and four initial chunk sizes.
    let reg = WorkloadRegistry::builtin(runs());
    let mut fig3 = WorkloadSpec::clone(reg.by_name("testbed/MSPlayer").expect("builtin"));
    fig3.chunk_kb = vec![16, 64, 256, 1024];
    let cells = expand_workload(&Arc::new(fig3));
    let n_threads = threads();
    let opts = SweepOptions::from_env();
    println!(
        "sweep: {} cells (fig3-style: {} runs/cell), {} worker threads{}",
        cells.len(),
        runs(),
        n_threads,
        opts.cell_budget
            .map(|b| format!(", {:.3}s/cell watchdog", b.as_secs_f64()))
            .unwrap_or_default(),
    );

    // Warm up both execution paths with a full pass each: the first
    // threaded pass in a process pays allocator-arena creation and page
    // faults (~2x), which would otherwise be billed to the measured run.
    // Disable with MSP_WARMUP=0 (e.g. CI smoke runs).
    let warmup = std::env::var("MSP_WARMUP")
        .map(|v| v != "0")
        .unwrap_or(true);
    if warmup {
        let _ = run_parallel_with(&cells, n_threads, &opts);
        let _ = run_serial_with(&cells, &opts);
    }

    let (serial_report, serial) =
        BenchReport::measure("sweep_fig3_serial", 1, || run_serial_with(&cells, &opts));
    // SIGINT/SIGTERM between phases: flush the artifact we have and exit
    // with the interrupted status instead of starting the parallel pass.
    if shutdown_requested() {
        let path = write_bench_json(&bench_dir, &serial_report).expect("write bench json");
        eprintln!("sweep: interrupted — flushed partial {}", path.display());
        std::process::exit(msim_testbed::signal::SIGINT_EXIT);
    }
    let (mut parallel_report, parallel) =
        BenchReport::measure("sweep_fig3_parallel", n_threads, || {
            run_parallel_with(&cells, n_threads, &opts)
        });
    parallel_report.serial_wall_secs = Some(serial_report.wall_secs);

    if opts.cell_budget.is_none() {
        assert_eq!(
            serial, parallel,
            "parallel sweep must be bit-identical to serial"
        );
        println!("determinism: parallel output bit-identical to serial ✓");
    } else {
        // Watchdog rows are wall-clock dependent, so serial/parallel
        // bit-identity only applies to the cells both runs completed.
        for r in serial.iter().chain(&parallel).filter(|r| r.timed_out()) {
            println!("watchdog: cell timed out — repro: {}", r.cell.repro());
        }
    }

    for report in [&serial_report, &parallel_report] {
        println!(
            "{:<22} wall {:>8.3}s  {:>8.1} sessions/s  {:>12.0} events/s{}",
            report.name,
            report.wall_secs,
            report.sessions_per_sec(),
            report.events_per_sec(),
            report
                .speedup()
                .map(|s| format!("  speedup {s:.2}x"))
                .unwrap_or_default(),
        );
        let path = write_bench_json(&bench_dir, report).expect("write bench json");
        println!("[bench] {}", path.display());
    }

    // Per-cell-kind wall-time percentiles (serial run): the attribution
    // data for scheduler-level regressions.
    println!("\nper-kind wall-time percentiles (serial):");
    for k in &serial_report.cell_kinds {
        println!(
            "  {:<32} n={:<4} p50 {:>7.3}ms  p95 {:>7.3}ms  p99 {:>7.3}ms",
            k.kind, k.cells, k.p50_ms, k.p95_ms, k.p99_ms
        );
    }

    // A paper-shaped sanity line so the artifact doubles as a smoke check.
    let harmonic_256: Vec<f64> = serial
        .iter()
        .filter(|r| {
            r.cell.chunk_kb == 256
                && r.cell.scheduler == msplayer_core::config::SchedulerKind::Harmonic
        })
        .filter_map(|r| {
            r.metrics()
                .and_then(|m| m.prebuffer_time())
                .map(|t| t.as_secs_f64())
        })
        .collect();
    if !harmonic_256.is_empty() {
        println!(
            "harmonic(256KB) median prebuffer download: {:.2}s over {} seeds",
            median(&harmonic_256),
            harmonic_256.len()
        );
    }
}
