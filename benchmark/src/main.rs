//! `msplayer-benchmark`: the repository's one benchmark.
//!
//! ```text
//! msplayer-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! msplayer-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric with its unit, checks the outputs, writes the
//! full result to `benchmark/out/`, ends its standard output with the
//! driver's one-line JSON, and exits non-zero on any failed check. See
//! `benchmark/README.md`.

mod calib;
mod compare;
mod entry;
mod host;
mod layers;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

const USAGE: &str = "usage:
  msplayer-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  msplayer-benchmark compare <a.json> <b.json>
workloads: sweep_events, sweep_transfer, cluster_ticks, fleet_fluid";

fn parse_run(args: &[String], run_seconds: f64) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                opts.workload = value(i)?.clone();
                i += 1;
            }
            "--seed" => {
                opts.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                seconds = Some(s);
                i += 1;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if opts.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    // A smoke run makes its minimum number of trials and stops.
    opts.seconds = seconds.unwrap_or(if opts.smoke { 0.0 } else { run_seconds });
    Ok(opts)
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // The cluster workload spawns this binary as its workers.
        Some("worker") => Ok(entry::run_worker_stdio()),
        Some("run") => {
            let contract = report::contract()?;
            let opts = parse_run(&args[1..], contract.run_seconds)?;
            let result = run::run(&opts)?;
            contract.check_names(&result)?;
            result.print(&contract);
            let path = report::out_dir()?.join(result.file_name());
            let text = entry::json_to_string(&result.to_json(&contract));
            std::fs::write(&path, text + "\n")
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("{}", result.driver_line());
            Ok(if result.correct() { 0 } else { 1 })
        }
        Some("compare") if args.len() == 3 => {
            let contract = report::contract()?;
            Ok(if compare::compare(&args[1], &args[2], &contract)? {
                0
            } else {
                1
            })
        }
        _ => Err(USAGE.into()),
    }
}

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("msplayer-benchmark: {e}");
        2
    });
    std::process::exit(code);
}
