//! `msplayer-sim` — command-line front end for the simulator.
//!
//! ```sh
//! cargo run --release --bin msplayer-sim -- \
//!     --env testbed --scheduler harmonic --chunk 256K \
//!     --prebuffer 40 --seed 7 --refills 2 --trace
//! ```
//!
//! Runs one seeded session (or a `--runs N` sweep) and prints the QoE
//! summary, optionally with the per-path activity timeline
//! (`--timeline`) and an NDJSON telemetry trace of every session event
//! (`--trace <path>`).

use msplayer::core::chaos::{check_invariants, ChaosPlan};
use msplayer::core::config::{PlayerConfig, SchedulerKind};
use msplayer::core::fleet::{FleetHost, FleetMode, FleetSpec, SelectionPolicy};
use msplayer::core::metrics::{SessionMetrics, TrafficPhase};
use msplayer::core::sim::{
    PathSetup, ServiceSpec, SessionHost, SessionSpec, SessionSpecError, StopCondition,
};
use msplayer::core::trace::render_timeline;
use msplayer::simcore::stats::{median, Running};
use msplayer::simcore::telemetry;
use msplayer::simcore::units::ByteSize;

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
struct Options {
    env: String,       // testbed | youtube
    player: String,    // msplayer | wifi | lte
    scheduler: String, // harmonic | ewma | ratio | fixed
    chunk: u64,        // bytes
    prebuffer: f64,
    refills: usize,
    seed: u64,
    runs: u64,
    timeline: bool,
    trace: Option<String>, // NDJSON trace output path
    chaos: String,         // chaos plan / preset; empty = fault-free
    fleet: bool,
    fleet_sessions: u64,
    fleet_mode: FleetMode,
    fleet_policy: SelectionPolicy,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            env: "testbed".into(),
            player: "msplayer".into(),
            scheduler: "harmonic".into(),
            chunk: 256 * 1024,
            prebuffer: 40.0,
            refills: 0,
            seed: 2014,
            runs: 1,
            timeline: false,
            trace: None,
            chaos: String::new(),
            fleet: false,
            fleet_sessions: 2_000,
            fleet_mode: FleetMode::Fluid,
            fleet_policy: SelectionPolicy::LoadBalanced,
        }
    }
}

const USAGE: &str = "\
msplayer-sim — run MSPlayer sessions on the deterministic simulator

OPTIONS
    --env <testbed|youtube>        environment profile        [testbed]
    --player <msplayer|wifi|lte>   who streams                [msplayer]
    --scheduler <harmonic|ewma|ratio|fixed>                   [harmonic]
    --chunk <SIZE>                 initial chunk, e.g. 64K/1M [256K]
    --prebuffer <SECS>             pre-buffer target          [40]
    --refills <N>                  steady-state cycles to run [0]
    --seed <N>                     base seed                  [2014]
    --runs <N>                     seeds to sweep             [1]
    --timeline                     print the activity timeline
    --trace <PATH>                 write an NDJSON telemetry trace of
                                   every session event to PATH and print
                                   a one-line telemetry summary on exit
    --chaos <PLAN>                 chaos preset or plan string, e.g.
                                   kitchen-sink or
                                   'skew:+250ms;overload:path=1,from=1s,until=10s'
    --fleet                        run a coupled fleet population instead
                                   of single sessions
    --fleet-sessions <N>           population size               [2000]
    --fleet-mode <fluid|exact>     fleet backend                 [fluid]
    --fleet-policy <cheapest-feasible|load-balanced|qoe-first>
                                   server-selection policy  [load-balanced]
    --help                         this text

A chaos-corpus case also names a workload, a scheduler and a chunk size,
and its seed is 16 hex digits: replay it with the chaos explorer,
    chaos --case tests/chaos_corpus/case-<id>.json

Fleet mode couples every session through shared replica capacity
(--chaos fleet plans like capacity-crunch apply fleet-wide); exact mode
runs full per-chunk sessions on the scenario picked by --env/--player:
    msplayer-sim --fleet --fleet-sessions 50000 --fleet-policy qoe-first
    msplayer-sim --fleet --fleet-mode exact --fleet-sessions 16
";

/// Parses a size like `64K`, `1M`, `256K`, or plain bytes.
fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1024u64),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("bad size {s:?}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opt = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--env" => opt.env = value()?,
            "--player" => opt.player = value()?,
            "--scheduler" => opt.scheduler = value()?,
            "--chunk" => opt.chunk = parse_size(&value()?)?,
            "--prebuffer" => {
                opt.prebuffer = value()?.parse().map_err(|e| format!("--prebuffer: {e}"))?
            }
            "--refills" => opt.refills = value()?.parse().map_err(|e| format!("--refills: {e}"))?,
            "--seed" => opt.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => {
                opt.runs = value()?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--runs: expected a positive integer")?
            }
            "--timeline" => opt.timeline = true,
            "--trace" => opt.trace = Some(value()?),
            "--chaos" => {
                let v = value()?;
                ChaosPlan::preset(&v).map_err(|e| format!("--chaos: {e}"))?;
                opt.chaos = v;
            }
            "--fleet" => opt.fleet = true,
            "--fleet-sessions" => {
                opt.fleet_sessions = value()?
                    .parse()
                    .map_err(|e| format!("--fleet-sessions: {e}"))?
            }
            "--fleet-mode" => {
                let v = value()?;
                opt.fleet_mode = FleetMode::parse(&v)
                    .ok_or_else(|| format!("--fleet-mode: unknown mode {v:?} (fluid, exact)"))?
            }
            "--fleet-policy" => {
                let v = value()?;
                opt.fleet_policy = SelectionPolicy::parse(&v).ok_or_else(|| {
                    format!(
                        "--fleet-policy: unknown policy {v:?} ({})",
                        SelectionPolicy::ALL.map(|p| p.name()).join(", ")
                    )
                })?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    for (field, allowed) in [
        (&opt.env, &["testbed", "youtube"][..]),
        (&opt.player, &["msplayer", "wifi", "lte"][..]),
        (&opt.scheduler, &["harmonic", "ewma", "ratio", "fixed"][..]),
    ] {
        if !allowed.contains(&field.as_str()) {
            return Err(format!("invalid value {field:?}; allowed: {allowed:?}"));
        }
    }
    Ok(opt)
}

/// The service and the session picked by `--env` / `--player` and the
/// player flags, seeded with `--seed` and without the chaos plan.
fn session_for(opt: &Options) -> (ServiceSpec, SessionSpec) {
    let kind = match opt.scheduler.as_str() {
        "ewma" => SchedulerKind::Ewma,
        "ratio" => SchedulerKind::Ratio,
        "fixed" => SchedulerKind::Fixed,
        _ => SchedulerKind::Harmonic,
    };
    let cfg = if opt.player == "msplayer" {
        PlayerConfig::msplayer()
            .with_scheduler(kind)
            .with_initial_chunk(ByteSize::bytes(opt.chunk))
    } else {
        PlayerConfig::commercial_single_path(ByteSize::bytes(opt.chunk))
    }
    .with_prebuffer_secs(opt.prebuffer);
    let (service, pair) = match opt.env.as_str() {
        "youtube" => (ServiceSpec::youtube(), PathSetup::youtube_pair()),
        _ => (ServiceSpec::testbed(), PathSetup::testbed_pair()),
    };
    let paths = match opt.player.as_str() {
        "wifi" => pair[..1].to_vec(),
        "lte" => pair[1..].to_vec(),
        _ => pair,
    };
    let stop = if opt.refills > 0 {
        StopCondition::AfterRefills(opt.refills)
    } else {
        StopCondition::PrebufferDone
    };
    let spec = SessionSpec::new(opt.seed, paths, cfg).with_stop(stop);
    (service, spec)
}

/// Runs the CLI's session over `seeds` on one warmed host, layering the
/// chaos plan (if any) onto the session spec.
fn run_sessions(opt: &Options, seeds: &[u64]) -> Result<Vec<SessionMetrics>, SessionSpecError> {
    let (service, mut spec) = session_for(opt);
    if !opt.chaos.is_empty() {
        let plan = ChaosPlan::preset(&opt.chaos).expect("plan validated during arg parsing");
        spec = spec.with_chaos(plan);
    }
    SessionHost::new(service).run_batch(seeds, &spec)
}

/// Builds the fleet spec implied by the CLI options: fluid mode uses the
/// default mixed-access population, exact mode drives full per-chunk
/// sessions of the `--env`/`--player` session.
fn fleet_spec_for(opt: &Options) -> Result<FleetSpec, SessionSpecError> {
    let mut spec = match opt.fleet_mode {
        FleetMode::Fluid => FleetSpec::fluid(opt.seed, opt.fleet_sessions),
        FleetMode::Exact => {
            let (service, base) = session_for(opt);
            base.validate()?;
            FleetSpec::exact(service, base, opt.fleet_sessions)
        }
    };
    spec.policy = opt.fleet_policy;
    if !opt.chaos.is_empty() {
        spec.chaos =
            Some(ChaosPlan::preset(&opt.chaos).expect("plan validated during arg parsing"));
    }
    Ok(spec)
}

/// Runs the coupled fleet population and prints its summary; returns the
/// exit code.
fn run_fleet_mode(opt: &Options) -> i32 {
    let spec = match fleet_spec_for(opt) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("invalid session: {e}");
            return 2;
        }
    };
    let mut host = match FleetHost::new(spec) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("invalid fleet spec: {e}");
            return 2;
        }
    };
    let m = host.run();
    let (cost, qoe) = m.cost_qoe();
    println!(
        "fleet ({}, {}): {} sessions, peak {} concurrent, {} events",
        m.mode.name(),
        m.policy.name(),
        m.sessions,
        m.peak_concurrent,
        m.events
    );
    println!(
        "  completed {}, rejected {}, stalled {} ({:.1}s total stall)",
        m.completed, m.rejected, m.stalled_sessions, m.total_stall_secs
    );
    println!(
        "  startup p50 {:.2}s p95 {:.2}s, served {:.2} GB",
        m.startup_p50_secs,
        m.startup_p95_secs,
        m.total_served_bytes as f64 / 1e9
    );
    println!("  cost {cost:.2}, mean QoE {qoe:.2}");
    for s in &m.servers {
        let mean_util = if s.utilization.is_empty() {
            0.0
        } else {
            s.utilization.iter().sum::<f64>() / s.utilization.len() as f64
        };
        println!(
            "  server {}: peak {} sessions, mean util {:.1}%, served {:.2} GB, cost {:.2}",
            s.server,
            s.peak_sessions,
            mean_util * 100.0,
            s.served_bytes as f64 / 1e9,
            s.cost
        );
    }
    for b in m.rebuffer_vs_load.iter().filter(|b| b.sessions > 0) {
        println!(
            "  load {:.1}-{:.1}: {} sessions, stall fraction {:.3}, {} rejected",
            b.demand_lo,
            b.demand_hi,
            b.sessions,
            b.stall_fraction(),
            b.rejected
        );
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg == USAGE { 0 } else { 2 });
        }
    };
    if opt.trace.is_some() {
        telemetry::set_enabled(true);
        telemetry::set_trace_enabled(true);
    }
    if opt.fleet {
        std::process::exit(run_fleet_mode(&opt));
    }

    // Open the trace before any session runs: an unwritable path is a
    // usage error, not something to learn after the whole sweep.
    let trace_out = opt.trace.as_deref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("--trace {path}: {e}");
            std::process::exit(2);
        });
        (path, file)
    });

    let mut prebuffer_stats = Running::new();
    let mut prebuffer_samples = Vec::new();
    let mut chaos_violations = 0usize;
    let seeds: Vec<u64> = (0..opt.runs)
        .map(|run| opt.seed ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let sessions = match run_sessions(&opt, &seeds) {
        Ok(sessions) => sessions,
        Err(e) => {
            eprintln!("invalid session: {e}");
            std::process::exit(2);
        }
    };
    for (&seed, m) in seeds.iter().zip(&sessions) {
        if !opt.chaos.is_empty() {
            let violations = check_invariants(m);
            if violations.is_empty() {
                println!(
                    "chaos (seed {seed}, plan {:?}): all invariants hold",
                    opt.chaos
                );
            } else {
                chaos_violations += violations.len();
                println!(
                    "chaos (seed {seed}, plan {:?}): {} violation(s)",
                    opt.chaos,
                    violations.len()
                );
                for v in &violations {
                    println!("  {v}");
                }
            }
        }
        if let Some(t) = m.prebuffer_time() {
            prebuffer_stats.push(t.as_secs_f64());
            prebuffer_samples.push(t.as_secs_f64());
        }
        if opt.runs == 1 {
            println!(
                "session (seed {seed}): {} chunks, pre-buffer {}",
                m.chunks.len(),
                m.prebuffer_time()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
            for (i, r) in m.refills.iter().enumerate() {
                println!(
                    "  refill {}: {:.2} s ({:.1} MB)",
                    i + 1,
                    r.duration().as_secs_f64(),
                    r.bytes as f64 / 1e6
                );
            }
            for phase in [TrafficPhase::PreBuffering, TrafficPhase::ReBuffering] {
                if let Some(f) = m.traffic_fraction(0, phase) {
                    println!("  WiFi share, {phase:?}: {:.1} %", f * 100.0);
                }
            }
            if !m.stalls.is_empty() {
                println!("  stalls: {} ({})", m.stalls.len(), m.total_stall_time());
            }
            if opt.timeline {
                println!("\n{}", render_timeline(m, 96));
            }
        }
    }
    if opt.runs > 1 {
        println!(
            "{} runs: pre-buffer median {:.2} s, mean {} s (min {:.2}, max {:.2})",
            opt.runs,
            median(&prebuffer_samples),
            prebuffer_stats.mean_pm_std(),
            prebuffer_stats.min(),
            prebuffer_stats.max(),
        );
    }
    if let Some((path, file)) = trace_out {
        if let Err(e) = write_trace(path, file) {
            eprintln!("--trace {path}: {e}");
            std::process::exit(2);
        }
    }
    if chaos_violations > 0 {
        std::process::exit(1);
    }
}

/// Flushes the captured NDJSON trace to `file` (opened at `path`) and
/// prints the one-line telemetry summary.
fn write_trace(path: &str, file: std::fs::File) -> std::io::Result<()> {
    // Summarize before draining the buffer so the line reports the
    // actual trace depth.
    let summary = telemetry::summary_line();
    let events = telemetry::take_trace();
    let mut w = std::io::BufWriter::new(file);
    telemetry::write_trace_ndjson(&events, &mut w)?;
    use std::io::Write as _;
    w.flush()?;
    println!("trace: {} events -> {path}", events.len());
    println!("{summary}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msplayer::youtube::Network;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_when_no_args() {
        assert_eq!(parse_args(&[]).unwrap(), Options::default());
    }

    #[test]
    fn parses_everything() {
        let o = parse_args(&args(
            "--env youtube --player wifi --scheduler ewma --chunk 1M \
             --prebuffer 20 --refills 3 --seed 9 --runs 5 --timeline \
             --trace /tmp/session.ndjson",
        ))
        .unwrap();
        assert_eq!(o.env, "youtube");
        assert_eq!(o.player, "wifi");
        assert_eq!(o.scheduler, "ewma");
        assert_eq!(o.chunk, 1024 * 1024);
        assert_eq!(o.prebuffer, 20.0);
        assert_eq!(o.refills, 3);
        assert_eq!(o.seed, 9);
        assert_eq!(o.runs, 5);
        assert!(o.timeline);
        assert_eq!(o.trace.as_deref(), Some("/tmp/session.ndjson"));
    }

    #[test]
    fn trace_flag_requires_a_path() {
        assert!(parse_args(&args("--trace")).is_err());
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("64K").unwrap(), 65_536);
        assert_eq!(parse_size("1M").unwrap(), 1_048_576);
        assert_eq!(parse_size("512").unwrap(), 512);
        assert!(parse_size("abcK").is_err());
    }

    #[test]
    fn size_overflow_is_a_bad_size_not_a_wrap() {
        // 2^44 MiB = 2^64 bytes: wrapped to 0 in release, panicked in debug.
        assert_eq!(
            parse_size("17592186044416M"),
            Err("bad size \"17592186044416M\"".into())
        );
        assert!(parse_size("99999999999999999M").is_err());
        assert!(parse_args(&args("--chunk 17592186044416M")).is_err());
        assert_eq!(
            parse_size("17592186044415M").unwrap(),
            u64::MAX - (1 << 20) + 1
        );
    }

    #[test]
    fn invalid_player_configs_are_errors_not_panics() {
        for bad in [
            "--chunk 0",
            "--prebuffer 0",
            "--prebuffer -1",
            "--prebuffer nan",
            "--prebuffer inf",
            "--chunk 0 --chaos kitchen-sink",
            "--chunk 0 --runs 3",
        ] {
            let o = parse_args(&args(bad)).unwrap();
            assert!(
                matches!(
                    run_sessions(&o, &[o.seed]),
                    Err(SessionSpecError::InvalidPlayer(_))
                ),
                "{bad}"
            );
            let exact = Options {
                fleet: true,
                fleet_mode: FleetMode::Exact,
                ..o
            };
            assert!(fleet_spec_for(&exact).is_err(), "{bad} (exact fleet)");
        }
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        assert!(parse_args(&args("--bogus 1")).is_err());
        assert!(parse_args(&args("--env mars")).is_err());
        assert!(parse_args(&args("--scheduler quantum")).is_err());
        assert!(parse_args(&args("--chunk")).is_err(), "missing value");
        for runs in ["0", "two", "-1"] {
            assert_eq!(
                parse_args(&args(&format!("--runs {runs}")))
                    .err()
                    .as_deref(),
                Some("--runs: expected a positive integer")
            );
        }
    }

    #[test]
    fn chaos_flag_parses_presets_and_plans_and_rejects_garbage() {
        let o = parse_args(&args("--chaos kitchen-sink")).unwrap();
        assert_eq!(o.chaos, "kitchen-sink");
        let o = parse_args(&["--chaos".into(), "skew:+250ms;token-expiry:6s".into()]).unwrap();
        assert_eq!(o.chaos, "skew:+250ms;token-expiry:6s");
        assert!(parse_args(&args("--chaos warp-drive:11")).is_err());
    }

    #[test]
    fn chaos_session_runs_deterministically_and_passes_the_oracle() {
        let o = Options {
            prebuffer: 5.0,
            chaos: "skew:+250ms;overload:path=1,from=1s,until=8s".into(),
            ..Options::default()
        };
        let run_one = |o: &Options| run_sessions(o, &[33]).expect("valid session").remove(0);
        let a = run_one(&o);
        let b = run_one(&o);
        assert_eq!(a, b, "chaos replay must be bit-identical");
        assert!(check_invariants(&a).is_empty());
        // The plan actually changes the session.
        let clean = run_one(&Options {
            chaos: String::new(),
            ..o.clone()
        });
        assert_ne!(a, clean, "the plan must perturb the session");
    }

    #[test]
    fn fleet_flags_parse_and_reject_garbage() {
        let o = parse_args(&args(
            "--fleet --fleet-sessions 500 --fleet-mode exact --fleet-policy load-balanced",
        ))
        .unwrap();
        assert!(o.fleet);
        assert_eq!(o.fleet_sessions, 500);
        assert_eq!(o.fleet_mode, FleetMode::Exact);
        assert_eq!(o.fleet_policy, SelectionPolicy::LoadBalanced);
        assert!(parse_args(&args("--fleet-mode plasma")).is_err());
        assert!(parse_args(&args("--fleet-policy dartboard")).is_err());
    }

    #[test]
    fn fleet_specs_build_for_both_modes() {
        let fluid = Options {
            fleet: true,
            fleet_sessions: 50,
            fleet_policy: SelectionPolicy::QoeFirst,
            ..Options::default()
        };
        FleetHost::new(fleet_spec_for(&fluid).unwrap()).expect("fluid CLI spec validates");
        let exact = Options {
            fleet: true,
            fleet_sessions: 4,
            fleet_mode: FleetMode::Exact,
            ..Options::default()
        };
        let m = FleetHost::new(fleet_spec_for(&exact).unwrap())
            .expect("exact CLI spec validates")
            .run();
        assert_eq!(m.sessions, 4);
        assert_eq!(m.completed + m.rejected, 4);
    }

    #[test]
    fn help_returns_usage() {
        let err = parse_args(&args("--help")).unwrap_err();
        assert!(err.contains("msplayer-sim"));
    }

    #[test]
    fn scenarios_build_for_all_combinations() {
        for env in ["testbed", "youtube"] {
            for player in ["msplayer", "wifi", "lte"] {
                let o = Options {
                    env: env.into(),
                    player: player.into(),
                    prebuffer: 5.0,
                    ..Options::default()
                };
                let (service, spec) = session_for(&o);
                let expected_paths = if player == "msplayer" { 2 } else { 1 };
                assert_eq!(spec.paths.len(), expected_paths, "{env}/{player}");
                assert_eq!(service.copyrighted, env == "youtube", "{env}/{player}");
                let network = if player == "lte" {
                    Network::Cellular
                } else {
                    Network::Wifi
                };
                assert_eq!(spec.paths[0].network, network, "{env}/{player}");
                assert!(spec.validate().is_ok(), "{env}/{player}");
            }
        }
    }

    #[test]
    fn cli_session_runs_end_to_end() {
        let o = Options {
            prebuffer: 5.0,
            ..Options::default()
        };
        let m = run_sessions(&o, &[42]).expect("valid session");
        assert!(m[0].prebuffer_time().is_some());
    }
}
