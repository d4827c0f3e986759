//! `msplayer run`: one seeded session (or a `--runs N` sweep) and its QoE
//! summary, optionally with the per-path activity timeline and an NDJSON
//! telemetry trace; `--fleet` runs a coupled population instead (exact
//! mode on the session `--env`/`--player` pick; fleet chaos plans such as
//! capacity-crunch apply fleet-wide).

use crate::Set::{Switch, Value};
use crate::{parsed, positive, Flag};
use msim_core::stats::{median, Running};
use msim_core::telemetry;
use msim_core::units::ByteSize;
use msplayer_core::chaos::{check_invariants, ChaosPlan};
use msplayer_core::config::{PlayerConfig, SchedulerKind};
use msplayer_core::fleet::{FleetMode, FleetSpec, SelectionPolicy};
use msplayer_core::metrics::{SessionMetrics, TrafficPhase};
use msplayer_core::sim::{
    PathSetup, ServiceSpec, SessionHost, SessionSpec, SessionSpecError, StopCondition,
};
use msplayer_core::trace::render_timeline;

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
struct Options {
    env: String,    // testbed | youtube
    player: String, // msplayer | wifi | lte
    scheduler: SchedulerKind,
    chunk: u64, // bytes
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
            scheduler: SchedulerKind::Harmonic,
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

const SYNOPSIS: &str =
    "run [flags] — seeded MSPlayer sessions, or a coupled fleet, on the simulator";

#[rustfmt::skip]
const FLAGS: &[Flag<Options>] = &[
    ("--env", "<testbed|youtube> environment profile [testbed]", Value(|o, v| one_of(v, ENVS).map(|v| o.env = v))),
    ("--player", "<msplayer|wifi|lte> who streams [msplayer]", Value(|o, v| one_of(v, PLAYERS).map(|v| o.player = v))),
    ("--scheduler", "<Ratio|EWMA|Harmonic|HarmonicWin|Fixed> [Harmonic]", Value(set_scheduler)),
    ("--chunk", "<SIZE> initial chunk, e.g. 64K or 1M [256K]", Value(|o, v| parse_size(v).map(|n| o.chunk = n))),
    ("--prebuffer", "<SECS> pre-buffer target [40]", Value(|o, v| parsed(v).map(|x| o.prebuffer = x))),
    ("--refills", "<N> steady-state cycles to run [0]", Value(|o, v| parsed(v).map(|n| o.refills = n))),
    ("--seed", "<N> base seed [2014]", Value(|o, v| parsed(v).map(|n| o.seed = n))),
    ("--runs", "<N> seeds to sweep [1]", Value(|o, v| positive(v).map(|n| o.runs = n))),
    ("--timeline", "print the per-path activity timeline", Switch(|o| o.timeline = true)),
    ("--trace", "<PATH> write an NDJSON trace of every session event", Value(|o, v| parsed(v).map(|path| o.trace = Some(path)))),
    ("--chaos", "<PLAN> a preset (kitchen-sink) or a plan string", Value(set_chaos)),
    ("--fleet", "run a coupled fleet population instead", Switch(|o| o.fleet = true)),
    ("--fleet-sessions", "<N> population size [2000]", Value(|o, v| parsed(v).map(|n| o.fleet_sessions = n))),
    ("--fleet-mode", "<fluid|exact> fleet backend [fluid]", Value(set_fleet_mode)),
    ("--fleet-policy", "<cheapest-feasible|load-balanced|qoe-first> [load-balanced]", Value(set_fleet_policy)),
];

const ENVS: &[&str] = &["testbed", "youtube"];
const PLAYERS: &[&str] = &["msplayer", "wifi", "lte"];

/// `v` if `allowed` holds it.
fn one_of(v: &str, allowed: &[&str]) -> Result<String, String> {
    if allowed.contains(&v) {
        Ok(v.into())
    } else {
        Err(format!("invalid value {v:?}; allowed: {allowed:?}"))
    }
}

fn set_chaos(o: &mut Options, v: &str) -> Result<(), String> {
    ChaosPlan::preset(v).map_err(|e| e.to_string())?;
    o.chaos = v.into();
    Ok(())
}

fn set_scheduler(o: &mut Options, v: &str) -> Result<(), String> {
    let names = || SchedulerKind::ALL.map(|k| k.name()).join(", ");
    o.scheduler =
        SchedulerKind::parse(v).ok_or_else(|| format!("unknown scheduler {v:?} ({})", names()))?;
    Ok(())
}

fn set_fleet_mode(o: &mut Options, v: &str) -> Result<(), String> {
    o.fleet_mode = FleetMode::parse(v).ok_or(format!("unknown mode {v:?} (fluid, exact)"))?;
    Ok(())
}

fn set_fleet_policy(o: &mut Options, v: &str) -> Result<(), String> {
    let names = || SelectionPolicy::ALL.map(|p| p.name()).join(", ");
    o.fleet_policy =
        SelectionPolicy::parse(v).ok_or_else(|| format!("unknown policy {v:?} ({})", names()))?;
    Ok(())
}

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

/// The service and the session picked by `--env` / `--player` and the
/// player flags, seeded with `--seed` and without the chaos plan.
fn session_for(opt: &Options) -> (ServiceSpec, SessionSpec) {
    let cfg = if opt.player == "msplayer" {
        PlayerConfig::msplayer()
            .with_scheduler(opt.scheduler)
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

/// Runs the coupled fleet population under the fleet invariant oracle (a
/// violation exits 1) and prints its summary; returns the exit code.
fn run_fleet_mode(opt: &Options) -> i32 {
    let spec = match fleet_spec_for(opt) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("invalid session: {e}");
            return 2;
        }
    };
    let m = match crate::fleet::run_checked("run --fleet", spec) {
        Ok((m, _)) => m,
        Err(e) => {
            eprintln!("invalid fleet spec: {e}");
            return 2;
        }
    };
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

pub fn main(args: &[String]) -> i32 {
    let opt = match crate::parse(args, SYNOPSIS, FLAGS) {
        Ok(opt) => opt,
        Err(code) => return code,
    };
    if opt.trace.is_some() {
        telemetry::set_enabled(true);
        telemetry::set_trace_enabled(true);
    }
    if opt.fleet {
        return run_fleet_mode(&opt);
    }

    // Open the trace before any session runs: an unwritable path is a
    // usage error, not something to learn after the whole sweep.
    let trace_out = match opt
        .trace
        .as_deref()
        .map(|path| (path, std::fs::File::create(path)))
    {
        None => None,
        Some((path, Ok(file))) => Some((path, file)),
        Some((path, Err(e))) => {
            eprintln!("--trace {path}: {e}");
            return 2;
        }
    };

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
            return 2;
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
            return 2;
        }
    }
    if chaos_violations > 0 {
        1
    } else {
        0
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
    use crate::Refusal;
    use msim_youtube::Network;
    use msplayer_core::fleet::FleetHost;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse_args(args: &[String]) -> Result<Options, Refusal> {
        crate::try_parse(args, FLAGS)
    }

    #[test]
    fn defaults_when_no_args() {
        assert_eq!(parse_args(&[]).unwrap(), Options::default());
    }

    #[test]
    fn parses_everything() {
        let o = parse_args(&args(
            "--env youtube --player wifi --scheduler EWMA --chunk 1M \
             --prebuffer 20 --refills 3 --seed 9 --runs 5 --timeline \
             --trace /tmp/session.ndjson",
        ))
        .unwrap();
        assert_eq!(o.env, "youtube");
        assert_eq!(o.player, "wifi");
        assert_eq!(o.scheduler, SchedulerKind::Ewma);
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
        assert_eq!(
            parse_args(&args("--scheduler quantum")).err(),
            Some(Refusal::Value(
                "--scheduler: unknown scheduler \"quantum\" \
                 (Ratio, EWMA, Harmonic, HarmonicWin, Fixed)"
                    .into()
            ))
        );
        assert!(
            parse_args(&args("--scheduler harmonic")).is_err(),
            "names are case-sensitive"
        );
        assert_eq!(
            parse_args(&args("--scheduler HarmonicWin"))
                .unwrap()
                .scheduler,
            SchedulerKind::HarmonicWindowed
        );
        assert!(parse_args(&args("--chunk")).is_err(), "missing value");
        for runs in ["0", "two", "-1"] {
            assert_eq!(
                parse_args(&args(&format!("--runs {runs}"))).err(),
                Some(Refusal::Value("--runs: expected a positive integer".into()))
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
        assert_eq!(parse_args(&args("--help")), Err(Refusal::Help));
        assert!(crate::usage_of(SYNOPSIS, FLAGS).starts_with("usage: msplayer run"));
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
