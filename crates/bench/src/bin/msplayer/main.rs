//! `msplayer` — the repository's one command-line front end: every entry
//! point is a subcommand (`msplayer --help` lists them, `msplayer <sub>
//! --help` their flags), and `coordinator` spawns this same binary as
//! `msplayer worker`. Each subcommand's flags are one table read by one
//! parser ([`try_parse`]). Exit codes: 0 success, 1 a failed check (an
//! invariant violation, a scorecard row outside its tolerance, an
//! unfinished sweep), 2 a command line or environment that cannot be used,
//! 130 interrupted after flushing partial artifacts.

#![forbid(unsafe_code)]

mod chaos;
mod fleet;
mod run;
mod scorecard;
mod sweepd;

use msim_testbed::{JobsProvider, ObsServer};
use std::path::{Path, PathBuf};

/// How a subcommand is entered.
enum Main {
    /// Runs to completion in the foreground; SIGINT keeps its default.
    Foreground(fn(&[String]) -> i32),
    /// Polls the shutdown flag between units of work; `main` installs the
    /// handler and resolves (and creates) the artifact directory first.
    Service(fn(&[String], &Path) -> i32),
}

#[rustfmt::skip]
const SUBCOMMANDS: &[(&str, &str, Main)] = &[
    ("run", "seeded sessions, or a coupled fleet, on the simulator", Main::Foreground(run::main)),
    ("scorecard", "the paper's figures and the REPRO.md scorecard rows", Main::Foreground(scorecard::main)),
    ("fleet", "population-scale fleet runs; writes BENCH_fleet.json", Main::Service(fleet::main)),
    ("chaos", "fault-injection explorer and chaos-corpus replay", Main::Service(chaos::main)),
    ("coordinator", "distributed sweep: lease shards to workers and merge", Main::Service(sweepd::coordinator)),
    ("worker", "distributed sweep: run the shards a coordinator leases", Main::Service(sweepd::worker)),
    ("serial", "distributed sweep: the serial reference artifact", Main::Service(sweepd::serial)),
];

fn usage() -> String {
    let mut out =
        "usage: msplayer <subcommand> [flags]   (--help after one lists its flags)\n\n".to_string();
    for (name, about, _) in SUBCOMMANDS {
        out += &format!("    {name:<12} {about}\n");
    }
    out + "\nArtifacts land in $MSP_BENCH_DIR [target/bench], figure CSVs in $MSP_FIGURES_DIR\n[target/figures].\n"
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            print!("{}", usage());
            0
        }
        Some(name) => match SUBCOMMANDS.iter().find(|(n, ..)| *n == name) {
            Some((.., Main::Foreground(main))) => main(&args[1..]),
            Some((.., Main::Service(main))) => {
                msim_testbed::install_shutdown_handler();
                match deployment_dir("MSP_BENCH_DIR", "bench") {
                    Ok(dir) => main(&args[1..], &dir),
                    Err(why) => {
                        eprintln!("{why}");
                        2
                    }
                }
            }
            None => {
                eprint!("unknown subcommand {name:?}\n\n{}", usage());
                2
            }
        },
        None => {
            eprint!("{}", usage());
            2
        }
    };
    std::process::exit(code);
}

/// A deployment directory, created if missing: the environment variable
/// `var` when set, else `target/<name>` under the workspace root (the
/// nearest ancestor of the working directory holding `target/` and
/// `Cargo.toml`). A directory that cannot be created is refused before any
/// work runs, not after the last.
pub fn deployment_dir(var: &str, name: &str) -> Result<PathBuf, String> {
    let set = std::env::var(var).ok();
    let dir = match &set {
        Some(dir) => PathBuf::from(dir),
        None => {
            let mut base = std::env::current_dir().unwrap_or_else(|_| ".".into());
            for _ in 0..4 {
                if base.join("target").is_dir() && base.join("Cargo.toml").is_file() {
                    break;
                }
                if let Some(parent) = base.parent() {
                    base = parent.to_path_buf();
                }
            }
            base.join("target").join(name)
        }
    };
    match std::fs::create_dir_all(&dir) {
        Ok(()) => Ok(dir),
        Err(e) => Err(match set {
            Some(v) => format!("{var}={v:?}: {e}"),
            None => format!("{var} unset, {}: {e}", dir.display()),
        }),
    }
}

/// What a flag does to its subcommand's options.
pub enum Set<O> {
    /// A boolean flag: it takes no value.
    Switch(fn(&mut O)),
    /// Takes the next word, whatever it looks like; the function parses
    /// it into the options (an `Err` is the reason, without the flag).
    Value(fn(&mut O, &str) -> Result<(), String>),
}

/// One row of a subcommand's flag table: the flag, its help line, and
/// what it does.
pub type Flag<O> = (&'static str, &'static str, Set<O>);

/// Why a command line did not parse.
#[derive(Debug, PartialEq)]
pub enum Refusal {
    /// `--help` or `-h`: the usage text on stdout, exit 0.
    Help,
    /// An unknown flag, a missing value, a value after a boolean flag or
    /// a stray positional: one line plus the usage text, exit 2.
    Usage(String),
    /// A value its flag cannot hold: one line, exit 2.
    Value(String),
}

/// Applies `args`, in order, to `O::default()` through the flag table.
pub fn try_parse<O: Default>(args: &[String], flags: &[Flag<O>]) -> Result<O, Refusal> {
    let mut opt = O::default();
    let mut it = args.iter();
    let mut after_switch = None;
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Refusal::Help);
        }
        let Some((_, _, set)) = flags.iter().find(|(name, ..)| name == arg) else {
            return Err(Refusal::Usage(match after_switch {
                _ if arg.starts_with('-') => format!("unknown flag {arg:?}"),
                Some(switch) => format!("{switch} takes no value (got {arg:?})"),
                None => format!("unexpected argument {arg:?}"),
            }));
        };
        after_switch = None;
        match set {
            Set::Switch(apply) => {
                apply(&mut opt);
                after_switch = Some(arg);
            }
            Set::Value(apply) => {
                let value = it
                    .next()
                    .ok_or_else(|| Refusal::Usage(format!("{arg} needs a value")))?;
                apply(&mut opt, value).map_err(|why| Refusal::Value(format!("{arg}: {why}")))?;
            }
        }
    }
    Ok(opt)
}

/// A subcommand's usage text: `synopsis`, then one line per flag.
pub fn usage_of<O>(synopsis: &str, flags: &[Flag<O>]) -> String {
    let mut out = format!("usage: msplayer {synopsis}\n\n");
    for (name, help, _) in flags {
        out += &format!("    {name:<20} {help}\n");
    }
    out
}

/// [`try_parse`], reporting a refusal the one way every subcommand does;
/// `Err` is the exit code.
pub fn parse<O: Default>(args: &[String], synopsis: &str, flags: &[Flag<O>]) -> Result<O, i32> {
    try_parse(args, flags).map_err(|refusal| match refusal {
        Refusal::Help => {
            print!("{}", usage_of(synopsis, flags));
            0
        }
        Refusal::Usage(line) => {
            eprint!("{line}\n\n{}", usage_of(synopsis, flags));
            2
        }
        Refusal::Value(line) => {
            eprintln!("{line}");
            2
        }
    })
}

/// `v` parsed as a `T` (a number, a path, a string), its error as the
/// reason.
pub fn parsed<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// A positive integer.
pub fn positive(v: &str) -> Result<u64, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("expected a positive integer".into()),
    }
}

/// Serves live telemetry (`/metrics`, `/healthz`, and `/jobs` from
/// `jobs`) on `addr` for as long as the returned server lives. An address
/// that cannot be bound is a command-line error: one line, exit code 2,
/// before any session runs.
pub fn serve_metrics(who: &str, addr: &str, jobs: JobsProvider) -> Result<ObsServer, i32> {
    msim_core::telemetry::set_enabled(true);
    msim_core::telemetry::register_core_counters();
    let server = ObsServer::start(addr, jobs).map_err(|e| {
        eprintln!("--metrics {addr:?}: {e}");
        2
    })?;
    eprintln!("{who}: metrics on http://{}/metrics", server.addr);
    Ok(server)
}
