//! Process-level checks of the `msplayer` binary: one table of command
//! lines each subcommand must refuse before it does any work, plus the
//! one-case replay of `chaos`, `serial`'s fingerprint check, and the rule
//! that the environment holds only the two deployment directories.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every row exits before a session, a cell or a case runs: nothing on
/// stdout, one line on stderr (followed by the usage text when the command
/// line itself is malformed), never a panic.
#[test]
fn invalid_sessions_exit_2_with_one_line_and_no_panic() {
    let scratch = std::env::temp_dir().join(format!("msp_cli_{}", std::process::id()));
    // A directory nobody can create: its parent is a regular file.
    let blocker = std::env::temp_dir().join(format!("msp_cli_{}.file", std::process::id()));
    std::fs::write(&blocker, b"").expect("write blocker file");
    let unmakeable = blocker.join("bench");
    let unmakeable = unmakeable.to_str().expect("utf-8 temp dir");
    let unmakeable_line = format!("MSP_BENCH_DIR={unmakeable:?}: ");
    let corpus = msplayer_bench::corpus::load(&msplayer_bench::corpus::dir()).expect("corpus");
    let case = corpus[0].0.to_str().expect("utf-8 path");

    // (subcommand and args, `{case}` standing for a committed case file;
    // env; exit code; stderr prefix)
    type Row<'a> = (&'a str, &'a [(&'a str, &'a str)], i32, &'a str);
    #[rustfmt::skip]
    let rows: &[Row] = &[
        ("run --chunk 0", &[], 2, "invalid session: "),
        ("run --prebuffer -1", &[], 2, "invalid session: "),
        ("run --prebuffer nan", &[], 2, "invalid session: "),
        ("run --chunk 17592186044416M", &[], 2, "--chunk: bad size "),
        ("run --chunk 0 --runs 3", &[], 2, "invalid session: "),
        ("run --chunk 0 --timeline", &[], 2, "invalid session: "),
        ("run --chunk 0 --chaos kitchen-sink", &[], 2, "invalid session: "),
        ("run --chunk 0 --fleet --fleet-mode exact", &[], 2, "invalid session: "),
        // Zero runs used to print nothing and exit 0.
        ("run --runs 0", &[], 2, "--runs: expected a positive integer"),
        // An unwritable trace path used to fail only after every session
        // had run (and printed its summary).
        ("run --trace /nonexistent/x.ndjson", &[], 2, "--trace /nonexistent/x.ndjson: "),
        ("run --chunk", &[], 2, "--chunk needs a value"),
        ("fleet --sessions two", &[], 2, "--sessions: expected a positive integer"),
        ("fleet --sessions 0", &[], 2, "--sessions: expected a positive integer"),
        ("fleet --frontier-sessions 0", &[], 2, "--frontier-sessions: expected "),
        ("fleet --exact-sessions -1", &[], 2, "--exact-sessions: expected "),
        // The io error's wording is the OS's; the prefix is ours.
        ("fleet", &[("MSP_BENCH_DIR", unmakeable)], 2, &unmakeable_line),
        // An address that cannot be bound used to be reported, then
        // ignored while the whole bench ran.
        ("fleet --metrics not-an-addr", &[], 2, "--metrics \"not-an-addr\": "),
        ("chaos --seeds 1 --window banana", &[], 2, "--window: "),
        ("chaos --case {case} --warp 9", &[], 2, "unknown flag \"--warp\""),
        // These three used to run no case at all and exit 0.
        ("chaos --workloads testbed/msplayer", &[], 2, "--workloads: unknown workload "),
        ("chaos --plans kitchen_sink", &[], 2, "--plans: \"kitchen_sink\": "),
        ("chaos --seeds 0", &[], 2, "--seeds: expected a positive integer"),
        // A boolean flag used to swallow the next word.
        ("coordinator --verify-serial stray", &[], 2, "--verify-serial takes no value "),
        ("serial stray", &[], 2, "unexpected argument \"stray\""),
        ("scorecard --bogus", &[], 2, "unknown flag \"--bogus\""),
        ("sweepd worker", &[], 2, "unknown subcommand \"sweepd\""),
    ];
    for &(command, env, code, prefix) in rows {
        let words = command
            .split(' ')
            .map(|w| if w == "{case}" { case } else { w });
        let out = Command::new(env!("CARGO_BIN_EXE_msplayer"))
            .args(words)
            .env("MSP_BENCH_DIR", &scratch)
            .envs(env.iter().copied())
            .output()
            .expect("spawn msplayer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let row = format!("{command}: {stderr}");
        assert_eq!(out.status.code(), Some(code), "{row}");
        assert!(!stderr.contains("panicked at"), "{row}");
        assert!(stderr.starts_with(prefix), "{row}");
        let (_, rest) = stderr.split_once('\n').expect("a whole line");
        assert!(
            rest.is_empty() || rest.starts_with("\nusage: msplayer"),
            "one line, or one line and the usage: {row}"
        );
        assert!(out.stdout.is_empty(), "ran anyway: {row}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_file(&blocker);
}

/// `run --fleet` runs the fleet invariant oracle, as `fleet` does: a
/// violation exits 1. Small populations of every backend and a fleet-wide
/// chaos plan all hold it.
#[test]
fn run_fleet_holds_the_fleet_oracle() {
    for command in [
        "run --fleet --fleet-sessions 300",
        "run --fleet --fleet-sessions 300 --fleet-policy cheapest-feasible --chaos capacity-crunch",
        "run --fleet --fleet-sessions 300 --fleet-policy qoe-first",
        "run --fleet --fleet-sessions 4 --fleet-mode exact",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_msplayer"))
            .args(command.split(' '))
            .output()
            .expect("spawn msplayer");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{command}: {stderr}");
        assert!(stdout.starts_with("fleet ("), "{command}: {stdout}");
        assert!(stderr.is_empty(), "{command}: {stderr}");
    }
}

/// Replay-one mode of `chaos`: a committed case file replays green and
/// prints its fingerprint.
#[test]
fn chaos_case_replays_a_committed_file() {
    use msplayer_bench::corpus;

    let committed = corpus::load(&corpus::dir()).expect("corpus");
    let (path, case) = committed.first().expect("a committed case");
    let out = Command::new(env!("CARGO_BIN_EXE_msplayer"))
        .args(["chaos", "--case"])
        .arg(path)
        .output()
        .expect("spawn msplayer");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains(&format!("seed={:016x} ", case.seed)),
        "{stdout}"
    );
    assert!(stdout.contains("\nfingerprint: digest="), "{stdout}");
    assert!(
        stdout.contains("\nverdict: all invariants hold"),
        "{stdout}"
    );
}

/// `serial` holds the artifact to the manifest file's `sweep_fingerprint`:
/// the one it pins exits 0, any other prints both and exits 1.
#[test]
fn serial_checks_the_manifests_sweep_fingerprint() {
    use msplayer_bench::cluster::{serial_artifact, SweepManifest};

    let smoke = SweepManifest::smoke();
    let artifact = serial_artifact(&smoke).expect("smoke artifact");
    let right = artifact.get("sweep_fingerprint").and_then(|v| v.as_str());
    let right = right.expect("a fingerprint");
    let scratch = std::env::temp_dir().join(format!("msp_cli_pin_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let wrong = "0123456789abcdef";
    let mismatch = format!("but the manifest pins {wrong}");
    for (pin, code, says) in [(right, 0, "as the manifest pins"), (wrong, 1, &mismatch)] {
        let manifest = scratch.join(format!("{pin}.json"));
        let json = smoke.to_json().with("sweep_fingerprint", pin);
        std::fs::write(&manifest, msim_json::to_string(&json)).expect("write manifest");
        let out = Command::new(env!("CARGO_BIN_EXE_msplayer"))
            .arg("serial")
            .arg("--manifest")
            .arg(&manifest)
            .env("MSP_BENCH_DIR", &scratch)
            .output()
            .expect("spawn msplayer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{stderr}");
        let line = format!("sweepd: sweep_fingerprint {right}, {says}\n");
        assert!(stderr.contains(&line), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The one-front-end rule: everything is a flag except the two deployment
/// directories, `MSP_BENCH_DIR` and `MSP_FIGURES_DIR`, and both are read
/// through `deployment_dir` alone. Scans every source file of the
/// workspace (`benchmark/` is its own package) except this one, whose
/// needles would match themselves.
#[test]
fn only_the_two_deployment_dirs_are_read_from_the_environment() {
    const THIS_FILE: &str = "crates/bench/tests/cli.rs";
    // `env::var` also matches `env::vars` and `env::var_os`.
    const READS: [&str; 3] = ["env::var", "var_os", "option_env!"];

    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        for sub in ["src", "tests", "benches"] {
            walk(&krate.join(sub), &mut files);
        }
    }
    for dir in ["src", "tests", "examples"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();

    // `file:function` of each read, and the first argument of each call.
    let (mut reads, mut dirs) = (Vec::new(), Vec::new());
    for path in &files {
        let rel = path.strip_prefix(&root).expect("under the root");
        let rel = rel.to_str().expect("utf-8 path");
        if rel == THIS_FILE {
            continue;
        }
        let text = std::fs::read_to_string(path).expect("read source");
        let mut function = "";
        for line in text.lines() {
            if let Some((_, rest)) = line.split_once("fn ") {
                function = rest.split(['(', '<']).next().unwrap_or(rest);
            }
            if READS.iter().any(|needle| line.contains(needle)) {
                reads.push(format!("{rel}:{function}"));
            }
        }
        for (at, _) in text.match_indices("deployment_dir(") {
            if !text[..at].ends_with("fn ") {
                let args = &text[at + "deployment_dir(".len()..];
                dirs.push(args.split(',').next().unwrap_or(args).trim().to_string());
            }
        }
    }
    assert_eq!(
        reads,
        ["crates/bench/src/bin/msplayer/main.rs:deployment_dir"]
    );
    dirs.sort();
    dirs.dedup();
    assert_eq!(dirs, [r#""MSP_BENCH_DIR""#, r#""MSP_FIGURES_DIR""#]);
}
