//! Process-level checks of the bench bins' environment knobs: a value no
//! knob can hold ends in a one-line message and exit code 2 before any
//! cell runs — never a panic, never a silent fallback.

use std::process::Command;

#[test]
fn bad_env_values_exit_2_with_one_line_and_no_panic() {
    let scratch = std::env::temp_dir().join(format!("msp_env_cli_{}", std::process::id()));
    // A directory nobody can create: its parent is a regular file.
    let blocker = std::env::temp_dir().join(format!("msp_env_cli_{}.file", std::process::id()));
    std::fs::write(&blocker, b"").expect("write blocker file");
    let unmakeable = blocker.join("bench");
    let unmakeable = unmakeable.to_str().expect("utf-8 temp dir");

    let fleet_bench = env!("CARGO_BIN_EXE_fleet_bench");
    let chaos = env!("CARGO_BIN_EXE_chaos");
    // (bin, args, variable, value, what follows `VAR="value": `)
    let rows: [(&str, &[&str], &str, &str, &str); 5] = [
        (fleet_bench, &[], "MSP_FLEET_SESSIONS", "two", "expected "),
        (
            fleet_bench,
            &[],
            "MSP_FLEET_FRONTIER_SESSIONS",
            "0",
            "expected ",
        ),
        (
            fleet_bench,
            &[],
            "MSP_FLEET_EXACT_SESSIONS",
            "-1",
            "expected ",
        ),
        (
            chaos,
            &["--seeds", "1"],
            "MSP_CHAOS_WINDOW",
            "banana",
            "expected ",
        ),
        // The io error's wording is the OS's; the prefix is ours.
        (fleet_bench, &[], "MSP_BENCH_DIR", unmakeable, ""),
    ];
    for (bin, args, var, value, then) in rows {
        let out = Command::new(bin)
            .args(args)
            .env_remove("MSP_FLEET_SESSIONS")
            .env_remove("MSP_FLEET_FRONTIER_SESSIONS")
            .env_remove("MSP_FLEET_EXACT_SESSIONS")
            .env_remove("MSP_CHAOS_WINDOW")
            .env("MSP_RUNS", "1")
            .env("MSP_BENCH_DIR", &scratch)
            .env(var, value)
            .output()
            .expect("spawn bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{var}={value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{var}={value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{var}={value:?}: {then}")),
            "{var}={value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{var}={value}: ran anyway");
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_file(&blocker);
}

/// Replay-one mode of `chaos`: a committed case file replays green and
/// prints its fingerprint; a flag nobody defined is a usage error.
#[test]
fn chaos_case_replays_a_committed_file_and_rejects_unknown_flags() {
    use msplayer_bench::corpus;

    let chaos = env!("CARGO_BIN_EXE_chaos");
    let committed = corpus::load(&corpus::dir()).expect("corpus");
    let (path, case) = committed.first().expect("a committed case");
    let out = Command::new(chaos)
        .arg("--case")
        .arg(path)
        .output()
        .expect("spawn chaos");
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

    let out = Command::new(chaos)
        .args(["--case", path.to_str().expect("utf-8 path"), "--warp", "9"])
        .output()
        .expect("spawn chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("unknown argument \"--warp\""),
        "{stderr}"
    );
    assert!(stderr.contains("chaos --case <file.json>"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran anyway");
}
