//! Process-level checks of the `sweep` bin's environment knobs: a value
//! no knob can hold ends in a one-line message and exit code 2 before any
//! cell runs — never a panic, never a silent fallback.

use std::process::Command;

#[test]
fn bad_sweep_env_values_exit_2_with_one_line_and_no_panic() {
    let scratch = std::env::temp_dir().join(format!("msp_env_cli_{}", std::process::id()));
    for (var, value) in [
        ("MSP_CELL_BUDGET_SECS", "inf"),
        ("MSP_CELL_BUDGET_SECS", "1e300"),
        ("MSP_CELL_BUDGET_SECS", "-1"),
        ("MSP_THREADS", "two"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .env_remove("MSP_CELL_BUDGET_SECS")
            .env_remove("MSP_THREADS")
            .env("MSP_RUNS", "1")
            .env("MSP_WARMUP", "0")
            .env("MSP_BENCH_DIR", &scratch)
            .env(var, value)
            .output()
            .expect("spawn sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{var}={value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{var}={value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{var}={value:?}: expected ")),
            "{var}={value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{var}={value}: swept anyway");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
