//! Process-level checks of `msplayer-sim`: bad input from the command line
//! ends in a one-line message and exit code 2, never a panic.

use std::process::Command;

#[test]
fn invalid_sessions_exit_2_with_one_line_and_no_panic() {
    for args in [
        &["--chunk", "0"][..],
        &["--prebuffer", "-1"],
        &["--prebuffer", "nan"],
        &["--chunk", "17592186044416M"],
        &["--chunk", "0", "--runs", "3"],
        &["--chunk", "0", "--timeline"],
        &["--chunk", "0", "--chaos", "kitchen-sink"],
        &["--chunk", "0", "--fleet", "--fleet-mode", "exact"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_msplayer-sim"))
            .args(args)
            .output()
            .expect("spawn msplayer-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("invalid session: ") || stderr.starts_with("bad size "),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran a session anyway");
    }
}
