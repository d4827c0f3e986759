//! Process-level checks of `msplayer-sim`: bad input from the command line
//! ends in a one-line message and exit code 2, never a panic.

use std::process::Command;

#[test]
fn invalid_sessions_exit_2_with_one_line_and_no_panic() {
    // Every row exits before a session runs: nothing on stdout, so no
    // `session (seed …` line either.
    for (args, message) in [
        (&["--chunk", "0"][..], "invalid session: "),
        (&["--prebuffer", "-1"], "invalid session: "),
        (&["--prebuffer", "nan"], "invalid session: "),
        (&["--chunk", "17592186044416M"], "bad size "),
        (&["--chunk", "0", "--runs", "3"], "invalid session: "),
        (&["--chunk", "0", "--timeline"], "invalid session: "),
        (
            &["--chunk", "0", "--chaos", "kitchen-sink"],
            "invalid session: ",
        ),
        (
            &["--chunk", "0", "--fleet", "--fleet-mode", "exact"],
            "invalid session: ",
        ),
        // Zero runs used to print nothing and exit 0.
        (&["--runs", "0"], "--runs: expected a positive integer"),
        // An unwritable trace path used to fail only after every session
        // had run (and printed its summary).
        (
            &["--trace", "/nonexistent/dir/x.ndjson"],
            "--trace /nonexistent/dir/x.ndjson: ",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_msplayer-sim"))
            .args(args)
            .output()
            .expect("spawn msplayer-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran a session anyway");
    }
}
