//! Every `*.json` file the repository tracks parses, and its pretty text
//! parses back to the same value.

use std::path::Path;
use std::process::Command;

#[test]
fn every_tracked_json_file_round_trips_through_pretty_text() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new("git")
        .args(["ls-files", "-z", "--", "*.json"])
        .current_dir(&root)
        .output()
        .expect("run `git ls-files` (this test reads the tracked file list)");
    assert!(out.status.success(), "git ls-files failed");
    let files: Vec<&str> = std::str::from_utf8(&out.stdout)
        .expect("UTF-8 file names")
        .split('\0')
        .filter(|f| !f.is_empty())
        .collect();
    assert!(!files.is_empty(), "no tracked JSON files");
    for file in files {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        let v = msim_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let pretty = msim_json::to_string_pretty(&v);
        let back = msim_json::from_str(&pretty).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            back, v,
            "{file}: parse -> to_string_pretty -> parse moved it"
        );
    }
}
