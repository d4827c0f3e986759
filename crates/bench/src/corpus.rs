//! The replayable-case corpus of the chaos explorer.
//!
//! A failing seed becomes a regression test by being written down (one
//! JSON file a case under `tests/chaos_corpus/`) and replayed forever
//! after. Everything about that file is decided here, once: how explorer
//! seeds are enumerated, that a seed is 16 hex digits (JSON numbers are
//! `f64`-backed and lose bits above 2^53, and explorer seeds use all 64),
//! what the file is called, and how a directory is written and read.
//! [`ChaosCase`] says only which fields it has.

use crate::chaos::ChaosCase;
use crate::cluster::merge::{fnv1a, hex_u64, parse_hex_u64};
use msim_json::Value;
use std::path::{Path, PathBuf};

/// Seed `i` of the explorer salted `salt`, in rotation `window`. A window
/// is reproducible from its number alone; distinct windows (and distinct
/// salts) enumerate distinct seeds, so a harness that takes its window
/// from the calendar covers new ground each day.
pub fn seed(salt: u64, window: u64, i: u64) -> u64 {
    crate::BASE_SEED
        ^ salt
        ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ window.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// The window an explorer runs in when `--window` does not pin one: days
/// since the Unix epoch. A violation found in a rotated window is recorded
/// as a self-contained case, so replaying it never depends on knowing
/// which day found it.
pub fn default_window() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400)
}

/// A seed as a case file holds it.
pub fn seed_to_json(seed: u64) -> Value {
    hex_u64(seed).into()
}

/// The `seed` field of a case object. A JSON number is refused, not
/// rounded: it may already have lost the low bits of the seed it was.
pub fn seed_from_json(case: &Value) -> Result<u64, String> {
    match case.get("seed") {
        Some(Value::String(hex)) => parse_hex_u64(hex).map_err(|e| format!("field \"seed\": {e}")),
        Some(Value::Number(n)) => Err(format!(
            "field \"seed\" is the number {n}, expected 16 hex digits in a string"
        )),
        _ => Err("field \"seed\" is missing or not a string".into()),
    }
}

/// The integer field `key` of a case object.
pub fn u64_from_json(case: &Value, key: &str) -> Result<u64, String> {
    let field = case.get(key).and_then(Value::as_u64);
    field.ok_or(format!("field {key:?} is missing or not an integer"))
}

/// The string-array field `key` of a case object (absent = empty).
pub fn strings_from_json(case: &Value, key: &str) -> Result<Vec<String>, String> {
    let items = match case.get(key) {
        None => return Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or(format!("field {key:?} is not an array"))?,
    };
    let text = |i: &Value| i.as_str().map(str::to_string);
    let strings: Option<Vec<String>> = items.iter().map(text).collect();
    strings.ok_or(format!("field {key:?} holds a non-string entry"))
}

/// The file a case lives in: FNV-1a over its canonical JSON with
/// `recorded_violations` emptied, so recording the same case twice
/// overwrites and what the oracle said does not rename it.
pub fn file_name(case: &ChaosCase) -> String {
    let identity = case
        .to_json()
        .with("recorded_violations", Vec::<String>::new());
    let h = fnv1a(msim_json::to_string(&identity).into_bytes());
    format!("case-{}.json", hex_u64(h))
}

/// The committed corpus: `tests/chaos_corpus/` at the workspace root.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos_corpus")
}

/// Writes `case` into `dir` under its [`file_name`].
pub fn record(case: &ChaosCase, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(case));
    std::fs::write(&path, msim_json::to_string_pretty(&case.to_json()))?;
    Ok(path)
}

/// Reads one case file.
pub fn load_file(path: &Path) -> Result<ChaosCase, String> {
    let named = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| named(e.to_string()))?;
    let json = msim_json::from_str(&text).map_err(|e| named(e.to_string()))?;
    ChaosCase::from_json(&json).map_err(named)
}

/// Every `*.json` case in `dir`, sorted by file name (the replay order).
/// A missing directory is an empty corpus.
pub fn load(dir: &Path) -> Result<Vec<(PathBuf, ChaosCase)>, String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| load_file(&path).map(|case| (path, case)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::CHAOS_EXPLORER_SALT;

    #[test]
    fn seed_stream_rotates_by_window_index_and_salt() {
        assert_eq!(seed(1, 20_000, 3), seed(1, 20_000, 3));
        assert_ne!(seed(1, 0, 5), seed(1, 1, 5));
        assert_ne!(seed(1, 0, 5), seed(1, 0, 6));
        assert_ne!(seed(1, 0, 5), seed(2, 0, 5));
    }

    /// Records `case` into a scratch corpus and loads that corpus back.
    fn through_a_directory(case: &ChaosCase) -> ChaosCase {
        let dir = std::env::temp_dir().join(format!("msp_corpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = record(case, &dir).expect("record");
        let mut loaded = load(&dir).expect("load");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(loaded.len(), 1);
        let (loaded_path, back) = loaded.remove(0);
        assert_eq!(loaded_path, path);
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(file_name(&back).as_str()),
            "a reloaded case must keep its file name"
        );
        back
    }

    /// Explorer seeds use all 64 bits; a JSON number keeps 53 of them.
    #[test]
    fn full_width_seeds_survive_record_and_load() {
        for s in [seed(CHAOS_EXPLORER_SALT, 20_000, 3), u64::MAX - 12345] {
            let session = ChaosCase {
                workload: "testbed/MSPlayer".into(),
                scheduler: "Harmonic".into(),
                chunk_kb: 256,
                seed: s,
                plan: "clock-skew".into(),
                recorded_violations: vec!["finite-metrics: goodput is NaN".into()],
            };
            assert_eq!(through_a_directory(&session), session);
        }
    }

    #[test]
    fn a_numeric_seed_is_refused_by_name_not_rounded() {
        let lossy = msim_json::from_str(
            r#"{"workload":"testbed/WiFi","scheduler":"Fixed","chunk_kb":256,
                "seed":5569047821983954000,"plan":"token-cut"}"#,
        )
        .expect("valid JSON");
        let err = ChaosCase::from_json(&lossy).unwrap_err();
        assert!(err.starts_with("field \"seed\" is the number "), "{err}");
    }
}
