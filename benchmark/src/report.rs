//! Metric names and units, the contract in `BENCHMARK.json`, and how a run
//! is written down: a table for people, a result file for `compare`, and the
//! driver's one-line JSON.

use crate::entry::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics: (name, unit). The same four on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sessions_per_s", "sessions/s"),
    ("cpu_ms_per_ksession", "ms/ksession"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit, exact). Layer = module name. An *exact*
/// metric is a count the program makes: it must repeat bit-for-bit between
/// two runs of the same code with the same seed. A metric that does not
/// apply to a workload (say `fleet.*` on a sweep) reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 62] = [
    ("sim.session_us_plain", "us", false),
    ("sim.session_us_p50", "us", false),
    ("sim.session_us_p99", "us", false),
    ("sim.bootstrap_us_per_session", "us", false),
    ("sim.stream_us_per_session", "us", false),
    ("sim.events_per_session", "count", true),
    ("sim.chunks_per_session", "count", true),
    ("sim.ns_per_event", "ns", false),
    ("sim.host_new_us", "us", false),
    ("sim.residual_share", "frac", false),
    ("event.ops_per_session", "count", true),
    ("event.cancels_per_session", "count", true),
    ("event.ns_per_op", "ns", false),
    ("event.est_share", "frac", false),
    ("tcp.requests_per_session", "count", true),
    ("tcp.fast_round_frac", "frac", false),
    ("tcp.solved_round_frac", "frac", false),
    ("tcp.rounds_per_request", "count", false),
    ("tcp.ns_per_round", "ns", false),
    ("tcp.est_share", "frac", false),
    ("link.ns_per_sample", "ns", false),
    ("rng.ns_per_deviate", "ns", false),
    ("youtube.watch_request_us", "us", false),
    ("youtube.grant_checks_per_session", "count", true),
    ("youtube.grant_check_ns", "ns", false),
    ("youtube.est_share", "frac", false),
    ("json.parse_ns_per_kb", "ns/kb", false),
    ("json.ser_ns_per_kb", "ns/kb", false),
    ("http.codec_ns_per_request", "ns", false),
    ("sweep.parallel_speedup", "ratio", false),
    ("sweep.expand_us", "us", false),
    ("cluster.trial_s", "s", false),
    ("cluster.inproc_ref_s", "s", false),
    ("cluster.serial_artifact_s", "s", false),
    ("cluster.speedup_vs_inproc", "ratio", false),
    ("cluster.digest_us_per_session", "us", false),
    ("cluster.digest_share", "frac", false),
    ("cluster.frame_ns_per_row", "ns", false),
    ("cluster.merge_ms", "ms", false),
    ("cluster.spawn_ms", "ms", false),
    ("cluster.worker_cpu_s", "s", false),
    ("cluster.reassignments", "count", false),
    ("cluster.inline_runs", "count", false),
    ("cluster.respawns", "count", false),
    ("cluster.duplicates", "count", false),
    ("fleet.new_ms", "ms", false),
    ("fleet.run_ms_headline", "ms", false),
    ("fleet.run_ms_overload", "ms", false),
    ("fleet.events_per_s", "1/s", false),
    ("fleet.events_per_session", "count", true),
    ("fleet.ns_per_event", "ns", false),
    ("fleet.bytes_per_session", "bytes", false),
    ("fleet.stalled_sessions", "count", true),
    ("fleet.rejected", "count", true),
    ("telemetry.overhead_frac", "frac", false),
    ("trace.span_overhead_frac", "frac", false),
    ("trace.trial_s_plain", "s", false),
    ("trace.trial_s_spans", "s", false),
    ("trace.trial_s_telemetry", "s", false),
    ("model.prebuffer_s_p50", "s", false),
    ("model.prebuffer_s_p95", "s", false),
    ("model.fingerprint_ok", "bool", true),
];

/// The per-layer table of one traced run: every name of [`PER_LAYER`],
/// reading 0 until set.
pub struct LayerTable(BTreeMap<&'static str, f64>);

impl LayerTable {
    /// All names, all 0.
    pub fn new() -> LayerTable {
        LayerTable(PER_LAYER.iter().map(|(name, ..)| (*name, 0.0)).collect())
    }

    /// Sets a metric. Panics on a name that [`PER_LAYER`] does not declare —
    /// the emitted set and the declared set cannot drift apart. Non-finite
    /// values (a ratio over an empty layer) are stored as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name:?} is not declared in PER_LAYER"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// Reads a metric back.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// One metric of a result.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value. For an end-to-end time or rate: host-normalised.
    pub value: f64,
    /// The reading before host normalisation (end-to-end metrics only).
    pub raw: Option<f64>,
    /// Inter-quartile range ÷ median of the samples behind the value, if
    /// there was more than one.
    pub spread: Option<f64>,
}

/// What `BENCHMARK.json` says about the metrics.
pub struct Contract {
    /// Regression bound per end-to-end metric.
    pub bounds: BTreeMap<String, f64>,
    /// Which direction is better, per end-to-end metric.
    pub higher_is_better: BTreeMap<String, bool>,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
    /// How long one run measures unless `--seconds` says otherwise.
    pub run_seconds: f64,
}

/// The benchmark's own directory (`benchmark/` of the checkout it was built
/// in).
pub fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = home().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Reads `BENCHMARK.json` from the root of the checkout.
pub fn contract() -> Result<Contract, String> {
    let path = home().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = entry::json_from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key:?} array"))
    };
    let name_of = |item: &Value| {
        item.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "BENCHMARK.json: entry without a name".to_string())
    };
    let mut bounds = BTreeMap::new();
    let mut higher_is_better = BTreeMap::new();
    for item in list("end_to_end")? {
        let name = name_of(item)?;
        let bound = item
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
        let better = item.get("better").and_then(Value::as_str);
        bounds.insert(name.clone(), bound);
        higher_is_better.insert(name, better == Some("higher"));
    }
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        bounds,
        higher_is_better,
        workloads: list("workloads")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
    })
}

/// Everything one run produced.
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Was this the traced (per-layer) run?
    pub traced: bool,
    /// Was this a `--smoke` run?
    pub smoke: bool,
    /// Host stamp.
    pub host: Value,
    /// Sessions one trial attempts.
    pub sessions_per_trial: u64,
    /// Wall seconds of each measured trial.
    pub trial_s: Vec<f64>,
    /// Wall seconds of each calibration-kernel run made between trials.
    pub kernel_s: Vec<f64>,
    /// Wall seconds of each calibration-kernel run made around set-ups.
    pub setup_kernel_s: Vec<f64>,
    /// Sessions attempted across the measured trials and the pre-check.
    pub attempted: u64,
    /// Sessions or checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Notes a reader needs (e.g. a seed that could not be applied).
    pub notes: Vec<String>,
    /// The metrics: end-to-end for an untraced run, per-layer for a traced
    /// one.
    pub metrics: Vec<Metric>,
    /// Count, total and self time per span name (traced run only).
    pub spans: BTreeMap<&'static str, crate::span::Total>,
}

impl Contract {
    /// The run must report exactly the metrics `BENCHMARK.json` declares for
    /// its kind of run, no more and no fewer.
    pub fn check_names(&self, result: &RunResult) -> Result<(), String> {
        let mut declared: Vec<&str> = if result.traced {
            self.per_layer.iter().map(String::as_str).collect()
        } else {
            self.bounds.keys().map(String::as_str).collect()
        };
        let mut emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        declared.sort_unstable();
        emitted.sort_unstable();
        if declared == emitted {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json declares {declared:?} but the run reports {emitted:?}"
            ))
        }
    }
}

impl RunResult {
    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Trial seconds: min, first quartile, median, third quartile, max.
    fn trial_summary(&self) -> [f64; 5] {
        let sorted = crate::stats::sorted(&self.trial_s);
        let (q1, q3) = crate::stats::quartiles(&self.trial_s).unwrap_or((0.0, 0.0));
        [
            sorted.first().copied().unwrap_or(0.0),
            q1,
            crate::stats::median(&self.trial_s),
            q3,
            sorted.last().copied().unwrap_or(0.0),
        ]
    }

    /// A metric is unresolved when its own samples spread wider than the
    /// bound `BENCHMARK.json` sets for it: a difference of that size could
    /// not be told from noise.
    fn unresolved(&self, m: &Metric, contract: &Contract) -> bool {
        match (m.spread, contract.bounds.get(m.name)) {
            (Some(spread), Some(bound)) => spread > *bound,
            _ => false,
        }
    }

    /// The full result as JSON (what `compare` reads).
    pub fn to_json(&self, contract: &Contract) -> Value {
        let mut metrics = Value::object();
        for m in &self.metrics {
            let mut row = Value::object().with("value", m.value).with("unit", m.unit);
            if let Some(raw) = m.raw {
                row = row.with("raw", raw);
            }
            if let Some(spread) = m.spread {
                row = row
                    .with("spread", spread)
                    .with("unresolved", self.unresolved(m, contract));
            }
            metrics = metrics.with(m.name, row);
        }
        let strings =
            |items: &[String]| Value::Array(items.iter().map(|s| s.as_str().into()).collect());
        let numbers = |items: &[f64]| Value::Array(items.iter().map(|v| (*v).into()).collect());
        let [min, q1, median, q3, max] = self.trial_summary();
        Value::object()
            .with("schema", "msplayer-benchmark-result/1")
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("smoke", self.smoke)
            .with("host", self.host.clone())
            .with("sessions_per_trial", self.sessions_per_trial)
            .with(
                "trial_s",
                Value::object()
                    .with("n", self.trial_s.len() as u64)
                    .with("min", min)
                    .with("q1", q1)
                    .with("median", median)
                    .with("q3", q3)
                    .with("max", max)
                    .with("values", numbers(&self.trial_s)),
            )
            .with("kernel_s", numbers(&self.kernel_s))
            .with("setup_kernel_s", numbers(&self.setup_kernel_s))
            .with("host_factor", crate::calib::host_factor(&self.kernel_s))
            .with(
                "setup_host_factor",
                crate::calib::host_factor(&self.setup_kernel_s),
            )
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("failures", strings(&self.failures))
            .with("notes", strings(&self.notes))
            .with("metrics", metrics)
            .with(
                "spans",
                self.spans.iter().fold(Value::object(), |all, (name, t)| {
                    all.with(
                        name,
                        Value::object()
                            .with("count", t.count)
                            .with("total_ms", t.total_ns as f64 / 1e6)
                            .with("self_ms", t.self_ns as f64 / 1e6),
                    )
                }),
            )
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_line(&self) -> String {
        let mut metrics = Value::object();
        for m in &self.metrics {
            metrics = metrics.with(
                m.name,
                Value::object().with("value", m.value).with("unit", m.unit),
            );
        }
        entry::json_to_string(
            &Value::object()
                .with("correct", self.correct())
                .with("attempted", self.attempted)
                .with("failed", self.failed)
                .with("metrics", metrics),
        )
    }

    /// Prints the table for people.
    pub fn print(&self, contract: &Contract) {
        let host = |key: &str| match self.host.get(key) {
            Some(Value::String(s)) => s.clone(),
            Some(v) => entry::json_to_string(v),
            None => "?".into(),
        };
        println!(
            "msplayer-benchmark: workload={} seed={} traced={} smoke={}",
            self.workload, self.seed, self.traced, self.smoke
        );
        println!(
            "host: nproc={} cpu={:?} rustc={:?} git={} stream_epoch={} loadavg={}",
            host("nproc"),
            host("cpu_model"),
            host("rustc"),
            host("git_rev"),
            host("stream_epoch"),
            host("loadavg_1m_at_start"),
        );
        let [min, q1, median, q3, max] = self.trial_summary();
        println!(
            "trials: {} x {} sessions; trial seconds min={min:.4} q1={q1:.4} median={median:.4} \
             q3={q3:.4} max={max:.4}",
            self.trial_s.len(),
            self.sessions_per_trial,
        );
        if !self.traced {
            println!(
                "host factor: {:.4} over the trials, {:.4} over set-up (median of {} and {} \
                 calibration-kernel runs / {} s); times are divided by it, raw readings beside them",
                crate::calib::host_factor(&self.kernel_s),
                crate::calib::host_factor(&self.setup_kernel_s),
                self.kernel_s.len(),
                self.setup_kernel_s.len(),
                crate::calib::REFERENCE_S
            );
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!(
            "{:<34} {:>16} {:<12} {:>16} {:>8} {:>6}",
            "metric", "value", "unit", "raw", "spread", "bound"
        );
        for m in &self.metrics {
            let raw = m.raw.map_or(String::new(), |r| format!("{r:.4}"));
            let spread = m.spread.map_or(String::new(), |s| format!("{s:.4}"));
            let bound = contract
                .bounds
                .get(m.name)
                .map_or(String::new(), |b| format!("{b:.2}"));
            let flag = if self.unresolved(m, contract) {
                "  UNRESOLVED (spread > bound)"
            } else {
                ""
            };
            println!(
                "{:<34} {:>16.4} {:<12} {:>16} {:>8} {:>6}{flag}",
                m.name, m.value, m.unit, raw, spread, bound
            );
        }
        if !self.spans.is_empty() {
            println!(
                "{:<34} {:>10} {:>14} {:>14}",
                "span", "count", "total ms", "self ms"
            );
        }
        for (name, t) in &self.spans {
            println!(
                "{name:<34} {:>10} {:>14.3} {:>14.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        for failure in &self.failures {
            println!("FAILED: {failure}");
        }
        println!(
            "correct={} attempted={} failed={}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }

    /// Where the result file goes.
    pub fn file_name(&self) -> String {
        format!(
            "result-{}-seed{}-trace{}{}.json",
            self.workload,
            self.seed,
            u8::from(self.traced),
            if self.smoke { "-smoke" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|(n, ..)| *n))
            .chain(crate::workloads::NAMES)
            .collect();
        for name in &names {
            assert!(well_formed(name, 64), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|(_, u)| *u)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u));
        for unit in units {
            let ok = !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok, "bad unit {unit:?}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let c = contract().expect("BENCHMARK.json at the checkout root");
        let declared: Vec<&str> = c.bounds.keys().map(String::as_str).collect();
        let mut emitted: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        emitted.sort_unstable();
        assert_eq!(declared, emitted);
        let mut per_layer: Vec<&str> = c.per_layer.iter().map(String::as_str).collect();
        per_layer.sort_unstable();
        let mut table: Vec<&str> = PER_LAYER.iter().map(|(n, ..)| *n).collect();
        table.sort_unstable();
        assert_eq!(per_layer, table);
        assert_eq!(c.workloads, crate::workloads::NAMES);
        for (name, bound) in &c.bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
        }
        assert!(!c.higher_is_better["setup_s"]);
        assert!(c.higher_is_better["sessions_per_s"]);
    }

    #[test]
    fn layer_table_starts_at_zero_and_rejects_non_finite() {
        let mut t = LayerTable::new();
        assert_eq!(t.get("fleet.rejected"), 0.0);
        t.set("sim.ns_per_event", 281.5);
        t.set("event.est_share", f64::NAN);
        assert_eq!(t.get("sim.ns_per_event"), 281.5);
        assert_eq!(t.get("event.est_share"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn layer_table_refuses_undeclared_names() {
        LayerTable::new().set("sim.made_up", 1.0);
    }
}
