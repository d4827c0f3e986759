//! Deterministic, zero-dependency observability: a static metrics
//! registry, lightweight phase spans, and an NDJSON trace exporter.
//!
//! # Design contract
//!
//! Instrumentation must be **provably non-perturbing**: nothing in this
//! module touches RNG streams, simulated time, or [`SessionMetrics`]-style
//! results. Counters, gauges, and histograms are plain atomics; spans
//! measure *wall* time (never simulated time) and only when enabled; the
//! trace sink records simulated timestamps that the caller already
//! computed. Replaying the frozen `tests/sampling_corpus/` fingerprints
//! with telemetry fully enabled is pinned bit-identical to the disabled
//! run.
//!
//! # Cost model
//!
//! * Disabled (the default): one relaxed atomic load and a predictable
//!   branch per call site. Spans do **not** call [`Instant::now`] when
//!   disabled.
//! * Enabled: counters are relaxed `fetch_add`s on interned `&'static`
//!   atomics. Per-event sites hold a [`LazyCounter`] / [`LazyHistogram`]
//!   `static`, which locks the interning table once, on first use; the
//!   by-name helpers ([`count`], [`count_with`], [`observe`]) build the
//!   key and take the lock on every call and are for cold sites (as are
//!   snapshot/render).
//!
//! # Naming
//!
//! Metric keys follow Prometheus conventions: `[a-zA-Z_:][a-zA-Z0-9_:]*`
//! names (sanitized on registration), optional `{label="value"}` pairs
//! with `\\`, `\"`, and `\n` escaped in values. [`render_prometheus`]
//! emits the text exposition format; [`parse_exposition_line`] is the
//! matching minimal parser used by tests and fuzzing.
//!
//! [`SessionMetrics`]: crate::report
//! [`Instant::now`]: std::time::Instant::now

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log-spaced histogram buckets. Bucket `i` counts samples with
/// `value < 2^i` (the last bucket is the `+Inf` overflow). Fixed so bucket
/// edges are deterministic across platforms and runs.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Hard cap on buffered trace events; further events are counted in
/// `msp_trace_dropped_total` instead of growing memory without bound.
const TRACE_CAP: usize = 1 << 22;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ON: AtomicBool = AtomicBool::new(false);
static TRACE_DROPPED: AtomicU64 = AtomicU64::new(0);
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Turns metric collection on or off at runtime (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when metric collection is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the trace sink on or off at runtime (process-wide). Enabling
/// tracing does not require metrics to be enabled, and vice versa.
pub fn set_trace_enabled(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// True when the trace sink is enabled.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// A monotonic counter. Obtain interned `&'static` handles via
/// [`counter`] / [`counter_with`]; one-off sites can use [`count`].
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` when telemetry is enabled; no-op otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.add_raw(n);
        }
    }

    /// Adds `n` unconditionally (used when merging already-collected
    /// deltas, e.g. worker heartbeats into a coordinator registry).
    #[inline]
    pub fn add_raw(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. live shard counts).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge when telemetry is enabled; no-op otherwise.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed log-bucket histogram: bucket `i` counts samples `< 2^i`, with
/// deterministic edges (see [`HISTOGRAM_BUCKETS`]).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Bucket index for `v`: the smallest `i` with `v < 2^i`, clamped to
    /// the overflow bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        let bits = (64 - v.leading_zeros()) as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample when telemetry is enabled; no-op otherwise.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts (not cumulative).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Wall-time accumulator for one named phase (see [`span`]).
#[derive(Debug)]
pub struct PhaseStat {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl PhaseStat {
    /// Total wall nanoseconds attributed to this phase.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Number of spans that closed on this phase.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

#[derive(Default)]
struct RegistryInner {
    metrics: BTreeMap<String, Metric>,
    phases: BTreeMap<&'static str, &'static PhaseStat>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static REGISTRY: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(RegistryInner::default()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, RegistryInner> {
    // A poisoned registry only means some thread panicked mid-update of
    // the *interning table*; the atomics themselves are always valid.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Sanitizes `name` into a legal Prometheus metric name: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit (or empty
/// name) is prefixed with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for c in name.chars() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value for the text exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Canonical registry key for `name` with `labels`: the sanitized name,
/// plus `{k="v",...}` with label keys sanitized, sorted, and values
/// escaped. An empty label set yields just the name.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut key = sanitize_metric_name(name);
    if labels.is_empty() {
        return key;
    }
    let mut sorted: Vec<(String, &str)> = labels
        .iter()
        .map(|(k, v)| (sanitize_metric_name(k), *v))
        .collect();
    sorted.sort();
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{}\"", escape_label_value(v));
    }
    key.push('}');
    key
}

fn intern_counter(key: String) -> &'static Counter {
    let mut reg = lock_registry();
    match reg.metrics.get(&key) {
        Some(Metric::Counter(c)) => c,
        Some(_) => panic!("metric {key:?} already registered with a different type"),
        None => {
            let c: &'static Counter = Box::leak(Box::new(Counter {
                value: AtomicU64::new(0),
            }));
            reg.metrics.insert(key, Metric::Counter(c));
            c
        }
    }
}

/// Interns (registering on first use) the counter named `name`.
pub fn counter(name: &str) -> &'static Counter {
    intern_counter(sanitize_metric_name(name))
}

/// Interns the counter `name{labels...}` (labels canonicalized by
/// [`metric_key`]).
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> &'static Counter {
    intern_counter(metric_key(name, labels))
}

/// The session-level counters every simulation run can emit. Interning
/// them up front (standard exposition practice: a counter exists from
/// process start, not from its first increment) means a live `/metrics`
/// scrape always exposes the full core schema — a zero
/// `msp_failovers_total` is a statement that no path failed over, where
/// an absent series says nothing.
pub const CORE_COUNTERS: &[&str] = &[
    "msp_sessions_total",
    "msp_event_pushes_total",
    "msp_event_pops_total",
    "msp_event_cancels_total",
    "msp_stalls_total",
    "msp_chunk_errors_total",
    "msp_failovers_total",
    "msp_abr_decisions_total",
    "msp_abr_switches_total",
    "msp_grants_issued_total",
];

/// Interns every [`CORE_COUNTERS`] entry at zero. Call once when turning
/// a live metrics endpoint on; harmless (idempotent) any other time.
pub fn register_core_counters() {
    for name in CORE_COUNTERS {
        counter(name);
    }
}

/// Interns (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let key = sanitize_metric_name(name);
    let mut reg = lock_registry();
    match reg.metrics.get(&key) {
        Some(Metric::Gauge(g)) => g,
        Some(_) => panic!("metric {key:?} already registered with a different type"),
        None => {
            let g: &'static Gauge = Box::leak(Box::new(Gauge {
                value: AtomicI64::new(0),
            }));
            reg.metrics.insert(key, Metric::Gauge(g));
            g
        }
    }
}

/// Interns (registering on first use) the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let key = sanitize_metric_name(name);
    let mut reg = lock_registry();
    match reg.metrics.get(&key) {
        Some(Metric::Histogram(h)) => h,
        Some(_) => panic!("metric {key:?} already registered with a different type"),
        None => {
            let h: &'static Histogram = Box::leak(Box::new(Histogram {
                buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }));
            reg.metrics.insert(key, Metric::Histogram(h));
            h
        }
    }
}

/// Adds `n` to the counter named `name`. Returns without touching the
/// interning table when telemetry is disabled — the recommended form for
/// call sites that do not hold a [`Counter`] handle.
#[inline]
pub fn count(name: &str, n: u64) {
    if enabled() {
        counter(name).add_raw(n);
    }
}

/// Adds `n` to the counter `name{labels...}` when telemetry is enabled.
#[inline]
pub fn count_with(name: &str, labels: &[(&str, &str)], n: u64) {
    if enabled() {
        counter_with(name, labels).add_raw(n);
    }
}

/// Records `v` into the histogram named `name` when telemetry is enabled.
#[inline]
pub fn observe(name: &str, v: u64) {
    if enabled() {
        // `histogram` interns under the enabled check; `observe` re-checks
        // but that is one relaxed load.
        histogram(name).observe(v);
    }
}

/// A counter series for a hot call site: a `static` that names the series
/// and resolves its interned handle on the first enabled [`add`], so every
/// later call is one relaxed load, a branch and a `fetch_add` — no name
/// sanitising, key formatting or registry lock. Like [`count`], it
/// registers nothing while telemetry is disabled, and [`reset`] keeps
/// registrations, so a resolved handle stays valid for the process.
///
/// [`add`]: LazyCounter::add
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    handle: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// The unlabelled series `name`.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter::with_labels(name, &[])
    }

    /// The series `name{labels...}` — one `static` per label value.
    pub const fn with_labels(
        name: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> LazyCounter {
        LazyCounter {
            name,
            labels,
            handle: OnceLock::new(),
        }
    }

    /// Adds `n` when telemetry is enabled; no-op otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.handle
                .get_or_init(|| counter_with(self.name, self.labels))
                .add_raw(n);
        }
    }
}

/// The histogram counterpart of [`LazyCounter`].
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    handle: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// The histogram `name`.
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            handle: OnceLock::new(),
        }
    }

    /// Records `v` when telemetry is enabled; no-op otherwise.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.handle.get_or_init(|| histogram(self.name)).observe(v);
        }
    }
}

/// An open wall-time span; attributes its elapsed time to a phase on
/// drop. Created by [`span`].
#[must_use = "a span measures the scope it is alive in"]
#[derive(Debug)]
pub struct Span {
    live: Option<(&'static PhaseStat, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stat, start)) = self.live.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stat.nanos.fetch_add(nanos, Ordering::Relaxed);
            stat.calls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Opens a span on phase `name`. When telemetry is disabled this returns
/// an inert guard without reading the clock (one relaxed load + branch).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some((phase_stat(name), Instant::now())),
    }
}

/// Interns (registering on first use) the phase accumulator for `name`.
pub fn phase_stat(name: &'static str) -> &'static PhaseStat {
    let mut reg = lock_registry();
    if let Some(stat) = reg.phases.get(name) {
        return stat;
    }
    let stat: &'static PhaseStat = Box::leak(Box::new(PhaseStat {
        nanos: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    }));
    reg.phases.insert(name, stat);
    stat
}

/// One row of [`phase_values`]: accumulated wall time for a phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Phase name as passed to [`span`].
    pub name: String,
    /// Total wall nanoseconds.
    pub nanos: u64,
    /// Number of closed spans.
    pub calls: u64,
}

/// Snapshot of every phase accumulator, sorted by name.
pub fn phase_values() -> Vec<PhaseSnapshot> {
    let reg = lock_registry();
    reg.phases
        .iter()
        .map(|(name, stat)| PhaseSnapshot {
            name: (*name).to_string(),
            nanos: stat.nanos(),
            calls: stat.calls(),
        })
        .collect()
}

/// Snapshot of every counter (key → value), sorted by key. Keys include
/// canonical label sets. Used for heartbeat deltas and summaries.
pub fn counter_values() -> BTreeMap<String, u64> {
    let reg = lock_registry();
    reg.metrics
        .iter()
        .filter_map(|(k, m)| match m {
            Metric::Counter(c) => Some((k.clone(), c.get())),
            _ => None,
        })
        .collect()
}

/// Counters that advanced since `prev` (a previous [`counter_values`]
/// snapshot, or the map an earlier call left behind), as `(key, delta)`
/// pairs sorted by key. `prev` is advanced to the current values in the
/// same pass — one walk under the registry lock — so consecutive calls
/// partition the counter stream exactly: the deltas of all calls sum to
/// the registry totals at the last one.
pub fn counter_deltas(prev: &mut BTreeMap<String, u64>) -> Vec<(String, u64)> {
    let reg = lock_registry();
    let mut deltas = Vec::new();
    for (key, metric) in &reg.metrics {
        let Metric::Counter(c) = metric else {
            continue;
        };
        let now = c.get();
        match prev.get_mut(key) {
            Some(base) => {
                if now > *base {
                    deltas.push((key.clone(), now - *base));
                }
                // Also follows a counter back down after a `reset`.
                *base = now;
            }
            None if now > 0 => {
                deltas.push((key.clone(), now));
                prev.insert(key.clone(), now);
            }
            None => {}
        }
    }
    deltas
}

/// Merges externally collected counter deltas (e.g. from a worker
/// heartbeat) into this process's registry. Keys are trusted to be
/// canonical [`metric_key`] output; unknown keys are registered.
/// Applies even when runtime collection is disabled, so a coordinator
/// can aggregate worker traffic without turning on local instrumentation.
pub fn apply_counter_deltas(deltas: &[(String, u64)]) {
    for (key, delta) in deltas {
        intern_counter(key.clone()).add_raw(*delta);
    }
}

/// Zeroes every registered counter, gauge, histogram, and phase, clears
/// the trace buffer, and resets the trace sequence. Registrations (the
/// interned handles) survive. Intended for tests and for binaries that
/// run several independent measurement passes.
pub fn reset() {
    let reg = lock_registry();
    for m in reg.metrics.values() {
        match m {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => h.zero(),
        }
    }
    for stat in reg.phases.values() {
        stat.nanos.store(0, Ordering::Relaxed);
        stat.calls.store(0, Ordering::Relaxed);
    }
    drop(reg);
    TRACE_DROPPED.store(0, Ordering::Relaxed);
    TRACE_SEQ.store(0, Ordering::Relaxed);
    let mut buf = trace_buf().lock().unwrap_or_else(|e| e.into_inner());
    buf.clear();
}

fn base_name(key: &str) -> &str {
    key.split_once('{').map_or(key, |(n, _)| n)
}

/// Renders every registered metric (and phase accumulator) in the
/// Prometheus text exposition format, sorted by key. Phases appear as
/// `msp_phase_nanos_total{phase="..."}` / `msp_phase_calls_total{...}`.
pub fn render_prometheus() -> String {
    let reg = lock_registry();
    let mut out = String::new();
    let mut last_type_for: Option<String> = None;
    let mut type_line = |out: &mut String, base: &str, kind: &str| {
        if last_type_for.as_deref() != Some(base) {
            let _ = writeln!(out, "# TYPE {base} {kind}");
            last_type_for = Some(base.to_string());
        }
    };
    for (key, m) in &reg.metrics {
        let base = base_name(key);
        match m {
            Metric::Counter(c) => {
                type_line(&mut out, base, "counter");
                let _ = writeln!(out, "{key} {}", c.get());
            }
            Metric::Gauge(g) => {
                type_line(&mut out, base, "gauge");
                let _ = writeln!(out, "{key} {}", g.get());
            }
            Metric::Histogram(h) => {
                type_line(&mut out, base, "histogram");
                let counts = h.bucket_counts();
                let mut cumulative = 0u64;
                for (i, n) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                    cumulative += n;
                    let _ = writeln!(out, "{key}_bucket{{le=\"{}\"}} {cumulative}", 1u64 << i);
                }
                let _ = writeln!(out, "{key}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{key}_sum {}", h.sum());
                let _ = writeln!(out, "{key}_count {}", h.count());
            }
        }
    }
    if !reg.phases.is_empty() {
        let _ = writeln!(out, "# TYPE msp_phase_nanos_total counter");
        for (name, stat) in &reg.phases {
            let phase = escape_label_value(name);
            let _ = writeln!(
                out,
                "msp_phase_nanos_total{{phase=\"{phase}\"}} {}",
                stat.nanos()
            );
        }
        let _ = writeln!(out, "# TYPE msp_phase_calls_total counter");
        for (name, stat) in &reg.phases {
            let phase = escape_label_value(name);
            let _ = writeln!(
                out,
                "msp_phase_calls_total{{phase=\"{phase}\"}} {}",
                stat.calls()
            );
        }
    }
    out
}

/// One parsed sample line of the text exposition format.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpositionLine {
    /// Metric name (without labels).
    pub name: String,
    /// Label pairs with values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Minimal parser for one line of the text exposition format: comments
/// and blank lines yield `Ok(None)`; malformed lines yield `Err`.
pub fn parse_exposition_line(line: &str) -> Result<Option<ExpositionLine>, String> {
    let line = line.trim_end_matches('\r');
    if line.trim().is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let name_ok = |c: u8, first: bool| {
        c.is_ascii_alphabetic() || c == b'_' || c == b':' || (!first && c.is_ascii_digit())
    };
    while i < bytes.len() && name_ok(bytes[i], i == 0) {
        i += 1;
    }
    if i == 0 {
        return Err(format!("invalid metric name start in {line:?}"));
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            if i >= bytes.len() {
                return Err("unterminated label set".into());
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            let k0 = i;
            while i < bytes.len() && name_ok(bytes[i], i == k0) {
                i += 1;
            }
            if i == k0 || i >= bytes.len() || bytes[i] != b'=' {
                return Err(format!("bad label key at byte {i} in {line:?}"));
            }
            let key = line[k0..i].to_string();
            i += 1; // '='
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("label value must be quoted".into());
            }
            i += 1;
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return Err("unterminated label value".into());
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        i += 1;
                    }
                    _ => {
                        // Take the whole UTF-8 scalar, not a raw byte.
                        let rest = &line[i..];
                        let c = rest.chars().next().expect("in-bounds char");
                        value.push(c);
                        i += c.len_utf8();
                    }
                }
            }
            labels.push((key, value));
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
            }
        }
    }
    let rest = line[i..].trim();
    if rest.is_empty() {
        return Err("missing sample value".into());
    }
    // The value may be followed by an optional timestamp; take the first
    // whitespace-separated token.
    let value_tok = rest.split_ascii_whitespace().next().expect("non-empty");
    let value: f64 = value_tok
        .parse()
        .map_err(|e| format!("bad sample value {value_tok:?}: {e}"))?;
    Ok(Some(ExpositionLine {
        name,
        labels,
        value,
    }))
}

// --- Trace sink --------------------------------------------------------

/// A trace field value (see [`trace`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with Rust's shortest-roundtrip formatting).
    F64(f64),
    /// String (JSON-escaped on export).
    Str(String),
}

/// One buffered trace event: a fully ordered record `(seq, t_us, kind,
/// fields)`. `seq` is a process-wide monotonic sequence number, so a
/// single-threaded session replay yields a totally ordered, deterministic
/// trace; `t_us` is the *simulated* instant in microseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Process-wide emission sequence number.
    pub seq: u64,
    /// Simulated time of the event, microseconds.
    pub t_us: u64,
    /// Event kind, e.g. `session.start` or `abr.decision`.
    pub kind: String,
    /// Additional fields in emission order.
    pub fields: Vec<(String, TraceVal)>,
}

fn trace_buf() -> &'static Mutex<Vec<TraceEvent>> {
    static BUF: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

/// Emits one trace event when tracing is enabled; no-op otherwise.
/// `t_us` is the simulated instant the event describes.
pub fn trace(kind: &str, t_us: u64, fields: &[(&str, TraceVal)]) {
    if !trace_enabled() {
        return;
    }
    let mut buf = trace_buf().lock().unwrap_or_else(|e| e.into_inner());
    if buf.len() >= TRACE_CAP {
        TRACE_DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    buf.push(TraceEvent {
        seq,
        t_us,
        kind: kind.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    });
}

/// Drains and returns every buffered trace event (in emission order).
pub fn take_trace() -> Vec<TraceEvent> {
    let mut buf = trace_buf().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *buf)
}

/// Number of currently buffered trace events.
pub fn trace_len() -> usize {
    trace_buf().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Number of trace events dropped at the `TRACE_CAP` since the last
/// [`reset`].
pub fn trace_dropped() -> u64 {
    TRACE_DROPPED.load(Ordering::Relaxed)
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one trace event as a single NDJSON line (no trailing newline).
pub fn trace_event_json(ev: &TraceEvent) -> String {
    let mut line = String::with_capacity(64);
    let _ = write!(
        line,
        "{{\"seq\":{},\"t_us\":{},\"kind\":\"",
        ev.seq, ev.t_us
    );
    json_escape_into(&mut line, &ev.kind);
    line.push('"');
    for (k, v) in &ev.fields {
        line.push_str(",\"");
        json_escape_into(&mut line, k);
        line.push_str("\":");
        match v {
            TraceVal::U64(n) => {
                let _ = write!(line, "{n}");
            }
            TraceVal::I64(n) => {
                let _ = write!(line, "{n}");
            }
            TraceVal::F64(x) if x.is_finite() => {
                let _ = write!(line, "{x}");
            }
            TraceVal::F64(_) => line.push_str("null"),
            TraceVal::Str(s) => {
                line.push('"');
                json_escape_into(&mut line, s);
                line.push('"');
            }
        }
    }
    line.push('}');
    line
}

/// Writes `events` as NDJSON (one JSON object per line) to `w`.
pub fn write_trace_ndjson<W: io::Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", trace_event_json(ev))?;
    }
    Ok(())
}

/// One-line human summary of the current registry state: counter total,
/// trace depth, and the top phase by wall time. Used by binaries for
/// their exit summaries.
pub fn summary_line() -> String {
    let counters = counter_values();
    let nonzero = counters.values().filter(|v| **v > 0).count();
    let events: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("msp_event_"))
        .map(|(_, v)| *v)
        .sum();
    let phases = phase_values();
    let top = phases.iter().max_by_key(|p| p.nanos);
    let mut line = format!(
        "telemetry: {nonzero} active counters, {} trace events",
        trace_len()
    );
    if events > 0 {
        let _ = write!(line, ", {events} queue ops");
    }
    if let Some(top) = top {
        if top.nanos > 0 {
            let _ = write!(
                line,
                ", hottest phase {} ({:.1} ms over {} spans)",
                top.name,
                top.nanos as f64 / 1e6,
                top.calls
            );
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the process-wide enable flags so the
    /// default multi-threaded test runner cannot interleave them.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_enabled<T>(f: impl FnOnce() -> T) -> T {
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn counters_register_and_accumulate() {
        let _guard = flag_lock();
        with_enabled(|| {
            let c = counter("msp_test_counter_total");
            let before = c.get();
            c.add(3);
            count("msp_test_counter_total", 2);
            assert_eq!(c.get(), before + 5);
        });
    }

    #[test]
    fn disabled_counters_do_not_move() {
        let _guard = flag_lock();
        set_enabled(false);
        let c = counter("msp_test_disabled_total");
        let before = c.get();
        c.add(10);
        count("msp_test_disabled_total", 7);
        assert_eq!(c.get(), before);
    }

    #[test]
    fn histogram_buckets_are_log_spaced() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn metric_key_sorts_and_escapes_labels() {
        let key = metric_key("msp x", &[("b", "two"), ("a", "say \"hi\"\n")]);
        assert_eq!(key, "msp_x{a=\"say \\\"hi\\\"\\n\",b=\"two\"}");
    }

    #[test]
    fn sanitize_covers_bad_starts() {
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("a-b.c"), "a_b_c");
    }

    #[test]
    fn exposition_roundtrip() {
        let _guard = flag_lock();
        with_enabled(|| {
            counter_with("msp_test_rt_total", &[("kind", "a\"b\\c\nd")]).add(4);
        });
        let text = render_prometheus();
        let mut found = false;
        for line in text.lines() {
            if let Some(parsed) = parse_exposition_line(line).expect("rendered output parses") {
                if parsed.name == "msp_test_rt_total" {
                    assert_eq!(parsed.labels, vec![("kind".into(), "a\"b\\c\nd".into())]);
                    assert!(parsed.value >= 4.0);
                    found = true;
                }
            }
        }
        assert!(found, "rendered metric not found in:\n{text}");
    }

    #[test]
    fn exposition_parser_rejects_garbage() {
        assert!(parse_exposition_line("{oops} 1").is_err());
        assert!(parse_exposition_line("name{k=}").is_err());
        assert!(parse_exposition_line("name{k=\"v\"}").is_err());
        assert!(parse_exposition_line("name").is_err());
        assert_eq!(parse_exposition_line("# HELP x y").unwrap(), None);
        assert_eq!(parse_exposition_line("").unwrap(), None);
    }

    #[test]
    fn spans_accumulate_only_when_enabled() {
        let _guard = flag_lock();
        set_enabled(false);
        {
            let _s = span("test.idle");
        }
        assert_eq!(phase_stat("test.idle").calls(), 0);
        with_enabled(|| {
            {
                let _s = span("test.busy");
            }
            assert_eq!(phase_stat("test.busy").calls(), 1);
        });
    }

    #[test]
    fn trace_sink_orders_and_exports() {
        let _guard = flag_lock();
        set_trace_enabled(true);
        trace(
            "test.event",
            42,
            &[
                ("path", TraceVal::U64(1)),
                ("note", TraceVal::Str("a\"b".into())),
            ],
        );
        set_trace_enabled(false);
        let events: Vec<TraceEvent> = take_trace()
            .into_iter()
            .filter(|e| e.kind == "test.event")
            .collect();
        assert_eq!(events.len(), 1);
        let line = trace_event_json(&events[0]);
        assert!(line.contains("\"t_us\":42"), "{line}");
        assert!(line.contains("\"path\":1"), "{line}");
        assert!(line.contains("\"note\":\"a\\\"b\""), "{line}");
        let mut out = Vec::new();
        write_trace_ndjson(&events, &mut out).unwrap();
        assert_eq!(out.iter().filter(|b| **b == b'\n').count(), 1);
    }

    #[test]
    fn deltas_and_merge() {
        let _guard = flag_lock();
        with_enabled(|| {
            let mut prev = counter_values();
            let c = counter("msp_test_delta_total");
            let mine = |deltas: Vec<(String, u64)>| -> Vec<u64> {
                deltas
                    .into_iter()
                    .filter(|(k, _)| k == "msp_test_delta_total")
                    .map(|(_, d)| d)
                    .collect()
            };
            c.add(5);
            assert_eq!(mine(counter_deltas(&mut prev)), [5]);
            // `prev` advanced in place: nothing is reported twice, and the
            // next call sees only what came after.
            assert_eq!(prev.get("msp_test_delta_total"), Some(&c.get()));
            assert!(mine(counter_deltas(&mut prev)).is_empty());
            c.add(2);
            assert_eq!(mine(counter_deltas(&mut prev)), [2]);
            // A counter first seen after the snapshot reports its whole value.
            let mut empty = BTreeMap::new();
            assert_eq!(mine(counter_deltas(&mut empty)), [c.get()]);
        });
        // Merging applies even while runtime-disabled (coordinator case).
        let before = counter("msp_test_merge_total").get();
        apply_counter_deltas(&[("msp_test_merge_total".into(), 7)]);
        assert_eq!(counter("msp_test_merge_total").get(), before + 7);
    }
}
