//! Byte-mutation fuzz targets for the Prometheus text-exposition layer.
//!
//! Two contracts:
//!
//! 1. `parse_exposition_line` never panics on arbitrary input, and
//!    anything it accepts re-renders into a line it accepts again with
//!    the same name/labels/value (parser idempotence);
//! 2. `metric_key` — the sanitizer + label escaper that builds every
//!    registry key — always produces a key that, rendered as a sample
//!    line, parses back with the sanitized name and the *original*
//!    (unescaped) label values. This is the property the live `/metrics`
//!    endpoint depends on: no workload-supplied string can produce an
//!    unparseable exposition.

use msim_core::telemetry::{
    escape_label_value, metric_key, parse_exposition_line, sanitize_metric_name,
};
use proptest::fuzz;

const LINE_CORPUS: &[&[u8]] = &[
    b"msp_sessions_total 42",
    b"msp_transfer_requests_total{engine=\"block\"} 17",
    b"msp_chaos_violations_total{plan=\"skew:+250ms;overload:path=1\"} 0",
    b"msp_chunk_fetch_us_bucket{le=\"+Inf\"} 9001 1700000000",
    b"# HELP msp_sessions_total sessions started",
    b"# TYPE msp_sessions_total counter",
    b"weird{a=\"\\\\\\\"\\n\",b=\"\xc3\xa9\"} -0.5e-3",
    b"",
];

/// Contract 1: the line parser is total (no panics) and idempotent on
/// accepted input.
#[test]
fn fuzz_exposition_parser_never_panics_and_is_idempotent() {
    fuzz::run(
        "telemetry::parse_exposition_line",
        LINE_CORPUS,
        3_000,
        |data| {
            let line = String::from_utf8_lossy(data);
            let Ok(Some(sample)) = parse_exposition_line(&line) else {
                return; // rejected or comment/blank: only "no panic" is claimed
            };
            // Re-render from parsed parts and parse again: the parser must
            // accept its own normal form and agree with itself.
            let mut rendered = sample.name.clone();
            if !sample.labels.is_empty() {
                rendered.push('{');
                for (i, (k, v)) in sample.labels.iter().enumerate() {
                    if i > 0 {
                        rendered.push(',');
                    }
                    rendered.push_str(k);
                    rendered.push_str("=\"");
                    rendered.push_str(&escape_label_value(v));
                    rendered.push('"');
                }
                rendered.push('}');
            }
            rendered.push(' ');
            rendered.push_str(&format!("{}", sample.value));
            let again = parse_exposition_line(&rendered)
                .unwrap_or_else(|e| panic!("re-rendered {rendered:?} must parse: {e}"))
                .expect("re-rendered line is a sample");
            assert_eq!(again.name, sample.name, "name drift through {rendered:?}");
            assert_eq!(
                again.labels, sample.labels,
                "label drift through {rendered:?}"
            );
            assert!(
                again.value == sample.value || (again.value.is_nan() && sample.value.is_nan()),
                "value drift through {rendered:?}: {} vs {}",
                again.value,
                sample.value
            );
        },
    );
}

const NAME_CORPUS: &[&[u8]] = &[
    b"msp_sessions_total",
    b"9starts_with_digit",
    b"dots.and-dashes and spaces",
    b"quote\"backslash\\newline\nmix",
    b"\xc3\xa9\xd9\xa0\xd9\xa5 unicode",
    b"",
];

/// Contract 2: arbitrary bytes fed through `metric_key` as a name and a
/// label value always yield a parseable sample line, the name survives
/// as its sanitized form, and the label value round-trips exactly.
#[test]
fn fuzz_metric_key_always_renders_parseable_lines() {
    fuzz::run("telemetry::metric_key", NAME_CORPUS, 3_000, |data| {
        let raw = String::from_utf8_lossy(data);
        // Split the fuzz input into a name half and a label-value half so
        // both sides see hostile bytes.
        let mut mid = raw.len() / 2;
        while mid < raw.len() && !raw.is_char_boundary(mid) {
            mid += 1;
        }
        let (name_part, value_part) = raw.split_at(mid);
        let key = metric_key(name_part, &[("plan", value_part)]);
        let line = format!("{key} 1");
        let sample = parse_exposition_line(&line)
            .unwrap_or_else(|e| panic!("metric_key output {line:?} must parse: {e}"))
            .expect("sample line");
        assert_eq!(sample.name, sanitize_metric_name(name_part));
        assert_eq!(
            sample.labels,
            vec![("plan".to_string(), value_part.to_string())],
            "label value did not round-trip through escape/parse"
        );
        assert_eq!(sample.value, 1.0);
        // The bare (label-free) form must also parse.
        let bare = format!("{} 0", metric_key(name_part, &[]));
        parse_exposition_line(&bare)
            .unwrap_or_else(|e| panic!("bare key {bare:?} must parse: {e}"))
            .expect("bare sample");
    });
}
