//! JSON serialisation: compact and pretty printers.

use crate::value::Value;
use std::fmt::Write as _;

/// Serialises compactly (no insignificant whitespace). Keys appear in the
/// object's sorted order, so output is deterministic.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serialises with 2-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * level {
            out.push(' ');
        }
    }
}

/// JSON has no NaN or infinity: like JavaScript's `JSON.stringify`, they
/// are written as `null`, in every build profile.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        // Integers print without a trailing ".0", like serde_json.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::from_str;

    #[test]
    fn compact_output() {
        let v = Value::object()
            .with("b", 2u64)
            .with("a", vec![1u64, 2])
            .with("s", "x\ny");
        // Keys sorted: a, b, s.
        assert_eq!(to_string(&v), r#"{"a":[1,2],"b":2,"s":"x\ny"}"#);
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(to_string(&Value::Number(42.0)), "42");
        assert_eq!(to_string(&Value::Number(-7.0)), "-7");
        assert_eq!(to_string(&Value::Number(2.5)), "2.5");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let v = Value::Array(vec![
            Value::Number(f64::NAN),
            Value::Number(f64::INFINITY),
            Value::Number(f64::NEG_INFINITY),
        ]);
        assert_eq!(to_string(&v), "[null,null,null]");
        assert_eq!(
            from_str(&to_string(&v)).unwrap(),
            Value::from(vec![Value::Null; 3])
        );
        assert_eq!(
            from_str(&to_string_pretty(&v)).unwrap(),
            Value::from(vec![Value::Null; 3])
        );
    }

    #[test]
    fn pretty_output_indents() {
        let v = Value::object().with("a", 1u64);
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Array(vec![])), "[]");
        assert_eq!(to_string(&Value::object()), "{}");
        assert_eq!(to_string_pretty(&Value::Array(vec![])), "[]");
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::String("\u{0001}\u{0008}\u{000C}".into());
        assert_eq!(to_string(&v), "\"\\u0001\\b\\f\"");
    }

    #[test]
    fn roundtrip_preserves_value() {
        let v = Value::object()
            .with("id", "dQw4w9WgXcQ")
            .with("sizes", vec![65536u64, 262144, 1048576])
            .with("ratio", 0.625)
            .with("nested", Value::object().with("deep", Value::Null));
        let text = to_string(&v);
        assert_eq!(from_str(&text).unwrap(), v);
        let pretty = to_string_pretty(&v);
        assert_eq!(from_str(&pretty).unwrap(), v);
    }
}
