//! # msim-json — minimal JSON for the emulated YouTube control plane
//!
//! The MSPlayer bootstrap exchanges "JSON objects" with YouTube web proxy
//! servers (paper §3.1/§4): video metadata, available formats, access tokens
//! and video-server domain names. This crate provides exactly the JSON
//! machinery those exchanges need — a [`Value`] tree, an RFC 8259 parser with
//! positioned errors, and deterministic serialisers — without pulling a JSON
//! dependency beyond the approved crate list.
//!
//! ```
//! use msim_json::{from_str, Value};
//!
//! let v = Value::object()
//!     .with("video_id", "qjT4T2gU9sM")
//!     .with("itag", 22u64);
//! let text = msim_json::to_string(&v);
//! assert_eq!(from_str(&text).unwrap(), v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parse;
pub mod ser;
pub mod value;

pub use parse::{from_str, ParseError};
pub use ser::{to_string, to_string_pretty};
pub use value::{Map, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy for arbitrary JSON values of bounded size.
    fn value_strategy() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            // Finite, roundtrippable numbers.
            (-1e12f64..1e12).prop_map(Value::Number),
            "[a-zA-Z0-9 \\\\\"\\n\\t\u{e9}\u{4e2d}]{0,20}".prop_map(Value::String),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Value::Array),
                prop::collection::btree_map("[a-z]{1,8}", inner, 0..8)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    proptest! {
        /// Serialise → parse is the identity for finite-number documents.
        #[test]
        fn roundtrip_compact(v in value_strategy()) {
            let text = to_string(&v);
            let back = from_str(&text).unwrap();
            prop_assert!(values_close(&v, &back), "compact roundtrip:\n{text}");
        }

        /// Pretty printing parses back to the same value.
        #[test]
        fn roundtrip_pretty(v in value_strategy()) {
            let text = to_string_pretty(&v);
            let back = from_str(&text).unwrap();
            prop_assert!(values_close(&v, &back), "pretty roundtrip:\n{text}");
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_never_panics(s in "\\PC*") {
            let _ = from_str(&s);
        }

        /// Strings of any printable shape survive a write/read cycle.
        #[test]
        fn strings_roundtrip_exactly(s in "\\PC{0,64}") {
            let v = Value::String(s.clone());
            let back = from_str(&to_string(&v)).unwrap();
            prop_assert_eq!(back.as_str(), Some(s.as_str()));
        }
    }

    /// Structural equality with approximate float comparison (parsing via
    /// decimal text may round the last ulp).
    fn values_close(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Number(x), Value::Number(y)) => {
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
            }
            (Value::Array(xs), Value::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_close(x, y))
            }
            (Value::Object(xm), Value::Object(ym)) => {
                xm.len() == ym.len()
                    && xm
                        .iter()
                        .zip(ym.iter())
                        .all(|((kx, vx), (ky, vy))| kx == ky && values_close(vx, vy))
            }
            _ => a == b,
        }
    }
}
