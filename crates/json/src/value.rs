//! The JSON value tree.

use std::borrow::Cow;
use std::fmt;
use std::slice;

/// A JSON document node.
///
/// Objects preserve no insertion order: a [`Map`] keeps its members sorted
/// by key in one allocation, which makes serialisation deterministic —
/// important because emulated YouTube JSON responses are part of seeded,
/// replayable sessions.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64, like browsers do).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

/// A JSON object: its members in one `Vec`, sorted by key.
///
/// Keys are ordered by their UTF-8 bytes, the order `BTreeMap<String, _>`
/// uses, so iteration and serialisation are deterministic. A key appears
/// at most once: [`insert`](Map::insert) replaces, and
/// [`collect`](Map::from_iter) keeps the last of equal keys, so both
/// agree with inserting the members one by one. Lookup is a binary
/// search; insertion shifts the members after the key, so build a large
/// object with `collect`, which sorts once.
///
/// A key is a `Cow<'static, str>`: a name written in the code as a
/// literal (`map.insert("servers", …)`, `("seed", …)` in a `collect`) is
/// borrowed, with no heap copy, while a parsed name or a `String` is
/// owned. Which kind a key is never shows: a borrowed and an owned key
/// with the same text are one key, in lookup, order, `==` and every
/// serialised byte. [`Value::with`] takes any `&str`, so it copies.
#[derive(Clone, Default, PartialEq)]
pub struct Map {
    members: Vec<(Cow<'static, str>, Value)>,
}

// A borrowed name costs no more room than an owned one.
const _: () = assert!(std::mem::size_of::<Cow<'static, str>>() == std::mem::size_of::<String>());

impl Map {
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.members.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.members[i].1)
    }

    /// Sets `key` to `value`, returning the value it replaces.
    pub fn insert(&mut self, key: impl Into<Cow<'static, str>>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.members[i].1, value)),
            Err(i) => {
                self.members.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.find(key).ok().map(|i| self.members.remove(i).1)
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the object has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.members.iter())
    }

    /// The keys in order.
    pub fn keys(&self) -> Keys<'_> {
        Keys(self.members.iter())
    }
}

impl<K: Into<Cow<'static, str>>> FromIterator<(K, Value)> for Map {
    /// Sorts the members once (stably) and keeps the last of equal keys.
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(members: I) -> Map {
        let mut members: Vec<(Cow<'static, str>, Value)> =
            members.into_iter().map(|(k, v)| (k.into(), v)).collect();
        members.sort_by(|(a, _), (b, _)| a.cmp(b));
        // `dedup_by` keeps the first of a run; moving each later value
        // into the kept member makes the last one win.
        members.dedup_by(|later, kept| {
            let equal = later.0 == kept.0;
            if equal {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            equal
        });
        Map { members }
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// An iterator over a [`Map`]'s members in key order.
#[derive(Clone, Debug)]
pub struct Iter<'a>(slice::Iter<'a, (Cow<'static, str>, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (&**k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a str, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// An iterator over a [`Map`]'s keys in order.
#[derive(Clone, Debug)]
pub struct Keys<'a>(slice::Iter<'a, (Cow<'static, str>, Value)>);

impl<'a> Iterator for Keys<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(|(k, _)| &**k)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> Keys<'a> {
    /// The keys as owned `String`s. `Iterator::cloned` needs a sized
    /// item, so it does not apply to `&str` keys; this keeps
    /// `map.keys().cloned()` (as in `benchmark/tests/smoke.rs`) building.
    pub fn cloned(self) -> impl Iterator<Item = String> + 'a {
        self.map(str::to_owned)
    }
}

impl Value {
    /// Builds an empty object.
    pub fn object() -> Value {
        Value::Object(Map::default())
    }

    /// Fluent insert for building objects; panics when `self` is not an
    /// object (builder misuse, a programming error).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Object(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => panic!("Value::with on non-object {other:?}"),
        }
        self
    }

    /// Member lookup: `v.get("formats")`. Returns `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Array index lookup. Returns `None` on non-arrays and out of range.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which no u64 holds.
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 18446744073709551616.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(n as f64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::ser::to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_str, to_string, to_string_pretty};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The object text a `BTreeMap` of members serialises to: the
    /// reference `Map`'s serialiser must match byte for byte.
    fn reference_text(reference: &BTreeMap<String, Value>, pretty: bool) -> String {
        if reference.is_empty() {
            return "{}".to_string();
        }
        let members: Vec<String> = reference
            .iter()
            .map(|(k, v)| {
                let key = to_string(&Value::String(k.clone()));
                if pretty {
                    format!("\n  {key}: {}", to_string(v))
                } else {
                    format!("{key}:{}", to_string(v))
                }
            })
            .collect();
        if pretty {
            format!("{{{}\n}}", members.join(","))
        } else {
            format!("{{{}}}", members.join(","))
        }
    }

    /// Everything a `Map` shows must agree with the `BTreeMap` reference.
    fn agrees(map: &Map, reference: &BTreeMap<String, Value>) -> Result<(), TestCaseError> {
        prop_assert_eq!(map.len(), reference.len());
        prop_assert_eq!(map.is_empty(), reference.is_empty());
        let members = || reference.iter().map(|(k, v)| (k.as_str(), v));
        prop_assert!(map.iter().eq(members()), "iteration order");
        prop_assert!(map.keys().eq(reference.keys().map(String::as_str)), "keys");
        prop_assert!(map.into_iter().eq(members()), "`&Map` into_iter");
        for (k, v) in reference {
            prop_assert_eq!(map.get(k), Some(v));
        }
        prop_assert_eq!(format!("{map:?}"), format!("{reference:?}"));
        let value = Value::Object(map.clone());
        prop_assert_eq!(to_string(&value), reference_text(reference, false));
        prop_assert_eq!(to_string_pretty(&value), reference_text(reference, true));
        Ok(())
    }

    const KEY: &str = "[abAB\u{e9}\u{4e2d}]{0,2}";

    /// `text` as a borrowed or an owned name. A borrowed name must be
    /// `'static`, so a drawn one is leaked (a few bytes a case).
    fn name(text: &str, borrowed: bool) -> Cow<'static, str> {
        if borrowed {
            Cow::Borrowed(Box::leak(text.into()))
        } else {
            Cow::Owned(text.to_owned())
        }
    }

    proptest! {
        /// `collect`, repeated `insert` and repeated `with` all build the
        /// map a `BTreeMap` fed the same members holds; `remove` and `==`
        /// follow it too.
        #[test]
        fn map_agrees_with_a_btree_map_reference(
            keys in prop::collection::vec((KEY, any::<bool>()), 0..24),
            probes in prop::collection::vec(KEY, 0..6),
        ) {
            // Each member's value is its position, so a wrong winner among
            // equal keys shows. Each name is borrowed or owned at random,
            // so equal keys of both kinds meet.
            let members: Vec<(Cow<'static, str>, Value)> = keys
                .iter()
                .enumerate()
                .map(|(i, (k, borrowed))| (name(k, *borrowed), Value::from(i as u64)))
                .collect();
            let mut reference = BTreeMap::new();
            let mut inserted = Map::default();
            let mut with = Value::object();
            for (k, v) in &members {
                prop_assert_eq!(inserted.insert(k.clone(), v.clone()), reference.insert(k.to_string(), v.clone()));
                with = with.with(k, v.clone());
            }
            // The same members with every name of the other kind.
            let flipped: Map = members
                .iter()
                .map(|(k, v)| (name(k, matches!(k, Cow::Owned(_))), v.clone()))
                .collect();
            let collected: Map = members.into_iter().collect();
            agrees(&collected, &reference)?;
            agrees(&inserted, &reference)?;
            agrees(&flipped, &reference)?;
            prop_assert_eq!(with.as_object(), Some(&collected));
            prop_assert_eq!(&inserted, &collected);
            prop_assert_eq!(&flipped, &collected);

            let mut removed = collected.clone();
            for k in &probes {
                prop_assert_eq!(removed.get(k), reference.get(k));
                prop_assert_eq!(removed.remove(k), reference.remove(k));
                prop_assert_eq!(removed.remove(k), None);
            }
            agrees(&removed, &reference)?;
            prop_assert_eq!(removed == collected, removed.len() == collected.len());
        }
    }

    #[test]
    fn a_borrowed_and_an_owned_name_with_the_same_text_are_one_key() {
        let owned = |text: &str| Cow::<'static, str>::Owned(text.to_owned());
        let mut map = Map::default();
        assert_eq!(map.insert("seed", Value::from(1u64)), None);
        assert_eq!(map.insert(owned("index"), Value::from(2u64)), None);
        // `insert` replaces across the two kinds, both ways.
        assert_eq!(
            map.insert(owned("seed"), Value::from(3u64)),
            Some(Value::from(1u64))
        );
        assert_eq!(
            map.insert("index", Value::from(4u64)),
            Some(Value::from(2u64))
        );
        assert_eq!(map.len(), 2);
        // `get` and `remove` find a name by its text, whatever its kind.
        assert_eq!(map.get(&owned("seed")), Some(&Value::from(3u64)));
        assert_eq!(map.get("index"), Some(&Value::from(4u64)));
        assert_eq!(map.remove(&owned("index")), Some(Value::from(4u64)));
        assert_eq!(map.remove("seed"), Some(Value::from(3u64)));
        assert!(map.is_empty());
    }

    #[test]
    fn collect_keeps_the_last_of_a_run_of_mixed_kinds() {
        let owned = |text: &str| Cow::<'static, str>::Owned(text.to_owned());
        let map: Map = [
            (Cow::Borrowed("a"), Value::from(1u64)),
            (owned("b"), Value::from(2u64)),
            (owned("a"), Value::from(3u64)),
            (Cow::Borrowed("b"), Value::from(4u64)),
            (Cow::Borrowed("a"), Value::from(5u64)),
            (owned("a"), Value::from(6u64)),
        ]
        .into_iter()
        .collect();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("a"), Some(&Value::from(6u64)));
        assert_eq!(map.get("b"), Some(&Value::from(4u64)));
        let one_by_one = Value::object()
            .with("a", 1u64)
            .with("b", 2u64)
            .with("a", 6u64)
            .with("b", 4u64);
        assert_eq!(one_by_one.as_object(), Some(&map));
    }

    #[test]
    fn serialised_bytes_do_not_depend_on_the_kind_of_names() {
        let borrowed: Map = [
            ("views", Value::from(1234u64)),
            ("title", Value::from("Some Video")),
            ("\u{e9}t\u{e9}", Value::object().with("hd", true)),
            ("a\"b", Value::Null),
        ]
        .into_iter()
        .collect();
        let owned: Map = borrowed
            .iter()
            .map(|(k, v)| (k.to_owned(), v.clone()))
            .collect();
        let (borrowed, owned) = (Value::Object(borrowed), Value::Object(owned));
        assert_eq!(borrowed, owned);
        assert_eq!(to_string(&borrowed), to_string(&owned));
        assert_eq!(to_string_pretty(&borrowed), to_string_pretty(&owned));
        // A parsed object's names are owned: it reads back equal, byte
        // for byte.
        let parsed = from_str(&to_string(&borrowed)).unwrap();
        assert_eq!(parsed, borrowed);
        assert_eq!(to_string(&parsed), to_string(&borrowed));
    }

    #[test]
    fn a_100_000_key_object_parses_and_round_trips() {
        const N: usize = 100_000;
        // Keys in a scrambled order (7919 is coprime to N), values equal
        // to the key's number, plus one repeated key whose last value wins.
        let mut text = String::from("{\"k000007\":-1");
        for j in 0..N {
            let i = j * 7919 % N;
            text.push_str(&format!(",\"k{i:06}\":{i}"));
        }
        text.push('}');
        let v = from_str(&text).unwrap();
        let map = v.as_object().unwrap();
        assert_eq!(map.len(), N);
        assert!(map
            .iter()
            .enumerate()
            .all(|(i, (k, v))| *k == format!("k{i:06}") && v.as_u64() == Some(i as u64)));
        assert_eq!(v.get("k099999").and_then(Value::as_u64), Some(99_999));
        assert_eq!(v.get("k100000"), None);
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn builder_and_accessors() {
        let v = Value::object()
            .with("title", "Some Video")
            .with("views", 1234u64)
            .with("hd", true)
            .with("tags", vec!["a", "b"]);
        assert_eq!(v.get("title").and_then(Value::as_str), Some("Some Video"));
        assert_eq!(v.get("views").and_then(Value::as_u64), Some(1234));
        assert_eq!(v.get("hd").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("tags").and_then(|t| t.at(1)).and_then(Value::as_str),
            Some("b")
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Number(1.5).as_u64(), None);
        assert_eq!(Value::Number(-2.0).as_u64(), None);
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
    }

    #[test]
    fn as_u64_refuses_2_pow_64() {
        assert_eq!(Value::Number(18446744073709551616.0).as_u64(), None);
        assert_eq!(Value::Number(1e300).as_u64(), None);
        // The largest f64 below 2^64 is exactly 2^64 - 2048.
        assert_eq!(
            Value::Number(18446744073709549568.0).as_u64(),
            Some(18446744073709549568)
        );
        assert_eq!(Value::Number(0.0).as_u64(), Some(0));
    }

    #[test]
    fn type_mismatches_return_none() {
        let v = Value::String("x".into());
        assert!(v.as_f64().is_none());
        assert!(v.as_bool().is_none());
        assert!(v.as_array().is_none());
        assert!(v.as_object().is_none());
        assert!(v.get("k").is_none());
        assert!(v.at(0).is_none());
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_non_object_panics() {
        Value::Null.with("k", 1u64);
    }
}
