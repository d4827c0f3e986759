//! Minimal, zero-dependency stand-in for the `proptest` crate.
//!
//! The build environment for this repository has no network access, so the
//! real proptest cannot be fetched. This crate implements the subset of its
//! API that the workspace's property tests use, with the same macro surface
//! (`proptest!`, `prop_assert!`, `prop_oneof!`, …) and deterministic
//! sampling: every test function derives its RNG seed from its own name, so
//! failures are reproducible run-to-run.
//!
//! Differences from the real crate (intentional, documented):
//! * no shrinking — a failing case reports the seed/case index instead;
//! * regex string strategies support the subset actually used here
//!   (character classes, escapes, `\PC`, `{m,n}` / `*` quantifiers);
//! * `prop_recursive` expands a fixed number of levels with a 50/50
//!   leaf/recurse split rather than a size-budgeted tree.

pub mod test_runner {
    /// Per-test configuration (mirrors `proptest::test_runner::Config`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed property assertion (returned, not panicked, so the harness
    /// can attach the case number before panicking).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic split-mix / xorshift RNG used for sampling.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Creates an RNG from a seed.
        pub fn new(seed: u64) -> TestRng {
            TestRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform integer in `[lo, hi)`; `lo < hi` required.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Rejection-free multiply-shift; bias is negligible for test use.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// A generator of random values (sampling only; no shrinking).
    pub trait Strategy {
        /// The type of value produced.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps produced values through `f`.
        fn prop_map<U, F>(self, f: F) -> BoxedStrategy<U>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            U: 'static,
            F: Fn(Self::Value) -> U + 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| f(inner.sample(rng))))
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| inner.sample(rng)))
        }

        /// Builds a recursive strategy: `self` is the leaf, `expand` wraps an
        /// inner strategy into composites. Expands `depth` levels with a
        /// 50/50 leaf/recurse choice at each.
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            expand: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
            S: Strategy<Value = Self::Value> + 'static,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let expanded = expand(strat).boxed();
                let l = leaf.clone();
                strat = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                    if rng.below(2) == 0 {
                        l.sample(rng)
                    } else {
                        expanded.sample(rng)
                    }
                }));
            }
            strat
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * rng.next_f64() as $t
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    /// Regex-subset string strategy (see crate docs).
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            crate::string::sample_pattern(self, rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident $idx:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }

    /// Uniform choice between type-erased alternatives (`prop_oneof!`).
    pub fn union<T: 'static>(alternatives: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one arm"
        );
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
            let i = rng.below(alternatives.len() as u64) as usize;
            alternatives[i].sample(rng)
        }))
    }
}

pub mod arbitrary {
    use super::strategy::BoxedStrategy;
    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Samples an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `T` (mirrors `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary + 'static>() -> BoxedStrategy<T> {
        BoxedStrategy(Rc::new(|rng: &mut TestRng| T::arbitrary(rng)))
    }
}

pub mod collection {
    use super::strategy::{BoxedStrategy, Strategy};
    use super::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;
    use std::rc::Rc;

    fn sample_len(range: &Range<usize>, rng: &mut TestRng) -> usize {
        if range.start >= range.end {
            return range.start;
        }
        range.start + rng.below((range.end - range.start) as u64) as usize
    }

    /// `Vec` of values from `element`, length drawn from `size`.
    pub fn vec<S>(element: S, size: Range<usize>) -> BoxedStrategy<Vec<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
            let n = sample_len(&size, rng);
            (0..n).map(|_| element.sample(rng)).collect()
        }))
    }

    /// `BTreeMap` with keys from `key` and values from `value`; up to `size`
    /// entries (duplicate keys collapse, as in the real crate).
    pub fn btree_map<K, V>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BoxedStrategy<BTreeMap<K::Value, V::Value>>
    where
        K: Strategy + 'static,
        V: Strategy + 'static,
        K::Value: Ord + 'static,
        V::Value: 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
            let n = sample_len(&size, rng);
            (0..n)
                .map(|_| (key.sample(rng), value.sample(rng)))
                .collect()
        }))
    }
}

pub mod sample {
    use super::strategy::BoxedStrategy;
    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone + 'static>(options: Vec<T>) -> BoxedStrategy<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
            options[rng.below(options.len() as u64) as usize].clone()
        }))
    }
}

pub mod string {
    //! Sampling for the regex subset used by the workspace's tests:
    //! character classes with escapes and ranges, `\PC` ("any printable
    //! character"), literal characters, and `*` / `{n}` / `{m,n}`
    //! quantifiers applied to the preceding atom.

    use super::test_runner::TestRng;

    #[derive(Clone, Debug)]
    enum Atom {
        /// Explicit set of characters to choose from.
        Class(Vec<char>),
        /// `\PC`: any printable character (sampled from a fixed alphabet).
        Printable,
    }

    const PRINTABLE_EXTRA: &[char] = &['é', 'ß', '中', '文', '✓', 'Ω', '¿', '\u{203d}'];

    fn printable_alphabet() -> Vec<char> {
        let mut v: Vec<char> = (b' '..=b'~').map(|b| b as char).collect();
        v.extend_from_slice(PRINTABLE_EXTRA);
        v
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars>) -> Vec<char> {
        let mut set = Vec::new();
        loop {
            let c = chars.next().expect("unterminated character class");
            match c {
                ']' => break,
                '\\' => {
                    let e = chars.next().expect("dangling escape in class");
                    set.push(match e {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        other => other,
                    });
                }
                _ => {
                    if chars.peek() == Some(&'-') {
                        let mut look = chars.clone();
                        look.next();
                        match look.peek() {
                            Some(&']') | None => set.push(c),
                            Some(&hi) => {
                                chars.next();
                                chars.next();
                                for u in (c as u32)..=(hi as u32) {
                                    if let Some(ch) = char::from_u32(u) {
                                        set.push(ch);
                                    }
                                }
                            }
                        }
                    } else {
                        set.push(c);
                    }
                }
            }
        }
        assert!(!set.is_empty(), "empty character class");
        set
    }

    fn parse_quantifier(chars: &mut std::iter::Peekable<std::str::Chars>) -> (usize, usize) {
        match chars.peek() {
            Some('*') => {
                chars.next();
                (0, 32)
            }
            Some('+') => {
                chars.next();
                (1, 32)
            }
            Some('{') => {
                chars.next();
                let mut body = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    body.push(c);
                }
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad quantifier"),
                        hi.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            }
            _ => (1, 1),
        }
    }

    /// Samples one string matching `pattern`.
    pub fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => Atom::Class(parse_class(&mut chars)),
                '\\' => {
                    let e = chars.next().expect("dangling escape");
                    match e {
                        'P' => {
                            let cat = chars.next().expect("\\P needs a category");
                            assert_eq!(cat, 'C', "only \\PC is supported");
                            Atom::Printable
                        }
                        'n' => Atom::Class(vec!['\n']),
                        't' => Atom::Class(vec!['\t']),
                        other => Atom::Class(vec![other]),
                    }
                }
                literal => Atom::Class(vec![literal]),
            };
            let (lo, hi) = parse_quantifier(&mut chars);
            let n = if hi > lo {
                lo + rng.below((hi - lo + 1) as u64) as usize
            } else {
                lo
            };
            let alphabet;
            let set: &[char] = match &atom {
                Atom::Class(set) => set,
                Atom::Printable => {
                    alphabet = printable_alphabet();
                    &alphabet
                }
            };
            for _ in 0..n {
                out.push(set[rng.below(set.len() as u64) as usize]);
            }
        }
        out
    }
}

pub mod fuzz {
    //! A deterministic byte-mutation fuzz driver for the hand-rolled
    //! parsers: seed-corpus inputs are mutated with the classic fuzzing
    //! moves (bit flips, truncation, duplication, splicing, digit blasts,
    //! multi-byte UTF-8 insertion) and fed to a target closure. Panics
    //! propagate — the test harness reports the failing case — and every
    //! case derives from a stable per-target seed, so a failure replays
    //! exactly.

    use crate::test_runner::TestRng;

    /// Deterministic mutator over a seed corpus.
    pub struct ByteMutator {
        rng: TestRng,
    }

    impl ByteMutator {
        /// A mutator seeded explicitly (see [`crate::seed_for`]).
        pub fn new(seed: u64) -> ByteMutator {
            ByteMutator {
                rng: TestRng::new(seed),
            }
        }

        /// Produces one mutated input: picks a corpus entry and applies
        /// 1–4 stacked mutations.
        pub fn mutate(&mut self, corpus: &[&[u8]]) -> Vec<u8> {
            assert!(!corpus.is_empty(), "fuzz corpus must not be empty");
            let pick = self.rng.below(corpus.len() as u64) as usize;
            let mut data = corpus[pick].to_vec();
            let n_mutations = 1 + self.rng.below(4);
            for _ in 0..n_mutations {
                self.mutate_once(&mut data, corpus);
            }
            data
        }

        fn mutate_once(&mut self, data: &mut Vec<u8>, corpus: &[&[u8]]) {
            match self.rng.below(8) {
                // Bit flip.
                0 if !data.is_empty() => {
                    let i = self.rng.below(data.len() as u64) as usize;
                    data[i] ^= 1 << self.rng.below(8);
                }
                // Overwrite one byte with an arbitrary value.
                1 if !data.is_empty() => {
                    let i = self.rng.below(data.len() as u64) as usize;
                    data[i] = self.rng.below(256) as u8;
                }
                // Truncate (models a cut-off wire frame).
                2 if !data.is_empty() => {
                    let keep = self.rng.below(data.len() as u64) as usize;
                    data.truncate(keep);
                }
                // Duplicate a slice in place.
                3 if !data.is_empty() => {
                    let start = self.rng.below(data.len() as u64) as usize;
                    let len = 1 + self.rng.below((data.len() - start).max(1) as u64) as usize;
                    let slice = data[start..(start + len).min(data.len())].to_vec();
                    let at = self.rng.below(data.len() as u64 + 1) as usize;
                    data.splice(at..at, slice);
                }
                // Insert random bytes.
                4 => {
                    let at = self.rng.below(data.len() as u64 + 1) as usize;
                    let n = 1 + self.rng.below(8) as usize;
                    let bytes: Vec<u8> = (0..n).map(|_| self.rng.below(256) as u8).collect();
                    data.splice(at..at, bytes);
                }
                // Splice with another corpus entry (crossover).
                5 => {
                    let other = corpus[self.rng.below(corpus.len() as u64) as usize];
                    let cut = self.rng.below(data.len() as u64 + 1) as usize;
                    let other_cut = self.rng.below(other.len() as u64 + 1) as usize;
                    data.truncate(cut);
                    data.extend_from_slice(&other[other_cut.min(other.len())..]);
                }
                // ASCII digit blast (overflow hunting: long runs of '9').
                6 => {
                    let at = self.rng.below(data.len() as u64 + 1) as usize;
                    let n = 1 + self.rng.below(24) as usize;
                    data.splice(at..at, std::iter::repeat_n(b'9', n));
                }
                // Multi-byte UTF-8 insertion (non-ASCII hunting).
                _ => {
                    let at = self.rng.below(data.len() as u64 + 1) as usize;
                    let snippets: [&[u8]; 4] = [
                        "é".as_bytes(),
                        "٠٥".as_bytes(),
                        "\u{202e}".as_bytes(),
                        &[0xC3, 0x28], // invalid UTF-8 pair
                    ];
                    let s = snippets[self.rng.below(4) as usize];
                    data.splice(at..at, s.iter().copied());
                }
            }
        }
    }

    /// Runs `target` over `cases` mutated inputs derived from `corpus`.
    /// The per-target seed comes from `name` via [`crate::seed_for`], so
    /// every run (local or CI) explores the same sequence and a failure
    /// reproduces by name alone. The target receives raw bytes; parsers
    /// over `&str` should go through `String::from_utf8_lossy` (and also
    /// exercise their byte-level entry points where they exist).
    pub fn run(name: &str, corpus: &[&[u8]], cases: u32, mut target: impl FnMut(&[u8])) {
        let mut mutator = ByteMutator::new(crate::seed_for(name));
        // The unmutated corpus always runs first: regressions on the seed
        // inputs themselves are the cheapest to catch.
        for input in corpus {
            target(input);
        }
        for _ in 0..cases {
            let data = mutator.mutate(corpus);
            target(&data);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mutation_stream_is_deterministic_per_name() {
            let corpus: &[&[u8]] = &[b"bytes=0-1023", b"GET / HTTP/1.1\r\n\r\n"];
            let collect = |name: &str| {
                let mut seen = Vec::new();
                run(name, corpus, 50, |data| seen.push(data.to_vec()));
                seen
            };
            assert_eq!(collect("target-a"), collect("target-a"));
            assert_ne!(collect("target-a"), collect("target-b"));
        }

        #[test]
        fn mutations_actually_diverge_from_the_corpus() {
            let corpus: &[&[u8]] = &[b"bytes 0-1023/4096"];
            let mut mutated = 0usize;
            run("divergence", corpus, 100, |data| {
                if data != corpus[0] {
                    mutated += 1;
                }
            });
            assert!(mutated > 80, "only {mutated}/100 inputs were mutated");
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced access to the crate modules, mirroring
    /// `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Derives a stable 64-bit seed from a test's module path and name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The property-test macro. Mirrors `proptest::proptest!` for the subset
/// used in this workspace: an optional `#![proptest_config(..)]` header and
/// one or more `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            #[allow(unused_imports)]
            use $crate::strategy::Strategy as _;
            let config: $crate::test_runner::Config = $cfg;
            let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = $crate::test_runner::TestRng::new(seed);
            for case in 0..config.cases {
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|rng: &mut $crate::test_runner::TestRng| {
                        $(let $arg = $crate::strategy::Strategy::sample(&$strat, rng);)+
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })(&mut rng);
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest case {}/{} failed (seed {:#x}): {}",
                        case + 1, config.cases, seed, e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports a failing property instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{:?}` == `{:?}`", a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// `assert_ne!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: `{:?}` != `{:?}`", a, b);
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::union(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn string_patterns_match_shapes() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let s = crate::string::sample_pattern("[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.chars().count()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));

            let s = crate::string::sample_pattern("[0-9A-F]{10,60}", &mut rng);
            assert!((10..=60).contains(&s.chars().count()));
            assert!(s
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_lowercase()));

            let s = crate::string::sample_pattern("\\PC*", &mut rng);
            assert!(s.chars().count() <= 32);

            let s = crate::string::sample_pattern("[a-zA-Z0-9 \\-_.]{1,40}", &mut rng);
            assert!((1..=40).contains(&s.chars().count()));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(3);
        use crate::strategy::Strategy;
        for _ in 0..1000 {
            let v = (5u64..10).sample(&mut rng);
            assert!((5..10).contains(&v));
            let f = (1.0f64..2.0).sample(&mut rng);
            assert!((1.0..2.0).contains(&f));
            let (a, b) = (0usize..2, 1.0e5f64..1.0e9).sample(&mut rng);
            assert!(a < 2);
            assert!((1.0e5..1.0e9).contains(&b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 })]

        #[test]
        fn macro_plumbing_works(
            x in 0u64..100,
            flag in any::<bool>(),
            v in prop::collection::vec(0u8..10, 1..5),
            k in prop::sample::select(vec![1u8, 2, 3]),
        ) {
            prop_assert!(x < 100);
            prop_assert!(flag == flag);
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert_ne!(k, 0);
            prop_assert_eq!(u64::from(k).saturating_sub(3), 0u64);
        }
    }
}
