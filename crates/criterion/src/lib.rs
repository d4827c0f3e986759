//! Minimal, zero-dependency stand-in for the `criterion` bench harness.
//!
//! The build environment has no network access, so the real criterion
//! cannot be fetched. This crate implements the subset its benches use:
//! [`Criterion::bench_function`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`Bencher::elements`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark warms up briefly, then runs timed
//! batches until the measurement budget is spent, and reports the best
//! (minimum) and median per-iteration time in nanoseconds. Budgets can be
//! tightened for CI smoke runs with `CRITERION_MEASURE_MS` /
//! `CRITERION_WARMUP_MS`.

use std::time::{Duration, Instant};

/// How `iter_batched` amortises setup cost (kept for API compatibility; the
/// shim sizes batches by time, not by this hint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

fn env_ms(key: &str, default_ms: u64) -> Duration {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(default_ms))
}

/// The benchmark driver.
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: env_ms("CRITERION_WARMUP_MS", 100),
            measure: env_ms("CRITERION_MEASURE_MS", 400),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            warmup: self.warmup,
            measure: self.measure,
            elements: 1,
            samples: Vec::new(),
        };
        f(&mut b);
        b.report(id);
        self
    }
}

/// Passed to the benchmark closure; records timing samples.
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    /// Elements one iteration processes; the report is per element.
    elements: u64,
    /// Nanoseconds per iteration, one entry per timed batch.
    samples: Vec<f64>,
}

impl Bencher {
    /// Declares that one iteration of the routine processes `n` elements
    /// (events, bytes, …), so the reported times are per element (the
    /// shim's form of criterion's `Throughput::Elements`).
    pub fn elements(&mut self, n: u64) {
        self.elements = n.max(1);
    }

    /// Times `routine` repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warmup and batch-size calibration.
        let mut iters_per_batch = 1u64;
        let warmup_end = Instant::now() + self.warmup;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters_per_batch {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed();
            if Instant::now() >= warmup_end {
                if dt < Duration::from_micros(200) && iters_per_batch < (1 << 30) {
                    iters_per_batch *= 2;
                    continue;
                }
                break;
            }
            if dt < Duration::from_micros(200) && iters_per_batch < (1 << 30) {
                iters_per_batch *= 2;
            }
        }
        // Measurement.
        let measure_end = Instant::now() + self.measure;
        while Instant::now() < measure_end {
            let t0 = Instant::now();
            for _ in 0..iters_per_batch {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed();
            self.samples
                .push(dt.as_nanos() as f64 / iters_per_batch as f64);
        }
    }

    /// Times `routine` over fresh inputs from `setup` (setup excluded from
    /// the timing).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warmup_end = Instant::now() + self.warmup;
        while Instant::now() < warmup_end {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        let measure_end = Instant::now() + self.measure;
        while Instant::now() < measure_end {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            let dt = t0.elapsed();
            std::hint::black_box(out);
            self.samples.push(dt.as_nanos() as f64);
        }
    }

    fn report(&mut self, id: &str) {
        if self.samples.is_empty() {
            println!("{id:<44} (no samples)");
            return;
        }
        self.samples.sort_by(|a, b| a.total_cmp(b));
        let per_element = self.elements as f64;
        let best = self.samples[0] / per_element;
        let median = self.samples[self.samples.len() / 2] / per_element;
        println!(
            "{id:<44} best {:>12} median {:>12} ({} batches)",
            fmt_ns(best),
            fmt_ns(median),
            self.samples.len()
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Declares a group of benchmark functions (mirrors criterion's macro).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
