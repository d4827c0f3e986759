//! A fixed piece of work that measures how fast the host is right now.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes (neighbours on the same cores and caches) — more than the
//! bounds it is meant to hold. The kernel below is timed around set-up and
//! after every trial; the run's median kernel time over [`REFERENCE_S`] is
//! the run's *host factor*, and every time-based end-to-end metric is divided
//! by it (rates are multiplied). A run on a host that is 20 % slow right now
//! then reads about the same as a run on the quiet host. The raw readings are
//! reported beside the normalised ones.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! repository, so no change to the repository can move it, and every run of
//! it does exactly the same work. Its three parts were chosen by what tracked
//! the session workloads' slow-downs on the 2-core host (README, "Noise"):
//!
//! 1. dependent loads, data-dependent branches and f64 multiply/add/divide
//!    over a table that fits in L1 — how fast the core runs;
//! 2. a dependent-load walk over 1 MiB — how much of L2 the neighbours leave;
//! 3. a small "session": allocate a vector of records, fill it with
//!    estimator-like arithmetic, keep a batch of them, drop them — allocator
//!    and memory-write behaviour.
//!
//! `fleet_fluid` walks tens of MB and its drift follows none of these well, so
//! it is only partly corrected.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the reference host (the 2-core host the
/// baseline was recorded on, when quiet).
pub const REFERENCE_S: f64 = 0.030;

/// Part 1: 4 K entries × 4 B = 16 KiB, inside L1.
const L1_ENTRIES: usize = 1 << 12;
const L1_STEPS: u64 = 4_800_000;
/// Part 2: 256 K entries × 4 B = 1 MiB, past L1, inside L2.
const L2_ENTRIES: usize = 1 << 18;
const L2_STEPS: u64 = 1_200_000;
/// Part 3: batches of sessions, each a vector of records.
const BATCHES: u64 = 4;
const SESSIONS_PER_BATCH: u64 = 150;
const RECORDS_PER_SESSION: u64 = 220;

/// The kernel's tables. They are read-only and every walk starts at the first
/// entry, so every run does exactly the same work.
pub struct Calibrator {
    l1_walk: Vec<u32>,
    l2_walk: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One random cycle through `0..n` (Sattolo's algorithm): `walk[i]` is where
/// the walk goes from `i`, so each load's address depends on the load before.
fn single_cycle(n: usize) -> Vec<u32> {
    let mut walk: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    for i in (1..n).rev() {
        walk.swap(i, (xorshift(&mut x) % i as u64) as usize);
    }
    walk
}

impl Calibrator {
    /// Builds the tables and runs the kernel once to warm them.
    pub fn new() -> Calibrator {
        let mut cal = Calibrator {
            l1_walk: single_cycle(L1_ENTRIES),
            l2_walk: single_cycle(L2_ENTRIES),
        };
        cal.seconds();
        cal
    }

    /// Runs the kernel once and returns its wall seconds.
    pub fn seconds(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.core() + self.cache() + sessions());
        started.elapsed().as_secs_f64()
    }

    fn core(&self) -> f64 {
        let mut i = 0u32;
        let mut acc = 1.0f64;
        for step in 0..L1_STEPS {
            i = self.l1_walk[i as usize];
            let v = i ^ step as u32;
            if v & 3 == 0 {
                acc = acc * 0.999_999 + f64::from(v >> 8);
            } else if v & 4 == 0 {
                acc = acc / 1.000_001 + 1.0;
            } else {
                acc += f64::from(v & 0xff);
            }
        }
        acc
    }

    fn cache(&self) -> f64 {
        let mut i = 0u32;
        for _ in 0..L2_STEPS {
            i = self.l2_walk[i as usize];
        }
        f64::from(i)
    }
}

/// Part 3. A record is six f64, like a chunk record; the arithmetic is a
/// harmonic-mean update with an occasional square root.
fn sessions() -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0.0;
    for _ in 0..BATCHES {
        let batch: Vec<Vec<[f64; 6]>> = (0..SESSIONS_PER_BATCH)
            .map(|session| {
                let mut records = Vec::new();
                let (mut t, mut estimate) = (0.0f64, 1.0f64);
                for chunk in 0..RECORDS_PER_SESSION {
                    let r = (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64;
                    let took = 0.01 + r * 0.05;
                    let rate = (16_384 + chunk) as f64 / took;
                    estimate = 1.0 / (0.9 / estimate + 0.1 / rate);
                    if r > 0.5 {
                        estimate = estimate.sqrt() * 1.000_1;
                    }
                    t += took;
                    records.push([t, took, rate, estimate, r, (session + chunk) as f64]);
                }
                records
            })
            .collect();
        acc += batch.iter().map(|records| records[0][3]).sum::<f64>();
    }
    acc
}

/// The host factor of a run: median kernel time over the reference time.
/// Above 1 means the host was slow.
pub fn host_factor(kernel_s: &[f64]) -> f64 {
    crate::stats::median(kernel_s) / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_run_does_the_same_work() {
        let (a, b) = (Calibrator::new(), Calibrator::new());
        assert_eq!(a.core().to_bits(), b.core().to_bits());
        assert_eq!(a.core().to_bits(), a.core().to_bits());
        assert_eq!(a.cache(), b.cache());
        assert_eq!(sessions().to_bits(), sessions().to_bits());
        assert!(a.core().is_finite() && sessions().is_finite());
    }

    #[test]
    fn walks_visit_every_entry_once_per_cycle() {
        for n in [2, 3, 64, L1_ENTRIES] {
            let walk = single_cycle(n);
            let mut seen = vec![false; n];
            let mut i = 0u32;
            for _ in 0..n {
                assert!(!std::mem::replace(&mut seen[i as usize], true));
                i = walk[i as usize];
            }
            assert_eq!(i, 0, "back at the start after {n} steps");
        }
    }

    #[test]
    fn host_factor_is_relative_to_the_reference() {
        assert_eq!(host_factor(&[REFERENCE_S; 5]), 1.0);
        let slow = [REFERENCE_S * 1.2, REFERENCE_S * 1.3, REFERENCE_S * 1.25];
        assert!((host_factor(&slow) - 1.25).abs() < 1e-12);
    }
}
