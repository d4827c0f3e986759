//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the simulation draws from a [`Prng`], a
//! PCG-XSH-RR 64/32 generator. Generators are *splittable*: [`Prng::fork`]
//! derives an independent child stream, so each link / process / session gets
//! its own stream and adding a new consumer never perturbs existing ones.
//! Hand-rolling ~60 lines of PCG (instead of depending on a `rand` version)
//! pins the byte-exact figure outputs to this repository forever.
//!
//! Deviate transforms (Box–Muller, exponential inversion, Pareto
//! inversion) evaluate their transcendentals through [`crate::vmath`]
//! rather than libm, for two reasons: the polynomial kernels are
//! straight-line code the block fills can vectorise, and they are pure
//! IEEE-754 arithmetic — so the deviate streams are bit-identical across
//! platforms instead of depending on the host libm.

use crate::vmath;

/// Generation counter of the sanctioned deviate-stream definition.
///
/// Epoch 1 was the original scalar libm-backed streams; epoch 2 the
/// vectorized sampling engine (draw tables + [`crate::vmath`] kernels),
/// still one OU step and one loss Bernoulli per TCP round; epoch 3 puts
/// the rate process on its own time grid and draws loss by gap (see
/// [`crate::process::Ou`] and `msim_net::link`).
/// Benchmark artifacts stamp this value so a trend report can flag
/// numbers recorded against a superseded stream definition — cross-epoch
/// session digests are *expected* to differ, and comparing them is a
/// category error, not a regression.
pub const STREAM_EPOCH: u32 = 3;

/// Splittable deterministic PRNG (PCG-XSH-RR 64/32).
#[derive(Clone, Debug)]
pub struct Prng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

/// Unit-scale Pareto deviate from a `(0, 1]` uniform: `u^(−1/α)` computed
/// as `exp(−ln(u)/α)`. The argument clamp keeps a pathological
/// `u = f64::MIN_POSITIVE` inside [`vmath::exp`]'s contract range; e^700
/// is astronomically past every burst cap, so the clamp is unobservable.
/// Shared by the block fill and the scalar-reference refill so both produce
/// the same bits from the same uniform.
#[inline]
fn pareto_unit_from(u: f64, inv_alpha: f64) -> f64 {
    vmath::exp((-inv_alpha * vmath::ln(u)).min(700.0))
}

/// The XSH-RR output permutation of one LCG state.
#[inline]
fn pcg_output(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    xorshifted.rotate_right((state >> 59) as u32)
}

/// SplitMix64 finaliser, used to derive well-distributed seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        let state = splitmix64(seed);
        let inc = splitmix64(seed.wrapping_add(0xDEAD_BEEF_CAFE_F00D)) | 1;
        let mut rng = Prng { state: 0, inc };
        rng.state = state.wrapping_add(inc);
        rng.next_u32();
        rng
    }

    /// Derives an independent child generator. The parent advances by one
    /// draw, so repeated forks yield distinct streams.
    pub fn fork(&mut self) -> Prng {
        let seed = self.next_u64();
        Prng::new(seed)
    }

    /// Next 32 uniform random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        pcg_output(old)
    }

    /// Next 64 uniform random bits: two [`Prng::next_u32`] draws, high word
    /// first. The state jumps two LCG steps at once (`s·M² + inc·(M+1)`),
    /// so consecutive calls chain through one multiply, not two; the
    /// second word's state `s·M + inc` hangs off the side of that chain.
    pub fn next_u64(&mut self) -> u64 {
        const MULT_SQ: u64 = PCG_MULT.wrapping_mul(PCG_MULT);
        const MULT_PLUS_1: u64 = PCG_MULT.wrapping_add(1);
        let s0 = self.state;
        let s1 = s0.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        self.state = s0
            .wrapping_mul(MULT_SQ)
            .wrapping_add(self.inc.wrapping_mul(MULT_PLUS_1));
        ((pcg_output(s0) as u64) << 32) | pcg_output(s1) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (n as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64() < p
    }

    /// Standard normal deviate (Box–Muller; one value per call, no caching,
    /// so the stream position is draw-count deterministic). Discards the
    /// second deviate of each pair — the hot paths use [`Prng::normal_pair`]
    /// and the block fills instead; this survives as the scalar reference
    /// for cold paths (process initial states) and the comparator tests.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let (_, cos_th) = vmath::sincos(std::f64::consts::TAU * u2);
        (-2.0 * vmath::ln(u1)).sqrt() * cos_th
    }

    /// Both deviates of one Box–Muller pair: `(r·cosθ, r·sinθ)`. Two uniform
    /// draws produce two independent normals, so block consumers pay one
    /// `ln`/`sqrt` per *pair* instead of per deviate.
    pub fn normal_pair(&mut self) -> (f64, f64) {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * vmath::ln(u1)).sqrt();
        let theta = std::f64::consts::TAU * u2;
        // One fused sincos (not separate sin + cos) in *both* this scalar
        // reference and the block fills: the per-element math stays
        // textually identical between the two modes, which is what makes
        // them bit-identical, and the pair costs one kernel evaluation.
        let (sin_th, cos_th) = vmath::sincos(theta);
        (r * cos_th, r * sin_th)
    }

    /// Fills `out` with standard normal deviates, two per Box–Muller pair.
    /// An odd-length tail consumes a full pair and keeps only the cosine
    /// deviate, so the stream position is always `2·ceil(len/2)` uniforms.
    ///
    /// The fill runs in separate passes over the block (uniform draws, then
    /// the transcendental map) so the compiler can vectorise the `ln`/
    /// `sqrt`/`cos`/`sin` loop; each element's arithmetic is exactly
    /// [`Prng::normal_pair`]'s, so the result is bit-identical to scalar
    /// generation.
    pub fn fill_normals(&mut self, out: &mut [f64]) {
        let (pairs, tail) = out.split_at_mut(out.len() & !1);
        // Pass 1: raw uniforms, interleaved (u1, u2) per pair.
        for slot in pairs.chunks_exact_mut(2) {
            slot[0] = self.f64().max(f64::MIN_POSITIVE);
            slot[1] = self.f64();
        }
        // Pass 2: Box–Muller transform, pairwise in place.
        for slot in pairs.chunks_exact_mut(2) {
            let r = (-2.0 * vmath::ln(slot[0])).sqrt();
            let theta = std::f64::consts::TAU * slot[1];
            let (sin_th, cos_th) = vmath::sincos(theta);
            slot[0] = r * cos_th;
            slot[1] = r * sin_th;
        }
        // Odd tail: one more pair, keeping only the cosine deviate.
        if let Some(v) = tail.first_mut() {
            let (z0, _) = self.normal_pair();
            *v = z0;
        }
    }

    /// Fills `out` with log-normal *multipliers* `exp(mu + sigma·N(0,1))`,
    /// batching the normal generation and the final `exp` pass. With
    /// `mu = −sigma²/2` the multipliers have unit mean — the link RTT
    /// jitter convention.
    pub fn fill_lognormal_mults(&mut self, out: &mut [f64], mu: f64, sigma: f64) {
        self.fill_normals(out);
        for v in out.iter_mut() {
            *v = vmath::exp(mu + sigma * *v);
        }
    }

    /// Fills `out` with unit-mean exponential deviates (`mean = 1`);
    /// callers scale by their mean at use, so one table serves every
    /// holding-time distribution of a process.
    pub fn fill_exponentials_unit(&mut self, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        }
        for v in out.iter_mut() {
            *v = -vmath::ln(*v);
        }
    }

    /// Fills `out` with unit-scale Pareto deviates (`x_min = 1`) of the
    /// given shape; callers scale by `x_min` at use.
    pub fn fill_paretos_unit(&mut self, out: &mut [f64], alpha: f64) {
        debug_assert!(alpha > 0.0);
        let inv_alpha = 1.0 / alpha;
        for v in out.iter_mut() {
            *v = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        }
        for v in out.iter_mut() {
            *v = pareto_unit_from(*v, inv_alpha);
        }
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        vmath::exp(mu + sigma * self.normal())
    }

    /// Exponential deviate with the given mean (`mean = 1/lambda`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * vmath::ln(u)
    }

    /// Refills one [`DrawTable`] block the slow way: element at a time via
    /// the scalar draw functions. This is the frozen reference the block
    /// fills are differentially compared against — see
    /// [`DeviateMode::ScalarRef`].
    fn refill_scalar_ref(&mut self, out: &mut [f64], kind: DrawKind) {
        match kind {
            DrawKind::Normal => {
                for slot in out.chunks_mut(2) {
                    let (z0, z1) = self.normal_pair();
                    slot[0] = z0;
                    if let Some(s) = slot.get_mut(1) {
                        *s = z1;
                    }
                }
            }
            DrawKind::LognormalMult { mu, sigma } => {
                for slot in out.chunks_mut(2) {
                    let (z0, z1) = self.normal_pair();
                    slot[0] = vmath::exp(mu + sigma * z0);
                    if let Some(s) = slot.get_mut(1) {
                        *s = vmath::exp(mu + sigma * z1);
                    }
                }
            }
            DrawKind::ExpUnit => {
                for v in out.iter_mut() {
                    let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
                    *v = -vmath::ln(u);
                }
            }
            DrawKind::ParetoUnit { alpha } => {
                let inv_alpha = 1.0 / alpha;
                for v in out.iter_mut() {
                    let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
                    *v = pareto_unit_from(u, inv_alpha);
                }
            }
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// How a [`DrawTable`] refills its block of deviates.
///
/// Both modes produce bit-identical streams — `Block` amortises the
/// transcendentals across a SIMD-friendly block, `ScalarRef` generates the
/// same values one scalar draw at a time. `ScalarRef` exists purely so the
/// frozen-fingerprint corpus can differentially prove the block math: a
/// whole session run in each mode must digest identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviateMode {
    /// Block-filled tables (the production hot path).
    Block,
    /// Scalar-reference fills, element at a time (comparator path).
    ScalarRef,
}

/// Distribution family a [`DrawTable`] serves. Parameters that scale
/// linearly (exponential mean, Pareto `x_min`) are applied by the caller at
/// use so one table serves every scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DrawKind {
    /// Standard normal `N(0, 1)`.
    Normal,
    /// Log-normal multiplier `exp(mu + sigma·N(0,1))` — the `exp` is paid
    /// at fill time, so the per-draw cost is an indexed load.
    LognormalMult {
        /// Location parameter of the underlying normal.
        mu: f64,
        /// Scale parameter of the underlying normal.
        sigma: f64,
    },
    /// Unit-mean exponential; scale by the mean at use.
    ExpUnit,
    /// Unit-scale Pareto of the given shape; scale by `x_min` at use.
    ParetoUnit {
        /// Tail exponent (smaller = heavier tail).
        alpha: f64,
    },
}

/// Deviates per [`DrawTable`] refill block once the ramp tops out. Large
/// enough to amortise the fill loop and keep the transcendental passes
/// vectorisable, small enough (512 B) to stay resident in L1 alongside the
/// session's other hot state.
pub const DRAW_BLOCK: usize = 64;

/// First refill block. Refills double from here up to [`DRAW_BLOCK`], so a
/// short-lived table (a prebuffer-only session samples each process only a
/// handful of times) pays for ~8 deviates, while a long-lived one converges
/// to full-block fills. Block sizes must stay even so Box–Muller pairs
/// never straddle a refill boundary — this keeps the deviate stream a pure
/// function of the draw index, independent of the ramp schedule.
const DRAW_BLOCK_MIN: usize = 8;

/// A lazily-filled, draw-index-keyed table of deviates.
///
/// The per-round hot path (`next`) is a bounds-checked indexed load plus a
/// cursor bump; every `DRAW_BLOCK` draws the table refills in one batched
/// pass over the owned [`Prng`] stream. The stream position is a pure
/// function of the draw index, so tables keep the repository's
/// draw-count-deterministic replay property: two consumers that take the
/// same number of draws see the same deviates regardless of when refills
/// happen.
#[derive(Clone, Debug)]
pub struct DrawTable {
    /// Inline deviate storage: no per-table heap allocation, so building a
    /// table per stochastic process per session never touches the
    /// allocator. Only `values[..filled]` holds generated deviates.
    values: [f64; DRAW_BLOCK],
    /// Length of the current block (the valid prefix of `values`).
    filled: u32,
    cursor: u32,
    kind: DrawKind,
    mode: DeviateMode,
    rng: Prng,
}

impl DrawTable {
    /// Creates an empty table; the first `draw()` pays the first fill.
    pub fn new(rng: Prng, kind: DrawKind, mode: DeviateMode) -> Self {
        DrawTable {
            values: [0.0; DRAW_BLOCK],
            filled: 0,
            cursor: 0,
            kind,
            mode,
            rng,
        }
    }

    /// Next deviate from the stream.
    #[inline]
    pub fn draw(&mut self) -> f64 {
        if self.cursor == self.filled {
            self.refill();
        }
        let v = self.values[self.cursor as usize];
        self.cursor += 1;
        v
    }

    #[cold]
    fn refill(&mut self) {
        // Geometric ramp: 8, 16, … up to DRAW_BLOCK. Every size is even,
        // so Box–Muller pairs align with block boundaries and the stream
        // is identical whatever the refill schedule.
        let next_len = if self.filled == 0 {
            DRAW_BLOCK_MIN
        } else {
            (self.filled as usize * 2).min(DRAW_BLOCK)
        };
        self.filled = next_len as u32;
        let block = &mut self.values[..next_len];
        match self.mode {
            DeviateMode::Block => match self.kind {
                DrawKind::Normal => self.rng.fill_normals(block),
                DrawKind::LognormalMult { mu, sigma } => {
                    self.rng.fill_lognormal_mults(block, mu, sigma)
                }
                DrawKind::ExpUnit => self.rng.fill_exponentials_unit(block),
                DrawKind::ParetoUnit { alpha } => self.rng.fill_paretos_unit(block, alpha),
            },
            DeviateMode::ScalarRef => self.rng.refill_scalar_ref(block, self.kind),
        }
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_u64_is_two_next_u32_under_any_interleaving() {
        // `reference` only ever steps 32 bits at a time; `fast` mixes
        // `next_u32`, `next_u64` and `fork` as the script says. Outputs,
        // fork children and the final stream position must all agree.
        fn u64_by_halves(r: &mut Prng) -> u64 {
            ((r.next_u32() as u64) << 32) | r.next_u32() as u64
        }
        let mut script = Prng::new(0xC0FFEE);
        for seed in 0..64 {
            let mut fast = Prng::new(seed);
            let mut reference = Prng::new(seed);
            for step in 0..2_000 {
                match script.below(3) {
                    0 => assert_eq!(fast.next_u32(), reference.next_u32(), "step {step}"),
                    1 => assert_eq!(
                        fast.next_u64(),
                        u64_by_halves(&mut reference),
                        "step {step}"
                    ),
                    _ => {
                        let mut child = fast.fork();
                        let mut child_ref = Prng::new(u64_by_halves(&mut reference));
                        for _ in 0..4 {
                            assert_eq!(child.next_u64(), u64_by_halves(&mut child_ref));
                        }
                    }
                }
            }
            assert_eq!(
                fast.next_u32(),
                reference.next_u32(),
                "seed {seed} end position"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = Prng::new(7);
        let mut parent2 = Prng::new(7);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Child and parent streams do not collide.
        let mut p = Prng::new(7);
        let mut c = p.fork();
        let collisions = (0..256).filter(|_| p.next_u64() == c.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Prng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = Prng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Prng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut rng = Prng::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Prng::new(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn fill_normals_matches_scalar_pairs_bitwise() {
        let mut block = Prng::new(31);
        let mut scalar = Prng::new(31);
        let mut out = vec![0.0; 257]; // odd length exercises the tail
        block.fill_normals(&mut out);
        for slot in out.chunks(2) {
            let (z0, z1) = scalar.normal_pair();
            assert_eq!(slot[0].to_bits(), z0.to_bits());
            if let Some(&s) = slot.get(1) {
                assert_eq!(s.to_bits(), z1.to_bits());
            }
        }
        // Both consumed the same number of uniforms.
        assert_eq!(block.next_u64(), scalar.next_u64());
    }

    #[test]
    fn normal_pair_first_matches_scalar_normal() {
        let mut a = Prng::new(37);
        let mut b = Prng::new(37);
        let (z0, _) = a.normal_pair();
        assert_eq!(z0.to_bits(), b.normal().to_bits());
    }

    #[test]
    fn draw_table_block_and_scalar_ref_are_bit_identical() {
        for kind in [
            DrawKind::Normal,
            DrawKind::LognormalMult {
                mu: -0.02,
                sigma: 0.2,
            },
            DrawKind::ExpUnit,
            DrawKind::ParetoUnit { alpha: 1.5 },
        ] {
            let mut block = DrawTable::new(Prng::new(41), kind, DeviateMode::Block);
            let mut scalar = DrawTable::new(Prng::new(41), kind, DeviateMode::ScalarRef);
            for i in 0..3 * DRAW_BLOCK + 7 {
                let a = block.draw();
                let b = scalar.draw();
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} draw {i}");
            }
        }
    }

    #[test]
    fn draw_table_normal_moments() {
        // First four moments: a bias in the vmath `ln`/`sincos` kernels
        // (the only place block fills differ from textbook Box–Muller)
        // would surface here as drift in skewness or excess kurtosis long
        // before it is visible in mean/variance.
        let mut t = DrawTable::new(Prng::new(43), DrawKind::Normal, DeviateMode::Block);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| t.draw()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let std = var.sqrt();
        let skew = samples
            .iter()
            .map(|x| ((x - mean) / std).powi(3))
            .sum::<f64>()
            / n as f64;
        let kurt = samples
            .iter()
            .map(|x| ((x - mean) / std).powi(4))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skewness {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn draw_table_lognormal_mult_has_unit_mean() {
        let sigma = 0.25f64;
        let mut t = DrawTable::new(
            Prng::new(47),
            DrawKind::LognormalMult {
                mu: -0.5 * sigma * sigma,
                sigma,
            },
            DeviateMode::Block,
        );
        let n = 100_000;
        let mean = (0..n).map(|_| t.draw()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn draw_table_exp_unit_scales_to_any_mean() {
        let mut t = DrawTable::new(Prng::new(53), DrawKind::ExpUnit, DeviateMode::Block);
        let n = 50_000;
        let mean = (0..n).map(|_| 3.0 * t.draw()).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn draw_table_pareto_unit_respects_scale() {
        let mut t = DrawTable::new(
            Prng::new(59),
            DrawKind::ParetoUnit { alpha: 1.5 },
            DeviateMode::Block,
        );
        for _ in 0..10_000 {
            assert!(2.0 * t.draw() >= 2.0);
        }
    }

    #[test]
    fn choose_uniformity_rough() {
        let mut rng = Prng::new(29);
        let items = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[*rng.choose(&items)] += 1;
        }
        for &c in &counts {
            assert!((1_700..2_300).contains(&c), "counts {counts:?}");
        }
    }
}
