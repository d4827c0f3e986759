//! Simulated time.
//!
//! All simulation timestamps are integer **microseconds** since the start of
//! the simulation. Integer time keeps the event queue total-ordered without
//! floating-point drift; fractional quantities (rates, positions inside a
//! round) only ever exist transiently inside model code.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// `x.round() as u64` for any `x`, without the libm call `f64::round` is on
/// baseline x86-64 (no `roundsd` before SSE4.1) and, below 2^52, without
/// an f64↔u64 conversion either (each is a multi-instruction sequence
/// there).
///
/// Below 2^52, `x + 2^52` has ulp 1: the add rounds `x` to the nearest
/// integer, ties to even, and leaves that integer in the sum's low bits
/// (a carry into 2^53 bumps the exponent field, which reads as the same
/// integer). `x − nearest` is exact, and half-away-from-zero differs from
/// ties-to-even only where a tie went down, i.e. where it is exactly 0.5.
///
/// Elsewhere `t = x as u64` truncates and saturates (negative and NaN to
/// 0): from 2^52 up `x` is integral, so `x − t` is 0, or positive only
/// when `t` saturated, where the add saturates too.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const TWO52: f64 = 4_503_599_627_370_496.0;
    if (0.0..TWO52).contains(&x) {
        let shifted = x + TWO52;
        let nearest = shifted - TWO52;
        (shifted.to_bits() - TWO52.to_bits()) + u64::from(x - nearest == 0.5)
    } else {
        let t = x as u64;
        t.saturating_add(u64::from(x - t as f64 >= 0.5))
    }
}

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Builds an instant from fractional seconds (rounding to the nearest
    /// microsecond, saturating at zero for negative input).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime(0);
        }
        SimTime(round_to_u64(s * MICROS_PER_SEC as f64))
    }

    /// This instant as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (stays at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a span from fractional seconds (rounded to the nearest
    /// microsecond, saturating at zero for negative input).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_to_u64(s * MICROS_PER_SEC as f64))
    }

    /// The span as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span as whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating difference between spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a non-negative float, rounding to microseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "negative duration scale");
        SimDuration(round_to_u64(self.0 as f64 * k))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1e-3 {
            write!(f, "{:.0}us", self.0)
        } else if s < 1.0 {
            write!(f, "{:.1}ms", s * 1e3)
        } else {
            write!(f, "{s:.2}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn float_roundtrip_is_microsecond_exact() {
        let t = SimTime::from_secs_f64(1.234_567);
        assert_eq!(t.as_micros(), 1_234_567);
        assert!((t.as_secs_f64() - 1.234_567).abs() < 1e-9);
    }

    #[test]
    fn negative_float_saturates_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_secs(1);
        let d = SimDuration::from_millis(250);
        let t1 = t0 + d;
        assert_eq!(t1.as_micros(), 1_250_000);
        assert_eq!(t1 - t0, d);
        assert_eq!((t1 - d), t0);
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) / 4, SimDuration::from_millis(250));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_millis(10);
        let db = SimDuration::from_millis(20);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.mul_f64(1.5).as_micros(), 15);
        assert_eq!(d.mul_f64(0.0).as_micros(), 0);
    }

    #[test]
    fn libm_free_rounding_equals_round_as_u64() {
        let check = |x: f64| {
            assert_eq!(round_to_u64(x), x.round() as u64, "x={x:e}");
        };
        let two52 = (1u64 << 52) as f64;
        let two64 = two52 * 4096.0;
        for x in [0.0, 0.5, 1.0, two52, two52 + 1.0, 2.0 * two52 + 2.0, 1e19] {
            check(x);
        }
        for x in [two64, 2.0 * two64, f64::MAX, f64::INFINITY, f64::NAN] {
            check(x);
        }
        for x in [
            two52 - 0.5,
            two52 - 1.0,
            two52 - 1.5,
            -0.0,
            -0.4,
            -0.5,
            -2.5,
            -1e300,
        ] {
            check(x);
        }
        let mut rng = crate::rng::Prng::new(0x7153);
        for _ in 0..200_000 {
            // A random mantissa at every binade from 2^-20 to past 2^64,
            // the µs range rounds live in, and the ties: n + 0.5 and its
            // two neighbours, for n up to 2^51.
            check(f64::from_bits(
                ((1003 + rng.below(91)) << 52) | (rng.next_u64() >> 12),
            ));
            check(rng.f64() * 1e7);
            let tie = (rng.next_u64() >> rng.range(13, 64)) as f64 + 0.5;
            check(tie);
            check(f64::from_bits(tie.to_bits() - 1));
            check(f64::from_bits(tie.to_bits() + 1));
        }
        // The three callers route through it.
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5).as_micros(), 2); // 1.5 rounds away from zero
        assert_eq!(SimDuration::from_secs_f64(2.5e-6).as_micros(), 3);
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SimDuration::from_micros(500)), "500us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.0ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(3.5)), "3.50s");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.5)), "1.500s");
    }
}
