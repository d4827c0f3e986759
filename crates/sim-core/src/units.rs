//! Byte-count and bit-rate units.
//!
//! The paper (and the YouTube ecosystem it studies) uses binary kilo/mega
//! bytes for chunk sizes — "64 KB", "256 KB", "1 MB" — and decimal megabits
//! per second for link rates. These newtypes keep the two families apart and
//! render them exactly as the paper prints them.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A byte count. `KB`/`MB` here are binary (1024-based), matching the chunk
/// sizes quoted in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

/// One binary kilobyte.
pub const KB: u64 = 1024;
/// One binary megabyte.
pub const MB: u64 = 1024 * 1024;

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// From a raw byte count.
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// From binary kilobytes.
    pub const fn kb(n: u64) -> Self {
        ByteSize(n * KB)
    }

    /// From binary megabytes.
    pub const fn mb(n: u64) -> Self {
        ByteSize(n * MB)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as f64 (for rate arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// True when zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// The larger of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= MB && b.is_multiple_of(MB) {
            write!(f, "{} MB", b / MB)
        } else if b >= KB && b.is_multiple_of(KB) {
            write!(f, "{} KB", b / KB)
        } else if b >= MB {
            write!(f, "{:.2} MB", b as f64 / MB as f64)
        } else if b >= KB {
            write!(f, "{:.1} KB", b as f64 / KB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A data rate in bits per second (decimal: 1 Mbit/s = 10⁶ bit/s).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitRate(f64);

impl BitRate {
    /// Zero rate.
    pub const ZERO: BitRate = BitRate(0.0);

    /// The largest finite rate. Used as a saturation value where a
    /// measurement degenerates (e.g. a zero-duration transfer) so that
    /// downstream estimator/metrics arithmetic never sees `inf`/NaN.
    pub const MAX: BitRate = BitRate(f64::MAX);

    /// From bits per second.
    pub fn bps(v: f64) -> Self {
        BitRate(v.max(0.0))
    }

    /// Const constructor from bits per second. The caller must pass a
    /// non-negative value (no clamping happens in const context).
    pub const fn bps_const(v: f64) -> Self {
        BitRate(v)
    }

    /// From megabits per second.
    pub fn mbps(v: f64) -> Self {
        Self::bps(v * 1e6)
    }

    /// Bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Bytes delivered over `d` at this rate (rounded down).
    pub fn bytes_over(self, d: SimDuration) -> ByteSize {
        ByteSize::bytes((self.bytes_per_sec() * d.as_secs_f64()).floor() as u64)
    }

    /// The rate that moves `size` in `d`. A zero-duration transfer
    /// saturates to the finite [`BitRate::MAX`] instead of `inf`, so the
    /// result is always safe to feed into estimator and metrics
    /// arithmetic (an `inf` goodput would propagate NaN through EWMA /
    /// harmonic-mean updates).
    pub fn from_transfer(size: ByteSize, d: SimDuration) -> BitRate {
        if d.is_zero() {
            return BitRate::MAX;
        }
        BitRate(size.as_f64() * 8.0 / d.as_secs_f64())
    }
}

impl fmt::Debug for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1e6 {
            write!(f, "{:.2} Mbit/s", bps / 1e6)
        } else if bps >= 1e3 {
            write!(f, "{:.1} kbit/s", bps / 1e3)
        } else {
            write!(f, "{bps:.0} bit/s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::kb(64).as_u64(), 65_536);
        assert_eq!(ByteSize::mb(1).as_u64(), 1_048_576);
        assert_eq!(ByteSize::bytes(10).as_u64(), 10);
    }

    #[test]
    fn byte_size_display_matches_paper() {
        assert_eq!(ByteSize::kb(64).to_string(), "64 KB");
        assert_eq!(ByteSize::kb(256).to_string(), "256 KB");
        assert_eq!(ByteSize::mb(1).to_string(), "1 MB");
        assert_eq!(ByteSize::bytes(512).to_string(), "512 B");
        assert_eq!(ByteSize::bytes(1536).to_string(), "1.5 KB");
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::kb(100);
        let b = ByteSize::kb(40);
        assert_eq!(a + b, ByteSize::kb(140));
        assert_eq!(a - b, ByteSize::kb(60));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn bitrate_conversions() {
        let r = BitRate::mbps(8.0);
        assert_eq!(r.bytes_per_sec(), 1e6);
        assert_eq!(r.as_mbps(), 8.0);
    }

    #[test]
    fn from_transfer_recovers_the_rate() {
        // 2 MB (decimal) in 2 s is 1 MB/s, 8 Mbit/s.
        let r = BitRate::from_transfer(ByteSize::bytes(2_000_000), SimDuration::from_secs(2));
        assert!((r.as_mbps() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_transfer_saturates_finite() {
        // Regression: this used to return `BitRate(inf)`, which poisoned
        // any downstream arithmetic (EWMA updates, harmonic means) with
        // inf/NaN.
        let r = BitRate::from_transfer(ByteSize::mb(1), SimDuration::ZERO);
        assert!(r.as_bps().is_finite(), "zero-duration rate must be finite");
        assert_eq!(r, BitRate::MAX);
        // And it behaves like a number: products/ratios stay non-NaN.
        assert!((r.as_bps() * 0.9).is_finite());
        assert!(!(1.0 / r.as_bps()).is_nan());
        // Normal transfers are untouched.
        let ok = BitRate::from_transfer(ByteSize::mb(1), SimDuration::from_secs(1));
        assert!((ok.as_mbps() - 8.388_608).abs() < 1e-9);
    }

    #[test]
    fn bytes_over_duration() {
        let r = BitRate::mbps(8.0);
        assert_eq!(
            r.bytes_over(SimDuration::from_millis(500)).as_u64(),
            500_000
        );
    }

    #[test]
    fn negative_rate_clamps_to_zero() {
        assert_eq!(BitRate::bps(-5.0).as_bps(), 0.0);
    }

    #[test]
    fn bitrate_display() {
        assert_eq!(BitRate::mbps(2.5).to_string(), "2.50 Mbit/s");
        assert_eq!(BitRate::bps(128e3).to_string(), "128.0 kbit/s");
        assert_eq!(BitRate::bps(100.0).to_string(), "100 bit/s");
    }
}
