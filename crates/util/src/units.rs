//! Units and identifiers shared across the workspace.
//!
//! The paper measures contribution in **bytes transferred**, bandwidth in
//! **KBps**, and simulated time in seconds-to-days. We keep all three as
//! explicit newtypes so the simulator cannot accidentally mix, say, a
//! piece index with a byte count.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Identifier of a peer in the network.
///
/// Peer identities in BarterCast are assumed to be permanent,
/// machine-dependent identifiers (§3.5 of the paper); inside the
/// simulator a dense `u32` suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The index form used for dense arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> Self {
        PeerId(v)
    }
}

/// An amount of transferred data, in bytes.
///
/// This is the paper's "total number of bytes transferred from one peer
/// to another" (§3.1) — the capacity unit of the contribution graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from kilobytes (1 KB = 1024 bytes).
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1024)
    }

    /// Construct from megabytes.
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1024 * 1024)
    }

    /// Construct from gigabytes.
    #[inline]
    pub const fn from_gb(gb: u64) -> Self {
        Bytes(gb * 1024 * 1024 * 1024)
    }

    /// Value in (fractional) megabytes.
    #[inline]
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Value in (fractional) gigabytes.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Byte totals saturate at `u64::MAX` instead of overflowing: gossiped
/// records carry untrusted totals, and the §3.2 flow sum over two of
/// them must stay an upper bound, never wrap to a small number.
impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e12 {
            write!(f, "{:.2} TB", b / 1024f64.powi(4) * 1024.0)
        } else if b >= 1024f64.powi(3) {
            write!(f, "{:.2} GB", b / 1024f64.powi(3))
        } else if b >= 1024f64.powi(2) {
            write!(f, "{:.2} MB", b / 1024f64.powi(2))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Bandwidth in bytes per second.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Construct from kilobytes per second (the paper's "KBps").
    #[inline]
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1024)
    }

    /// Construct from megabytes per second (the paper's "MBps").
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1024 * 1024)
    }

    /// Value in kilobytes per second.
    #[inline]
    pub fn as_kbps(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// How many bytes flow in `seconds` at this rate.
    #[inline]
    pub fn over(self, seconds: Seconds) -> Bytes {
        Bytes(self.0 * seconds.0)
    }

    /// Split evenly across `n` slots (integer division; `n == 0` gives 0).
    #[inline]
    pub fn split(self, n: usize) -> Bandwidth {
        if n == 0 {
            Bandwidth(0)
        } else {
            Bandwidth(self.0 / n as u64)
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    #[inline]
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth(0), |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} KBps", self.as_kbps())
    }
}

/// A point or span in simulated time, in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Seconds(pub u64);

impl Seconds {
    /// Zero.
    pub const ZERO: Seconds = Seconds(0);

    /// Construct from minutes.
    #[inline]
    pub const fn from_minutes(m: u64) -> Self {
        Seconds(m * 60)
    }

    /// Construct from hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        Seconds(h * 3600)
    }

    /// Construct from days.
    #[inline]
    pub const fn from_days(d: u64) -> Self {
        Seconds(d * 86_400)
    }

    /// Value in fractional days (the x-axis of the paper's figures).
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Value in fractional hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<u64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: u64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 86_400 {
            write!(f, "{:.2} d", self.as_days())
        } else if self.0 >= 3600 {
            write!(f, "{:.2} h", self.as_hours())
        } else {
            write!(f, "{} s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::from_kb(1), Bytes(1024));
        assert_eq!(Bytes::from_mb(1), Bytes(1024 * 1024));
        assert_eq!(Bytes::from_gb(2), Bytes(2 * 1024 * 1024 * 1024));
    }

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::from_mb(10);
        let b = Bytes::from_mb(4);
        assert_eq!(a + b, Bytes::from_mb(14));
        assert_eq!(a - b, Bytes::from_mb(6));
        assert_eq!(Bytes(u64::MAX) + a, Bytes(u64::MAX));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!((a * 2).0, Bytes::from_mb(20).0);
        assert_eq!((a / 2).0, Bytes::from_mb(5).0);
    }

    #[test]
    fn byte_display_scales() {
        assert_eq!(format!("{}", Bytes(512)), "512 B");
        assert_eq!(format!("{}", Bytes::from_kb(2)), "2.00 KB");
        assert_eq!(format!("{}", Bytes::from_mb(3)), "3.00 MB");
        assert_eq!(format!("{}", Bytes::from_gb(1)), "1.00 GB");
    }

    #[test]
    fn bandwidth_over_time() {
        // The paper's ADSL profile: 512 KBps uplink.
        let up = Bandwidth::from_kbps(512);
        assert_eq!(up.over(Seconds(10)), Bytes::from_kb(5120));
        assert_eq!(up.split(4), Bandwidth::from_kbps(128));
        assert_eq!(up.split(0), Bandwidth(0));
    }

    #[test]
    fn seconds_conversions() {
        assert_eq!(Seconds::from_days(7).0, 604_800);
        assert_eq!(Seconds::from_hours(10).0, 36_000);
        assert!((Seconds::from_days(1).as_days() - 1.0).abs() < 1e-12);
        assert!((Seconds::from_hours(36).as_days() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sums() {
        let total: Bytes = (1..=4).map(Bytes::from_mb).sum();
        assert_eq!(total, Bytes::from_mb(10));
        let bw: Bandwidth = vec![Bandwidth::from_kbps(100); 3].into_iter().sum();
        assert_eq!(bw, Bandwidth::from_kbps(300));
    }

    #[test]
    fn peer_id_display_and_index() {
        let p = PeerId(17);
        assert_eq!(format!("{p}"), "p17");
        assert_eq!(p.index(), 17);
        assert_eq!(PeerId::from(3u32), PeerId(3));
    }
}
