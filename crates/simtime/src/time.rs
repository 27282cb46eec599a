//! Picosecond-resolution virtual time.
//!
//! [`SimTime`] is a point on the virtual timeline; [`SimDuration`] is a span
//! between two points. Both wrap a `u64` count of picoseconds, which gives
//! ~213 days of range — far beyond any microbenchmark campaign — while
//! keeping arithmetic exact (no float drift in long accumulation loops).
//!
//! dessan::allow(unwrap-in-sim): overflow panics are the documented arithmetic contract;
//! returning Results would poison every timing expression in the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// A span of virtual time with picosecond resolution.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from an exact picosecond count.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        SimDuration(round_nonneg(ns * PS_PER_NS as f64))
    }

    /// Construct from microseconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_us(us: f64) -> Self {
        SimDuration(round_nonneg(us * PS_PER_US as f64))
    }

    /// Construct from milliseconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        SimDuration(round_nonneg(ms * 1e9))
    }

    /// Construct from seconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        SimDuration(round_nonneg(s * PS_PER_SEC as f64))
    }

    /// The time to move `bytes` at `gib_per_s` **GB/s (decimal, 1e9 B/s)** —
    /// the unit used throughout the paper's tables.
    ///
    /// Returns [`SimDuration::ZERO`] for zero bytes and saturates for
    /// non-positive bandwidth (treated as "instantaneous link" misuse;
    /// callers validate their configs separately).
    #[inline]
    pub fn transfer(bytes: u64, gb_per_s: f64) -> Self {
        if bytes == 0 || gb_per_s <= 0.0 {
            return SimDuration::ZERO;
        }
        // bytes / (GB/s) = ns * (1/GB) => ps = bytes / gb_per_s * 1000
        SimDuration(round_nonneg(bytes as f64 / gb_per_s * 1_000.0))
    }

    /// Exact picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Duration in microseconds — the paper's latency unit.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Achieved bandwidth in GB/s (decimal) when `bytes` move in this time.
    ///
    /// Returns `f64::INFINITY` for a zero duration.
    #[inline]
    pub fn bandwidth_gb_s(self, bytes: u64) -> f64 {
        if self.0 == 0 {
            return f64::INFINITY;
        }
        bytes as f64 * 1_000.0 / self.0 as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// True if this is the zero duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division into `n` equal parts (floor).
    #[inline]
    pub fn div_exact(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n.max(1))
    }
}

/// 2^63, the first `f64` an `i64` cannot hold.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `x` rounded half away from zero to a picosecond count: 0 for
/// non-positive `x` and NaN, `u64::MAX` from 2^64 up. Equal to
/// `x.round() as u64` for positive `x`, without the `round` libcall: below
/// 2^63 the `i64` truncation `t` is one instruction, and `x - t` is exact
/// (Sterbenz: `t` is 0 or within a factor of two of `x`), so the fraction
/// test decides the tie exactly. From 2^52 up every `f64` is an integer.
#[inline]
pub(crate) fn round_nonneg(x: f64) -> u64 {
    if x > 0.0 && x < TWO_POW_63 {
        let t = x as i64;
        t as u64 + u64::from(x - t as f64 >= 0.5)
    } else if x >= TWO_POW_63 {
        // Integral here; `as` saturates at `u64::MAX`.
        x as u64
    } else {
        0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        SimDuration(round_nonneg(self.0 as f64 * rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> Self {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Exact: the `Display` text where it names the duration to the
/// picosecond, else `{ps}ps`. Spec and campaign digests hash `Debug`
/// text, so two durations must never share it.
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `Display` prints ps and ns exactly below 1 µs, ns resolution
        // below 1 ms and µs resolution above.
        let ps = self.0;
        let exact = if ps < PS_PER_US {
            true
        } else if ps < PS_PER_SEC / 1000 {
            ps % PS_PER_NS == 0
        } else {
            ps % PS_PER_US == 0
        };
        if exact {
            fmt::Display::fmt(self, f)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < PS_PER_NS {
            write!(f, "{}ps", ps)
        } else if ps < PS_PER_US {
            // dessan::allow(unit-extract): Display picks a human-readable unit.
            write!(f, "{:.3}ns", self.as_ns())
        } else if ps < PS_PER_SEC / 1000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            // dessan::allow(unit-extract): Display picks a human-readable unit.
            write!(f, "{:.6}s", self.as_secs())
        }
    }
}

/// A point on the virtual timeline (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a picosecond count since the epoch.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is after self"),
        )
    }

    /// Elapsed duration since `earlier`, zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.as_ps()).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_us(1.0).as_ps(), PS_PER_US);
        assert_eq!(SimDuration::from_ns(1.0).as_ps(), PS_PER_NS);
        assert_eq!(SimDuration::from_secs(1.0).as_ps(), PS_PER_SEC);
        assert_eq!(SimDuration::from_ms(1.0).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_us(2.5).as_us(), 2.5);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        assert_eq!(SimDuration::from_us(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns(-0.001), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 1 GB at 1 GB/s = 1 s
        let d = SimDuration::transfer(1_000_000_000, 1.0);
        assert_eq!(d, SimDuration::from_secs(1.0));
        // 128 B at 25 GB/s = 5.12 ns
        let d = SimDuration::transfer(128, 25.0);
        assert_eq!(d, SimDuration::from_ps(5_120));
    }

    #[test]
    fn transfer_zero_cases() {
        assert_eq!(SimDuration::transfer(0, 10.0), SimDuration::ZERO);
        assert_eq!(SimDuration::transfer(100, 0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::transfer(100, -3.0), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_inverts_transfer() {
        let bytes = 1 << 30;
        let d = SimDuration::transfer(bytes, 900.0);
        let bw = d.bandwidth_gb_s(bytes);
        assert!((bw - 900.0).abs() / 900.0 < 1e-6, "bw={bw}");
    }

    #[test]
    fn bandwidth_of_zero_duration_is_infinite() {
        assert!(SimDuration::ZERO.bandwidth_gb_s(128).is_infinite());
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_ps(100);
        let b = SimDuration::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!((a / 4).as_ps(), 25);
        assert_eq!((a * 0.5).as_ps(), 50);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimDuration::from_ps(1) - SimDuration::from_ps(2);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_us(10.0);
        assert_eq!(t1.since(t0).as_us(), 10.0);
        assert_eq!((t1 - t0).as_us(), 10.0);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn sum_folds() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ps).sum();
        assert_eq!(total.as_ps(), 10);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::ZERO), "0s");
        assert_eq!(format!("{}", SimDuration::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimDuration::from_ns(3.0)), "3.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(7.5)), "7.500us");
    }

    /// The picosecond count a `Debug` text names.
    fn parse_debug(text: &str) -> u64 {
        let scaled = |num: &str, unit: u64, decimals: u32| {
            let (int, frac) = num.split_once('.').expect("fixed decimals");
            assert_eq!(frac.len(), decimals as usize, "{text}");
            let frac_unit = unit / 10u64.pow(decimals);
            int.parse::<u64>().unwrap() * unit + frac.parse::<u64>().unwrap() * frac_unit
        };
        if text == "0s" {
            0
        } else if let Some(n) = text.strip_suffix("ps") {
            n.parse().unwrap()
        } else if let Some(n) = text.strip_suffix("ns") {
            scaled(n, PS_PER_NS, 3)
        } else if let Some(n) = text.strip_suffix("us") {
            scaled(n, PS_PER_US, 3)
        } else {
            scaled(text.strip_suffix('s').unwrap(), PS_PER_SEC, 6)
        }
    }

    #[test]
    fn debug_is_display_when_exact_and_picoseconds_otherwise() {
        for (ps, text) in [
            (0, "0s"),
            (5, "5ps"),
            (999_999, "999.999ns"),
            (1_000_000, "1.000us"),
            (7_500_000, "7.500us"),
            (1_000_100, "1000100ps"),
            (1_000_400, "1000400ps"),
            (999_999_000, "999.999us"),
            (1_000_000_000, "0.001000s"),
            (1_000_000_001, "1000000001ps"),
            (1_500_000_000_000, "1.500000s"),
        ] {
            assert_eq!(format!("{:?}", SimDuration::from_ps(ps)), text);
        }
        // The override values whose ns-resolution text once collided.
        assert_ne!(
            format!("{:?}", SimDuration::from_us(1.0001)),
            format!("{:?}", SimDuration::from_us(1.0004))
        );
    }

    /// The rounding `round_nonneg` replaces: the `round` libcall, with
    /// `as`'s saturation at `u64::MAX` and NaN to 0.
    fn libm_round(x: f64) -> u64 {
        if x <= 0.0 {
            0
        } else {
            x.round() as u64
        }
    }

    #[test]
    fn rounding_matches_libm_round_on_named_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -0.5,
            -1.0,
            two(52) - 0.5,
            two(52) + 0.5,
            two(52) + 1.0,
            two(53) - 1.0,
            two(53) + 1.0,
            two(53) + 2.0,
            two(63) - 1024.0,
            two(63),
            two(63) + 2048.0,
            two(64) - 4096.0,
            two(64),
            two(65),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
        ];
        // Every tie and its neighbours in the range where ties exist.
        for k in [0u64, 1, 2, 3, 1 << 20, (1 << 51) - 1, 1 << 51] {
            let tie = k as f64 + 0.5;
            edges.extend([
                tie,
                f64::from_bits(tie.to_bits() - 1),
                f64::from_bits(tie.to_bits() + 1),
            ]);
        }
        for x in edges {
            assert_eq!(round_nonneg(x), libm_round(x), "{x:e} ({:#x})", x.to_bits());
        }
        assert_eq!(round_nonneg(two(64)), u64::MAX);
        assert_eq!(round_nonneg(two(63)), 1 << 63);
        assert_eq!(
            round_nonneg(2.5),
            3,
            "ties round away from zero, not to even"
        );
    }

    proptest::proptest! {
        #[test]
        fn rounding_matches_libm_round_on_random_bits(bits in proptest::prelude::any::<u64>()) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_nonneg(x), libm_round(x), "{:e}", x);
        }

        #[test]
        fn rounding_matches_libm_round_near_ties(k in 0u64..1 << 53, half in 0u8..3) {
            // k/2 is a tie when k is odd and below 2^52; step one ulp off it.
            let tie = k as f64 / 2.0;
            let x = match half {
                0 => tie,
                1 => f64::from_bits(tie.to_bits().saturating_sub(1)),
                _ => f64::from_bits(tie.to_bits() + 1),
            };
            proptest::prop_assert_eq!(round_nonneg(x), libm_round(x), "{:e}", x);
        }

        #[test]
        fn transfer_and_scaling_round_as_libm(
            bytes in 1u64..1 << 40,
            gb_per_s in 1e-3f64..1e4,
            ps in proptest::prelude::any::<u64>(),
            factor in 0.0f64..4.0,
        ) {
            proptest::prop_assert_eq!(
                SimDuration::transfer(bytes, gb_per_s).as_ps(),
                libm_round(bytes as f64 / gb_per_s * 1_000.0)
            );
            proptest::prop_assert_eq!(
                (SimDuration::from_ps(ps) * factor).as_ps(),
                libm_round(ps as f64 * factor)
            );
            proptest::prop_assert_eq!(
                (SimDuration::from_ps(ps >> 24) * factor).as_ps(),
                libm_round((ps >> 24) as f64 * factor)
            );
        }

        #[test]
        fn debug_text_names_the_exact_duration(ps in 0u64..u64::MAX / 2) {
            proptest::prop_assert_eq!(parse_debug(&format!("{:?}", SimDuration::from_ps(ps))), ps);
        }

        #[test]
        fn debug_text_of_round_durations_is_exact(us in 0u64..1 << 40) {
            let d = SimDuration::from_ps(us * PS_PER_US);
            proptest::prop_assert_eq!(parse_debug(&format!("{d:?}")), d.as_ps());
        }
    }
}
