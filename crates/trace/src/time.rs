//! Integer time primitives shared by the whole workspace.
//!
//! Everything in this reproduction runs on a virtual clock with microsecond
//! resolution. Microseconds are fine-grained enough to express sub-packet
//! serialization times at the rates the paper studies (an MTU at 11 Mbps
//! lasts ~1 ms) while keeping all arithmetic exact in `u64`.
//!
//! The `from_millis` / `from_secs` constructors are where a number from
//! outside (a flag, a hand-built `Scenario`) becomes microseconds, so
//! they are checked: a count that does not fit panics by name, in debug
//! and release alike, instead of wrapping to a short run. `Add` / `Sub`
//! sit on the per-packet path and stay plain operators — their operands
//! are times the simulation itself produced.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// The paper's packet size: all delivery opportunities are for MTU-sized
/// (1500-byte) packets (§4.1), and accounting inside the emulated link is
/// done per byte against these opportunities (§4.2 footnote 6).
pub const MTU_BYTES: u32 = 1500;

/// Length of one Sprout inference tick: 20 ms (§3.1).
pub const TICK: Duration = Duration::from_millis(20);

/// `count × micros_per` for the named constructor, or its panic.
#[inline]
const fn micros(constructor: &str, count: u64, micros_per: u64) -> u64 {
    match count.checked_mul(micros_per) {
        Some(us) => us,
        None => overflow(constructor, count),
    }
}

/// Panic naming the constructor and the count it was given. The message
/// is assembled by hand because formatting an integer is not a `const`
/// operation.
#[cold]
#[inline(never)]
const fn overflow(constructor: &str, count: u64) -> ! {
    let mut digits = [0u8; 20];
    let (mut first, mut rest) = (digits.len(), count);
    while rest > 0 {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    let parts = [
        constructor.as_bytes(),
        b"(",
        digits.split_at(first).1,
        b"): microseconds overflow u64",
    ];
    let mut msg = [0u8; 96];
    let (mut len, mut p) = (0, 0);
    while p < parts.len() {
        let mut i = 0;
        while i < parts[p].len() {
            msg[len] = parts[p][i];
            len += 1;
            i += 1;
        }
        p += 1;
    }
    match std::str::from_utf8(msg.split_at(len).0) {
        Ok(msg) => panic!("{}", msg),
        Err(_) => panic!("time constructor: microseconds overflow u64"),
    }
}

/// A point in virtual time, in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Timestamp {
    /// The zero timestamp (start of the run).
    pub const ZERO: Timestamp = Timestamp(0);
    /// A timestamp later than any reachable virtual time; useful as the
    /// identity for `min` when searching for the next event.
    pub const FAR_FUTURE: Timestamp = Timestamp(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// Construct from milliseconds. Panics if the microsecond count
    /// overflows a `u64`.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(micros("Timestamp::from_millis", ms, 1_000))
    }

    /// Construct from whole seconds. Panics if the microsecond count
    /// overflows a `u64`.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(micros("Timestamp::from_secs", s, 1_000_000))
    }

    /// Raw microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the start of the run (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// fact later.
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference: `None` when `earlier > self`.
    pub fn checked_since(self, earlier: Timestamp) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from milliseconds. Panics if the microsecond count
    /// overflows a `u64`.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(micros("Duration::from_millis", ms, 1_000))
    }

    /// Construct from whole seconds. Panics if the microsecond count
    /// overflows a `u64`.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(micros("Duration::from_secs", s, 1_000_000))
    }

    /// Construct from fractional seconds (rounds to the nearest µs).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        Duration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds (for math and reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer scale factor.
    pub const fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.1}ms", self.0 as f64 / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Timestamp::from_millis(20).as_micros(), 20_000);
        assert_eq!(Timestamp::from_secs(3).as_millis(), 3_000);
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Duration::from_secs_f64(0.02).as_millis(), 20);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_millis(100);
        let d = Duration::from_millis(40);
        assert_eq!((t + d).as_millis(), 140);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), Duration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
        assert_eq!(t.checked_since(t + d), None);
        assert_eq!((t + d).checked_since(t), Some(d));
    }

    #[test]
    fn tick_is_twenty_ms() {
        assert_eq!(TICK.as_millis(), 20);
    }

    #[test]
    fn duration_ordering_and_scaling() {
        assert!(Duration::from_millis(5) < Duration::from_millis(6));
        assert_eq!(Duration::from_millis(5).mul(8).as_millis(), 40);
        assert_eq!(
            Duration::from_millis(100).saturating_sub(Duration::from_secs(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_millis(15)), "15.0ms");
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Timestamp::from_secs(1)), "1.000s");
    }

    #[test]
    #[should_panic]
    fn negative_float_duration_panics() {
        let _ = Duration::from_secs_f64(-0.5);
    }

    proptest::proptest! {
        #[test]
        fn counts_that_fit_round_trip_through_micros(
            ms in 0u64..u64::MAX / 1_000 + 1,
            s in 0u64..u64::MAX / 1_000_000 + 1,
        ) {
            proptest::prop_assert_eq!(Duration::from_millis(ms).as_micros() / 1_000, ms);
            proptest::prop_assert_eq!(Timestamp::from_millis(ms).as_micros() / 1_000, ms);
            proptest::prop_assert_eq!(Duration::from_secs(s).as_micros() / 1_000_000, s);
            proptest::prop_assert_eq!(Timestamp::from_secs(s).as_micros() / 1_000_000, s);
            proptest::prop_assert_eq!(Duration::from_millis(ms).as_micros() % 1_000, 0);
            proptest::prop_assert_eq!(Timestamp::from_secs(s).as_micros() % 1_000_000, 0);
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce() -> u64 + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic, not wrap");
        let msg = payload.downcast_ref::<String>().cloned();
        msg.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("a string panic message")
    }

    #[test]
    fn constructors_that_would_wrap_panic_by_name() {
        // `cargo test --release` runs this too: `checked_mul`, not the
        // debug-only overflow check, is what refuses.
        let first_bad_ms = u64::MAX / 1_000 + 1;
        let first_bad_s = u64::MAX / 1_000_000 + 1;
        for ms in [first_bad_ms, u64::MAX] {
            assert_eq!(
                panic_of(move || Duration::from_millis(ms).as_micros()),
                format!("Duration::from_millis({ms}): microseconds overflow u64")
            );
            assert_eq!(
                panic_of(move || Timestamp::from_millis(ms).as_micros()),
                format!("Timestamp::from_millis({ms}): microseconds overflow u64")
            );
        }
        for s in [first_bad_s, u64::MAX] {
            assert_eq!(
                panic_of(move || Duration::from_secs(s).as_micros()),
                format!("Duration::from_secs({s}): microseconds overflow u64")
            );
            assert_eq!(
                panic_of(move || Timestamp::from_secs(s).as_micros()),
                format!("Timestamp::from_secs({s}): microseconds overflow u64")
            );
        }
        // The largest counts that fit still construct.
        assert_eq!(
            Duration::from_millis(first_bad_ms - 1).as_micros(),
            (first_bad_ms - 1) * 1_000
        );
        assert_eq!(
            Timestamp::from_secs(first_bad_s - 1).as_micros(),
            (first_bad_s - 1) * 1_000_000
        );
    }
}
