//! Physical quantities used throughout the system models.
//!
//! Newtypes keep watts from being confused with joules and bytes from being
//! confused with bandwidth — the kind of unit mix-up that silently skews an
//! energy-efficiency figure.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;

/// A data size in bytes.
///
/// ```
/// use dscs_simcore::quantity::Bytes;
/// let payload = Bytes::from_mib(4);
/// assert_eq!(payload.as_u64(), 4 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a size from binary kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Creates a size from binary mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a size from binary gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        Bytes(gib * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as a float, for analytical models.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Scales the size by a floating point factor (e.g. a compression ratio).
    pub fn scale(self, factor: f64) -> Bytes {
        Bytes((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(
            self.0
                .checked_sub(rhs.0)
                .expect("Bytes subtraction underflow"),
        )
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Self {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data-transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    pub const fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps >= 0.0 && bps.is_finite(),
            "bandwidth must be non-negative and finite"
        );
        Bandwidth(bps)
    }

    /// Creates a bandwidth from gigabytes (decimal) per second.
    pub const fn from_gbps(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * 1e9)
    }

    /// Creates a bandwidth from megabytes (decimal) per second.
    pub const fn from_mbps(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * 1e6)
    }

    /// Creates a bandwidth from gigabits per second (e.g. network links).
    pub const fn from_gbits_per_sec(gbits: f64) -> Self {
        Self::from_bytes_per_sec(gbits * 1e9 / 8.0)
    }

    /// Bytes per second.
    pub const fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Gigabytes (decimal) per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to transfer `size` at this bandwidth.
    ///
    /// # Panics
    /// Panics if the bandwidth is zero and the size is non-zero.
    pub fn transfer_time(self, size: Bytes) -> SimDuration {
        if size.as_u64() == 0 {
            return SimDuration::ZERO;
        }
        assert!(self.0 > 0.0, "cannot transfer over a zero-bandwidth link");
        SimDuration::from_secs_f64(size.as_f64() / self.0)
    }

    /// Derates the bandwidth by an efficiency in `(0, 1]`.
    pub fn derate(self, efficiency: f64) -> Bandwidth {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1]"
        );
        Bandwidth(self.0 * efficiency)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gbps())
    }
}

/// Power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power value.
    pub fn new(watts: f64) -> Self {
        assert!(
            watts >= 0.0 && watts.is_finite(),
            "power must be non-negative and finite"
        );
        Watts(watts)
    }

    /// The value in watts.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Energy dissipated at this power over `dur`.
    pub fn over(self, dur: SimDuration) -> Joules {
        Joules::new(self.0 * dur.as_secs_f64())
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts::new(self.0 * rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Self {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Creates an energy value.
    pub fn new(joules: f64) -> Self {
        assert!(
            joules >= 0.0 && joules.is_finite(),
            "energy must be non-negative and finite"
        );
        Joules(joules)
    }

    /// The value in joules.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules::new(self.0 * rhs)
    }
}

impl Div<Joules> for Joules {
    type Output = f64;
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Self {
        iter.fold(Joules::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} J", self.0)
    }
}

/// Clock frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from hertz.
    pub fn from_hz(hz: f64) -> Self {
        assert!(
            hz > 0.0 && hz.is_finite(),
            "frequency must be positive and finite"
        );
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self::from_hz(mhz * 1e6)
    }

    /// The value in hertz.
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// The value in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.as_ghz())
    }
}

/// Silicon area in square millimetres.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct AreaMm2(f64);

impl AreaMm2 {
    /// Zero area.
    pub const ZERO: AreaMm2 = AreaMm2(0.0);

    /// Creates an area value.
    pub fn new(mm2: f64) -> Self {
        assert!(
            mm2 >= 0.0 && mm2.is_finite(),
            "area must be non-negative and finite"
        );
        AreaMm2(mm2)
    }

    /// The value in square millimetres.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl Add for AreaMm2 {
    type Output = AreaMm2;
    fn add(self, rhs: AreaMm2) -> AreaMm2 {
        AreaMm2(self.0 + rhs.0)
    }
}

impl AddAssign for AreaMm2 {
    fn add_assign(&mut self, rhs: AreaMm2) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for AreaMm2 {
    type Output = AreaMm2;
    fn mul(self, rhs: f64) -> AreaMm2 {
        AreaMm2::new(self.0 * rhs)
    }
}

impl Sum for AreaMm2 {
    fn sum<I: Iterator<Item = AreaMm2>>(iter: I) -> Self {
        iter.fold(AreaMm2::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for AreaMm2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} mm2", self.0)
    }
}

/// US dollars, used by the CAPEX/OPEX cost-efficiency model.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dollars(f64);

impl Dollars {
    /// Zero dollars.
    pub const ZERO: Dollars = Dollars(0.0);

    /// Creates a dollar amount.
    pub const fn new(usd: f64) -> Self {
        assert!(
            usd >= 0.0 && usd.is_finite(),
            "cost must be non-negative and finite"
        );
        Dollars(usd)
    }

    /// The value in dollars.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl Add for Dollars {
    type Output = Dollars;
    fn add(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 + rhs.0)
    }
}

impl AddAssign for Dollars {
    fn add_assign(&mut self, rhs: Dollars) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Dollars {
    type Output = Dollars;
    fn mul(self, rhs: f64) -> Dollars {
        Dollars::new(self.0 * rhs)
    }
}

impl Sum for Dollars {
    fn sum<I: Iterator<Item = Dollars>>(iter: I) -> Self {
        iter.fold(Dollars::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Dollars {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(1).as_u64(), 1 << 30);
        assert_eq!(format!("{}", Bytes::new(512)), "512 B");
        assert_eq!(format!("{}", Bytes::from_mib(3)), "3.00 MiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let link = Bandwidth::from_gbps(1.0);
        let t = link.transfer_time(Bytes::new(1_000_000_000));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(link.transfer_time(Bytes::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_from_gbits() {
        let link = Bandwidth::from_gbits_per_sec(100.0);
        assert!((link.as_gbps() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn power_energy_relationship() {
        let p = Watts::new(25.0);
        let e = p.over(SimDuration::from_secs(4));
        assert!((e.as_f64() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_scaling() {
        assert_eq!(Bytes::new(100).scale(0.5).as_u64(), 50);
        assert_eq!(Bytes::new(100).scale(2.0).as_u64(), 200);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_rejected() {
        let _ = Watts::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn zero_bandwidth_transfer_panics() {
        let _ = Bandwidth::from_bytes_per_sec(0.0).transfer_time(Bytes::new(1));
    }

    #[test]
    fn sums_work() {
        let total: Bytes = [Bytes::new(1), Bytes::new(2)].into_iter().sum();
        assert_eq!(total.as_u64(), 3);
        let total: Watts = [Watts::new(1.0), Watts::new(2.0)].into_iter().sum();
        assert!((total.as_f64() - 3.0).abs() < 1e-12);
        let total: Dollars = [Dollars::new(1.5), Dollars::new(2.5)].into_iter().sum();
        assert!((total.as_f64() - 4.0).abs() < 1e-12);
    }
}
