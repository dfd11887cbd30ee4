//! Technology-node scaling.
//!
//! The paper synthesizes the DSA with the open FreePDK 45 nm library and then
//! scales power and area to 14 nm (the SmartSSD-class node) following the
//! DeepScaleTool methodology. We capture that as a pair of multiplicative
//! factors applied to the 45 nm component models; the published DeepScaleTool
//! ratios for 45 nm → 14 nm are roughly 7.5x area density and 5-6x switching
//! energy improvement, with leakage improving a little less.

/// Multiplicative factors relative to the 45 nm baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingFactors {
    /// Dynamic (switching) energy multiplier.
    pub dynamic_energy: f64,
    /// Leakage power multiplier.
    pub leakage_power: f64,
    /// Area multiplier.
    pub area: f64,
}

impl ScalingFactors {
    /// No scaling (stay at 45 nm).
    pub fn identity() -> Self {
        ScalingFactors {
            dynamic_energy: 1.0,
            leakage_power: 1.0,
            area: 1.0,
        }
    }

    /// DeepScaleTool-style factors for 45 nm → 14 nm.
    pub fn nm45_to_nm14() -> Self {
        ScalingFactors {
            dynamic_energy: 0.18,
            leakage_power: 0.30,
            area: 0.133,
        }
    }

    /// Validates that all factors are positive and finite.
    pub fn is_valid(&self) -> bool {
        [self.dynamic_energy, self.leakage_power, self.area]
            .iter()
            .all(|f| *f > 0.0 && f.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_one() {
        let s = ScalingFactors::identity();
        assert_eq!(s.dynamic_energy, 1.0);
        assert_eq!(s.leakage_power, 1.0);
        assert_eq!(s.area, 1.0);
        assert!(s.is_valid());
    }

    #[test]
    fn scaled_node_improves_everything() {
        let s = ScalingFactors::nm45_to_nm14();
        assert!(s.dynamic_energy < 1.0);
        assert!(s.leakage_power < 1.0);
        assert!(s.area < 1.0);
        assert!(s.is_valid());
    }

    #[test]
    fn dynamic_energy_improves_more_than_leakage() {
        let s = ScalingFactors::nm45_to_nm14();
        assert!(s.dynamic_energy < s.leakage_power);
    }
}
