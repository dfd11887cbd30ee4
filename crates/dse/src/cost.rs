//! CAPEX/OPEX cost-efficiency model (Figure 12).
//!
//! Following the paper (which follows E3 and ASIC Clouds):
//!
//! ```text
//! cost efficiency = throughput x T / (CAPEX + OPEX)
//! ```
//!
//! CAPEX is the purchase price of the processing units, server share, storage
//! and networking. OPEX is the electricity (including cooling overhead) over
//! the ownership period at a utilisation rate. The paper uses a three-year
//! period, 30 % utilisation and the 2023 average U.S. industrial electricity
//! rate of $0.0975/kWh.

use dscs_simcore::quantity::{AreaMm2, Dollars, Watts};

/// Ownership-period parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParameters {
    /// Ownership period in years.
    pub years: f64,
    /// Average utilisation over the period.
    pub utilization: f64,
    /// Electricity price in dollars per kWh.
    pub dollars_per_kwh: f64,
    /// Power usage effectiveness (cooling and distribution overhead).
    pub pue: f64,
}

impl Default for CostParameters {
    fn default() -> Self {
        CostParameters {
            years: 3.0,
            utilization: 0.30,
            dollars_per_kwh: 0.0975,
            pue: 1.5,
        }
    }
}

impl CostParameters {
    /// Total active-operation seconds over the ownership period.
    pub fn active_seconds(&self) -> f64 {
        self.years * 365.25 * 24.0 * 3600.0 * self.utilization
    }

    /// Electricity cost of drawing `power` whenever active over the period.
    pub fn opex(&self, power: Watts) -> Dollars {
        let kwh = power.as_f64() * self.pue * self.active_seconds() / 3600.0 / 1000.0;
        Dollars::new(kwh * self.dollars_per_kwh)
    }

    /// Cost efficiency: total requests served over the period divided by the
    /// total cost of ownership.
    ///
    /// # Panics
    /// Panics if throughput is not positive and finite.
    pub fn cost_efficiency(&self, throughput_rps: f64, power: Watts, capex: Dollars) -> f64 {
        assert!(
            throughput_rps > 0.0 && throughput_rps.is_finite(),
            "throughput must be positive"
        );
        let total_requests = throughput_rps * self.active_seconds();
        let total_cost = capex + self.opex(power);
        total_requests / total_cost.as_f64()
    }
}

/// ASIC fabrication cost estimate in the style of ASIC Clouds: wafer cost
/// amortised over dies (with yield) plus packaging/test, plus an NRE share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsicCostModel {
    /// Cost of one processed 300 mm wafer in dollars.
    pub wafer_cost: Dollars,
    /// Usable wafer area in mm².
    pub wafer_area_mm2: f64,
    /// Die yield (fraction of good dies).
    pub yield_fraction: f64,
    /// Packaging, test and margin per good die.
    pub package_and_test: Dollars,
    /// Non-recurring engineering cost amortised over the production volume.
    pub nre: Dollars,
    /// Production volume the NRE is spread over.
    pub volume: f64,
}

impl Default for AsicCostModel {
    fn default() -> Self {
        AsicCostModel {
            wafer_cost: Dollars::new(4_000.0),
            wafer_area_mm2: 70_000.0,
            yield_fraction: 0.85,
            package_and_test: Dollars::new(18.0),
            nre: Dollars::new(6_000_000.0),
            volume: 100_000.0,
        }
    }
}

impl AsicCostModel {
    /// Estimated unit cost of a die of the given area.
    ///
    /// # Panics
    /// Panics if the area is zero.
    pub fn die_cost(&self, area: AreaMm2) -> Dollars {
        assert!(area.as_f64() > 0.0, "die area must be positive");
        let dies_per_wafer = (self.wafer_area_mm2 / area.as_f64()).floor().max(1.0);
        let silicon = self.wafer_cost.as_f64() / (dies_per_wafer * self.yield_fraction);
        let nre_share = self.nre.as_f64() / self.volume;
        Dollars::new(silicon) + self.package_and_test + Dollars::new(nre_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_seconds_reflect_utilisation() {
        let p = CostParameters::default();
        let expected = 3.0 * 365.25 * 24.0 * 3600.0 * 0.30;
        assert!((p.active_seconds() - expected).abs() < 1.0);
    }

    #[test]
    fn opex_matches_hand_calculation() {
        let p = CostParameters {
            years: 1.0,
            utilization: 1.0,
            dollars_per_kwh: 0.10,
            pue: 1.0,
        };
        // 1 kW for one year = 8766 kWh (365.25 days) -> $876.6.
        let opex = p.opex(Watts::new(1000.0));
        assert!((opex.as_f64() - 876.6).abs() < 1.0, "opex {opex}");
    }

    #[test]
    fn low_power_improves_cost_efficiency_over_time() {
        let p = CostParameters::default();
        // Same throughput and CAPEX, different power.
        let efficient = p.cost_efficiency(10.0, Watts::new(10.0), Dollars::new(1000.0));
        let hungry = p.cost_efficiency(10.0, Watts::new(250.0), Dollars::new(1000.0));
        assert!(efficient > hungry);
    }

    #[test]
    fn cost_efficiency_scales_with_throughput() {
        let p = CostParameters::default();
        let slow = p.cost_efficiency(1.0, Watts::new(50.0), Dollars::new(2000.0));
        let fast = p.cost_efficiency(4.0, Watts::new(50.0), Dollars::new(2000.0));
        assert!((fast / slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn asic_die_cost_grows_with_area_and_stays_storage_class() {
        let model = AsicCostModel::default();
        let small = model.die_cost(AreaMm2::new(30.0));
        let large = model.die_cost(AreaMm2::new(600.0));
        assert!(large.as_f64() > small.as_f64());
        // A ~30 mm^2 14 nm DSA die should cost tens of dollars, not thousands.
        assert!(small.as_f64() < 150.0, "die cost {small}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throughput_rejected() {
        let _ = CostParameters::default().cost_efficiency(0.0, Watts::new(1.0), Dollars::new(1.0));
    }
}
