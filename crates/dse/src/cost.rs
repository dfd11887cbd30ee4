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

/// Ownership period in years.
pub const YEARS: f64 = 3.0;
/// Average utilisation over the period.
pub const UTILIZATION: f64 = 0.30;
/// Electricity price in dollars per kWh.
const DOLLARS_PER_KWH: f64 = 0.0975;
/// Power usage effectiveness (cooling and distribution overhead).
const PUE: f64 = 1.5;

/// Total active-operation seconds over the ownership period.
fn active_seconds() -> f64 {
    YEARS * 365.25 * 24.0 * 3600.0 * UTILIZATION
}

/// Electricity cost of drawing `power` whenever active over the period.
fn opex(power: Watts) -> Dollars {
    let kwh = power.as_f64() * PUE * active_seconds() / 3600.0 / 1000.0;
    Dollars::new(kwh * DOLLARS_PER_KWH)
}

/// Cost efficiency: total requests served over the period divided by the
/// total cost of ownership.
///
/// # Panics
/// Panics if throughput is not positive and finite.
pub fn cost_efficiency(throughput_rps: f64, power: Watts, capex: Dollars) -> f64 {
    assert!(
        throughput_rps > 0.0 && throughput_rps.is_finite(),
        "throughput must be positive"
    );
    let total_requests = throughput_rps * active_seconds();
    let total_cost = capex + opex(power);
    total_requests / total_cost.as_f64()
}

// The die-cost estimate follows ASIC Clouds: wafer cost amortised over dies
// (with yield) plus packaging/test, plus an NRE share.

/// Cost of one processed 300 mm wafer.
const WAFER_COST: Dollars = Dollars::new(4_000.0);
/// Usable wafer area in mm².
const WAFER_AREA_MM2: f64 = 70_000.0;
/// Die yield (fraction of good dies).
const YIELD_FRACTION: f64 = 0.85;
/// Packaging, test and margin per good die.
const PACKAGE_AND_TEST: Dollars = Dollars::new(18.0);
/// Non-recurring engineering cost amortised over the production volume.
const NRE: Dollars = Dollars::new(6_000_000.0);
/// Production volume the NRE is spread over.
const VOLUME: f64 = 100_000.0;

/// Estimated unit cost of an ASIC die of the given area.
///
/// # Panics
/// Panics if the area is zero.
pub fn die_cost(area: AreaMm2) -> Dollars {
    assert!(area.as_f64() > 0.0, "die area must be positive");
    let dies_per_wafer = (WAFER_AREA_MM2 / area.as_f64()).floor().max(1.0);
    let silicon = WAFER_COST.as_f64() / (dies_per_wafer * YIELD_FRACTION);
    let nre_share = NRE.as_f64() / VOLUME;
    Dollars::new(silicon) + PACKAGE_AND_TEST + Dollars::new(nre_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_seconds_reflect_utilisation() {
        let expected = 3.0 * 365.25 * 24.0 * 3600.0 * 0.30;
        assert!((active_seconds() - expected).abs() < 1.0);
    }

    #[test]
    fn opex_matches_hand_calculation() {
        // 1 kW x 1.5 PUE for 30 % of three years (7,889.4 h) = 11,834.1 kWh
        // -> $1,153.8 at $0.0975/kWh.
        let cost = opex(Watts::new(1000.0));
        assert!((cost.as_f64() - 1153.8).abs() < 1.0, "opex {cost}");
    }

    #[test]
    fn low_power_improves_cost_efficiency_over_time() {
        // Same throughput and CAPEX, different power.
        let efficient = cost_efficiency(10.0, Watts::new(10.0), Dollars::new(1000.0));
        let hungry = cost_efficiency(10.0, Watts::new(250.0), Dollars::new(1000.0));
        assert!(efficient > hungry);
    }

    #[test]
    fn cost_efficiency_scales_with_throughput() {
        let slow = cost_efficiency(1.0, Watts::new(50.0), Dollars::new(2000.0));
        let fast = cost_efficiency(4.0, Watts::new(50.0), Dollars::new(2000.0));
        assert!((fast / slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn asic_die_cost_grows_with_area_and_stays_storage_class() {
        let small = die_cost(AreaMm2::new(30.0));
        let large = die_cost(AreaMm2::new(600.0));
        assert!(large.as_f64() > small.as_f64());
        // A ~30 mm^2 14 nm DSA die should cost tens of dollars, not thousands.
        assert!(small.as_f64() < 150.0, "die cost {small}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throughput_rejected() {
        let _ = cost_efficiency(0.0, Watts::new(1.0), Dollars::new(1.0));
    }
}
