//! Design-point evaluation and Pareto frontiers (Figures 7 and 8).
//!
//! Each configuration is evaluated by compiling a set of representative
//! benchmark models and running them on the DSA cycle simulator; the metric is
//! average throughput (inferences per second), and the costs are the power
//! model's average power and the area model's die area — exactly the axes of
//! the paper's power–performance and area–performance frontiers at 45 nm.

use dscs_compiler::codegen::{compile, CompileOptions};
use dscs_dsa::config::DsaConfig;
use dscs_dsa::executor::Executor;
use dscs_dsa::power::{AreaModel, PowerModel};
use dscs_nn::zoo::{Model, ModelKind};
use dscs_simcore::fit::{polyfit, Polynomial};
use dscs_simcore::pareto::{pareto_frontier, within_budget, ParetoPoint};
use dscs_simcore::stats::arithmetic_mean;

/// The storage drive's power envelope: PCIe-powered drives are capped at 25 W,
/// shared between the flash and the accelerator.
pub const DRIVE_POWER_BUDGET_WATTS: f64 = 25.0;

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// The configuration.
    pub config: DsaConfig,
    /// Average throughput across the evaluation models, in inferences/second.
    pub throughput_ips: f64,
    /// Average power (dynamic + leakage) while running, in watts.
    pub power_watts: f64,
    /// Die area in square millimetres.
    pub area_mm2: f64,
}

/// The default evaluation set: one representative CNN, one transformer encoder
/// and one detector, spanning the benchmark suite's behaviour without paying
/// for all eight models at every one of the 650+ points.
pub fn default_evaluation_models() -> Vec<ModelKind> {
    vec![
        ModelKind::ResNet50,
        ModelKind::BertBase,
        ModelKind::SsdMobileNet,
    ]
}

/// Activity factor used for the provisioning (TDP-style) power estimate: the
/// fraction of the MAC array switching in a sustained design-power scenario.
/// The DSE budgets against provisioned power, not a single workload's average,
/// because the drive's 25 W envelope must hold for the worst case.
const PROVISIONING_ACTIVITY: f64 = 0.30;

/// Evaluates one configuration over a set of models.
pub fn evaluate_config(config: DsaConfig, models: &[ModelKind]) -> DesignPoint {
    assert!(!models.is_empty(), "need at least one evaluation model");
    let executor = Executor::new(config);
    let power = PowerModel::new(config);
    let area = AreaModel::new(config);
    let mut throughputs = Vec::with_capacity(models.len());
    for &kind in models {
        let model = Model::build(kind);
        let program = compile(model.graph(), &config, CompileOptions::default());
        let report = executor.run(&program);
        throughputs.push(1.0 / report.latency().as_secs_f64());
    }
    // Provisioned power: leakage plus the MAC array switching at the
    // provisioning activity factor for one second.
    let peak_ops = config.peak_ops_per_sec() as u64;
    let dynamic = power
        .mpu_energy((peak_ops as f64 * PROVISIONING_ACTIVITY) as u64)
        .as_f64();
    let power_watts = power.leakage_power().as_f64() + dynamic;
    DesignPoint {
        config,
        throughput_ips: arithmetic_mean(&throughputs),
        power_watts,
        area_mm2: area.total().as_f64(),
    }
}

/// Evaluates every configuration in `space`.
pub fn sweep(space: &[DsaConfig], models: &[ModelKind]) -> Vec<DesignPoint> {
    space
        .iter()
        .map(|&config| evaluate_config(config, models))
        .collect()
}

/// The power–performance frontier (Figure 7): minimise power, maximise
/// throughput, considering only points within the drive power budget.
pub fn power_performance_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let candidates: Vec<ParetoPoint<DesignPoint>> = points
        .iter()
        .map(|&p| ParetoPoint::new(p.power_watts, p.throughput_ips, p))
        .collect();
    let feasible = within_budget(candidates, DRIVE_POWER_BUDGET_WATTS);
    pareto_frontier(feasible)
        .into_iter()
        .map(|p| p.tag)
        .collect()
}

/// The area–performance frontier (Figure 8): minimise area, maximise throughput.
pub fn area_performance_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let candidates: Vec<ParetoPoint<DesignPoint>> = points
        .iter()
        .map(|&p| ParetoPoint::new(p.area_mm2, p.throughput_ips, p))
        .collect();
    pareto_frontier(candidates)
        .into_iter()
        .map(|p| p.tag)
        .collect()
}

/// Cubic fit of a frontier, matching the paper's annotated `P(c)` / `A(c)`
/// polynomials (cost as a function of throughput).
///
/// Falls back to the highest degree the point count supports when the frontier
/// has fewer than four points.
pub fn frontier_fit(frontier: &[DesignPoint], cost: impl Fn(&DesignPoint) -> f64) -> Polynomial {
    assert!(
        frontier.len() >= 2,
        "need at least two frontier points to fit"
    );
    let pts: Vec<(f64, f64)> = frontier
        .iter()
        .map(|p| (p.throughput_ips, cost(p)))
        .collect();
    let degree = 3.min(pts.len() - 1);
    polyfit(&pts, degree)
}

/// Picks the frontier point with the highest throughput — with the 25 W budget
/// applied this is the configuration the paper selects (Dim128-4MB-DDR5).
pub fn select_optimal(points: &[DesignPoint]) -> Option<DesignPoint> {
    power_performance_frontier(points)
        .into_iter()
        .max_by(|a, b| {
            a.throughput_ips
                .partial_cmp(&b.throughput_ips)
                .expect("finite")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::enumerate_small;
    use dscs_dsa::config::TechnologyNode;

    fn small_points() -> Vec<DesignPoint> {
        sweep(
            &enumerate_small(TechnologyNode::Nm45),
            &[ModelKind::ResNet50],
        )
    }

    #[test]
    fn evaluation_produces_finite_positive_metrics() {
        for p in small_points() {
            assert!(
                p.throughput_ips > 0.0 && p.throughput_ips.is_finite(),
                "{}",
                p.config
            );
            assert!(
                p.power_watts > 0.0 && p.power_watts.is_finite(),
                "{}",
                p.config
            );
            assert!(p.area_mm2 > 0.0, "{}", p.config);
        }
    }

    #[test]
    fn bigger_arrays_cost_more_power_and_area() {
        let points = small_points();
        let find = |dim: u64| {
            points
                .iter()
                .find(|p| {
                    p.config.array_rows == dim
                        && p.config.memory == dscs_dsa::config::MemoryKind::Ddr5
                })
                .copied()
                .expect("present")
        };
        let small = find(16);
        let big = find(512);
        assert!(big.power_watts > small.power_watts);
        assert!(big.area_mm2 > small.area_mm2);
    }

    #[test]
    fn moderate_array_beats_huge_array_at_batch_one() {
        // The paper's key DSE finding: scaling the array past the mid-sized
        // point stops paying off at batch 1 (tile fill/drain and memory
        // transfers dominate), and the huge arrays blow the 25 W drive budget.
        let points = small_points();
        let throughput = |dim: u64| {
            points
                .iter()
                .filter(|p| p.config.array_rows == dim)
                .map(|p| p.throughput_ips)
                .fold(f64::MIN, f64::max)
        };
        let power = |dim: u64| {
            points
                .iter()
                .filter(|p| p.config.array_rows == dim)
                .map(|p| p.power_watts)
                .fold(f64::MAX, f64::min)
        };
        assert!(throughput(128) > throughput(16), "128 should beat 16");
        // 16x the PEs buys far less than 16x the throughput...
        assert!(
            throughput(512) < 6.0 * throughput(128),
            "512 throughput {} vs 128 {}",
            throughput(512),
            throughput(128)
        );
        // ...while exceeding the storage power envelope that 128 comfortably fits.
        assert!(
            power(128) < DRIVE_POWER_BUDGET_WATTS,
            "128 power {}",
            power(128)
        );
        assert!(
            power(512) > DRIVE_POWER_BUDGET_WATTS,
            "512 power {}",
            power(512)
        );
    }

    #[test]
    fn frontiers_are_monotone_and_within_budget() {
        let points = small_points();
        let power_frontier = power_performance_frontier(&points);
        assert!(!power_frontier.is_empty());
        assert!(power_frontier
            .iter()
            .all(|p| p.power_watts <= DRIVE_POWER_BUDGET_WATTS));
        assert!(power_frontier
            .windows(2)
            .all(|w| w[0].power_watts < w[1].power_watts
                && w[0].throughput_ips < w[1].throughput_ips));
        let area_frontier = area_performance_frontier(&points);
        assert!(area_frontier
            .windows(2)
            .all(|w| w[0].area_mm2 < w[1].area_mm2));
    }

    #[test]
    fn selected_optimum_is_a_mid_sized_array() {
        let points = small_points();
        let best = select_optimal(&points).expect("non-empty frontier");
        assert!(
            (64..=256).contains(&best.config.array_rows),
            "selected {} — expected a mid-sized array under the 25 W budget as in the paper",
            best.config
        );
    }

    #[test]
    fn frontier_fit_tracks_the_points() {
        let points = small_points();
        let frontier = power_performance_frontier(&points);
        if frontier.len() >= 2 {
            let fit = frontier_fit(&frontier, |p| p.power_watts);
            let pts: Vec<(f64, f64)> = frontier
                .iter()
                .map(|p| (p.throughput_ips, p.power_watts))
                .collect();
            assert!(fit.r_squared(&pts) > 0.8);
        }
    }
}
