//! Design-space exploration of the in-storage DSA (Figures 7 and 8) plus the
//! cost-efficiency view (Figure 12), on a reduced sweep so the example runs in
//! seconds. Use `cargo run --release -p dscs-bench --bin reproduce -- fig7 --full`
//! for the complete 650+-point sweep.
//!
//! Run with: `cargo run --example design_space_exploration`

use dscs_serverless::dsa::config::TechnologyNode;
use dscs_serverless::dse::cost::{cost_efficiency, die_cost, UTILIZATION, YEARS};
use dscs_serverless::dse::explore::{
    power_performance_frontier, select_optimal, sweep, DRIVE_POWER_BUDGET_WATTS,
};
use dscs_serverless::dse::space::enumerate_small;
use dscs_serverless::nn::zoo::ModelKind;
use dscs_serverless::simcore::quantity::AreaMm2;

fn main() {
    let space = enumerate_small(TechnologyNode::Nm45);
    println!(
        "evaluating {} design points at 45 nm under a {DRIVE_POWER_BUDGET_WATTS} W drive budget",
        space.len()
    );

    let points = sweep(&space, &[ModelKind::ResNet50, ModelKind::BertBase]);
    println!(
        "\n{:<26} {:>14} {:>10} {:>10}",
        "config", "ips", "power W", "area mm2"
    );
    for p in &points {
        println!(
            "{:<26} {:>14.1} {:>10.2} {:>10.1}",
            p.config.label(),
            p.throughput_ips,
            p.power_watts,
            p.area_mm2
        );
    }

    let frontier = power_performance_frontier(&points);
    println!("\npower-performance Pareto frontier (within the drive budget):");
    for p in &frontier {
        println!(
            "  {:<26} {:>12.1} ips @ {:>6.2} W",
            p.config.label(),
            p.throughput_ips,
            p.power_watts
        );
    }

    let best = select_optimal(&points).expect("non-empty frontier");
    println!("\nselected configuration: {}", best.config);

    // The ASIC-Clouds-style die cost feeds the CAPEX side of the cost model.
    let die_cost = die_cost(AreaMm2::new(best.area_mm2));
    println!("estimated DSA die cost: {die_cost}");
    println!(
        "cost efficiency of the selected design (requests per dollar over {} years at {:.0}% utilisation): {:.0}",
        YEARS,
        UTILIZATION * 100.0,
        cost_efficiency(best.throughput_ips, dscs_serverless::simcore::quantity::Watts::new(best.power_watts), die_cost)
    );
}
