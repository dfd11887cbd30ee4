//! Parallel-equivalence suite for the sweep engine: a `jobs = N` run must be
//! indistinguishable from the sequential `jobs = 1` run — byte-identical
//! JSON and equal cells — across seeds, scales and axis subsets, and
//! repeated parallel runs must be bit-stable. These tests pin the tentpole
//! guarantee that parallelism is a pure wall-clock optimisation: workers
//! only change *who* runs a cell, never *what* the cell computes or where
//! its result lands.
//!
//! Note the tests deliberately assert bytes, not speedup: wall-clock gains
//! depend on the host's core count (CI runners may expose a single core),
//! while the determinism contract must hold everywhere.

use std::sync::Arc;

use dscs_serverless::cluster::at_scale::{AtScaleOptions, SweepScale, SweepSpec};
use dscs_serverless::cluster::coldpath::{ColdStartPath, IpcTransport};
use dscs_serverless::cluster::experiment::{Experiment, Outcome};
use dscs_serverless::cluster::policy::{
    KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
};
use dscs_serverless::cluster::sim::EngineSelection;
use dscs_serverless::cluster::trace::RateProfile;
use dscs_serverless::platforms::spec::PlatformKind;
use dscs_serverless::simcore::rng::DeterministicRng;

/// A small smoke-scale grid (2 workloads x 1 platform x 1 scheduler x
/// 2 keepalives x 2 scalings x 2 balancers = 16 cells) so each test run
/// stays cheap while still spanning several axes.
fn small_grid(seed: u64, jobs: usize) -> SweepSpec {
    SweepSpec {
        seed,
        jobs,
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::FixedWindow, KeepalivePolicy::HybridPrewarm],
        scalings: vec![ScalingPolicy::Fixed, ScalingPolicy::Reactive],
        balancers: vec![LoadBalancer::RoundRobin, LoadBalancer::LocalityAware],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    }
}

#[test]
fn parallel_sweeps_render_sequential_bytes_across_seeds() {
    for seed in [42, 7, 0xDEAD] {
        let sequential = small_grid(seed, 1).run().expect("valid spec");
        let parallel = small_grid(seed, 4).run().expect("valid spec");
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "seed {seed}: jobs=4 must render the sequential bytes"
        );
        // Beyond the rendering: the structured cells are equal too (the
        // measured wall_s fields compare equal by design).
        assert_eq!(sequential.cells, parallel.cells, "seed {seed}");
        assert_eq!(sequential.workloads, parallel.workloads, "seed {seed}");
        // The v7 regret fields are inside the determinism contract: both
        // runs carry them, bit-identical, and every cell stays a finite
        // non-negative distance above its offline bound.
        for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
            assert_eq!(
                a.optimal_coldstart_s.to_bits(),
                b.optimal_coldstart_s.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                a.regret_pct.to_bits(),
                b.regret_pct.to_bits(),
                "seed {seed}"
            );
            assert!(
                a.regret_pct >= 0.0 && a.regret_pct.is_finite(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn parallel_sweeps_match_sequential_on_the_full_smoke_grid() {
    // The whole default smoke grid (432 cells), as CI's equivalence diff
    // runs it: auto worker count vs the sequential path.
    let sequential = SweepSpec {
        jobs: 1,
        ..SweepSpec::from(AtScaleOptions::smoke())
    }
    .run()
    .expect("valid options");
    let parallel = SweepSpec {
        jobs: 0, // auto: one worker per available core
        ..SweepSpec::from(AtScaleOptions::smoke())
    }
    .run()
    .expect("valid options");
    assert_eq!(sequential.to_json(), parallel.to_json());
    assert_eq!(sequential.cells.len(), 432);
}

#[test]
fn parallel_sweeps_match_sequential_across_axis_subsets() {
    let base = small_grid(42, 1);
    let subsets = [
        SweepSpec {
            balancers: vec![LoadBalancer::LeastLoaded],
            ..base.clone()
        },
        SweepSpec {
            platforms: vec![PlatformKind::BaselineCpu, PlatformKind::DscsDsa],
            scalings: vec![ScalingPolicy::Predictive],
            ..base.clone()
        },
        SweepSpec {
            schedulers: SchedulerPolicy::ALL.to_vec(),
            keepalives: vec![KeepalivePolicy::NoKeepalive],
            ..base.clone()
        },
    ];
    for (index, spec) in subsets.into_iter().enumerate() {
        let sequential = spec.run().expect("valid spec");
        let parallel = SweepSpec { jobs: 3, ..spec }.run().expect("valid spec");
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "axis subset {index}"
        );
    }
}

#[test]
fn parallel_sweeps_match_sequential_at_quick_scale() {
    // One (platform, policy) point per workload keeps the longer quick-scale
    // traces affordable while proving the guarantee isn't smoke-specific.
    let spec = SweepSpec {
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::FixedWindow],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::LocalityAware],
        jobs: 1,
        ..SweepSpec::default_grid(SweepScale::Quick)
    };
    let sequential = spec.run().expect("valid spec");
    let parallel = SweepSpec {
        jobs: 2,
        ..spec.clone()
    }
    .run()
    .expect("valid spec");
    assert_eq!(sequential.to_json(), parallel.to_json());
    assert_eq!(sequential.cells.len(), 2);
}

#[test]
fn repeated_parallel_runs_are_bit_stable() {
    let run = || small_grid(11, 3).run().expect("valid spec");
    let a = run();
    let b = run();
    assert_eq!(a.to_json(), b.to_json(), "parallel runs must be bit-stable");
    assert_eq!(a.cells, b.cells);
    // The deterministic work counter is bit-stable too — only wall_s (a
    // measurement, excluded from equality and from to_json) may differ.
    assert_eq!(a.total_events(), b.total_events());
}

/// A round-robin grid spanning all three scaling policies, the surface the
/// rack-parallel engine must reproduce exactly: fixed pools, reactive ticks
/// and predictive ticks all schedule per-rack events whose order the
/// partitioned lanes must preserve.
fn rack_grid(seed: u64, rack_jobs: usize) -> SweepSpec {
    SweepSpec {
        seed,
        jobs: 1,
        rack_jobs,
        racks: 3,
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::HybridPrewarm],
        scalings: vec![
            ScalingPolicy::Fixed,
            ScalingPolicy::Reactive,
            ScalingPolicy::Predictive,
        ],
        balancers: vec![LoadBalancer::RoundRobin],
        ..SweepSpec::default_grid(SweepScale::Smoke)
    }
}

#[test]
fn rack_parallel_runs_render_rack_sequential_bytes_across_seeds_and_scalings() {
    // The tentpole guarantee for the second parallelism level: sharding one
    // experiment's racks over threads never changes the report — across
    // seeds, every scaling policy, a pinned worker count and the auto (one
    // per core) setting.
    for seed in [42, 7, 0xBEEF] {
        let sequential = rack_grid(seed, 1).run().expect("valid spec");
        for rack_jobs in [2, 0] {
            let parallel = rack_grid(seed, rack_jobs).run().expect("valid spec");
            assert_eq!(
                sequential.to_json(),
                parallel.to_json(),
                "seed {seed}: rack_jobs={rack_jobs} must render the rack-sequential bytes"
            );
            assert_eq!(sequential.cells, parallel.cells, "seed {seed}");
            for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
                assert_eq!(a.events, b.events, "seed {seed}");
                assert_eq!(
                    a.mean_latency_ms.to_bits(),
                    b.mean_latency_ms.to_bits(),
                    "seed {seed}: latency sketches must merge to identical bits"
                );
                assert_eq!(a.rack_completed, b.rack_completed, "seed {seed}");
            }
        }
    }
}

#[test]
fn rack_parallel_runs_are_bit_stable() {
    let run = || rack_grid(11, 3).run().expect("valid spec");
    let a = run();
    let b = run();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "rack-parallel runs must be bit-stable"
    );
    assert_eq!(a.cells, b.cells);
    assert_eq!(a.total_events(), b.total_events());
}

#[test]
fn both_parallelism_levels_compose_to_the_sequential_bytes() {
    // Sweep workers and rack workers at once — the full two-level fan-out —
    // against the all-sequential run.
    let sequential = rack_grid(42, 1).run().expect("valid spec");
    let composed = SweepSpec {
        jobs: 2,
        rack_jobs: 2,
        ..rack_grid(42, 1)
    }
    .run()
    .expect("valid spec");
    assert_eq!(sequential.to_json(), composed.to_json());
}

/// One small experiment per balancer, with rack workers requested.
fn outcome_for(balancer: LoadBalancer, rack_jobs: usize) -> Outcome {
    let profile = RateProfile::paper_bursty().compressed(100.0);
    let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(5)));
    Experiment::builder(PlatformKind::DscsDsa)
        .trace(trace)
        .racks(3)
        .balancer(balancer)
        .rack_jobs(rack_jobs)
        .seed(9)
        .build()
        .expect("valid experiment")
        .run()
}

#[test]
fn coupled_balancers_report_the_sequential_fallback_reason() {
    // Round-robin dispatch is decoupled, so it takes the rack-parallel
    // engine; the coupled balancers must fall back to the sequential engine
    // and say why.
    let round_robin = outcome_for(LoadBalancer::RoundRobin, 3);
    assert!(round_robin.engine.is_rack_parallel());

    for balancer in [LoadBalancer::LeastLoaded, LoadBalancer::LocalityAware] {
        let outcome = outcome_for(balancer, 3);
        assert!(
            !outcome.engine.is_rack_parallel(),
            "{}: coupled dispatch cannot shard racks",
            balancer.name()
        );
        let EngineSelection::Sequential { reason } = outcome.engine else {
            panic!("coupled balancers must explain the sequential fallback");
        };
        assert!(
            reason.contains("every rack"),
            "{}: reason should name the cross-rack coupling, got '{reason}'",
            balancer.name()
        );
        // The knob is inert on the sequential engine: same outcome with and
        // without rack workers requested.
        let inline = outcome_for(balancer, 1);
        assert_eq!(outcome.report, inline.report, "{}", balancer.name());
        assert_eq!(outcome.racks, inline.racks, "{}", balancer.name());
    }
}

#[test]
fn cold_path_and_ipc_axes_preserve_both_parallelism_equivalences() {
    // The modality axes charge at the same single site as the legacy
    // pricing, so sweeping them must leave both parallelism levels —
    // cell workers and rack lanes — byte-equivalent to the sequential run.
    let grid = |jobs: usize, rack_jobs: usize| SweepSpec {
        jobs,
        rack_jobs,
        racks: 3,
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::HybridPrewarm],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::RoundRobin],
        cold_paths: ColdStartPath::ALL.to_vec(),
        ipcs: IpcTransport::ALL.to_vec(),
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    let sequential = grid(1, 1).run().expect("valid spec");
    assert_eq!(
        sequential.cells.len(),
        2 * ColdStartPath::ALL.len() * IpcTransport::ALL.len(),
        "2 workloads x 3 cold paths x 3 transports"
    );
    let sweep_parallel = grid(4, 1).run().expect("valid spec");
    let rack_parallel = grid(1, 2).run().expect("valid spec");
    let composed = grid(3, 2).run().expect("valid spec");
    for (label, report) in [
        ("jobs=4", &sweep_parallel),
        ("rack_jobs=2", &rack_parallel),
        ("jobs=3 rack_jobs=2", &composed),
    ] {
        assert_eq!(sequential.to_json(), report.to_json(), "{label}");
        assert_eq!(sequential.cells, report.cells, "{label}");
        // The v8 modality fields are inside the determinism contract:
        // bit-identical across engines, tagged with the cell's own axis
        // values.
        for (a, b) in sequential.cells.iter().zip(&report.cells) {
            assert_eq!(a.cold_path, b.cold_path, "{label}");
            assert_eq!(a.ipc, b.ipc, "{label}");
            assert_eq!(a.restore_s.to_bits(), b.restore_s.to_bits(), "{label}");
            assert_eq!(
                a.ipc_overhead_s.to_bits(),
                b.ipc_overhead_s.to_bits(),
                "{label}"
            );
        }
    }
}

#[test]
fn more_workers_than_cells_is_harmless() {
    let spec = SweepSpec {
        platforms: vec![PlatformKind::DscsDsa],
        schedulers: vec![SchedulerPolicy::Fcfs],
        keepalives: vec![KeepalivePolicy::FixedWindow],
        scalings: vec![ScalingPolicy::Fixed],
        balancers: vec![LoadBalancer::RoundRobin],
        jobs: 64, // grid has 2 cells
        ..SweepSpec::default_grid(SweepScale::Smoke)
    };
    let report = spec.run().expect("valid spec");
    assert_eq!(report.cells.len(), 2);
    let sequential = SweepSpec { jobs: 1, ..spec }.run().expect("valid spec");
    assert_eq!(report.to_json(), sequential.to_json());
}
