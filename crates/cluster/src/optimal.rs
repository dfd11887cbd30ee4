//! Offline-optimal lower bound on aggregate cold-start cost for a fixed
//! trace, after the segment / path-cover estimators of dslab-faas: with the
//! whole trace in hand, the best any keepalive policy could possibly do is
//! decided independently per idle gap, so summing the cheaper branch of every
//! gap yields a bound no online policy can beat.
//!
//! # The per-gap argument
//!
//! Fix one function and sort its invocations by arrival. Its first invocation
//! is unavoidable: no container for it exists anywhere, so *every* policy
//! pays one full registry cold start. Between consecutive invocations the
//! omniscient policy faces a binary choice for the idle gap of length `g`:
//!
//! * **keep** the container warm across the gap, paying `g ×
//!   warm_cost_per_sec` of warm-memory cost (the same currency the
//!   warm-seconds ledger tracks), or
//! * **let it die** and pay one repeat cold start when the next invocation
//!   arrives (priced by the same [`dscs_faas::coldstart`] model the
//!   simulator charges, under the simulator's configured
//!   [`crate::coldpath::ColdStartPath`] — the flash reload on in-storage
//!   platforms, the snapshot restore when the modality is
//!   `SnapshotRestore`, the registry pull everywhere else — so the bound
//!   always prices repeats by the cell's own modality).
//!
//! Any real policy's choices for a gap cost at least
//! `min(g × warm_cost_per_sec, repeat_cold)`, and gaps are independent in
//! hindsight, so the sum over all gaps plus the unavoidable first cold starts
//! lower bounds every policy simultaneously.
//!
//! # The default bound is on cold-start *seconds*
//!
//! The sweep's regret column compares this bound against the measured
//! [`crate::sim::ClusterReport::coldstart_s`], which counts cold-start
//! seconds only — warm memory is accounted separately (`warm_seconds`). For
//! a bound on cold-start seconds alone the keep branch is free
//! (`warm_cost_per_sec = 0`): hindsight keeps every container warm across
//! every gap and pays nothing but the per-function first cold start. That is
//! exactly what [`optimal_coldstart_seconds`] computes, and it is a true
//! lower bound for every scheduler / keepalive / scaling / balancer
//! combination the simulator can run (each extra rack only *adds* first cold
//! starts, prewarming cannot anticipate a never-seen function, and flash
//! caching only discounts repeats).
//!
//! [`optimal_coldstart_seconds_with`] exposes the general estimator for a
//! combined keep-warm-vs-cold cost analysis at a caller-chosen
//! `warm_cost_per_sec`.

use dscs_simcore::time::SimTime;

use crate::data::function_slots;
use crate::sim::ClusterSim;
use crate::trace::TraceRequest;

/// Offline-optimal lower bound on the aggregate cold-start seconds any
/// policy pays replaying `trace` on `sim`'s platform: the sum, over distinct
/// functions, of one full registry cold start (see the module docs for why
/// nothing else is unavoidable in hindsight).
///
/// Deterministic: after interning the trace's function slots, a pure single
/// pass over the trace in arrival order, so the same trace and platform
/// produce a bit-identical bound on every call. `O(n + f log f)` time for
/// `f` distinct functions, `O(n)` memory.
pub fn optimal_coldstart_seconds(trace: &[TraceRequest], sim: &ClusterSim) -> f64 {
    optimal_coldstart_seconds_with(trace, sim, 0.0)
}

/// The general per-gap segment bound at a caller-chosen warm-memory price.
///
/// Per function: the first invocation pays a full registry cold start; every
/// idle gap `g` between consecutive invocations contributes
/// `min(g × warm_cost_per_sec, repeat_cold)` where `repeat_cold` is
/// [`ClusterSim::repeat_cold_start_cost`] for the function's benchmark.
/// With `warm_cost_per_sec = 0` this reduces to
/// [`optimal_coldstart_seconds`].
///
/// Gaps are measured arrival-to-arrival (the trace is the only offline
/// knowledge; service times are jittered at run time), which can only
/// *overstate* an idle gap and therefore never breaks the keep branch's
/// lower-bound direction when `warm_cost_per_sec` is zero.
///
/// # Panics
/// Panics if `warm_cost_per_sec` is negative, infinite or NaN: the bound is
/// defined for a finite non-negative warm-memory price only.
pub fn optimal_coldstart_seconds_with(
    trace: &[TraceRequest],
    sim: &ClusterSim,
    warm_cost_per_sec: f64,
) -> f64 {
    assert!(
        warm_cost_per_sec.is_finite() && warm_cost_per_sec >= 0.0,
        "warm cost must be a finite non-negative rate, got {warm_cost_per_sec}"
    );
    // Each function's last arrival, by dense slot. Summing in trace order
    // makes the bound independent of how the slots are numbered.
    let mut last_arrival: Vec<Option<SimTime>> = Vec::new();
    let mut bound = 0.0;
    for (request, slot) in trace.iter().zip(function_slots(trace)) {
        let slot = slot as usize;
        if slot >= last_arrival.len() {
            last_arrival.resize(slot + 1, None);
        }
        match last_arrival[slot].replace(request.arrival) {
            // First invocation anywhere: a full registry cold start is
            // unavoidable for every policy.
            None => bound += sim.cold_start_cost(request.benchmark).as_secs_f64(),
            Some(previous) => {
                let gap = request.arrival.saturating_since(previous).as_secs_f64();
                let keep = gap * warm_cost_per_sec;
                let die = sim.repeat_cold_start_cost(request.benchmark).as_secs_f64();
                bound += keep.min(die);
            }
        }
    }
    bound
}

/// [`optimal_coldstart_seconds`] from the trace position of each function's
/// first request, in O(functions): sweeps and runs with a data layer pass
/// the layer's ([`crate::data::DataLayer::first_requests`]).
///
/// At zero warm cost every repeat in the walk above adds `min(0.0, repeat
/// cold)`, exactly `+0.0`, which leaves the running sum's bits unchanged.
/// So summing each function's first cold start in trace order, from `0.0`,
/// reproduces the walk's bound bit for bit, provided `first_requests`
/// ascends and holds the first request of every function in `trace`.
pub(crate) fn optimal_coldstart_seconds_from_first_requests(
    trace: &[TraceRequest],
    first_requests: &[usize],
    sim: &ClusterSim,
) -> f64 {
    debug_assert!(
        first_requests.windows(2).all(|w| w[0] < w[1]),
        "first requests in trace order"
    );
    first_requests.iter().fold(0.0, |bound, &position| {
        bound + sim.cold_start_cost(trace[position].benchmark).as_secs_f64()
    })
}

/// Policy regret against the offline-optimal bound, as a fraction: how far
/// `measured_coldstart_s` sits above `bound_s`, relative to the bound.
///
/// Zero when the bound is zero (an empty trace has nothing to regret) and
/// never negative: the bound is a mathematical floor on the measurement, so
/// any negative raw ratio can only be last-ulp noise from the two sides
/// summing the same cold-start costs in different orders (the simulator
/// accumulates per rack in event order, the bound in trace order). Such
/// noise is clamped to exactly `0.0`.
pub fn regret_pct(measured_coldstart_s: f64, bound_s: f64) -> f64 {
    if bound_s > 0.0 {
        ((measured_coldstart_s - bound_s) / bound_s).max(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dscs_core::benchmarks::Benchmark;
    use dscs_platforms::PlatformKind;
    use dscs_simcore::rng::DeterministicRng;
    use dscs_simcore::time::SimDuration;

    use super::*;
    use crate::sim::ClusterConfig;
    use crate::trace::RateProfile;
    use crate::workload::AzureWorkload;
    use crate::workload::Workload;

    fn sim(platform: PlatformKind) -> ClusterSim {
        ClusterSim::new(platform, ClusterConfig::default())
    }

    fn azure_trace(seed: u64) -> Vec<TraceRequest> {
        AzureWorkload {
            functions: 16,
            base_rps: 120.0,
            horizon: SimDuration::from_secs(20),
            ..AzureWorkload::default()
        }
        .generate(&mut DeterministicRng::seeded(seed))
        .expect("valid workload")
    }

    #[test]
    fn zero_warm_cost_bound_is_one_registry_cold_start_per_function() {
        let sim = sim(PlatformKind::DscsDsa);
        let trace = azure_trace(7);
        let mut expected = 0.0;
        let mut seen = std::collections::HashSet::new();
        for request in &trace {
            if seen.insert(request.function) {
                expected += sim.cold_start_cost(request.benchmark).as_secs_f64();
            }
        }
        assert_eq!(optimal_coldstart_seconds(&trace, &sim), expected);
    }

    #[test]
    fn bound_is_a_pure_function_of_the_trace() {
        let sim = sim(PlatformKind::BaselineCpu);
        let trace = Arc::new(azure_trace(11));
        let a = optimal_coldstart_seconds_with(&trace, &sim, 0.05);
        let b = optimal_coldstart_seconds_with(&trace, &sim, 0.05);
        assert_eq!(a.to_bits(), b.to_bits(), "bit-identical across calls");
    }

    /// One function invoked three times with one-second gaps: every branch
    /// of the estimator is hand-computable.
    fn three_invocation_fixture() -> Vec<TraceRequest> {
        (0..3)
            .map(|i| TraceRequest {
                arrival: SimTime::from_nanos(i * 1_000_000_000),
                benchmark: Benchmark::ALL[0],
                function: 0,
                object: 0,
                object_size_log2: 16,
            })
            .collect()
    }

    #[test]
    fn warm_cost_moves_gaps_between_the_keep_and_die_branches() {
        let sim = sim(PlatformKind::BaselineCpu);
        let trace = azure_trace(3);
        let free = optimal_coldstart_seconds_with(&trace, &sim, 0.0);
        let cheap = optimal_coldstart_seconds_with(&trace, &sim, 1e-3);
        let dear = optimal_coldstart_seconds_with(&trace, &sim, 1e3);
        assert!(free <= cheap && cheap <= dear, "{free} / {cheap} / {dear}");
    }

    #[test]
    fn the_three_invocation_fixture_pins_the_exact_bound() {
        let sim = sim(PlatformKind::BaselineCpu);
        let fixture = three_invocation_fixture();
        let first = sim.cold_start_cost(Benchmark::ALL[0]).as_secs_f64();
        let repeat = sim.repeat_cold_start_cost(Benchmark::ALL[0]).as_secs_f64();
        // Free warm memory: hindsight keeps the container across both gaps
        // and pays only the unavoidable first cold start.
        assert_eq!(optimal_coldstart_seconds(&fixture, &sim), first);
        // A warm price where keeping across a one-second gap undercuts the
        // repeat cold start: first + two kept gaps.
        let wc = repeat / 10.0;
        let mid = optimal_coldstart_seconds_with(&fixture, &sim, wc);
        assert!((mid - (first + 2.0 * wc)).abs() < 1e-12, "{mid}");
        // An exorbitant warm price: both gaps die, so the bound is the first
        // cold start plus one repeat cold start per additional invocation.
        let dear = optimal_coldstart_seconds_with(&fixture, &sim, 1e3);
        assert!((dear - (first + 2.0 * repeat)).abs() < 1e-12, "{dear}");
    }

    #[test]
    fn flash_platforms_price_repeat_gaps_below_registry_platforms() {
        let dsa = sim(PlatformKind::DscsDsa);
        let cpu = sim(PlatformKind::BaselineCpu);
        assert!(dsa.caches_images_on_flash());
        assert!(!cpu.caches_images_on_flash());
        let trace = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 50.0)],
        }
        .generate(&mut DeterministicRng::seeded(5));
        // With warm memory priced high enough that every gap pays the die
        // branch, the flash platform's cheaper repeats show up in the bound.
        let dsa_bound = optimal_coldstart_seconds_with(&trace, &dsa, 1e3);
        let cpu_bound = optimal_coldstart_seconds_with(&trace, &cpu, 1e3);
        assert!(
            dsa_bound < cpu_bound,
            "flash repeats must be cheaper: {dsa_bound} vs {cpu_bound}"
        );
    }

    /// The bound is path-aware: repeat gaps are priced by the simulator's
    /// configured cold-start path, so — at a warm price dear enough that
    /// every gap pays the die branch — the three modalities order exactly
    /// as their repeat pricing does, while the zero-warm-cost bound (one
    /// registry cold start per function) is identical under every path.
    #[test]
    fn repeat_gaps_are_priced_by_the_configured_cold_start_path() {
        let trace = azure_trace(9);
        let bound_under = |path| {
            let sim = ClusterSim::new(
                PlatformKind::DscsDsa,
                ClusterConfig {
                    cold_path: path,
                    ..ClusterConfig::default()
                },
            );
            (
                optimal_coldstart_seconds(&trace, &sim),
                optimal_coldstart_seconds_with(&trace, &sim, 1e3),
            )
        };
        let (fresh_free, fresh) = bound_under(crate::coldpath::ColdStartPath::FreshSpawn);
        let (flash_free, flash) = bound_under(crate::coldpath::ColdStartPath::FlashReload);
        let (snap_free, snapshot) = bound_under(crate::coldpath::ColdStartPath::SnapshotRestore);
        assert_eq!(fresh_free, flash_free);
        assert_eq!(flash_free, snap_free);
        assert!(
            snapshot < flash && flash < fresh,
            "snapshot {snapshot} / flash {flash} / fresh {fresh}"
        );
    }

    /// The sample trace file's workload shortened to two minutes: its
    /// function ids are 32-bit hashes, so they arrive in no particular id
    /// order.
    fn hashed_id_trace(seed: u64) -> Vec<TraceRequest> {
        let workload = AzureWorkload {
            horizon: SimDuration::from_secs(120),
            ..crate::ingest::sample_workload()
        };
        crate::ingest::TraceFileWorkload::from_workload(
            &workload,
            &mut DeterministicRng::seeded(seed),
            "hashed",
        )
        .and_then(|file| file.generate(&mut DeterministicRng::seeded(seed)))
        .expect("valid workload")
    }

    /// The bound summed over a data layer's first request per function (as
    /// sweeps and runs with a data layer price it) is the public wrapper's
    /// walk bit for bit, on both sweep platforms under every cold-start
    /// path, and over hashed ids that arrive in no particular id order.
    #[test]
    fn first_requests_give_the_public_wrappers_bound() {
        use crate::coldpath::ColdStartPath;
        use crate::experiment::Experiment;

        for (seed, trace) in [(1, azure_trace(1)), (2, hashed_id_trace(2))] {
            let data = Arc::new(crate::data::DataLayer::for_trace(&trace, 3, seed));
            let first = data.first_requests();
            assert!(first.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
            let mut seen = std::collections::HashSet::new();
            let firsts: Vec<usize> = (0..trace.len())
                .filter(|&i| seen.insert(trace[i].function))
                .collect();
            assert_eq!(first, firsts, "each function's first appearance");
            let trace = Arc::new(trace);
            for platform in crate::at_scale::SWEEP_PLATFORMS {
                for cold_path in ColdStartPath::ALL {
                    let config = ClusterConfig {
                        cold_path,
                        ..ClusterConfig::default()
                    };
                    let sim = ClusterSim::new(platform, config);
                    let wrapper = optimal_coldstart_seconds(&trace, &sim);
                    let summed = optimal_coldstart_seconds_from_first_requests(&trace, first, &sim);
                    assert_eq!(
                        summed.to_bits(),
                        wrapper.to_bits(),
                        "seed {seed}, {platform:?}, {cold_path:?}"
                    );
                    // A run with the layer attached and no bound given.
                    let outcome = Experiment::builder(platform)
                        .trace(trace.clone())
                        .racks(3)
                        .cold_path(cold_path)
                        .data_layer(data.clone())
                        .build()
                        .expect("valid experiment")
                        .run_on(&sim);
                    assert_eq!(
                        outcome.optimal_coldstart_s.to_bits(),
                        wrapper.to_bits(),
                        "run: seed {seed}, {platform:?}, {cold_path:?}"
                    );
                }
            }
        }
    }

    /// The 999-request trace behind the warm-cost contract: 20 s at 50 rps.
    fn contract_trace() -> Vec<TraceRequest> {
        RateProfile {
            segments: vec![(SimDuration::from_secs(20), 50.0)],
        }
        .generate(&mut DeterministicRng::seeded(1))
    }

    #[test]
    #[should_panic(expected = "warm cost must be a finite non-negative rate, got -1")]
    fn negative_warm_cost_is_rejected() {
        optimal_coldstart_seconds_with(&contract_trace(), &sim(PlatformKind::DscsDsa), -1.0);
    }

    #[test]
    #[should_panic(expected = "warm cost must be a finite non-negative rate, got NaN")]
    fn nan_warm_cost_is_rejected() {
        optimal_coldstart_seconds_with(&contract_trace(), &sim(PlatformKind::DscsDsa), f64::NAN);
    }

    #[test]
    fn regret_pct_is_zero_for_an_empty_bound_and_relative_otherwise() {
        assert_eq!(regret_pct(3.0, 0.0), 0.0);
        assert_eq!(regret_pct(3.0, 2.0), 0.5);
        assert_eq!(regret_pct(2.0, 2.0), 0.0);
        // Summation-order noise one ulp below the bound clamps to exactly 0.
        let bound = 27.745655552000002_f64;
        assert_eq!(regret_pct(27.745655552, bound), 0.0);
    }
}
