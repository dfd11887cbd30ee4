//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these run on a small in-file harness: each property is exercised over many
//! randomized cases drawn from a [`DeterministicRng`], with the failing case's
//! seed index reported on assertion failure so it can be replayed exactly.

use dscs_serverless::compiler::codegen::gemm_dims;
use dscs_serverless::compiler::tiling::select_tiling;
use dscs_serverless::dsa::config::{DsaConfig, MemoryKind, TechnologyNode};
use dscs_serverless::dsa::engine::MpuModel;
use dscs_serverless::nn::op::Operator;
use dscs_serverless::nn::tensor::DType;
use dscs_serverless::simcore::dist::LogNormalDist;
use dscs_serverless::simcore::fit::polyfit;
use dscs_serverless::simcore::pareto::{pareto_frontier, ParetoPoint};
use dscs_serverless::simcore::quantity::Bytes;
use dscs_serverless::simcore::rng::DeterministicRng;
use dscs_serverless::simcore::stats::{QuantileSketch, Summary, SKETCH_RELATIVE_ACCURACY};
use dscs_serverless::simcore::time::SimDuration;
use dscs_serverless::storage::object_store::ObjectStore;

/// Number of randomized cases per property (matches the proptest config the
/// suite originally used).
const CASES: u64 = 64;

/// Runs `body` over `CASES` independent generators derived from `seed`. The
/// case index is passed through so failure messages identify the exact case.
fn check(seed: u64, mut body: impl FnMut(u64, &mut DeterministicRng)) {
    for case in 0..CASES {
        let mut rng = DeterministicRng::seeded(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        body(case, &mut rng);
    }
}

/// Uniform integer in `[lo, hi)`, mirroring proptest's `lo..hi` ranges.
fn int_in(rng: &mut DeterministicRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_index((hi - lo) as usize) as u64
}

/// The Pareto frontier never contains a dominated point and never loses a
/// non-dominated one.
#[test]
fn pareto_frontier_is_exactly_the_non_dominated_set() {
    check(0xA1, |case, rng| {
        let len = int_in(rng, 1, 60) as usize;
        let candidates: Vec<ParetoPoint<usize>> = (0..len)
            .map(|i| ParetoPoint::new(rng.uniform(0.1, 100.0), rng.uniform(0.1, 100.0), i))
            .collect();
        let frontier = pareto_frontier(candidates.clone());
        for f in &frontier {
            assert!(
                !candidates.iter().any(|c| c.dominates(f)),
                "case {case}: frontier point dominated"
            );
        }
        for c in &candidates {
            let dominated = candidates.iter().any(|other| other.dominates(c));
            let on_frontier = frontier.iter().any(|f| f.tag == c.tag);
            if !dominated && !on_frontier {
                // A non-dominated point may be dropped only if an identical
                // (cost, benefit) pair is already on the frontier.
                let duplicate = frontier
                    .iter()
                    .any(|f| f.cost == c.cost && f.benefit == c.benefit);
                assert!(
                    duplicate,
                    "case {case}: non-dominated point missing from frontier"
                );
            }
        }
    });
}

/// Tiling always fits the double-buffered working set in the scratchpad
/// and always covers the full GEMM.
#[test]
fn tiling_fits_and_covers() {
    check(0xA2, |case, rng| {
        let (m, k, n) = (
            int_in(rng, 1, 5000),
            int_in(rng, 1, 5000),
            int_in(rng, 1, 5000),
        );
        let config = DsaConfig::paper_optimal();
        let tiling = select_tiling(&config, m, k, n);
        assert!(
            tiling.buffer_bytes() <= config.buffer_bytes,
            "case {case}: ({m},{k},{n})"
        );
        assert!(
            tiling.tile_m >= 1 && tiling.tile_k >= 1 && tiling.tile_n >= 1,
            "case {case}"
        );
        assert!(tiling.tile_count(m, k, n) >= 1, "case {case}");
    });
}

/// Convolution lowering to implicit GEMM preserves the FLOP count exactly.
#[test]
fn conv_lowering_preserves_flops() {
    check(0xA3, |case, rng| {
        let op = Operator::Conv2d {
            batch: int_in(rng, 1, 4),
            in_channels: int_in(rng, 1, 128),
            out_channels: int_in(rng, 1, 128),
            in_h: int_in(rng, 4, 64),
            in_w: int_in(rng, 4, 64),
            kernel: int_in(rng, 1, 5),
            stride: int_in(rng, 1, 3),
            dtype: DType::Int8,
        };
        let dims = gemm_dims(&op).expect("conv is GEMM-class");
        assert_eq!(
            2 * dims.m * dims.k * dims.n,
            op.flops(),
            "case {case}: {op:?}"
        );
    });
}

/// The systolic-array cycle count is monotone in each GEMM dimension.
#[test]
fn mpu_cycles_are_monotone() {
    check(0xA4, |case, rng| {
        let (m, k, n) = (
            int_in(rng, 1, 512),
            int_in(rng, 1, 512),
            int_in(rng, 1, 512),
        );
        let mpu = MpuModel::new(&DsaConfig::paper_optimal());
        let base = mpu.gemm_cycles(m, k, n);
        assert!(
            mpu.gemm_cycles(m + 1, k, n) >= base,
            "case {case}: ({m},{k},{n})"
        );
        assert!(
            mpu.gemm_cycles(m, k + 1, n) >= base,
            "case {case}: ({m},{k},{n})"
        );
        assert!(
            mpu.gemm_cycles(m, k, n + 1) >= base,
            "case {case}: ({m},{k},{n})"
        );
    });
}

/// Summary quantiles are monotone in the quantile and bounded by min/max.
#[test]
fn summary_quantiles_are_monotone() {
    check(0xA5, |case, rng| {
        let len = int_in(rng, 1, 200) as usize;
        let values: Vec<f64> = (0..len).map(|_| rng.uniform(0.0, 1e6)).collect();
        let summary = Summary::from_samples(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let mut previous = min;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = summary.quantile(q);
            assert!(
                v + 1e-9 >= previous,
                "case {case}: quantiles must not decrease"
            );
            assert!(
                v >= min - 1e-9 && v <= summary.max() + 1e-9,
                "case {case}: quantile out of bounds"
            );
            previous = v;
        }
    });
}

/// A calibrated lognormal reproduces its own median within sampling error.
#[test]
fn lognormal_calibration_roundtrips() {
    check(0xA6, |case, rng| {
        let median = rng.uniform(1.0, 100.0) / 1e3;
        let tail_factor = rng.uniform(1.1, 4.0);
        let dist = LogNormalDist::from_median_p99(median, median * tail_factor);
        let mut sample_rng = DeterministicRng::seeded(9);
        let samples: Vec<f64> = (0..4_000).map(|_| dist.sample(&mut sample_rng)).collect();
        let s = Summary::from_samples(&samples);
        assert!(
            (s.p50() - median).abs() / median < 0.15,
            "case {case}: p50 {} vs median {median}",
            s.p50()
        );
    });
}

/// Cubic polynomial fits recover exact cubic data.
#[test]
fn polyfit_recovers_cubics() {
    check(0xA7, |case, rng| {
        let a = rng.uniform(-2.0, 2.0);
        let b = rng.uniform(-2.0, 2.0);
        let c = rng.uniform(-0.5, 0.5);
        let d = rng.uniform(-0.05, 0.05);
        let pts: Vec<(f64, f64)> = (0..24)
            .map(|i| {
                let x = i as f64;
                (x, a + b * x + c * x * x + d * x * x * x)
            })
            .collect();
        let poly = polyfit(&pts, 3);
        for &(x, y) in &pts {
            let err = (poly.eval(x) - y).abs();
            assert!(
                err < 1e-5 * (1.0 + y.abs()),
                "case {case}: fit error {err} at {x}"
            );
        }
    });
}

/// Rack-aware placement invariants: for random rack layouts and object
/// streams, every replica rack is in `[0, racks)`, replicas span at most
/// `rack_spread` racks, replicas stay distinct, and acceleratable objects
/// always keep a DSCS replica.
#[test]
fn rack_aware_placement_invariants() {
    check(0xB1, |case, rng| {
        let racks = int_in(rng, 1, 6) as u32;
        let conventional = int_in(rng, 1, 4) as u32;
        let dscs = int_in(rng, 1, 3) as u32;
        let replication = int_in(rng, 1, 5) as usize;
        let rack_spread = int_in(rng, 1, u64::from(racks) + 1) as u32;
        let mut store =
            ObjectStore::with_rack_layout(racks, conventional, dscs, replication, rack_spread);
        let mut place_rng = DeterministicRng::seeded(int_in(rng, 0, 1000));
        for i in 0..int_in(rng, 1, 24) {
            let key = format!("obj-{i}");
            let acceleratable = rng.bernoulli(0.5);
            let meta = store
                .put(
                    &key,
                    Bytes::new(int_in(rng, 1, 8_000_000)),
                    acceleratable,
                    &mut place_rng,
                )
                .expect("rack layout always has DSCS nodes");
            let holding = store.racks_holding(&key).expect("placed");
            assert!(!holding.is_empty(), "case {case}: placed somewhere");
            assert!(
                holding.iter().all(|&r| r < racks),
                "case {case}: rack out of range: {holding:?}"
            );
            assert!(
                holding.len() <= rack_spread as usize,
                "case {case}: replicas span {holding:?} > spread {rack_spread}"
            );
            let mut unique = meta.replicas.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), meta.replicas.len(), "case {case}: distinct");
            if acceleratable {
                assert!(
                    store.dscs_replica(&key).expect("exists").is_some(),
                    "case {case}: acceleratable objects keep a DSCS replica"
                );
            }
        }
    });
}

/// Object-store placement always respects the replication factor and puts
/// acceleratable objects on a DSCS drive.
#[test]
fn object_store_placement_invariants() {
    check(0xA8, |case, rng| {
        let len = int_in(rng, 1, 40) as usize;
        let objects: Vec<(u64, bool)> = (0..len)
            .map(|_| (int_in(rng, 1, 32_000_000), rng.bernoulli(0.5)))
            .collect();
        let seed = int_in(rng, 0, 1000);
        let mut store = ObjectStore::with_node_counts(5, 3);
        let mut place_rng = DeterministicRng::seeded(seed);
        for (i, &(size, acceleratable)) in objects.iter().enumerate() {
            let key = format!("obj-{i}");
            let meta = store
                .put(&key, Bytes::new(size), acceleratable, &mut place_rng)
                .expect("store has DSCS nodes");
            assert_eq!(meta.replicas.len(), 3, "case {case}");
            let mut unique = meta.replicas.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 3, "case {case}: replicas must be distinct");
            if acceleratable {
                assert!(
                    store.dscs_replica(&key).expect("exists").is_some(),
                    "case {case}"
                );
            }
        }
    });
}

/// Time arithmetic: converting seconds to a duration and back is stable to
/// nanosecond rounding.
#[test]
fn duration_roundtrip() {
    check(0xA9, |case, rng| {
        let seconds = rng.uniform(0.0, 10_000.0);
        let d = SimDuration::from_secs_f64(seconds);
        assert!(
            (d.as_secs_f64() - seconds).abs() < 1e-9 * (1.0 + seconds),
            "case {case}: {seconds}"
        );
    });
}

/// DSA configurations in the sweep ranges always validate.
#[test]
fn dsa_configs_validate() {
    check(0xAA, |case, rng| {
        let dim = 1u64 << int_in(rng, 2, 10);
        let buffer_mib = int_in(rng, 1, 32);
        let buffer = (buffer_mib * 1024 * 1024).max(6 * dim * dim);
        for memory in MemoryKind::ALL {
            let config = DsaConfig::square(dim, buffer, memory, TechnologyNode::Nm45);
            assert!(
                config.validate().is_ok(),
                "case {case}: dim {dim} buffer {buffer}"
            );
            assert!(config.peak_ops_per_sec() > 0.0, "case {case}");
        }
    });
}

/// Workload generators are pure functions of their seed and always produce
/// sorted, in-horizon traces with consistent function->benchmark bindings.
#[test]
fn workload_traces_are_deterministic_sorted_and_bounded() {
    use dscs_serverless::cluster::workload::{AzureWorkload, Workload};
    use dscs_serverless::simcore::time::SimTime;

    check(0xAB, |case, rng| {
        let workload = AzureWorkload {
            functions: int_in(rng, 1, 48) as u32,
            base_rps: rng.uniform(5.0, 400.0),
            horizon: SimDuration::from_secs(int_in(rng, 5, 40)),
            diurnal_period: SimDuration::from_secs(int_in(rng, 5, 60)),
            step: SimDuration::from_secs(int_in(rng, 1, 5)),
        };
        assert_eq!(workload.validate(), Ok(()), "case {case}");
        let seed = int_in(rng, 0, 1_000_000);
        let a = workload
            .generate(&mut DeterministicRng::seeded(seed))
            .expect("validated workload generates");
        let b = workload
            .generate(&mut DeterministicRng::seeded(seed))
            .expect("validated workload generates");
        assert_eq!(a, b, "case {case}: same seed, same trace");
        assert!(
            a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "case {case}: sorted"
        );
        let end = SimTime::ZERO + workload.horizon;
        assert!(a.iter().all(|r| r.arrival < end), "case {case}: bounded");
        // A slot binds one benchmark: its rank's, unless the trace is too
        // short to hold every rank and its slots were renumbered.
        let holds_every_rank = a.len() >= workload.functions as usize;
        let mut bound = vec![None; workload.functions as usize];
        for r in &a {
            assert!(r.function < workload.functions, "case {case}: slot range");
            let benchmark = *bound[r.function as usize].get_or_insert(r.benchmark);
            assert_eq!(benchmark, r.benchmark, "case {case}: function binding");
            if holds_every_rank {
                assert_eq!(
                    r.benchmark,
                    AzureWorkload::benchmark_of(r.function),
                    "case {case}: rank binding"
                );
            }
        }
        // Each function owns 32 objects of 256 KiB to 8 MiB.
        assert!(
            a.iter()
                .all(|r| r.object < 32 && (18..=23).contains(&r.object_size_log2)),
            "case {case}: object and size ranges"
        );
    });
}

/// Rate-profile validation rejects exactly the malformed inputs: any
/// non-finite or negative rate, any zero-length segment, or no segments.
#[test]
fn rate_profile_validation_catches_malformed_segments() {
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::cluster::workload::{Workload, WorkloadError};

    check(0xAC, |case, rng| {
        let len = int_in(rng, 1, 8) as usize;
        let mut segments: Vec<(SimDuration, f64)> = (0..len)
            .map(|_| {
                (
                    SimDuration::from_secs(int_in(rng, 1, 30)),
                    rng.uniform(0.0, 500.0),
                )
            })
            .collect();
        let profile = RateProfile {
            segments: segments.clone(),
        };
        assert_eq!(profile.validate(), Ok(()), "case {case}: well-formed");

        // Corrupt one segment and expect a typed error naming it.
        let victim = rng.next_index(len);
        let bad_rate = *rng.choose(&[f64::NAN, f64::INFINITY, -1.0]);
        segments[victim].1 = bad_rate;
        let profile = RateProfile { segments };
        match profile.validate() {
            Err(WorkloadError::InvalidRate { segment, .. }) => {
                assert_eq!(segment, victim, "case {case}")
            }
            other => panic!("case {case}: expected InvalidRate, got {other:?}"),
        }
    });
}

/// The hybrid-histogram keepalive never evicts a warm container before its
/// current window: for any observation history, an invocation arriving within
/// the reported window of the last finish always finds the container warm.
#[test]
fn hybrid_histogram_never_evicts_before_its_window() {
    use dscs_serverless::cluster::policy::{KeepalivePolicy, KeepaliveState};
    use dscs_serverless::simcore::time::SimTime;

    // The hybrid histogram's geometry: 10-second bins over 10 minutes.
    let (bin, range) = (SimDuration::from_secs(10), SimDuration::from_secs(600));
    check(0xAD, |case, rng| {
        let mut state = KeepaliveState::new(KeepalivePolicy::HybridHistogram);
        let function = int_in(rng, 0, 4) as u32;
        let mut now = SimTime::ZERO;
        let mut last_finish = None;
        for _ in 0..int_in(rng, 1, 120) {
            // Random idle gaps, some beyond the histogram range.
            let gap = SimDuration::from_secs_f64(rng.uniform(0.0, 1.5 * range.as_secs_f64()));
            now += gap;
            let window = state.window(function);
            if let Some(finish) = last_finish {
                let idle = now.saturating_since(finish);
                // The invariant under test: inside the window => warm.
                if idle <= window {
                    assert!(
                        state.is_warm(function, now),
                        "case {case}: idle {idle} within window {window} but cold"
                    );
                }
            }
            let service = SimDuration::from_secs_f64(rng.uniform(0.01, 2.0));
            state.record_invocation(function, now, now + service);
            last_finish = Some(now + service);
            now += service;
        }
        // The window never collapses below one bin nor exceeds the range.
        let w = state.window(function);
        assert!(w >= bin, "case {case}: window {w} < bin {bin}");
        assert!(w <= range, "case {case}: window {w} exceeds range {range}");
    });
}

/// Under both hybrid policies and any observation history, the prewarm
/// window never exceeds the eviction window, and it stays zero until the
/// pattern is learned. The coverage counter at the end checks that some
/// prewarm window opened.
#[test]
fn prewarm_window_never_exceeds_the_eviction_window() {
    use dscs_serverless::cluster::policy::{KeepalivePolicy, KeepaliveState};
    use dscs_serverless::simcore::time::SimTime;

    // The hybrid histogram's range.
    let range = SimDuration::from_secs(600);
    let mut prewarmed = 0;
    check(0xAE, |case, rng| {
        let function = int_in(rng, 0, 4) as u32;
        let steps = int_in(rng, 1, 150);
        let seed = rng.next_u64();
        for policy in [
            KeepalivePolicy::HybridHistogram,
            KeepalivePolicy::HybridPrewarm,
        ] {
            let mut state = KeepaliveState::new(policy);
            let rng = &mut DeterministicRng::seeded(seed);
            assert_eq!(
                state.prewarm_window(function),
                SimDuration::ZERO,
                "case {case}, {policy:?}: unlearned pattern must not prewarm"
            );
            let mut now = SimTime::ZERO;
            for _ in 0..steps {
                let gap = SimDuration::from_secs_f64(rng.uniform(0.0, 1.3 * range.as_secs_f64()));
                now += gap;
                let service = SimDuration::from_secs_f64(rng.uniform(0.01, 2.0));
                state.record_invocation(function, now, now + service);
                now += service;
                let prewarm = state.prewarm_window(function);
                let window = state.window(function);
                assert!(
                    prewarm <= window,
                    "case {case}, {policy:?}: prewarm {prewarm} exceeds eviction window {window}"
                );
                prewarmed += usize::from(prewarm > SimDuration::ZERO);
            }
        }
    });
    assert!(prewarmed > 0, "coverage: no prewarm window ever opened");
}

/// Autoscaled racks never exceed `max_instances` nor drop below
/// `min_instances`, under both elastic policies over random workloads and
/// random bounds. The coverage counters at the end check that some cases
/// scaled up and some scaled down.
#[test]
fn autoscaler_respects_its_instance_bounds() {
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::ScalingPolicy;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::spec::PlatformKind;

    // Evaluating the end-to-end model dominates the property's cost; the
    // per-case work is just the (tiny) trace replay, so share one base
    // simulator and reconfigure it per case.
    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let (mut scaled_up, mut scaled_down) = (0, 0);
    check(0xAF, |case, rng| {
        let min_instances = int_in(rng, 1, 12) as u32;
        let max_instances = min_instances + int_in(rng, 0, 80) as u32;
        let scaling = if rng.bernoulli(0.5) {
            ScalingPolicy::Reactive
        } else {
            ScalingPolicy::Predictive
        };
        // Segments of several seconds each, so the 5-second scaling ticks
        // fire under both rates.
        let profile = RateProfile {
            segments: vec![
                (
                    SimDuration::from_secs(int_in(rng, 5, 16)),
                    rng.uniform(5.0, 400.0),
                ),
                (
                    SimDuration::from_secs(int_in(rng, 5, 16)),
                    rng.uniform(5.0, 400.0),
                ),
            ],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000)));
        if trace.is_empty() {
            return;
        }
        let racks = 1 + int_in(rng, 0, 2) as u32;
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .instances(min_instances, max_instances)
            .scaling(scaling)
            .racks(racks)
            .seed(int_in(rng, 0, 1000))
            .build()
            .unwrap_or_else(|err| panic!("case {case}: bounded random config rejected: {err}"))
            .run_on(&base);
        let (report, summaries) = (&outcome.report, &outcome.racks);
        assert!(
            report.peak_instances <= max_instances,
            "case {case}: peak {} exceeds max {max_instances}",
            report.peak_instances
        );
        for rack in summaries {
            assert!(
                rack.low_instances >= min_instances,
                "case {case}: rack {} dropped to {} below min {min_instances}",
                rack.rack,
                rack.low_instances
            );
            assert!(rack.peak_instances <= max_instances, "case {case}");
        }
        assert_eq!(
            report.completed + report.rejected,
            trace.len() as u64,
            "case {case}: every request accounted for"
        );
        scaled_up += usize::from(report.scale_ups > 0);
        scaled_down += usize::from(report.scale_downs > 0);
    });
    assert!(
        scaled_up > 0 && scaled_down > 0,
        "coverage: {scaled_up} cases scaled up, {scaled_down} scaled down"
    );
}

/// Locality-aware balancing invariants, for random traces and rack counts:
/// every request is accounted for on some in-range rack (the per-rack
/// summaries are the racks the balancer selected), and a request whose
/// object has a replica on an un-saturated rack is never charged a
/// cross-rack fetch. The balancer spills only off a replica rack with more
/// than 64 requests queued, so a run in which no rack's queue ever grew past
/// 64 never spilled: it must complete with zero remote fetches and a
/// locality hit rate of one. The coverage counter at the end checks that
/// most cases are such runs.
#[test]
fn locality_aware_balancing_never_fetches_when_replica_racks_are_unsaturated() {
    use std::sync::Arc;

    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::LoadBalancer;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::spec::PlatformKind;

    /// Queue depth at a replica rack above which the locality balancer
    /// spills.
    const SPILL_THRESHOLD: usize = 64;
    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let (mut cases, mut unsaturated) = (0, 0);
    check(0xB2, |case, rng| {
        let racks = 1 + int_in(rng, 0, 4) as u32;
        let profile = RateProfile {
            segments: vec![(
                SimDuration::from_secs(int_in(rng, 1, 6)),
                rng.uniform(10.0, 300.0),
            )],
        };
        let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000))));
        if trace.is_empty() {
            return;
        }
        let data = Arc::new(DataLayer::for_trace(&trace, racks, int_in(rng, 0, 1000)));
        let outcome = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .racks(racks)
            .queue_depth(usize::MAX)
            .balancer(LoadBalancer::LocalityAware)
            .data_layer(data)
            .seed(int_in(rng, 0, 1000))
            .build()
            .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
            .run_on(&base);
        let (report, summaries) = (&outcome.report, &outcome.racks);
        assert_eq!(summaries.len(), racks as usize, "case {case}");
        assert_eq!(
            report.completed,
            trace.len() as u64,
            "case {case}: unbounded queues complete everything"
        );
        assert_eq!(
            report.locality_hits + report.remote_fetches,
            report.completed,
            "case {case}: every started request is classified local or remote"
        );
        assert_eq!(
            report.fetch_energy_j > 0.0,
            report.cross_rack_bytes > 0,
            "case {case}: joules flow exactly when bytes move"
        );
        cases += 1;
        if summaries.iter().all(|r| r.peak_queue <= SPILL_THRESHOLD) {
            unsaturated += 1;
            assert_eq!(
                report.remote_fetches, 0,
                "case {case}: un-saturated replica racks must never be bypassed"
            );
            assert_eq!(report.cross_rack_bytes, 0, "case {case}");
            assert_eq!(report.fetch_latency_s, 0.0, "case {case}");
            assert_eq!(
                report.fetch_energy_j, 0.0,
                "case {case}: no moved bytes, no joules"
            );
            assert_eq!(
                report.locality_hit_rate(),
                1.0,
                "case {case}: every start is local"
            );
        }
    });
    assert!(
        2 * unsaturated > cases,
        "coverage: only {unsaturated} of {cases} runs kept every queue at {SPILL_THRESHOLD} or less"
    );
}

/// The data layer's placement is exactly `ObjectStore::put`'s. For random
/// traces (function slots anywhere below the trace's length, in no
/// particular order, objects anywhere in each function's 32), rack counts
/// 1–6 and the 255 a layer
/// spans at most, and seeds, the home rack of every trace position is the one
/// rack a fresh store returns from `racks_holding` for that request's
/// object, after being fed the same distinct objects, in trace order, from
/// the same placement seed. The store has the layout `DataLayer`
/// documents: 4 conventional and 2 DSCS nodes per rack, 3 replicas, all
/// kept in the home rack.
#[test]
fn data_layer_placement_matches_an_object_store_oracle() {
    use std::collections::HashSet;

    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::trace::TraceRequest;
    use dscs_serverless::core::benchmarks::Benchmark;
    use dscs_serverless::simcore::time::SimTime;

    check(0xB3, |case, rng| {
        let racks = *rng.choose(&[1, 2, 3, 4, 5, 6, DataLayer::MAX_RACKS]);
        let seed = rng.next_u64();
        let requests = int_in(rng, 1, 300);
        let functions: Vec<u32> = (0..int_in(rng, 1, 24))
            .map(|_| int_in(rng, 0, requests) as u32)
            .collect();
        let objects = int_in(rng, 1, 33) as usize;
        let mut arrival = 0;
        let trace: Vec<TraceRequest> = (0..requests)
            .map(|_| {
                arrival += int_in(rng, 0, 1_000_000);
                TraceRequest {
                    arrival: SimTime::from_nanos(arrival),
                    benchmark: *rng.choose(&Benchmark::ALL),
                    function: *rng.choose(&functions),
                    object: rng.next_index(objects) as u8,
                    object_size_log2: 16 + rng.next_index(4) as u8,
                }
            })
            .collect();
        let data = DataLayer::for_trace(&trace, racks, seed);

        let mut oracle = ObjectStore::with_rack_layout(racks, 4, 2, 3, 1);
        let mut placement_rng = DeterministicRng::seeded(seed);
        let mut placed = HashSet::new();
        for (idx, request) in trace.iter().enumerate() {
            let key = format!("{}/{}", request.function, request.object);
            if placed.insert((request.function, request.object)) {
                oracle
                    .put(&key, request.object_bytes(), true, &mut placement_rng)
                    .expect("every rack has DSCS nodes");
            }
            let expected = oracle.racks_holding(&key).expect("placed");
            assert_eq!(
                [data.home_rack(idx)].as_slice(),
                expected.as_slice(),
                "case {case}: request {idx} reads ({}, {}) over {racks} racks",
                request.function,
                request.object
            );
        }
        assert_eq!(data.object_count(), placed.len(), "case {case}");
        assert_eq!(data.request_count(), trace.len(), "case {case}");
        assert_eq!(data.node_count(), oracle.node_count(), "case {case}");
    });
}

/// Draws one sample from the case's randomly chosen distribution family:
/// uniform, two-point (adversarial for interpolating estimators), or
/// heavy-tailed (inverse-power of a uniform, stressing the log buckets).
fn sketch_sample(rng: &mut DeterministicRng, family: u64) -> f64 {
    match family {
        0 => rng.uniform(1e-6, 1e6),
        1 => {
            if rng.bernoulli(0.9) {
                1.0
            } else {
                1e4
            }
        }
        _ => {
            // Pareto-like tail: u^(-2) over u in (0, 1], values in [1, 1e8).
            let u = rng.uniform(1e-4, 1.0);
            (u * u).recip()
        }
    }
}

/// A sketch that recorded `samples` in order.
fn sketch_of(samples: &[f64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    samples.iter().for_each(|&v| sketch.record(v));
    sketch
}

/// Merging sketches of disjoint sample sets is lossless: for any random
/// split of any sample stream, `merge(sketch(a), sketch(b))` agrees with
/// `sketch(a ∪ b)` bit-for-bit on count, min, max and every quantile.
#[test]
fn sketch_merge_equals_the_union_sketch() {
    check(0xB3, |case, rng| {
        let family = int_in(rng, 0, 3);
        let len = int_in(rng, 2, 400) as usize;
        let samples: Vec<f64> = (0..len).map(|_| sketch_sample(rng, family)).collect();
        let split = int_in(rng, 1, len as u64) as usize;
        let union = sketch_of(&samples);
        let mut merged = sketch_of(&samples[..split]);
        merged.merge(&sketch_of(&samples[split..]));
        assert_eq!(union.count(), merged.count(), "case {case}");
        assert_eq!(
            union.quantile(0.0).to_bits(),
            merged.quantile(0.0).to_bits(),
            "case {case}: min is tracked exactly"
        );
        assert_eq!(
            union.max().to_bits(),
            merged.max().to_bits(),
            "case {case}: max is tracked exactly"
        );
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(
                union.quantile(q).to_bits(),
                merged.quantile(q).to_bits(),
                "case {case}: q={q} must be merge-invariant"
            );
        }
        // The running sum is the one field where only summation *order*
        // differs, so the mean agrees to floating-point round-off.
        let scale = union.mean().abs().max(1.0);
        assert!(
            (union.mean() - merged.mean()).abs() <= 1e-9 * scale,
            "case {case}: mean {} vs {}",
            union.mean(),
            merged.mean()
        );
    });
}

/// The sketch's quantiles stay within the advertised relative accuracy of
/// the exact order statistic (rank `⌈q·n⌉`), across uniform, two-point and
/// heavy-tailed sample sets, and its exact statistics match
/// [`Summary::from_samples`] on the same data.
#[test]
fn sketch_quantiles_track_exact_order_statistics() {
    check(0xB4, |case, rng| {
        let family = int_in(rng, 0, 3);
        let len = int_in(rng, 1, 300) as usize;
        let samples: Vec<f64> = (0..len).map(|_| sketch_sample(rng, family)).collect();
        let sketch = sketch_of(&samples);
        let summary = Summary::from_samples(&samples);

        // Exact statistics agree with the buffering summary bit-for-bit
        // (count/min/max) or to round-off (mean: different summation order).
        assert_eq!(sketch.count(), summary.count() as u64, "case {case}");
        assert_eq!(
            sketch.quantile(0.0).to_bits(),
            summary.quantile(0.0).to_bits(),
            "case {case}"
        );
        assert_eq!(
            sketch.max().to_bits(),
            summary.max().to_bits(),
            "case {case}"
        );
        assert!(
            (sketch.mean() - summary.mean()).abs() <= 1e-9 * summary.mean().abs().max(1.0),
            "case {case}: mean {} vs {}",
            sketch.mean(),
            summary.mean()
        );

        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let rank = ((q * len as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let approx = sketch.quantile(q);
            // The bucket representative is within α of anything in its
            // bucket; allow a hair of floating-point slack on top.
            assert!(
                (approx - exact).abs() <= exact * SKETCH_RELATIVE_ACCURACY * 1.0001 + 1e-12,
                "case {case}: q={q} exact={exact} sketch={approx}"
            );
        }
    });
}

/// Sketch quantiles are monotone in `q` and bounded by the exact min/max —
/// the same invariant [`summary_quantiles_are_monotone`] pins for the
/// buffering summary.
#[test]
fn sketch_quantiles_are_monotone_and_bounded() {
    check(0xB5, |case, rng| {
        let family = int_in(rng, 0, 3);
        let len = int_in(rng, 1, 300) as usize;
        let samples: Vec<f64> = (0..len).map(|_| sketch_sample(rng, family)).collect();
        let sketch = sketch_of(&samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let mut previous = min;
        for i in 0..=40 {
            let q = i as f64 / 40.0;
            let v = sketch.quantile(q);
            assert!(v + 1e-12 >= previous, "case {case}: q={q} decreased");
            assert!(
                v >= min && v <= sketch.max(),
                "case {case}: q={q} out of [min, max]"
            );
            previous = v;
        }
    });
}

/// The sketch rejects the same malformed samples as [`Summary`], non-finite
/// values, plus negatives (it buckets by logarithm).
#[test]
#[should_panic(expected = "sketch samples must be non-negative and finite")]
fn sketch_rejects_nan_samples() {
    let mut sketch = QuantileSketch::new();
    sketch.record(f64::NAN);
}

#[test]
#[should_panic(expected = "sketch samples must be non-negative and finite")]
fn sketch_rejects_negative_samples() {
    let mut sketch = QuantileSketch::new();
    sketch.record(-1.0);
}

#[test]
#[should_panic(expected = "cannot summarise an empty sketch")]
fn sketch_rejects_quantiles_of_nothing() {
    let _ = QuantileSketch::new().p99();
}

/// With `ScalingPolicy::Fixed` the simulator is bit-identical to either
/// elastic pool pinned at the cap (`min == max`): the scale-tick machinery
/// must not perturb the RNG stream, the event ordering, or any reported
/// series.
#[test]
fn fixed_scaling_is_bit_identical_to_a_pinned_pool() {
    use std::sync::Arc;

    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::ScalingPolicy;
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::spec::PlatformKind;

    let fixed_sim = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    check(0xB0, |case, rng| {
        let profile = RateProfile {
            segments: vec![(
                SimDuration::from_secs(int_in(rng, 2, 8)),
                rng.uniform(20.0, 600.0),
            )],
        };
        let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000))));
        if trace.is_empty() {
            return;
        }
        let seed = int_in(rng, 0, 1000);
        let racks = 1 + int_in(rng, 0, 2) as u32;
        let run = |scaling, min| {
            Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scaling(scaling)
                .instances(min, 200)
                .racks(racks)
                .seed(seed)
                .build()
                .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
                .run_on(&fixed_sim)
        };
        let a = run(ScalingPolicy::Fixed, 8);
        for pinned_scaling in [ScalingPolicy::Reactive, ScalingPolicy::Predictive] {
            let b = run(pinned_scaling, 200);
            // The pinned-elastic run processes extra scale-tick engine events
            // that never change a decision; `events` counts them, so it is the
            // one deterministic field allowed to differ. Everything modelled
            // must still be bit-identical.
            let mut pinned_report = b.report.clone();
            assert!(
                pinned_report.events >= a.report.events,
                "case {case}, {pinned_scaling:?}: scale ticks only add events"
            );
            pinned_report.events = a.report.events;
            assert_eq!(
                a.report, pinned_report,
                "case {case}, {pinned_scaling:?}: reports must be bit-identical"
            );
            assert_eq!(a.racks, b.racks, "case {case}, {pinned_scaling:?}");
        }
    });
}

/// On one rack every balancer sends every arrival to that rack, so the
/// round-robin lane path and the coupled path (least-loaded, locality) are
/// two routes into one event loop that must agree bit for bit — under every
/// scaling and keepalive policy, with and without a data layer. The case
/// index walks that 3 x 4 x 2 grid, so every combination runs at least twice
/// (with random traces, pool bounds, queue depths and seeds).
#[test]
fn one_rack_runs_agree_across_lane_and_coupled_balancers() {
    use std::sync::Arc;

    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy};
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::spec::PlatformKind;

    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    check(0xB5, |case, rng| {
        let combo = case as usize % 24;
        let scaling = ScalingPolicy::ALL[combo % 3];
        let keepalive = KeepalivePolicy::ALL[combo / 3 % 4];
        let with_data = combo >= 12;
        let profile = RateProfile {
            segments: vec![(
                SimDuration::from_secs(int_in(rng, 2, 8)),
                rng.uniform(20.0, 600.0),
            )],
        };
        let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000))));
        if trace.is_empty() {
            return;
        }
        let min = int_in(rng, 1, 8) as u32;
        let max = min + int_in(rng, 0, 64) as u32;
        let queue_depth = int_in(rng, 1, 256) as usize;
        let seed = int_in(rng, 0, 1000);
        let data = with_data.then(|| Arc::new(DataLayer::for_trace(&trace, 1, seed)));
        let run = |balancer| {
            let builder = Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .scaling(scaling)
                .keepalive(keepalive)
                .instances(min, max)
                .queue_depth(queue_depth)
                .balancer(balancer)
                .seed(seed);
            let builder = match &data {
                Some(data) => builder.data_layer(data.clone()),
                None => builder,
            };
            builder
                .build()
                .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
                .run_on(&base)
        };
        let lane = run(LoadBalancer::RoundRobin);
        assert!(lane.engine.is_rack_parallel(), "case {case}");
        for balancer in [LoadBalancer::LeastLoaded, LoadBalancer::LocalityAware] {
            let coupled = run(balancer);
            assert!(!coupled.engine.is_rack_parallel(), "case {case}");
            assert_eq!(
                lane.report, coupled.report,
                "case {case}: {scaling:?} / {keepalive:?} / data {with_data} / {balancer:?}"
            );
            assert_eq!(lane.racks, coupled.racks, "case {case}: {balancer:?}");
        }
    });
}

/// The report is the rack ledgers summed. For random traces under every
/// balancer, scaling policy, keepalive policy, cold path and IPC transport,
/// with and without a data layer, on queues shallow enough to reject, every
/// `ClusterReport` counter is the rack-order fold of the run's
/// `RackSummary` list: integer counters sum exactly, the time, energy and
/// warm-second counters equal bit for bit a fold from `0.0` of the per-rack
/// values, and `peak_instances` is the racks' maximum. The coverage counters
/// at the end check that some cases rejected, fetched remotely, scaled up,
/// restored snapshots and hit prewarms.
#[test]
fn report_counters_are_rack_order_folds_of_the_rack_ledgers() {
    use std::sync::Arc;

    use dscs_serverless::cluster::coldpath::{ColdStartPath, IpcTransport};
    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy};
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim, RackSummary};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::spec::PlatformKind;

    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    let (mut rejected, mut fetched, mut scaled_up, mut restored, mut prewarmed) = (0, 0, 0, 0, 0);
    check(0xB9, |case, rng| {
        let balancer = LoadBalancer::ALL[rng.next_index(3)];
        let scaling = ScalingPolicy::ALL[rng.next_index(3)];
        let keepalive = KeepalivePolicy::ALL[rng.next_index(4)];
        let cold_path = ColdStartPath::ALL[rng.next_index(3)];
        let ipc = IpcTransport::ALL[rng.next_index(3)];
        let profile = RateProfile {
            segments: vec![(
                SimDuration::from_secs(int_in(rng, 2, 12)),
                rng.uniform(20.0, 600.0),
            )],
        };
        let trace = Arc::new(profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000))));
        if trace.is_empty() {
            return;
        }
        let racks = 1 + int_in(rng, 0, 4) as u32;
        let min = int_in(rng, 1, 8) as u32;
        let max = min + int_in(rng, 0, 64) as u32;
        let seed = int_in(rng, 0, 1000);
        let builder = Experiment::builder(PlatformKind::DscsDsa)
            .trace(trace.clone())
            .racks(racks)
            .balancer(balancer)
            .scaling(scaling)
            .keepalive(keepalive)
            .cold_path(cold_path)
            .ipc(ipc)
            .instances(min, max)
            .queue_depth(int_in(rng, 1, 128) as usize)
            .seed(seed);
        let builder = if rng.bernoulli(0.5) {
            builder.data_layer(DataLayer::for_trace(&trace, racks, seed))
        } else {
            builder
        };
        let outcome = builder
            .build()
            .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
            .run_on(&base);
        let (report, ledgers) = (&outcome.report, &outcome.racks);
        assert!(
            ledgers.iter().map(|r| r.rack).eq(0..racks),
            "case {case}: one ledger per rack, in rack order"
        );
        let sum = |count: fn(&RackSummary) -> u64| ledgers.iter().map(count).sum::<u64>();
        let fold =
            |value: fn(&RackSummary) -> f64| ledgers.iter().fold(0.0, |acc, r| acc + value(r));
        let peak = ledgers.iter().map(|r| r.peak_instances).max();
        assert_eq!(
            Some(report.peak_instances),
            peak,
            "case {case}: peak_instances"
        );
        for (name, reported, folded) in [
            ("completed", report.completed, sum(|r| r.completed)),
            ("rejected", report.rejected, sum(|r| r.rejected)),
            ("cold_starts", report.cold_starts, sum(|r| r.cold_starts)),
            (
                "prewarm_hits",
                report.prewarm_hits,
                sum(|r| r.keepalive.prewarm_hits),
            ),
            ("scale_ups", report.scale_ups, sum(|r| r.scale_ups)),
            ("scale_downs", report.scale_downs, sum(|r| r.scale_downs)),
            (
                "locality_hits",
                report.locality_hits,
                sum(|r| r.locality_hits),
            ),
            (
                "remote_fetches",
                report.remote_fetches,
                sum(|r| r.remote_fetches),
            ),
            (
                "cross_rack_bytes",
                report.cross_rack_bytes,
                sum(|r| r.cross_rack_bytes),
            ),
        ] {
            assert_eq!(reported, folded, "case {case}: {name}");
        }
        for (name, reported, folded) in [
            (
                "coldstart_s",
                report.coldstart_s,
                fold(|r| r.coldstart.as_secs_f64()),
            ),
            (
                "restore_s",
                report.restore_s,
                fold(|r| r.restore.as_secs_f64()),
            ),
            (
                "ipc_overhead_s",
                report.ipc_overhead_s,
                fold(|r| r.ipc_overhead.as_secs_f64()),
            ),
            (
                "scaling_lag_s",
                report.scaling_lag_s,
                fold(|r| r.scaling_lag.as_secs_f64()),
            ),
            (
                "fetch_latency_s",
                report.fetch_latency_s,
                fold(|r| r.fetch_latency.as_secs_f64()),
            ),
            (
                "fetch_energy_j",
                report.fetch_energy_j,
                fold(|r| r.fetch_energy_j),
            ),
            (
                "warm_seconds",
                report.warm_seconds,
                fold(|r| r.keepalive.warm_seconds),
            ),
            (
                "wasted_warm_seconds",
                report.wasted_warm_seconds,
                fold(|r| r.keepalive.wasted_warm_seconds),
            ),
        ] {
            assert_eq!(
                reported.to_bits(),
                folded.to_bits(),
                "case {case}: {name} reads {reported}, the ledgers fold to {folded}"
            );
        }
        assert_eq!(
            report.completed + report.rejected,
            trace.len() as u64,
            "case {case}: every request accounted for"
        );
        rejected += usize::from(report.rejected > 0);
        fetched += usize::from(report.remote_fetches > 0);
        scaled_up += usize::from(report.scale_ups > 0);
        restored += usize::from(report.restore_s > 0.0);
        prewarmed += usize::from(report.prewarm_hits > 0);
    });
    assert!(
        rejected > 0 && fetched > 0 && scaled_up > 0 && restored > 0 && prewarmed > 0,
        "coverage: of {CASES} cases {rejected} rejected, {fetched} fetched remotely, \
         {scaled_up} scaled up, {restored} restored snapshots and {prewarmed} hit prewarms"
    );
}

/// Snapshot-restore latency is monotone in snapshot size: more pages always
/// cost more to stream back and fault in, the warmup tail never exceeds the
/// restore it is part of, and a zero-size snapshot is free.
#[test]
fn snapshot_restore_latency_is_monotone_in_snapshot_size() {
    use dscs_serverless::storage::snapshot::{restore_latency, warmup_tail};

    check(0xB7, |case, rng| {
        let mut sizes: Vec<u64> = (0..12).map(|_| int_in(rng, 0, 4_000_000_000)).collect();
        sizes.sort_unstable();
        let mut previous = SimDuration::ZERO;
        let mut previous_size = 0u64;
        for &size in &sizes {
            let latency = restore_latency(Bytes::new(size));
            assert!(
                latency >= previous,
                "case {case}: {size} B restores faster than {previous_size} B"
            );
            assert!(
                warmup_tail(Bytes::new(size)) <= latency,
                "case {case}: tail exceeds the restore it is part of"
            );
            previous = latency;
            previous_size = size;
        }
        assert_eq!(
            restore_latency(Bytes::ZERO),
            SimDuration::ZERO,
            "case {case}: zero-size snapshots are free"
        );
    });
}

/// The offline-optimal cold-start bound is a true floor: for random traces,
/// rack counts, seeds and every scheduler / keepalive / scaling / balancer /
/// cold-start-path / IPC-transport combination, the measured aggregate
/// cold-start seconds never dip below the bound priced under the cell's own
/// modality, and the derived regret is therefore non-negative.
#[test]
fn offline_optimal_bound_floors_every_policys_cold_start_seconds() {
    use dscs_serverless::cluster::coldpath::{ColdStartPath, IpcTransport};
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::optimal::{optimal_coldstart_seconds, regret_pct};
    use dscs_serverless::cluster::policy::{
        KeepalivePolicy, LoadBalancer, ScalingPolicy, SchedulerPolicy,
    };
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::RateProfile;
    use dscs_serverless::platforms::spec::PlatformKind;

    // Model evaluation dominates; share one base simulator per platform and
    // replay the (tiny) random traces against it.
    let bases: Vec<ClusterSim> = [PlatformKind::BaselineCpu, PlatformKind::DscsDsa]
        .into_iter()
        .map(|p| ClusterSim::new(p, ClusterConfig::default()))
        .collect();
    check(0xB0, |case, rng| {
        let profile = RateProfile {
            segments: vec![
                (
                    SimDuration::from_secs(int_in(rng, 1, 8)),
                    rng.uniform(5.0, 300.0),
                ),
                (
                    SimDuration::from_secs(int_in(rng, 1, 8)),
                    rng.uniform(5.0, 300.0),
                ),
            ],
        };
        let trace = profile.generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000)));
        if trace.is_empty() {
            return;
        }
        let base = &bases[int_in(rng, 0, 2) as usize];
        let scheduler = SchedulerPolicy::ALL[int_in(rng, 0, 3) as usize];
        let keepalive = KeepalivePolicy::ALL[int_in(rng, 0, 4) as usize];
        let scaling = ScalingPolicy::ALL[int_in(rng, 0, 3) as usize];
        let balancer = LoadBalancer::ALL[int_in(rng, 0, 3) as usize];
        let cold_path = ColdStartPath::ALL[int_in(rng, 0, 3) as usize];
        let ipc = IpcTransport::ALL[int_in(rng, 0, 3) as usize];
        let outcome = Experiment::builder(base.platform())
            .trace(trace.clone())
            .racks(1 + int_in(rng, 0, 3) as u32)
            .scheduler(scheduler)
            .keepalive(keepalive)
            .scaling(scaling)
            .balancer(balancer)
            .cold_path(cold_path)
            .ipc(ipc)
            .seed(int_in(rng, 0, 1000))
            .build()
            .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
            .run_on(base);
        // Price the bound under the cell's own cold-start modality (the IPC
        // transport charges the request path, not cold starts, so it is not
        // part of the bound's pricing).
        let priced = base.reconfigured(ClusterConfig {
            cold_path,
            ..ClusterConfig::default()
        });
        let bound = optimal_coldstart_seconds(&trace, &priced);
        assert_eq!(
            outcome.optimal_coldstart_s, bound,
            "case {case}: the outcome carries exactly the recomputed bound"
        );
        // The floor is exact in real arithmetic; allow one part in 1e9 for
        // summation-order noise (racks accumulate in event order, the bound
        // in trace order).
        assert!(
            outcome.report.coldstart_s >= bound * (1.0 - 1e-9),
            "case {case} ({} / {} / {} / {} / {} / {}): measured {} below the bound {bound}",
            scheduler.name(),
            keepalive.name(),
            scaling.name(),
            balancer.name(),
            cold_path.name(),
            ipc.name(),
            outcome.report.coldstart_s,
        );
        assert!(
            regret_pct(outcome.report.coldstart_s, bound) >= 0.0,
            "case {case}"
        );
    });
}

/// `trace` with its function slots renumbered densely: `0..k` for its `k`
/// distinct slots, in ascending order.
fn dense_slots(
    trace: &[dscs_serverless::cluster::trace::TraceRequest],
) -> Vec<dscs_serverless::cluster::trace::TraceRequest> {
    let mut slots: Vec<u32> = trace.iter().map(|r| r.function).collect();
    slots.sort_unstable();
    slots.dedup();
    trace
        .iter()
        .map(|r| dscs_serverless::cluster::trace::TraceRequest {
            function: slots.binary_search(&r.function).expect("listed") as u32,
            ..*r
        })
        .collect()
}

/// `trace` with its function slots spread apart by an order-preserving map:
/// its `k` distinct slots go, in ascending order, to a uniformly random
/// `k`-subset of `0..trace.len()`, so the new slots keep their order, leave
/// gaps and stay below the request count.
fn spread_slots(
    trace: &[dscs_serverless::cluster::trace::TraceRequest],
    rng: &mut DeterministicRng,
) -> Vec<dscs_serverless::cluster::trace::TraceRequest> {
    let mut slots: Vec<u32> = trace.iter().map(|r| r.function).collect();
    slots.sort_unstable();
    slots.dedup();
    // Selection sampling: take each candidate with probability
    // still-needed / candidates-left, which ends with exactly `k` taken.
    let mut spread = Vec::with_capacity(slots.len());
    for candidate in 0..trace.len() {
        let needed = slots.len() - spread.len();
        if rng.next_index(trace.len() - candidate) < needed {
            spread.push(candidate as u32);
        }
    }
    trace
        .iter()
        .map(|r| dscs_serverless::cluster::trace::TraceRequest {
            function: spread[slots.binary_search(&r.function).expect("listed")],
            ..*r
        })
        .collect()
}

/// A run with a data layer prices its offline bound from the layer's first
/// request per function, without walking the trace, while the public
/// wrappers walk it by slot. The two agree bit for bit on random traces,
/// half of them windows of `data/azure_trace_sample.csv` renumbered
/// densely. The wrappers depend on function identity and order only:
/// spreading the slots apart, below the request count, leaves the bound's
/// bits unchanged at zero and positive warm costs.
#[test]
fn slot_based_offline_bound_equals_the_public_wrappers() {
    use dscs_serverless::cluster::coldpath::ColdStartPath;
    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::optimal::{
        optimal_coldstart_seconds, optimal_coldstart_seconds_with,
    };
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::{RateProfile, TraceRequest};
    use dscs_serverless::cluster::workload::WorkloadSpec;
    use dscs_serverless::platforms::spec::PlatformKind;

    let sample = WorkloadSpec::TraceFile {
        path: concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_trace_sample.csv").into(),
        day: 1,
    }
    .realize()
    .expect("the sample trace is checked in")
    .trace;
    let bases: Vec<ClusterSim> = [PlatformKind::BaselineCpu, PlatformKind::DscsDsa]
        .into_iter()
        .map(|p| ClusterSim::new(p, ClusterConfig::default()))
        .collect();
    check(0xB1, |case, rng| {
        let trace: Vec<TraceRequest> = if case % 2 == 0 {
            // A random window of the sample file, thinned at random. Its
            // slots count every function of the file's day, which may reach
            // past the window's length, so they are renumbered densely.
            let len = int_in(rng, 50, 600) as usize;
            let start = int_in(rng, 0, (sample.len() - len) as u64) as usize;
            let keep = rng.uniform(0.2, 1.0);
            let window: Vec<TraceRequest> = sample[start..start + len]
                .iter()
                .filter(|_| rng.bernoulli(keep))
                .copied()
                .collect();
            dense_slots(&window)
        } else {
            RateProfile {
                segments: vec![(
                    SimDuration::from_secs(int_in(rng, 1, 8)),
                    rng.uniform(5.0, 300.0),
                )],
            }
            .generate(&mut DeterministicRng::seeded(int_in(rng, 0, 1000)))
        };
        if trace.is_empty() {
            return;
        }
        let base = &bases[int_in(rng, 0, 2) as usize];
        let cold_path = ColdStartPath::ALL[int_in(rng, 0, 3) as usize];
        let priced = base.reconfigured(ClusterConfig {
            cold_path,
            ..ClusterConfig::default()
        });
        let racks = 1 + int_in(rng, 0, 3) as u32;
        let data = DataLayer::for_trace(&trace, racks, int_in(rng, 0, 1000));
        let outcome = Experiment::builder(base.platform())
            .trace(trace.clone())
            .racks(racks)
            .cold_path(cold_path)
            .data_layer(data)
            .build()
            .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
            .run_on(base);
        assert_eq!(
            outcome.optimal_coldstart_s.to_bits(),
            optimal_coldstart_seconds(&trace, &priced).to_bits(),
            "case {case}: the layer's bound and the wrapper disagree"
        );
        let spread = spread_slots(&trace, rng);
        for warm in [0.0, rng.uniform(1e-4, 1.0), 1e3] {
            assert_eq!(
                optimal_coldstart_seconds_with(&spread, &priced, warm).to_bits(),
                optimal_coldstart_seconds_with(&trace, &priced, warm).to_bits(),
                "case {case}, warm cost {warm}"
            );
        }
    });
}

/// Function slots may have gaps: every per-function table grows to the
/// highest slot and skips slots that never ran, and sums run in ascending
/// slot order. So on random small traces, spreading the slots apart with an
/// order-preserving map that stays below the request count leaves the
/// whole `Outcome` bit-identical under every balancer, with and without a
/// data layer. The case index walks the 4 keepalive x 3 scaling policies.
#[test]
fn spreading_function_slots_leaves_every_outcome_bit_identical() {
    use std::sync::Arc;

    use dscs_serverless::cluster::data::DataLayer;
    use dscs_serverless::cluster::experiment::Experiment;
    use dscs_serverless::cluster::policy::{KeepalivePolicy, LoadBalancer, ScalingPolicy};
    use dscs_serverless::cluster::sim::{ClusterConfig, ClusterSim};
    use dscs_serverless::cluster::trace::TraceRequest;
    use dscs_serverless::core::benchmarks::Benchmark;
    use dscs_serverless::platforms::spec::PlatformKind;
    use dscs_serverless::simcore::time::SimTime;

    let base = ClusterSim::new(PlatformKind::DscsDsa, ClusterConfig::default());
    check(0xB8, |case, rng| {
        let combo = case as usize % 12;
        let keepalive = KeepalivePolicy::ALL[combo % 4];
        let scaling = ScalingPolicy::ALL[combo / 4];
        let requests = int_in(rng, 1, 200);
        let functions = int_in(rng, 1, requests.min(24) + 1);
        let mut arrival = 0;
        let trace: Vec<TraceRequest> = (0..requests)
            .map(|_| {
                arrival += int_in(rng, 0, 100_000_000);
                let function = int_in(rng, 0, functions) as u32;
                TraceRequest {
                    arrival: SimTime::from_nanos(arrival),
                    benchmark: Benchmark::ALL[function as usize % Benchmark::ALL.len()],
                    function,
                    object: rng.next_index(32) as u8,
                    object_size_log2: 18 + rng.next_index(6) as u8,
                }
            })
            .collect();
        let spread = spread_slots(&trace, rng);
        let racks = 1 + int_in(rng, 0, 4) as u32;
        let seed = int_in(rng, 0, 1000);
        let run = |trace: &[TraceRequest], balancer, with_data: bool| {
            let trace = Arc::new(trace.to_vec());
            let builder = Experiment::builder(PlatformKind::DscsDsa)
                .trace(trace.clone())
                .racks(racks)
                .keepalive(keepalive)
                .scaling(scaling)
                .balancer(balancer)
                .seed(seed);
            let builder = if with_data {
                builder.data_layer(DataLayer::for_trace(&trace, racks, seed))
            } else {
                builder
            };
            builder
                .build()
                .unwrap_or_else(|err| panic!("case {case}: valid config rejected: {err}"))
                .run_on(&base)
        };
        for balancer in LoadBalancer::ALL {
            for with_data in [false, true] {
                assert_eq!(
                    run(&trace, balancer, with_data),
                    run(&spread, balancer, with_data),
                    "case {case}: {keepalive:?} / {scaling:?} / {balancer:?} / data {with_data}"
                );
            }
        }
    });
}

/// Applies one to three random mutations to `bytes`: a truncation, a bit
/// flip, a cut of up to 64 bytes, or a splice of one of `splices`.
fn mutate(rng: &mut DeterministicRng, bytes: &mut Vec<u8>, splices: &[&[u8]]) {
    for _ in 0..int_in(rng, 1, 4) {
        let at = rng.next_index(bytes.len() + 1);
        match rng.next_index(4) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << rng.next_index(8),
            2 => {
                let end = (at + 1 + rng.next_index(64)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let splice = splices[rng.next_index(splices.len())];
                bytes.splice(at..at, splice.iter().copied());
            }
        }
    }
}

/// Mutated copies of the checked-in sample trace (truncated, bit-flipped,
/// cut, or with a number, quote, separator, line break or non-UTF-8 byte
/// spliced in) ingest to a workload or a typed `IngestError`, never a
/// panic, and every workload that comes back expands and re-emits. A
/// byte-order mark, blank lines around the records and CRLF line ends
/// change nothing: the sample parses to the same workload.
#[test]
fn mutated_trace_files_ingest_to_a_workload_or_a_typed_error() {
    use dscs_serverless::cluster::ingest::TraceFileWorkload;
    use dscs_serverless::cluster::workload::Workload;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_trace_sample.csv");
    let sample = std::fs::read(path).expect("the sample trace is checked in");
    let ingest = |bytes: &[u8]| TraceFileWorkload::from_reader(bytes, "sample", 1);
    let plain = ingest(&sample).expect("the sample parses");
    let text = std::str::from_utf8(&sample).expect("the sample is UTF-8");
    for (what, variant) in [
        ("a byte-order mark", format!("\u{feff}{text}")),
        ("a blank line after a BOM", format!("\u{feff}\n{text}")),
        ("leading blank lines", format!("\n \n{text}")),
        ("trailing blank lines", format!("{text}\n\r\n\n")),
        ("CRLF line ends", text.replace('\n', "\r\n")),
    ] {
        assert_eq!(ingest(variant.as_bytes()).as_ref(), Ok(&plain), "{what}");
    }

    let splices: [&[u8]; 11] = [
        b"NaN",
        b"-1",
        b"18446744073709551616",
        b"4294967296",
        b"\"",
        b",",
        b"\r",
        b"\n",
        b"\r\n",
        b"\xff",
        b"\xc3",
    ];
    check(0xB9, |case, rng| {
        let mut bytes = sample.clone();
        mutate(rng, &mut bytes, &splices);
        let Ok(workload) = ingest(&bytes) else {
            return;
        };
        // Cuts can merge neighbouring counts into one larger count. A
        // workload of more than 2^22 requests is only re-emitted, since its
        // expansion would take more memory than a test should.
        if workload.invocations() <= 1 << 22 {
            let trace = workload
                .generate(&mut DeterministicRng::seeded(case))
                .unwrap_or_else(|err| panic!("case {case}: parsed workload rejected: {err}"));
            assert_eq!(trace.len() as u64, workload.invocations(), "case {case}");
        }
        let csv = workload.to_csv();
        assert_eq!(
            TraceFileWorkload::from_reader(csv.as_bytes(), "sample", 1).as_ref(),
            Ok(&workload),
            "case {case}: re-emission parses back"
        );
    });
}

/// What the parser fuzz tests splice into their seeds: numbers JSON rejects
/// or overflows, a sign, quotes, escapes (a lone surrogate among them),
/// openers, a separator and line breaks.
const PARSER_SPLICES: [&[u8]; 12] = [
    b"NaN", b"-", b"1e999", b"\"", b"\\", b"\\u", b"\\ud800", b"{", b"[", b",", b"\r", b"\n",
];

/// Mutants per case in the parser fuzz tests: 8 x 64 cases = 512 mutants.
const MUTANTS_PER_CASE: usize = 8;

/// Mutated CSV records (trace lines and a record with quoted fields) split
/// into fields or a typed `CsvError`, never a panic, and every record that
/// splits renders back to text that splits to the same fields.
#[test]
fn mutated_csv_records_split_or_fail_typed_and_round_trip() {
    use dscs_serverless::simcore::csv::{render_record, split_record};

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_trace_sample.csv");
    let sample = std::fs::read_to_string(path).expect("the sample trace is checked in");
    let mut seeds: Vec<&str> = sample.lines().take(3).collect();
    seeds.push(r#""owner, inc.","say ""hi""",,http,1,2"#);
    let (mut split, mut rejected) = (0, 0);
    check(0xBA, |case, rng| {
        for _ in 0..MUTANTS_PER_CASE {
            let mut bytes = seeds[rng.next_index(seeds.len())].as_bytes().to_vec();
            mutate(rng, &mut bytes, &PARSER_SPLICES);
            let record = String::from_utf8_lossy(&bytes);
            let result = std::panic::catch_unwind(|| split_record(&record, 1))
                .unwrap_or_else(|_| panic!("case {case}: split_record panicked on {record:?}"));
            let Ok(fields) = result else {
                rejected += 1;
                continue;
            };
            split += 1;
            assert_eq!(
                split_record(&render_record(&fields), 1),
                Ok(fields),
                "case {case}: {record:?} does not round-trip"
            );
        }
    });
    assert!(
        split > 0 && rejected > 0,
        "{split} split, {rejected} rejected"
    );
}

/// Mutated JSON documents parse to a value or a typed `JsonParseError`,
/// never a panic, and every value that parses renders to text that parses
/// and renders to the same bytes. The values themselves are not compared: a
/// whole-valued float such as `-3e2` renders as `-300`, which parses back as
/// an integer.
#[test]
fn mutated_json_documents_parse_or_fail_typed_and_render_stably() {
    use dscs_serverless::simcore::json::JsonValue;

    let seed = concat!(
        r#"{"schema":"dscs-at-scale-v8","wall_s":0.512,"cells":[{"platform":"dscs","#,
        r#""events":18446744073709551615,"delta":-3,"rate":1.5e-7,"ok":true,"#,
        r#""note":"a \"quoted\" \\ \u00e9 line\n","none":null}],"nested":[[],{},[1,[2]]]}"#
    );
    JsonValue::parse(seed).expect("the seed document parses");
    let (mut parsed, mut rejected) = (0, 0);
    check(0xBB, |case, rng| {
        for _ in 0..MUTANTS_PER_CASE {
            let mut bytes = seed.as_bytes().to_vec();
            mutate(rng, &mut bytes, &PARSER_SPLICES);
            let text = String::from_utf8_lossy(&bytes);
            let result = std::panic::catch_unwind(|| JsonValue::parse(&text))
                .unwrap_or_else(|_| panic!("case {case}: parse panicked on {text:?}"));
            let Ok(value) = result else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            let rendered = value.render();
            let again = JsonValue::parse(&rendered).unwrap_or_else(|err| {
                panic!("case {case}: {rendered:?} from {text:?} does not parse: {err}")
            });
            assert_eq!(again.render(), rendered, "case {case}: from {text:?}");
        }
    });
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
