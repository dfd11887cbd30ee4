//! Datacenter network and RPC model.
//!
//! In the baseline (traditional) system every serverless function reads its
//! input from and writes its output to remote disaggregated storage. One such
//! access is: an RPC over the datacenter network (with a heavy-tailed latency),
//! protobuf serialization/deserialization on both sides, system-call and
//! storage-software overhead on the storage node, and the payload transfer at
//! the network bandwidth. The constants describe a 100 Gb/s fabric fronting
//! an S3-style object store, calibrated so that the resulting read latencies
//! match Figure 3 (tens of milliseconds with a p99 roughly 2.1x the median)
//! and the >55 % communication share of Figure 4.

use dscs_simcore::dist::LogNormalDist;
use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::SimDuration;

/// Sustained per-flow network bandwidth.
const BANDWIDTH: Bandwidth = Bandwidth::from_gbits_per_sec(100.0);
/// Median base RPC latency (request + response network time, queueing,
/// storage-service software) for a small object.
const RPC_MEDIAN: SimDuration = SimDuration::from_millis(18);
/// 99th-percentile base RPC latency.
const RPC_P99: SimDuration = SimDuration::from_micros(38_000);
/// Protobuf (de)serialization throughput on the CPUs at each end.
const SERIALIZATION_BANDWIDTH: Bandwidth = Bandwidth::from_gbps(2.0);
/// Per-RPC fixed CPU overhead (system calls, connection handling).
const PER_RPC_CPU: SimDuration = SimDuration::from_micros(250);
/// Network interface + switch energy per byte, in picojoules.
const ENERGY_PJ_PER_BYTE: f64 = 60.0;

/// The base-latency distribution implied by the calibration.
fn rpc_distribution() -> LogNormalDist {
    LogNormalDist::from_median_p99(RPC_MEDIAN.as_secs_f64(), RPC_P99.as_secs_f64())
}

/// The network/RPC model used by remote reads and writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Multiplier applied to the base-latency spread (1.0 = calibrated tail,
    /// 0.0 = deterministic). Used by the tail-latency sensitivity study.
    tail_scale: f64,
}

impl Default for NetworkModel {
    /// The calibrated model, at its measured tail.
    fn default() -> Self {
        NetworkModel { tail_scale: 1.0 }
    }
}

impl NetworkModel {
    /// Returns a copy with the latency tail scaled by `factor`.
    pub fn with_tail_scale(&self, factor: f64) -> Self {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "tail factor must be non-negative"
        );
        NetworkModel { tail_scale: factor }
    }

    /// Deterministic (no sampling) latency of one remote object access of
    /// `size` bytes at quantile `q` of the base-latency distribution.
    pub fn access_latency_at_quantile(&self, size: Bytes, q: f64) -> SimDuration {
        let dist = rpc_distribution().with_tail_scaled(self.tail_scale);
        let base = SimDuration::from_secs_f64(dist.quantile(q));
        base + self.payload_latency(size)
    }

    /// Samples the latency of one remote object access (RPC + payload).
    pub fn sample_access_latency(&self, size: Bytes, rng: &mut DeterministicRng) -> SimDuration {
        let dist = rpc_distribution().with_tail_scaled(self.tail_scale);
        let base = SimDuration::from_secs_f64(dist.sample(rng));
        base + self.payload_latency(size)
    }

    /// The size-dependent part of an access: serialization at both ends plus
    /// wire transfer plus fixed per-RPC CPU cost.
    pub fn payload_latency(&self, size: Bytes) -> SimDuration {
        let wire = BANDWIDTH.transfer_time(size);
        let serialization = SERIALIZATION_BANDWIDTH.transfer_time(size) * 2u64;
        wire + serialization + PER_RPC_CPU
    }

    /// Energy attributable to moving `size` bytes over the fabric (NICs and
    /// switches at both ends).
    pub fn transfer_energy_joules(&self, size: Bytes) -> f64 {
        size.as_f64() * ENERGY_PJ_PER_BYTE * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_simcore::stats::Summary;

    #[test]
    fn median_and_tail_match_calibration() {
        let net = NetworkModel::default();
        let mut rng = DeterministicRng::seeded(42);
        let size = Bytes::from_kib(64);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| net.sample_access_latency(size, &mut rng).as_secs_f64())
            .collect();
        let s = Summary::from_samples(&samples);
        // Median around 18-20 ms, p99/p50 about 2x (the paper reports a 110%
        // gap between median and p99).
        assert!((0.015..0.030).contains(&s.p50()), "p50 {}", s.p50());
        let ratio = s.p99() / s.p50();
        assert!((1.6..2.6).contains(&ratio), "tail ratio {ratio}");
    }

    #[test]
    fn larger_objects_take_longer() {
        let net = NetworkModel::default();
        let small = net.access_latency_at_quantile(Bytes::from_kib(16), 0.5);
        let large = net.access_latency_at_quantile(Bytes::from_mib(16), 0.5);
        assert!(large > small);
    }

    #[test]
    fn quantiles_are_monotone() {
        let net = NetworkModel::default();
        let size = Bytes::from_mib(1);
        let p50 = net.access_latency_at_quantile(size, 0.5);
        let p95 = net.access_latency_at_quantile(size, 0.95);
        let p99 = net.access_latency_at_quantile(size, 0.99);
        assert!(p50 < p95 && p95 < p99);
    }

    #[test]
    fn zero_tail_scale_makes_access_deterministic() {
        let net = NetworkModel::default().with_tail_scale(0.0);
        let size = Bytes::from_kib(64);
        assert_eq!(
            net.access_latency_at_quantile(size, 0.5),
            net.access_latency_at_quantile(size, 0.99)
        );
    }

    #[test]
    fn serialization_is_part_of_payload_cost() {
        let net = NetworkModel::default();
        let size = Bytes::from_mib(8);
        let wire_only = BANDWIDTH.transfer_time(size);
        assert!(net.payload_latency(size) > wire_only * 2u64);
    }

    #[test]
    fn energy_scales_with_bytes() {
        let net = NetworkModel::default();
        let e1 = net.transfer_energy_joules(Bytes::from_mib(1));
        let e2 = net.transfer_energy_joules(Bytes::from_mib(2));
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }
}
