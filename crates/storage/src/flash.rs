//! NAND flash array model.
//!
//! The DSCS-Drive's flash array is organised as multiple channels of NAND dies
//! behind an SSD controller (Figure 5b). Reads pay a per-page sensing latency
//! and then stream at the aggregate channel bandwidth; writes pay program
//! latency. The constants describe a datacenter NVMe-class array like the
//! SmartSSD's 4 TB one: 8 channels x 800 MB/s and ~70 us read latency
//! (~3-7 GB/s sequential, ~60-90 us random-read latency in that class).

use dscs_simcore::quantity::{Bandwidth, Bytes};
use dscs_simcore::time::SimDuration;

/// Number of independent flash channels.
const CHANNELS: u32 = 8;
/// Per-channel sustained bandwidth.
const CHANNEL_BANDWIDTH: Bandwidth = Bandwidth::from_mbps(800.0);
/// Aggregate sequential bandwidth across all channels.
const AGGREGATE_BANDWIDTH: Bandwidth =
    Bandwidth::from_bytes_per_sec(CHANNEL_BANDWIDTH.bytes_per_sec() * CHANNELS as f64);
/// Page read (sensing + transfer setup) latency.
const READ_LATENCY: SimDuration = SimDuration::from_micros(70);
/// Page program latency.
const PROGRAM_LATENCY: SimDuration = SimDuration::from_micros(500);
/// Energy per byte read or written, in picojoules.
const ENERGY_PJ_PER_BYTE: f64 = 45.0;

/// Latency to read `size` bytes: one page-read latency (the first page
/// sensing overlaps subsequent transfers) plus streaming at the aggregate
/// bandwidth.
pub fn read_latency(size: Bytes) -> SimDuration {
    if size.as_u64() == 0 {
        return SimDuration::ZERO;
    }
    READ_LATENCY + AGGREGATE_BANDWIDTH.transfer_time(size)
}

/// Latency to write `size` bytes.
pub fn write_latency(size: Bytes) -> SimDuration {
    if size.as_u64() == 0 {
        return SimDuration::ZERO;
    }
    PROGRAM_LATENCY + AGGREGATE_BANDWIDTH.transfer_time(size)
}

/// Energy to move `size` bytes through the flash interface.
pub fn access_energy_joules(size: Bytes) -> f64 {
    size.as_f64() * ENERGY_PJ_PER_BYTE * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_bandwidth_sums_channels() {
        assert!((AGGREGATE_BANDWIDTH.as_gbps() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn small_reads_dominated_by_latency() {
        let small = read_latency(Bytes::from_kib(4));
        assert!(small.as_micros_f64() >= 70.0);
        assert!(small.as_micros_f64() < 80.0);
    }

    #[test]
    fn large_reads_dominated_by_bandwidth() {
        let large = read_latency(Bytes::from_mib(64));
        // 64 MiB at 6.4 GB/s ~ 10.5 ms.
        assert!(large.as_millis_f64() > 9.0 && large.as_millis_f64() < 13.0);
    }

    #[test]
    fn writes_slower_than_reads() {
        let size = Bytes::from_mib(1);
        assert!(write_latency(size) > read_latency(size));
    }

    #[test]
    fn zero_size_is_free() {
        assert_eq!(read_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(write_latency(Bytes::ZERO), SimDuration::ZERO);
        assert_eq!(access_energy_joules(Bytes::ZERO), 0.0);
    }

    #[test]
    fn energy_scales_linearly() {
        let e1 = access_energy_joules(Bytes::from_mib(1));
        let e4 = access_energy_joules(Bytes::from_mib(4));
        assert!((e4 / e1 - 4.0).abs() < 1e-9);
    }
}
