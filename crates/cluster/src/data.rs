//! The cluster's data-placement layer: couples
//! [`dscs_storage::object_store::ObjectStore`] into dispatch.
//!
//! The paper's core claim is that pushing compute into the storage drives
//! wins because the data does not move — so the cluster simulation has to
//! know where each request's data *is*. [`DataLayer`] places every object a
//! trace touches over a rack-aware object-store layout (each rack owns a pod
//! of storage nodes; replicas stay in their home rack, the data-gravity
//! layout the in-storage execution model assumes), drawing each placement
//! with [`ObjectStore::draw_replicas`], the algorithm behind
//! [`ObjectStore::put`]. It then answers the two questions the simulator
//! asks on the hot path, by trace position rather than by key:
//!
//! * which rack holds the replicas of this request's object (the
//!   locality-aware balancer's dispatch input), and
//! * what a non-local rack pays to fetch the object — the
//!   [`RemoteFetchModel`] price over the network/RPC stack and the drive's
//!   PCIe hop, replacing the old assumption that every rack reads locally.
//!
//! Placement hashes nothing. A request names its function by slot
//! ([`TraceRequest::function`], below the trace's request count), so the
//! set-up table of home racks is indexed by slot and object directly, and
//! the layer keeps one byte per request, the home rack of its object, which
//! the engine reads in arrival order.
//!
//! Placement is deterministic: the same trace, rack count and seed reproduce
//! the same layout, so sharded runs stay byte-for-byte reproducible.

use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::SimDuration;
use dscs_storage::object_store::{ObjectStore, RemoteFetchModel};

use crate::trace::{assert_function_in_range, TraceRequest};
use crate::workload::{OBJECTS_PER_FUNCTION, OBJECT_SIZE_EXPONENTS};

/// Storage pod each rack contributes to the store.
const CONVENTIONAL_PER_RACK: u32 = 4;
const DSCS_PER_RACK: u32 = 2;
/// Replication factor of the trace's objects.
const REPLICATION: usize = 3;
/// Replicas stay within the object's home rack (data gravity): in-storage
/// acceleration only pays off where the bytes already are.
const RACK_SPREAD: u32 = 1;
// Every replica of an object lives in its home rack, so one home rack per
// object is its whole placement answer.
const _: () = assert!(RACK_SPREAD == 1);
/// The home-table entry of an object no request has read yet. Home racks
/// are `0..racks`, so with at most [`DataLayer::MAX_RACKS`] racks every one
/// sits below it.
const UNPLACED: u8 = u8::MAX;
/// Home-table entries per function: one per object it can read.
const HOME_ROW: usize = OBJECTS_PER_FUNCTION as usize;

/// What one cross-rack fetch of a given size costs: the wall-clock latency
/// charged onto the invocation and the joules the fabric and remote drive
/// spend moving the bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchCost {
    pub(crate) latency: SimDuration,
    pub(crate) energy_j: f64,
}

impl FetchCost {
    /// The cost of every object size a request can carry, by size exponent
    /// ([`TraceRequest::object_size_log2`]).
    fn by_size_log2(fetch: &RemoteFetchModel) -> [FetchCost; OBJECT_SIZE_EXPONENTS as usize] {
        std::array::from_fn(|log2| {
            let size = Bytes::new(1 << log2);
            FetchCost {
                latency: fetch.fetch_latency(size),
                energy_j: fetch.fetch_energy_joules(size),
            }
        })
    }
}

/// The placement of every object one trace touches, plus the fetch-cost
/// model charged when a request runs on a rack without a replica.
///
/// A layer is the placement of exactly one trace, and it answers only by
/// trace position: it keeps one byte per request, the home rack of the
/// object it reads, and nothing per object. Runs therefore reject a layer
/// whose request count differs from their trace's
/// ([`crate::experiment::ConfigError::DataLayerTraceMismatch`]); attach a
/// layer only to the trace it was built from.
#[derive(Debug, Clone)]
pub struct DataLayer {
    racks: u32,
    /// Storage nodes in the layout the objects were placed over.
    nodes: usize,
    /// Distinct objects placed.
    objects: usize,
    /// The home rack of each request's object, by trace position.
    request_homes: Vec<u8>,
    /// The trace position of each function's first request, ascending.
    first_requests: Vec<usize>,
    /// The fetch cost of each object size exponent, priced once, so the
    /// hot path never re-prices a fetch.
    fetch_costs: [FetchCost; OBJECT_SIZE_EXPONENTS as usize],
}

impl DataLayer {
    /// The most racks a layer spans: each request's home rack is one byte,
    /// and placement reserves the byte's largest value for objects not yet
    /// read.
    pub const MAX_RACKS: u32 = UNPLACED as u32;

    /// Builds the layer for `trace` over `racks` racks: a rack-aware store
    /// layout (every rack holds 4 conventional + 2 DSCS storage nodes),
    /// over which each distinct object the trace reads is placed, in trace
    /// order, from a placement RNG derived from `seed`. The same pass
    /// records each function's first request.
    ///
    /// Set-up state is per function slot, not per object: each slot owns a
    /// row of 32 home racks (one per object it can read), filled at each
    /// object's first read, and freed before the layer is returned. Rows
    /// grow to the highest slot seen, so slots may have gaps.
    ///
    /// # Panics
    /// Panics if `racks` is zero or above [`DataLayer::MAX_RACKS`], if a
    /// request names a function slot at or above the trace's request count
    /// ([`TraceRequest::function`]), or if it reads an object outside its
    /// function's 32 ([`TraceRequest::object`]) or one whose size exponent
    /// is 32 or more ([`TraceRequest::object_size_log2`]).
    /// [`crate::workload::WorkloadSpec::realize`] rejects such an inline
    /// trace with a typed error.
    pub fn for_trace(trace: &[TraceRequest], racks: u32, seed: u64) -> DataLayer {
        assert!(
            racks <= Self::MAX_RACKS,
            "a data layer spans at most {} racks, got {racks}",
            Self::MAX_RACKS
        );
        let layout = ObjectStore::with_rack_layout(
            racks,
            CONVENTIONAL_PER_RACK,
            DSCS_PER_RACK,
            REPLICATION,
            RACK_SPREAD,
        );
        let mut rng = DeterministicRng::seeded(seed);
        // Per function slot, the home rack of each of its objects, UNPLACED
        // until the object's first read.
        let mut homes: Vec<u8> = Vec::new();
        let mut objects = 0;
        let mut first_requests = Vec::new();
        let mut request_homes = Vec::with_capacity(trace.len());
        let mut replicas = Vec::with_capacity(REPLICATION);
        for (position, request) in trace.iter().enumerate() {
            assert_function_in_range(trace, position);
            assert!(
                request.object < OBJECTS_PER_FUNCTION,
                "object < {OBJECTS_PER_FUNCTION} invariant broken: trace position {position} \
                 reads object {}",
                request.object
            );
            assert!(
                request.object_size_log2 < OBJECT_SIZE_EXPONENTS,
                "object size exponent < {OBJECT_SIZE_EXPONENTS} invariant broken: trace \
                 position {position} reads an object of 2^{} bytes",
                request.object_size_log2
            );
            let row = request.function as usize * HOME_ROW;
            if row >= homes.len() {
                homes.resize(row + HOME_ROW, UNPLACED);
            }
            let home = row + usize::from(request.object);
            if homes[home] == UNPLACED {
                // A row with nothing placed is a slot no request has named
                // before this one.
                if homes[row..row + HOME_ROW].iter().all(|&h| h == UNPLACED) {
                    first_requests.push(position);
                }
                // Every benchmark is an ML pipeline over its stored input,
                // so every object is acceleratable: its primary replica
                // lands on a DSCS drive of the home rack.
                let rack = layout
                    .draw_replicas(true, &mut rng, &mut replicas)
                    .expect("rack layout always has DSCS nodes");
                homes[home] = rack as u8;
                objects += 1;
            }
            request_homes.push(homes[home]);
        }
        DataLayer {
            racks,
            nodes: layout.node_count(),
            objects,
            request_homes,
            first_requests,
            fetch_costs: FetchCost::by_size_log2(&RemoteFetchModel::datacenter_default()),
        }
    }

    /// Number of racks the layer spans.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// Number of storage nodes the objects were placed over (every rack
    /// contributes the same pod).
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of distinct objects placed.
    pub fn object_count(&self) -> usize {
        self.objects
    }

    /// Number of requests in the trace the layer was built for.
    pub fn request_count(&self) -> usize {
        self.request_homes.len()
    }

    /// The rack holding every replica of the object read by the request at
    /// trace position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not below [`DataLayer::request_count`].
    pub fn home_rack(&self, idx: usize) -> u32 {
        u32::from(self.request_homes[idx])
    }

    /// The trace position of each function's first request, strictly
    /// ascending: the only requests the zero-warm-cost offline bound prices
    /// ([`crate::optimal`]).
    pub(crate) fn first_requests(&self) -> &[usize] {
        &self.first_requests
    }

    /// The priced cost of fetching an object of `2^size_log2` bytes from a
    /// remote rack ([`TraceRequest::object_size_log2`]). The simulator's hot
    /// path uses this directly so one lookup yields both charges.
    ///
    /// # Panics
    /// Panics if `size_log2` is 32 or more.
    pub(crate) fn fetch_cost(&self, size_log2: u8) -> FetchCost {
        self.fetch_costs[usize::from(size_log2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RateProfile;
    use crate::workload::Workload;

    fn short_trace(seed: u64) -> Vec<TraceRequest> {
        let profile = RateProfile {
            segments: vec![(SimDuration::from_secs(5), 120.0)],
        };
        Workload::generate(&profile, &mut DeterministicRng::seeded(seed)).expect("valid")
    }

    #[test]
    fn covers_every_object_the_trace_reads() {
        let trace = short_trace(1);
        let data = DataLayer::for_trace(&trace, 3, 7);
        // Every read of one object finds it in the same home rack.
        let mut homes = std::collections::BTreeMap::new();
        for (idx, request) in trace.iter().enumerate() {
            let home = data.home_rack(idx);
            assert!(home < 3, "request {idx}: rack {home} out of range");
            let first = *homes
                .entry((request.function, request.object))
                .or_insert(home);
            assert_eq!(home, first, "request {idx} reads a moved object");
        }
        assert_eq!(data.object_count(), homes.len());
        assert_eq!(data.rack_count(), 3);
        assert_eq!(data.node_count(), 3 * 6);
        assert_eq!(data.request_count(), trace.len());
    }

    /// Slots may have gaps and arrive in any order: each slot gets a home
    /// row of its own, its first request is recorded in trace order, and
    /// repeated reads of one object share a home.
    #[test]
    fn slots_with_gaps_each_get_their_own_home_row() {
        use dscs_core::benchmarks::Benchmark;
        use dscs_simcore::time::SimTime;

        let reads = [(5, 0), (1, 0), (5, 1), (1, 0), (3, 0), (5, 0)];
        let trace: Vec<TraceRequest> = reads
            .iter()
            .enumerate()
            .map(|(i, &(function, object))| TraceRequest {
                arrival: SimTime::from_nanos(i as u64),
                benchmark: Benchmark::ALL[0],
                function,
                object,
                object_size_log2: 16,
            })
            .collect();
        let data = DataLayer::for_trace(&trace, 2, 1);
        // (5, 0), (1, 0), (5, 1) and (3, 0): object 0 of slots 1, 3 and 5
        // are three objects, not one.
        assert_eq!(data.object_count(), 4);
        assert_eq!(data.first_requests(), [0, 1, 4]);
        assert_eq!(data.home_rack(1), data.home_rack(3));
        assert_eq!(data.home_rack(0), data.home_rack(5));
    }

    #[test]
    #[should_panic(
        expected = "function < requests invariant broken: trace position 4 names function \
                    12 of a 12-request trace"
    )]
    fn slots_at_or_above_the_request_count_are_rejected() {
        let mut trace = short_trace(7);
        trace.truncate(12);
        trace[4].function = 12;
        let _ = DataLayer::for_trace(&trace, 2, 1);
    }

    #[test]
    #[should_panic(expected = "a data layer spans at most 255 racks, got 256")]
    fn more_racks_than_a_byte_holds_are_rejected() {
        let _ = DataLayer::for_trace(&short_trace(6), 256, 1);
    }

    #[test]
    #[should_panic(expected = "object < 32 invariant broken: trace position 3 reads object 32")]
    fn objects_outside_their_functions_32_are_rejected() {
        let mut trace = short_trace(7);
        trace[3].object = 32;
        let _ = DataLayer::for_trace(&trace, 2, 1);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let trace = short_trace(2);
        let a = DataLayer::for_trace(&trace, 4, 9);
        let b = DataLayer::for_trace(&trace, 4, 9);
        for idx in 0..trace.len() {
            assert_eq!(a.home_rack(idx), b.home_rack(idx), "request {idx}");
        }
    }

    #[test]
    fn fetch_cost_is_positive_and_monotone_in_size() {
        let data = DataLayer::for_trace(&short_trace(4), 2, 13);
        // 256 KiB and 8 MiB objects.
        let (small, large) = (data.fetch_cost(18), data.fetch_cost(23));
        assert!(small.latency > SimDuration::ZERO);
        assert!(large.latency > small.latency);
        assert!(small.energy_j > 0.0);
        assert!(large.energy_j > small.energy_j);
    }

    /// The hot path's table prices every size exponent to the bit as the
    /// storage model does.
    #[test]
    fn the_fetch_table_prices_every_exponent_as_the_model_does() {
        let data = DataLayer::for_trace(&short_trace(8), 2, 19);
        let model = RemoteFetchModel::datacenter_default();
        for log2 in 0..OBJECT_SIZE_EXPONENTS {
            let size = Bytes::new(1 << log2);
            let cost = data.fetch_cost(log2);
            assert_eq!(cost.latency, model.fetch_latency(size), "2^{log2} B");
            assert_eq!(
                cost.energy_j.to_bits(),
                model.fetch_energy_joules(size).to_bits(),
                "2^{log2} B"
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "object size exponent < 32 invariant broken: trace position 3 reads an \
                    object of 2^32 bytes"
    )]
    fn size_exponents_of_32_or_more_are_rejected() {
        let mut trace = short_trace(7);
        trace[3].object_size_log2 = 32;
        let _ = DataLayer::for_trace(&trace, 2, 1);
    }
}
