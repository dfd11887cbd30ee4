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
//! Placement is deterministic: the same trace, rack count and seed reproduce
//! the same layout, so sharded runs stay byte-for-byte reproducible.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::SimDuration;
use dscs_storage::object_store::{ObjectStore, RemoteFetchModel};

use crate::trace::TraceRequest;
use crate::workload::{mix64, OBJECTS_PER_FUNCTION, OBJECT_SIZE_EXPONENTS};

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

/// Each request's dense function slot, by trace position. Slots are `0..n`
/// for the trace's `n` distinct functions and follow ascending function id,
/// so iterating slots visits functions in id order, which is the order
/// every per-function floating-point sum in the engine depends on.
/// Trace-file function ids are 32-bit hashes, so the engine indexes by slot,
/// never by raw id.
pub(crate) fn function_slots(trace: &[TraceRequest]) -> Vec<u32> {
    let mut interner = FunctionInterner::default();
    let per_request = trace
        .iter()
        .map(|request| interner.intern(request.function))
        .collect();
    interner.finish(per_request)
}

/// Hashes function ids with one [`mix64`] round under a key drawn per map,
/// in place of SipHash. Trace-file ids are outside input, so the key comes
/// from std's per-process random state: a crafted file cannot aim its ids
/// at one bucket. Slots never depend on the hash, so neither does any
/// result.
struct KeyedIds {
    key: u64,
}

impl Default for KeyedIds {
    fn default() -> Self {
        KeyedIds {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for KeyedIds {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.key)
    }
}

/// The [`KeyedIds`] hasher: `u32` ids take one [`mix64`] round.
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = mix64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = mix64(self.0 ^ u64::from(id));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`function_slots`] in one pass over a trace: ids get provisional
/// slots in first-seen order, renumbered into ascending id order at the end.
#[derive(Default)]
struct FunctionInterner {
    first_seen: HashMap<u32, u32, KeyedIds>,
}

impl FunctionInterner {
    /// The provisional slot of `function`.
    fn intern(&mut self, function: u32) -> u32 {
        let next = self.first_seen.len() as u32;
        *self.first_seen.entry(function).or_insert(next)
    }

    /// Renumbers each request's provisional slot into its final one.
    fn finish(self, mut per_request: Vec<u32>) -> Vec<u32> {
        let mut ids: Vec<(u32, u32)> = self.first_seen.into_iter().collect();
        ids.sort_unstable();
        let mut renumber = vec![0u32; ids.len()];
        for (slot, &(_, provisional)) in ids.iter().enumerate() {
            renumber[provisional as usize] = slot as u32;
        }
        for slot in &mut per_request {
            *slot = renumber[*slot as usize];
        }
        per_request
    }
}

/// The placement of every object one trace touches, plus the fetch-cost
/// model charged when a request runs on a rack without a replica.
///
/// A layer is the placement of exactly one trace, and it answers only by
/// trace position: it keeps each request's home rack and dense function
/// slot, so the simulator's hot path never hashes, and nothing per object.
/// Runs therefore reject a layer whose request count differs from their
/// trace's ([`crate::experiment::ConfigError::DataLayerTraceMismatch`]);
/// attach a layer only to the trace it was built from.
#[derive(Debug, Clone)]
pub struct DataLayer {
    racks: u32,
    /// Storage nodes in the layout the objects were placed over.
    nodes: usize,
    /// Distinct objects placed.
    objects: usize,
    /// The home rack of each request's object, by trace position.
    request_homes: Vec<u8>,
    /// Each request's function slot ([`function_slots`]), by trace position.
    request_functions: Vec<u32>,
    /// The trace position of each function's first request, ascending.
    first_requests: Vec<usize>,
    fetch: RemoteFetchModel,
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
    /// interns the trace's function ids into dense slots and records each
    /// function's first request.
    ///
    /// Set-up state is per function, not per object: each function owns a
    /// row of 32 home racks (one per object it can read), filled at each
    /// object's first read, and freed before the layer is returned.
    ///
    /// # Panics
    /// Panics if `racks` is zero or above [`DataLayer::MAX_RACKS`], or if a
    /// request reads an object outside its function's 32
    /// ([`TraceRequest::object`]) or one whose size exponent is 32 or more
    /// ([`TraceRequest::object_size_log2`]).
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
        let fetch = RemoteFetchModel::datacenter_default();
        // Per provisional function slot, the home rack of each of its
        // objects, UNPLACED until the object's first read.
        let mut homes: Vec<u8> = Vec::new();
        let mut interner = FunctionInterner::default();
        let mut objects = 0;
        let mut first_requests = Vec::new();
        let mut request_homes = Vec::with_capacity(trace.len());
        let mut request_functions = Vec::with_capacity(trace.len());
        let mut replicas = Vec::with_capacity(REPLICATION);
        for (position, request) in trace.iter().enumerate() {
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
            let function = interner.intern(request.function);
            // Provisional slots count up from 0 in first-seen order, so a
            // function without a row is one never seen before.
            let row = function as usize * HOME_ROW;
            if row == homes.len() {
                first_requests.push(position);
                homes.resize(row + HOME_ROW, UNPLACED);
            }
            let home = &mut homes[row + request.object as usize];
            if *home == UNPLACED {
                // Every benchmark is an ML pipeline over its stored input,
                // so every object is acceleratable: its primary replica
                // lands on a DSCS drive of the home rack.
                let rack = layout
                    .draw_replicas(true, &mut rng, &mut replicas)
                    .expect("rack layout always has DSCS nodes");
                *home = rack as u8;
                objects += 1;
            }
            request_homes.push(*home);
            request_functions.push(function);
        }
        DataLayer {
            racks,
            nodes: layout.node_count(),
            objects,
            request_homes,
            request_functions: interner.finish(request_functions),
            first_requests,
            fetch_costs: FetchCost::by_size_log2(&fetch),
            fetch,
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

    /// Each request's function slot, by trace position: what
    /// [`function_slots`] returns for the layer's trace.
    pub(crate) fn function_slots(&self) -> &[u32] {
        &self.request_functions
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

    /// The deterministic latency a rack without a replica pays to fetch
    /// `size` bytes from a remote rack.
    pub fn fetch_latency(&self, size: Bytes) -> SimDuration {
        self.fetch.fetch_latency(size)
    }

    /// The joules the fabric and the remote drive's PCIe hop spend moving
    /// `size` bytes across racks (the energy side of [`DataLayer::fetch_latency`]).
    pub fn fetch_energy_joules(&self, size: Bytes) -> f64 {
        self.fetch.fetch_energy_joules(size)
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
        let mut homes = HashMap::new();
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

    /// Slots follow ascending function id, whatever order (and however
    /// large) the ids arrive in, and both interning paths agree.
    #[test]
    fn function_slots_follow_ascending_function_ids() {
        use dscs_core::benchmarks::Benchmark;
        use dscs_simcore::time::SimTime;

        let ids = [0xDEAD_BEEF, 7, 0x8000_0000, 7, 42, 0xDEAD_BEEF];
        let trace: Vec<TraceRequest> = ids
            .iter()
            .enumerate()
            .map(|(i, &function)| TraceRequest {
                arrival: SimTime::from_nanos(i as u64),
                benchmark: Benchmark::ALL[0],
                function,
                object: i as u8 % 2,
                object_size_log2: 16,
            })
            .collect();
        let slots = function_slots(&trace);
        assert_eq!(slots, [3, 0, 2, 0, 1, 3]);
        let data = DataLayer::for_trace(&trace, 2, 1);
        assert_eq!(data.function_slots(), slots);
        // Positions 1 and 3 read the same object.
        assert_eq!(data.object_count(), 5);
        assert_eq!(data.home_rack(1), data.home_rack(3));
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
    fn fetch_latency_is_positive_and_monotone_in_size() {
        let trace = short_trace(4);
        let data = DataLayer::for_trace(&trace, 2, 13);
        let small = data.fetch_latency(Bytes::from_kib(256));
        let large = data.fetch_latency(Bytes::from_mib(8));
        assert!(small > SimDuration::ZERO);
        assert!(large > small);
    }

    #[test]
    fn fetch_energy_is_positive_and_monotone_in_size() {
        let trace = short_trace(5);
        let data = DataLayer::for_trace(&trace, 2, 17);
        let small = data.fetch_energy_joules(Bytes::from_kib(256));
        let large = data.fetch_energy_joules(Bytes::from_mib(8));
        assert!(small > 0.0);
        assert!(large > small);
    }

    /// The hot path's table prices every size exponent to the bit as the
    /// public model-backed prices do.
    #[test]
    fn the_fetch_table_prices_every_exponent_as_the_model_does() {
        let data = DataLayer::for_trace(&short_trace(8), 2, 19);
        for log2 in 0..OBJECT_SIZE_EXPONENTS {
            let size = Bytes::new(1 << log2);
            let cost = data.fetch_cost(log2);
            assert_eq!(cost.latency, data.fetch_latency(size), "2^{log2} B");
            assert_eq!(
                cost.energy_j.to_bits(),
                data.fetch_energy_joules(size).to_bits(),
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
