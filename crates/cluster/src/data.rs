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
//! * which racks hold a replica of this request's object (the locality-aware
//!   balancer's dispatch input), and
//! * what a non-local rack pays to fetch the object — the
//!   [`RemoteFetchModel`] price over the network/RPC stack and the drive's
//!   PCIe hop, replacing the old assumption that every rack reads locally.
//!
//! Placement is deterministic: the same trace, rack count and seed reproduce
//! the same layout, so sharded runs stay byte-for-byte reproducible.

use std::collections::HashMap;

use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::SimDuration;
use dscs_storage::object_store::{ObjectStore, RemoteFetchModel};

use crate::trace::TraceRequest;

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

/// What one cross-rack fetch of a given size costs: the wall-clock latency
/// charged onto the invocation and the joules the fabric and remote drive
/// spend moving the bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchCost {
    pub(crate) latency: SimDuration,
    pub(crate) energy_j: f64,
}

impl FetchCost {
    fn of(fetch: &RemoteFetchModel, size: Bytes) -> FetchCost {
        FetchCost {
            latency: fetch.fetch_latency(size),
            energy_j: fetch.fetch_energy_joules(size),
        }
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

/// Builds [`function_slots`] in one pass over a trace: ids get provisional
/// slots in first-seen order, renumbered into ascending id order at the end.
#[derive(Default)]
struct FunctionInterner {
    first_seen: HashMap<u32, u32>,
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
/// A layer is the placement of exactly one trace: besides the
/// `(function, object)` answers of [`DataLayer::replica_racks`], it keeps
/// per-request tables indexed by trace position (each request's home rack
/// and dense function slot), so the simulator's hot path never hashes. Runs
/// therefore reject a layer whose request count differs from their trace's
/// ([`crate::experiment::ConfigError::DataLayerTraceMismatch`]); attach a
/// layer only to the trace it was built from.
#[derive(Debug, Clone)]
pub struct DataLayer {
    racks: u32,
    /// Storage nodes in the layout the objects were placed over.
    nodes: usize,
    /// (function, object) -> object slot, in first-read order.
    slots: HashMap<(u32, u32), u32>,
    /// The home rack of each object slot, which holds all its replicas.
    homes: Vec<u32>,
    /// The home rack of each request's object, by trace position.
    request_homes: Vec<u32>,
    /// Each request's function slot ([`function_slots`]), by trace position.
    request_functions: Vec<u32>,
    fetch: RemoteFetchModel,
    /// Fetch costs of every object size the trace reads, sorted by size
    /// (sizes come from a small deterministic set, so the hot path never
    /// re-prices a fetch).
    fetch_costs: Vec<(Bytes, FetchCost)>,
}

impl DataLayer {
    /// Builds the layer for `trace` over `racks` racks: a rack-aware store
    /// layout (every rack holds 4 conventional + 2 DSCS storage nodes),
    /// over which each distinct object the trace reads is placed, in trace
    /// order, from a placement RNG derived from `seed`. The same pass
    /// interns the trace's function ids into dense slots.
    ///
    /// # Panics
    /// Panics if `racks` is zero.
    pub fn for_trace(trace: &[TraceRequest], racks: u32, seed: u64) -> DataLayer {
        let layout = ObjectStore::with_rack_layout(
            racks,
            CONVENTIONAL_PER_RACK,
            DSCS_PER_RACK,
            REPLICATION,
            RACK_SPREAD,
        );
        let mut rng = DeterministicRng::seeded(seed);
        let fetch = RemoteFetchModel::datacenter_default();
        let mut slots: HashMap<(u32, u32), u32> = HashMap::new();
        let mut homes = Vec::new();
        let mut interner = FunctionInterner::default();
        // Each object's function, interned once per object.
        let mut object_functions = Vec::new();
        let mut request_homes = Vec::with_capacity(trace.len());
        let mut request_functions = Vec::with_capacity(trace.len());
        let mut fetch_costs: Vec<(Bytes, FetchCost)> = Vec::new();
        let mut replicas = Vec::with_capacity(REPLICATION);
        for request in trace {
            let next = homes.len() as u32;
            let slot = *slots
                .entry((request.function, request.object))
                .or_insert(next);
            if slot == next {
                object_functions.push(interner.intern(request.function));
                // Every benchmark is an ML pipeline over its stored input,
                // so every object is acceleratable: its primary replica
                // lands on a DSCS drive of the home rack.
                let home = layout
                    .draw_replicas(true, &mut rng, &mut replicas)
                    .expect("rack layout always has DSCS nodes");
                homes.push(home);
                if let Err(at) = fetch_costs.binary_search_by_key(&request.object_bytes, |c| c.0) {
                    let cost = FetchCost::of(&fetch, request.object_bytes);
                    fetch_costs.insert(at, (request.object_bytes, cost));
                }
            }
            request_homes.push(homes[slot as usize]);
            request_functions.push(object_functions[slot as usize]);
        }
        DataLayer {
            racks,
            nodes: layout.node_count(),
            slots,
            homes,
            request_homes,
            request_functions: interner.finish(request_functions),
            fetch,
            fetch_costs,
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
        self.homes.len()
    }

    /// Number of requests in the trace the layer was built for.
    pub fn request_count(&self) -> usize {
        self.request_homes.len()
    }

    /// The sorted racks holding a replica of `(function, object)`; empty for
    /// objects the layer never placed.
    pub fn replica_racks(&self, function: u32, object: u32) -> &[u32] {
        self.slots.get(&(function, object)).map_or(&[], |&slot| {
            std::slice::from_ref(&self.homes[slot as usize])
        })
    }

    /// Whether `rack` holds a replica of `(function, object)`.
    pub fn holds(&self, function: u32, object: u32, rack: u32) -> bool {
        self.replica_racks(function, object).contains(&rack)
    }

    /// The rack holding every replica of the object read by the request at
    /// trace position `idx`.
    pub(crate) fn home_rack(&self, idx: usize) -> u32 {
        self.request_homes[idx]
    }

    /// Each request's function slot, by trace position: what
    /// [`function_slots`] returns for the layer's trace.
    pub(crate) fn function_slots(&self) -> &[u32] {
        &self.request_functions
    }

    /// The memoized (or, for sizes the trace never read, freshly priced)
    /// cost of fetching `size` bytes from a remote rack. The simulator's hot
    /// path uses this directly so one lookup yields both charges.
    pub(crate) fn fetch_cost(&self, size: Bytes) -> FetchCost {
        match self.fetch_costs.binary_search_by_key(&size, |c| c.0) {
            Ok(at) => self.fetch_costs[at].1,
            Err(_) => FetchCost::of(&self.fetch, size),
        }
    }

    /// The deterministic latency a rack without a replica pays to fetch
    /// `size` bytes from a remote rack.
    pub fn fetch_latency(&self, size: Bytes) -> SimDuration {
        self.fetch_cost(size).latency
    }

    /// The joules the fabric and the remote drive's PCIe hop spend moving
    /// `size` bytes across racks (the energy side of [`DataLayer::fetch_latency`]).
    pub fn fetch_energy_joules(&self, size: Bytes) -> f64 {
        self.fetch_cost(size).energy_j
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
        assert!(data.object_count() > 0);
        for request in &trace {
            let racks = data.replica_racks(request.function, request.object);
            assert!(!racks.is_empty(), "request {} unplaced", request.id);
            assert!(racks.iter().all(|&r| r < 3), "rack out of range: {racks:?}");
        }
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
                id: i as u64,
                arrival: SimTime::from_nanos(i as u64),
                benchmark: Benchmark::ALL[0],
                function,
                object: i as u32 % 2,
                object_bytes: Bytes::from_kib(64),
            })
            .collect();
        let slots = function_slots(&trace);
        assert_eq!(slots, [3, 0, 2, 0, 1, 3]);
        let data = DataLayer::for_trace(&trace, 2, 1);
        assert_eq!(data.function_slots(), slots);
        for (idx, request) in trace.iter().enumerate() {
            assert_eq!(
                data.replica_racks(request.function, request.object),
                &[data.home_rack(idx)]
            );
        }
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let trace = short_trace(2);
        let a = DataLayer::for_trace(&trace, 4, 9);
        let b = DataLayer::for_trace(&trace, 4, 9);
        for request in &trace {
            assert_eq!(
                a.replica_racks(request.function, request.object),
                b.replica_racks(request.function, request.object)
            );
        }
    }

    #[test]
    fn unplaced_objects_report_no_replicas() {
        let trace = short_trace(3);
        let data = DataLayer::for_trace(&trace, 2, 11);
        assert!(data.replica_racks(9999, 0).is_empty());
        assert!(!data.holds(9999, 0, 0));
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
        // Memoized and uncached sizes price identically.
        for request in &trace {
            assert_eq!(
                data.fetch_energy_joules(request.object_bytes),
                DataLayer::for_trace(&trace, 2, 17).fetch_energy_joules(request.object_bytes)
            );
        }
    }
}
