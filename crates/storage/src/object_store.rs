//! Disaggregated object store (S3-style) with DSCS-aware placement.
//!
//! The baseline system keeps serverless inputs/outputs in a replicated
//! key-value object store spread over storage nodes. DSCS-Serverless maps one
//! replica of objects belonging to acceleratable functions onto DSCS-Drives so
//! the in-storage DSA can reach the data over the P2P path (Section 5.2).
//!
//! Storage nodes live in *racks*: [`ObjectStore::with_rack_layout`] maps node
//! ids onto rack indices, placement keeps an object's replicas within a
//! bounded number of racks (data gravity), and [`ObjectStore::racks_holding`]
//! answers the question the cluster's locality-aware load balancer asks on
//! every dispatch. A request scheduled onto a rack without a replica pays the
//! cross-rack fetch priced by [`RemoteFetchModel`] — the network/RPC stack
//! plus the drive's PCIe hop — instead of assuming the data is local.
//!
//! The store tracks object metadata only (sizes and placement); latency always
//! comes from the drive/network models.

use std::collections::HashMap;

use dscs_simcore::quantity::Bytes;
use dscs_simcore::rng::DeterministicRng;
use dscs_simcore::time::SimDuration;

use crate::network::NetworkModel;
use crate::pcie::PcieLink;

/// Identifier of a storage node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageNodeId(pub u32);

/// The kind of drive a storage node exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriveClass {
    /// Conventional SSD.
    Conventional,
    /// DSCS-Drive (SSD + in-storage DSA).
    Dscs,
}

/// Metadata for one stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object key.
    pub key: String,
    /// Object size.
    pub size: Bytes,
    /// Nodes holding a replica (primary first).
    pub replicas: Vec<StorageNodeId>,
    /// Whether the object is flagged as input to an acceleratable function.
    pub acceleratable: bool,
}

/// Errors returned by the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The requested key does not exist.
    NotFound(String),
    /// The store has no nodes of the class required for placement.
    NoNodesOfClass(DriveClass),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(key) => write!(f, "object not found: {key}"),
            StoreError::NoNodesOfClass(class) => write!(f, "no storage nodes of class {class:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The disaggregated object store.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStore {
    nodes: HashMap<StorageNodeId, DriveClass>,
    /// Rack index of each node. Single-rack constructors map everything onto
    /// rack 0.
    node_racks: HashMap<StorageNodeId, u32>,
    /// Number of racks the nodes span (rack indices are `0..racks`).
    racks: u32,
    /// Maximum number of distinct racks one object's replicas may span.
    /// `1` keeps every replica in the object's home rack (data gravity);
    /// `racks` places replicas anywhere.
    rack_spread: u32,
    objects: HashMap<String, ObjectMeta>,
    replication: usize,
    /// The DSCS-Drive nodes, sorted: the candidates for an acceleratable
    /// object's primary replica.
    dscs_nodes: Vec<StorageNodeId>,
    /// The rack of each node in `dscs_nodes`, at the same index.
    dscs_racks: Vec<u32>,
    /// Per home rack, the sorted nodes within `rack_spread` racks of it: the
    /// candidates for an object's remaining replicas. The layout never
    /// changes after construction, so placement draws over these lists
    /// without collecting or sorting anything.
    spread_nodes: Vec<Vec<StorageNodeId>>,
}

impl ObjectStore {
    /// Creates a single-rack store over the given nodes with a replication
    /// factor.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or `replication` is zero.
    pub fn new(
        nodes: impl IntoIterator<Item = (StorageNodeId, DriveClass)>,
        replication: usize,
    ) -> Self {
        let nodes: HashMap<_, _> = nodes.into_iter().collect();
        assert!(!nodes.is_empty(), "object store needs at least one node");
        assert!(replication >= 1, "replication factor must be at least 1");
        let node_racks = nodes.keys().map(|&id| (id, 0)).collect();
        ObjectStore::with_layout(nodes, node_racks, 1, 1, replication)
    }

    /// A single-rack store with `conventional` plain-SSD nodes and `dscs`
    /// DSCS-Drive nodes, 3-way replicated (the common S3-style setup).
    pub fn with_node_counts(conventional: u32, dscs: u32) -> Self {
        assert!(conventional + dscs > 0, "need at least one storage node");
        let mut nodes = Vec::new();
        for i in 0..conventional {
            nodes.push((StorageNodeId(i), DriveClass::Conventional));
        }
        for i in 0..dscs {
            nodes.push((StorageNodeId(conventional + i), DriveClass::Dscs));
        }
        ObjectStore::new(nodes, 3.min((conventional + dscs) as usize))
    }

    /// A multi-rack store: every rack holds `conventional_per_rack` plain-SSD
    /// nodes followed by `dscs_per_rack` DSCS-Drive nodes (node ids are
    /// assigned rack-major). Replicas of one object stay within `rack_spread`
    /// neighbouring racks, starting from the object's home rack.
    ///
    /// # Panics
    /// Panics if `racks` is zero, a rack would hold no nodes, `replication`
    /// is zero, or `rack_spread` is zero or exceeds `racks`.
    pub fn with_rack_layout(
        racks: u32,
        conventional_per_rack: u32,
        dscs_per_rack: u32,
        replication: usize,
        rack_spread: u32,
    ) -> Self {
        assert!(racks > 0, "need at least one rack");
        let per_rack = conventional_per_rack + dscs_per_rack;
        assert!(per_rack > 0, "every rack needs at least one storage node");
        assert!(replication >= 1, "replication factor must be at least 1");
        assert!(
            rack_spread >= 1 && rack_spread <= racks,
            "rack spread must be in [1, racks]"
        );
        let mut nodes = HashMap::new();
        let mut node_racks = HashMap::new();
        for rack in 0..racks {
            for slot in 0..per_rack {
                let id = StorageNodeId(rack * per_rack + slot);
                let class = if slot < conventional_per_rack {
                    DriveClass::Conventional
                } else {
                    DriveClass::Dscs
                };
                nodes.insert(id, class);
                node_racks.insert(id, rack);
            }
        }
        let replication = replication.min((per_rack * rack_spread) as usize);
        ObjectStore::with_layout(nodes, node_racks, racks, rack_spread, replication)
    }

    /// An empty store over a fixed node layout, with the placement candidate
    /// lists precomputed.
    fn with_layout(
        nodes: HashMap<StorageNodeId, DriveClass>,
        node_racks: HashMap<StorageNodeId, u32>,
        racks: u32,
        rack_spread: u32,
        replication: usize,
    ) -> Self {
        let sorted = |keep: &dyn Fn(StorageNodeId) -> bool| {
            let mut v: Vec<StorageNodeId> = nodes.keys().copied().filter(|&n| keep(n)).collect();
            v.sort_unstable();
            v
        };
        let dscs_nodes = sorted(&|n| nodes[&n] == DriveClass::Dscs);
        let dscs_racks = dscs_nodes.iter().map(|n| node_racks[n]).collect();
        let spread_nodes = (0..racks)
            .map(|home| sorted(&|n| (node_racks[&n] + racks - home) % racks < rack_spread))
            .collect();
        ObjectStore {
            nodes,
            node_racks,
            racks,
            rack_spread,
            objects: HashMap::new(),
            replication,
            dscs_nodes,
            dscs_racks,
            spread_nodes,
        }
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of racks the store's nodes span.
    pub fn rack_count(&self) -> u32 {
        self.racks
    }

    /// Rack index of a node.
    pub fn rack_of(&self, node: StorageNodeId) -> Option<u32> {
        self.node_racks.get(&node).copied()
    }

    /// The racks holding a replica of `key`, sorted and deduplicated — the
    /// placement answer a locality-aware load balancer dispatches on.
    pub fn racks_holding(&self, key: &str) -> Result<Vec<u32>, StoreError> {
        let meta = self.get(key)?;
        let mut racks: Vec<u32> = meta
            .replicas
            .iter()
            .filter_map(|&n| self.rack_of(n))
            .collect();
        racks.sort_unstable();
        racks.dedup();
        Ok(racks)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Drive class of a node.
    pub fn node_class(&self, node: StorageNodeId) -> Option<DriveClass> {
        self.nodes.get(&node).copied()
    }

    /// Stores (or replaces) an object. If `acceleratable` is set and the store
    /// has DSCS nodes, the primary replica is placed on a DSCS-Drive so the
    /// in-storage accelerator can reach the data. The primary's rack (or a
    /// random *home rack*, for non-acceleratable objects) anchors placement:
    /// the remaining replicas land on random distinct nodes within the home
    /// rack and its `rack_spread - 1` neighbouring racks.
    pub fn put(
        &mut self,
        key: impl Into<String>,
        size: Bytes,
        acceleratable: bool,
        rng: &mut DeterministicRng,
    ) -> Result<ObjectMeta, StoreError> {
        let key = key.into();
        let mut replicas = Vec::with_capacity(self.replication);
        self.draw_replicas(acceleratable, rng, &mut replicas)?;
        let meta = ObjectMeta {
            key: key.clone(),
            size,
            replicas,
            acceleratable,
        };
        self.objects.insert(key, meta.clone());
        Ok(meta)
    }

    /// Draws the replica set of a new object into `replicas` (cleared
    /// first) and returns its home rack, storing nothing. This is the whole
    /// placement algorithm behind [`ObjectStore::put`]: callers that only
    /// need the placement (not a stored object) consume exactly the same
    /// random draws, and reusing one `replicas` buffer makes the call
    /// allocation-free.
    pub fn draw_replicas(
        &self,
        acceleratable: bool,
        rng: &mut DeterministicRng,
        replicas: &mut Vec<StorageNodeId>,
    ) -> Result<u32, StoreError> {
        replicas.clear();
        let home = if acceleratable {
            if self.dscs_nodes.is_empty() {
                return Err(StoreError::NoNodesOfClass(DriveClass::Dscs));
            }
            // The draw `rng.choose` would make, taken as an index so the
            // primary's rack is read from the parallel list.
            let at = rng.next_index(self.dscs_nodes.len());
            replicas.push(self.dscs_nodes[at]);
            self.dscs_racks[at]
        } else if self.racks == 1 {
            0
        } else {
            rng.next_index(self.racks as usize) as u32
        };
        let allowed = &self.spread_nodes[home as usize];
        while replicas.len() < self.replication.min(allowed.len()) {
            let candidate = *rng.choose(allowed);
            if !replicas.contains(&candidate) {
                replicas.push(candidate);
            }
        }
        Ok(home)
    }

    /// Looks up an object.
    pub fn get(&self, key: &str) -> Result<&ObjectMeta, StoreError> {
        self.objects
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))
    }

    /// Returns the replica (if any) that lives on a DSCS-Drive, which is where
    /// an acceleratable function would be scheduled.
    pub fn dscs_replica(&self, key: &str) -> Result<Option<StorageNodeId>, StoreError> {
        let meta = self.get(key)?;
        Ok(meta
            .replicas
            .iter()
            .copied()
            .find(|n| self.node_class(*n) == Some(DriveClass::Dscs)))
    }
}

/// Quantile of the network's base-latency distribution a fetch is priced at:
/// the median, since queueing, not the storage tail, dominates at cluster
/// scale.
const FETCH_QUANTILE: f64 = 0.5;

/// Prices the object fetch a request pays when it is scheduled onto a rack
/// that holds no replica of its input: one RPC over the datacenter fabric to
/// a rack that does ([`crate::network`]), plus the drive-side PCIe hop that
/// moves the payload off the remote drive ([`crate::pcie`]). Local placement
/// pays neither — which is exactly the asymmetry a locality-aware scheduler
/// exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteFetchModel {
    network: NetworkModel,
    drive_link: PcieLink,
}

impl RemoteFetchModel {
    /// The default datacenter configuration: the paper's disaggregated
    /// network/RPC stack at its median base latency, over an NVMe drive link.
    pub fn datacenter_default() -> Self {
        RemoteFetchModel {
            network: NetworkModel::default(),
            drive_link: PcieLink::nvme_drive(),
        }
    }

    /// Deterministic latency of fetching `size` bytes from a remote rack.
    pub fn fetch_latency(&self, size: Bytes) -> SimDuration {
        self.network
            .access_latency_at_quantile(size, FETCH_QUANTILE)
            + self.drive_link.transfer_latency(size)
    }

    /// Energy attributable to moving `size` bytes across racks (fabric NICs
    /// and switches plus the drive-side PCIe hop).
    pub fn fetch_energy_joules(&self, size: Bytes) -> f64 {
        self.network.transfer_energy_joules(size) + self.drive_link.transfer_energy_joules(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        ObjectStore::with_node_counts(6, 2)
    }

    #[test]
    fn acceleratable_objects_land_on_dscs_drives() {
        let mut s = store();
        let mut rng = DeterministicRng::seeded(1);
        let meta = s
            .put("input.jpg", Bytes::from_mib(2), true, &mut rng)
            .expect("put");
        assert_eq!(s.node_class(meta.replicas[0]), Some(DriveClass::Dscs));
        assert!(s.dscs_replica("input.jpg").expect("exists").is_some());
    }

    #[test]
    fn non_acceleratable_objects_do_not_require_dscs_nodes() {
        let mut s = ObjectStore::with_node_counts(4, 0);
        let mut rng = DeterministicRng::seeded(2);
        assert!(s
            .put("log.txt", Bytes::from_kib(10), false, &mut rng)
            .is_ok());
        assert!(matches!(
            s.put("image.jpg", Bytes::from_mib(1), true, &mut rng),
            Err(StoreError::NoNodesOfClass(DriveClass::Dscs))
        ));
    }

    #[test]
    fn replication_uses_distinct_nodes() {
        let mut s = store();
        let mut rng = DeterministicRng::seeded(3);
        let meta = s
            .put("obj", Bytes::from_kib(100), true, &mut rng)
            .expect("put");
        let mut unique = meta.replicas.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), meta.replicas.len());
        assert_eq!(meta.replicas.len(), 3);
    }

    #[test]
    fn get_finds_stored_objects_only() {
        let mut s = store();
        let mut rng = DeterministicRng::seeded(4);
        s.put("a", Bytes::from_kib(1), false, &mut rng)
            .expect("put");
        assert_eq!(s.get("a").expect("get").size.as_u64(), 1024);
        assert_eq!(s.object_count(), 1);
        assert!(matches!(s.get("b"), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn deterministic_given_same_seed() {
        let mut a = store();
        let mut b = store();
        let mut rng_a = DeterministicRng::seeded(6);
        let mut rng_b = DeterministicRng::seeded(6);
        let ma = a
            .put("x", Bytes::from_mib(1), true, &mut rng_a)
            .expect("put");
        let mb = b
            .put("x", Bytes::from_mib(1), true, &mut rng_b)
            .expect("put");
        assert_eq!(ma.replicas, mb.replicas);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_store_rejected() {
        let _ = ObjectStore::new(Vec::<(StorageNodeId, DriveClass)>::new(), 3);
    }

    #[test]
    fn single_rack_constructors_map_everything_to_rack_zero() {
        let s = store();
        assert_eq!(s.rack_count(), 1);
        assert_eq!(s.rack_of(StorageNodeId(0)), Some(0));
        assert_eq!(s.rack_of(StorageNodeId(99)), None);
    }

    #[test]
    fn rack_layout_assigns_nodes_rack_major() {
        let s = ObjectStore::with_rack_layout(3, 2, 1, 2, 1);
        assert_eq!(s.rack_count(), 3);
        assert_eq!(s.node_count(), 9);
        // Rack 1 holds nodes 3..6; the last node per rack is the DSCS drive.
        assert_eq!(s.rack_of(StorageNodeId(3)), Some(1));
        assert_eq!(
            s.node_class(StorageNodeId(3)),
            Some(DriveClass::Conventional)
        );
        assert_eq!(s.node_class(StorageNodeId(5)), Some(DriveClass::Dscs));
    }

    #[test]
    fn rack_local_placement_keeps_replicas_in_one_rack() {
        let mut s = ObjectStore::with_rack_layout(4, 3, 2, 3, 1);
        let mut rng = DeterministicRng::seeded(7);
        for i in 0..32 {
            let key = format!("obj-{i}");
            let meta = s
                .put(&key, Bytes::from_mib(1), i % 2 == 0, &mut rng)
                .expect("put");
            let racks = s.racks_holding(&key).expect("placed");
            assert_eq!(racks.len(), 1, "spread 1 keeps one rack: {racks:?}");
            assert!(racks[0] < 4);
            assert_eq!(meta.replicas.len(), 3);
            let mut unique = meta.replicas.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 3, "replicas stay distinct");
        }
    }

    #[test]
    fn rack_spread_bounds_the_racks_replicas_span() {
        let mut s = ObjectStore::with_rack_layout(4, 1, 1, 4, 2);
        let mut rng = DeterministicRng::seeded(8);
        for i in 0..24 {
            let key = format!("obj-{i}");
            s.put(&key, Bytes::from_kib(64), true, &mut rng)
                .expect("put");
            let racks = s.racks_holding(&key).expect("placed");
            assert!(
                (1..=2).contains(&racks.len()),
                "spread 2 spans at most two racks: {racks:?}"
            );
            // With one DSCS node per rack, the primary pins the home rack.
            let primary_rack = s
                .rack_of(s.get(&key).expect("meta").replicas[0])
                .expect("rack");
            assert!(racks.contains(&primary_rack));
        }
    }

    #[test]
    fn acceleratable_objects_home_on_their_dscs_rack() {
        let mut s = ObjectStore::with_rack_layout(2, 2, 1, 2, 1);
        let mut rng = DeterministicRng::seeded(9);
        let meta = s
            .put("model-input", Bytes::from_mib(4), true, &mut rng)
            .expect("put");
        assert_eq!(s.node_class(meta.replicas[0]), Some(DriveClass::Dscs));
        let home = s.rack_of(meta.replicas[0]).expect("rack");
        for &replica in &meta.replicas {
            assert_eq!(s.rack_of(replica), Some(home));
        }
    }

    #[test]
    fn draw_replicas_is_the_placement_put_stores() {
        let mut s = ObjectStore::with_rack_layout(3, 2, 1, 3, 2);
        let mut draws = DeterministicRng::seeded(10);
        let mut puts = DeterministicRng::seeded(10);
        let mut drawn = Vec::new();
        for i in 0..40 {
            let key = format!("obj-{i}");
            let acceleratable = i % 3 != 0;
            let home = s
                .draw_replicas(acceleratable, &mut draws, &mut drawn)
                .expect("draw");
            let meta = s
                .put(&key, Bytes::from_kib(8), acceleratable, &mut puts)
                .expect("put");
            assert_eq!(drawn, meta.replicas, "same draws, same replicas");
            for rack in s.racks_holding(&key).expect("placed") {
                assert!(
                    (rack + 3 - home) % 3 < 2,
                    "rack {rack} outside home {home}'s spread"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rack spread")]
    fn zero_rack_spread_rejected() {
        let _ = ObjectStore::with_rack_layout(2, 1, 1, 2, 0);
    }

    #[test]
    fn remote_fetch_costs_scale_with_size() {
        let fetch = RemoteFetchModel::datacenter_default();
        let small = fetch.fetch_latency(Bytes::from_kib(64));
        let large = fetch.fetch_latency(Bytes::from_mib(8));
        assert!(large > small);
        // Median base latency is tens of milliseconds (Figure 3): a remote
        // fetch is never free.
        assert!(small > SimDuration::from_millis(10), "small fetch {small}");
        let e = fetch.fetch_energy_joules(Bytes::from_mib(1));
        assert!(e > 0.0);
    }
}
