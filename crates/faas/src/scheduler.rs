//! Function scheduling and placement.
//!
//! The paper extends the centralized Kubernetes scheduler so that storage nodes
//! with in-storage accelerators are visible, and maps acceleratable functions
//! onto the node that holds the data — falling back to conventional compute
//! nodes when the DSA is busy or absent (Section 5.3). Requests are served
//! First-Come-First-Serve and functions run to completion without preemption.

use std::collections::{HashMap, VecDeque};

use crate::telemetry::Telemetry;

/// Identifier of a schedulable node (compute node or DSCS-capable storage node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// What kind of execution a node offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeCapability {
    /// A conventional compute node (CPU, or CPU + discrete accelerator).
    Compute,
    /// A storage node whose drive contains an in-storage DSA.
    DscsStorage,
}

/// A request waiting to be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// Request identifier (assigned by the caller).
    pub id: u64,
    /// Application the request belongs to.
    pub app: String,
    /// Whether the request's functions are acceleratable (and its data was
    /// placed on a DSCS-Drive).
    pub acceleratable: bool,
    /// Preferred node: the storage node holding the data, when known.
    pub data_node: Option<NodeId>,
}

/// Placement decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run on the in-storage DSA of the given storage node.
    InStorage(NodeId),
    /// Run on a conventional compute node (the fail-over / default path).
    OnCompute(NodeId),
}

impl Placement {
    /// The node chosen by this placement.
    pub fn node(&self) -> NodeId {
        match *self {
            Placement::InStorage(n) | Placement::OnCompute(n) => n,
        }
    }

    /// Whether the placement uses the in-storage accelerator.
    pub fn uses_dsa(&self) -> bool {
        matches!(self, Placement::InStorage(_))
    }
}

/// Errors returned by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The pending queue is full (its depth models the paper's 10 000-entry
    /// scheduler queue).
    QueueFull,
    /// The request references an unknown node.
    UnknownNode(NodeId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::QueueFull => write!(f, "scheduler queue is full"),
            ScheduleError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// FCFS scheduler with DSCS-aware placement and fail-over.
#[derive(Debug)]
pub struct Scheduler {
    capabilities: HashMap<NodeId, NodeCapability>,
    busy: HashMap<NodeId, bool>,
    queue: VecDeque<PendingRequest>,
    queue_depth: usize,
    telemetry: Telemetry,
}

impl Scheduler {
    /// Creates a scheduler over the given nodes with a bounded queue.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or `queue_depth` is zero.
    pub fn new(
        nodes: impl IntoIterator<Item = (NodeId, NodeCapability)>,
        queue_depth: usize,
    ) -> Self {
        let capabilities: HashMap<_, _> = nodes.into_iter().collect();
        assert!(
            !capabilities.is_empty(),
            "scheduler needs at least one node"
        );
        assert!(queue_depth > 0, "queue depth must be positive");
        let busy = capabilities.keys().map(|&n| (n, false)).collect();
        Scheduler {
            capabilities,
            busy,
            queue: VecDeque::new(),
            queue_depth,
            telemetry: Telemetry::new(),
        }
    }

    /// The telemetry registry (counters: `scheduled_total`, `queued_total`,
    /// `fallback_total`; gauge: `queue_depth`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enqueues a request; it will be placed by [`Scheduler::dispatch`] in FCFS
    /// order as nodes free up.
    pub fn submit(&mut self, request: PendingRequest) -> Result<(), ScheduleError> {
        if let Some(node) = request.data_node {
            if !self.capabilities.contains_key(&node) {
                return Err(ScheduleError::UnknownNode(node));
            }
        }
        if self.queue.len() >= self.queue_depth {
            return Err(ScheduleError::QueueFull);
        }
        self.queue.push_back(request);
        self.telemetry.inc_counter("queued_total");
        self.telemetry
            .set_gauge("queue_depth", self.queue.len() as f64);
        Ok(())
    }

    /// Attempts to place queued requests onto free nodes, in FCFS order,
    /// returning the placements made. Placement prefers the in-storage DSA of
    /// the data's node for acceleratable requests and falls back to any free
    /// compute node otherwise (the paper's fail-over path).
    pub fn dispatch(&mut self) -> Vec<(PendingRequest, Placement)> {
        let mut placed = Vec::new();
        let mut remaining = VecDeque::new();
        while let Some(request) = self.queue.pop_front() {
            match self.place(&request) {
                Some(placement) => {
                    *self.busy.get_mut(&placement.node()).expect("node exists") = true;
                    self.telemetry.inc_counter("scheduled_total");
                    if !placement.uses_dsa() && request.acceleratable {
                        self.telemetry.inc_counter("fallback_total");
                    }
                    placed.push((request, placement));
                }
                None => {
                    // FCFS: do not let later requests jump ahead of one that
                    // cannot be placed yet.
                    remaining.push_back(request);
                    break;
                }
            }
        }
        while let Some(r) = self.queue.pop_front() {
            remaining.push_back(r);
        }
        // Preserve FCFS order: the unplaceable head (if any) stays first.
        let placed_head = remaining.clone();
        self.queue = placed_head;
        self.telemetry
            .set_gauge("queue_depth", self.queue.len() as f64);
        placed
    }

    /// Marks a node as available again (function ran to completion).
    ///
    /// # Panics
    /// Panics if the node is unknown.
    pub fn release(&mut self, node: NodeId) {
        let slot = self.busy.get_mut(&node).expect("release of unknown node");
        *slot = false;
    }

    /// Whether a node is currently busy.
    pub fn is_busy(&self, node: NodeId) -> bool {
        self.busy.get(&node).copied().unwrap_or(false)
    }

    fn place(&self, request: &PendingRequest) -> Option<Placement> {
        if request.acceleratable {
            if let Some(data_node) = request.data_node {
                if self.capabilities.get(&data_node) == Some(&NodeCapability::DscsStorage)
                    && !self.is_busy(data_node)
                {
                    return Some(Placement::InStorage(data_node));
                }
            }
            // Another free DSCS node holding a replica could be used; fall back
            // to any free DSCS node, then to compute.
            if let Some(node) = self.free_node_of(NodeCapability::DscsStorage) {
                return Some(Placement::InStorage(node));
            }
        }
        self.free_node_of(NodeCapability::Compute)
            .map(Placement::OnCompute)
    }

    fn free_node_of(&self, capability: NodeCapability) -> Option<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .capabilities
            .iter()
            .filter(|(id, cap)| **cap == capability && !self.is_busy(**id))
            .map(|(id, _)| *id)
            .collect();
        candidates.sort_unstable();
        candidates.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> Scheduler {
        Scheduler::new(
            vec![
                (NodeId(0), NodeCapability::Compute),
                (NodeId(1), NodeCapability::Compute),
                (NodeId(10), NodeCapability::DscsStorage),
            ],
            100,
        )
    }

    fn request(id: u64, acceleratable: bool, data_node: Option<NodeId>) -> PendingRequest {
        PendingRequest {
            id,
            app: "app".to_string(),
            acceleratable,
            data_node,
        }
    }

    #[test]
    fn acceleratable_requests_go_to_the_data_node() {
        let mut s = scheduler();
        s.submit(request(1, true, Some(NodeId(10))))
            .expect("submit");
        let placed = s.dispatch();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].1, Placement::InStorage(NodeId(10)));
        assert!(s.is_busy(NodeId(10)));
    }

    #[test]
    fn non_acceleratable_requests_use_compute_nodes() {
        let mut s = scheduler();
        s.submit(request(1, false, None)).expect("submit");
        let placed = s.dispatch();
        assert_eq!(placed[0].1, Placement::OnCompute(NodeId(0)));
    }

    #[test]
    fn busy_dsa_falls_back_to_compute() {
        let mut s = scheduler();
        s.submit(request(1, true, Some(NodeId(10))))
            .expect("submit");
        s.submit(request(2, true, Some(NodeId(10))))
            .expect("submit");
        let placed = s.dispatch();
        assert_eq!(placed.len(), 2);
        assert!(placed[0].1.uses_dsa());
        assert!(!placed[1].1.uses_dsa(), "second request must fall back");
        assert_eq!(s.telemetry().counter("fallback_total"), 1);
    }

    #[test]
    fn release_makes_node_available_again() {
        let mut s = scheduler();
        s.submit(request(1, true, Some(NodeId(10))))
            .expect("submit");
        s.dispatch();
        s.release(NodeId(10));
        s.submit(request(2, true, Some(NodeId(10))))
            .expect("submit");
        let placed = s.dispatch();
        assert!(placed[0].1.uses_dsa());
    }

    #[test]
    fn fcfs_order_is_preserved_when_nodes_are_exhausted() {
        let mut s = Scheduler::new(vec![(NodeId(0), NodeCapability::Compute)], 10);
        for id in 0..3 {
            s.submit(request(id, false, None)).expect("submit");
        }
        let placed = s.dispatch();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0.id, 0);
        assert!(s.dispatch().is_empty(), "the node is still busy");
        s.release(NodeId(0));
        let placed = s.dispatch();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0.id, 1, "FCFS order respected");
        s.release(NodeId(0));
        let placed = s.dispatch();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0.id, 2, "the last queued request comes out last");
        s.release(NodeId(0));
        assert!(s.dispatch().is_empty(), "the queue is drained");
    }

    #[test]
    fn queue_depth_is_enforced() {
        let mut s = Scheduler::new(vec![(NodeId(0), NodeCapability::Compute)], 2);
        s.submit(request(1, false, None)).expect("ok");
        s.submit(request(2, false, None)).expect("ok");
        assert_eq!(
            s.submit(request(3, false, None)),
            Err(ScheduleError::QueueFull)
        );
    }

    #[test]
    fn unknown_data_node_is_rejected() {
        let mut s = scheduler();
        assert_eq!(
            s.submit(request(1, true, Some(NodeId(99)))),
            Err(ScheduleError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn telemetry_tracks_queue_depth() {
        let mut s = scheduler();
        s.submit(request(1, false, None)).expect("ok");
        assert_eq!(s.telemetry().gauge("queue_depth"), Some(1.0));
        s.dispatch();
        assert_eq!(s.telemetry().gauge("queue_depth"), Some(0.0));
    }
}
