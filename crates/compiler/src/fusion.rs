//! Operator fusion.
//!
//! The paper's compiler front-end performs operator fusion "to minimize
//! off-chip data movement": a GEMM-class operator and the chain of vector-class
//! operators that consume its output (bias add, batch-norm, activation,
//! residual add, layer-norm, ...) execute as one group, keeping the
//! intermediate activations in the shared multi-bank output buffer instead of
//! round-tripping them through the drive DRAM.
//!
//! A fusion group therefore loads its external inputs once, computes the whole
//! chain, and stores only the final output.

use dscs_nn::graph::{Graph, NodeId};
use dscs_nn::op::OperatorClass;

/// A group of operators executed back-to-back without spilling intermediates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Nodes in the group, in topological order.
    pub nodes: Vec<NodeId>,
}

impl FusionGroup {
    /// The node whose output leaves the group (the last node).
    pub fn output(&self) -> NodeId {
        *self.nodes.last().expect("fusion groups are never empty")
    }

    /// The node the group starts with.
    pub fn anchor(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of operators in the group.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the group is empty (never true for groups built by [`fuse`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Fusion policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionPolicy {
    /// Fuse vector-class consumers into their GEMM-class producer (default).
    Enabled,
    /// Every operator is its own group (used by the fusion ablation bench).
    Disabled,
}

/// Partitions a graph into fusion groups.
///
/// Greedy, single-pass: a vector-class or data-movement operator is absorbed
/// into the current group when it is the unique consumer of the group's output
/// so far; GEMM-class operators and fan-out points start new groups.
///
/// ```
/// use dscs_compiler::fusion::{fuse, FusionPolicy};
/// use dscs_nn::zoo::{Model, ModelKind};
///
/// let model = Model::build(ModelKind::ResNet50);
/// let fused = fuse(model.graph(), FusionPolicy::Enabled);
/// let unfused = fuse(model.graph(), FusionPolicy::Disabled);
/// assert!(fused.len() < unfused.len());
/// ```
pub fn fuse(graph: &Graph, policy: FusionPolicy) -> Vec<FusionGroup> {
    if graph.is_empty() {
        return Vec::new();
    }
    if policy == FusionPolicy::Disabled {
        return graph
            .nodes()
            .iter()
            .map(|n| FusionGroup { nodes: vec![n.id] })
            .collect();
    }

    let consumers = graph.consumers();
    let mut groups: Vec<FusionGroup> = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();

    for node in graph.nodes() {
        let class = node.op.class();
        let extends_current = !current.is_empty()
            && class != OperatorClass::Gemm
            && node.inputs.contains(current.last().expect("non-empty"))
            // Only absorb when the group's current output has no other consumer,
            // otherwise that value must be materialised anyway.
            && consumers[current.last().expect("non-empty").0].len() == 1;

        if extends_current {
            current.push(node.id);
        } else {
            if !current.is_empty() {
                groups.push(FusionGroup {
                    nodes: std::mem::take(&mut current),
                });
            }
            current.push(node.id);
        }
    }
    if !current.is_empty() {
        groups.push(FusionGroup { nodes: current });
    }
    groups
}

/// Bytes of intermediate activations that fusion keeps on-chip for a set of
/// groups: the outputs of every non-final node in each group.
pub fn saved_intermediate_bytes(graph: &Graph, groups: &[FusionGroup]) -> u64 {
    groups
        .iter()
        .flat_map(|g| g.nodes.iter().take(g.nodes.len().saturating_sub(1)))
        .map(|&id| graph.node(id).op.output_bytes().as_u64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_nn::graph::GraphBuilder;
    use dscs_nn::op::{ActivationKind, ElementwiseKind, Operator};
    use dscs_nn::tensor::DType;
    use dscs_nn::zoo::{Model, ModelKind};

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new("t");
        b.add_seq(
            "fc1",
            Operator::MatMul {
                m: 8,
                k: 16,
                n: 32,
                dtype: DType::Int8,
            },
        );
        b.add_seq(
            "relu",
            Operator::Activation {
                kind: ActivationKind::Relu,
                elements: 256,
                dtype: DType::Int8,
            },
        );
        b.add_seq(
            "fc2",
            Operator::MatMul {
                m: 8,
                k: 32,
                n: 4,
                dtype: DType::Int8,
            },
        );
        b.add_seq(
            "bias",
            Operator::Elementwise {
                kind: ElementwiseKind::Add,
                elements: 32,
                dtype: DType::Int8,
            },
        );
        b.build()
    }

    #[test]
    fn gemm_plus_activation_fuse() {
        let g = sample_graph();
        let groups = fuse(&g, FusionPolicy::Enabled);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 2);
        assert_eq!(groups[0].anchor(), NodeId(0));
        assert_eq!(groups[0].output(), NodeId(1));
    }

    #[test]
    fn disabled_policy_keeps_every_node_separate() {
        let g = sample_graph();
        let groups = fuse(&g, FusionPolicy::Disabled);
        assert_eq!(groups.len(), g.len());
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn fusion_covers_every_node_exactly_once() {
        let model = Model::build(ModelKind::BertBase);
        let groups = fuse(model.graph(), FusionPolicy::Enabled);
        let mut covered: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.nodes.iter().map(|n| n.0))
            .collect();
        covered.sort_unstable();
        let expected: Vec<usize> = (0..model.graph().len()).collect();
        assert_eq!(covered, expected);
    }

    #[test]
    fn fusion_reduces_group_count_on_real_models() {
        for kind in [
            ModelKind::ResNet50,
            ModelKind::VitBase,
            ModelKind::SsdMobileNet,
        ] {
            let model = Model::build(kind);
            let fused = fuse(model.graph(), FusionPolicy::Enabled).len();
            let unfused = fuse(model.graph(), FusionPolicy::Disabled).len();
            assert!(fused * 3 <= unfused * 2, "{kind}: {fused} vs {unfused}");
        }
    }

    #[test]
    fn saved_bytes_positive_when_fusing() {
        let g = sample_graph();
        let groups = fuse(&g, FusionPolicy::Enabled);
        assert!(saved_intermediate_bytes(&g, &groups) > 0);
        let single = fuse(&g, FusionPolicy::Disabled);
        assert_eq!(saved_intermediate_bytes(&g, &single), 0);
    }

    #[test]
    fn empty_graph_yields_no_groups() {
        let g = GraphBuilder::new("empty").build();
        assert!(fuse(&g, FusionPolicy::Enabled).is_empty());
    }
}
