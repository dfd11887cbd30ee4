//! Operator graphs.
//!
//! Models are represented as DAGs of [`Operator`] nodes. For the analytical
//! and cycle models the topological order of operators is what matters; the
//! graph also records producer/consumer edges so the compiler can perform
//! operator fusion.

use std::collections::HashSet;
use std::fmt;

use dscs_simcore::quantity::Bytes;

use crate::op::Operator;

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node: an operator plus its producers.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node identifier (index into the graph's node list).
    pub id: NodeId,
    /// Human-readable layer name (e.g. `"layer3.conv2"`).
    pub name: String,
    /// The operator.
    pub op: Operator,
    /// Producer nodes whose outputs feed this node.
    pub inputs: Vec<NodeId>,
}

/// An operator graph in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node lookup.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Total FLOPs across all operators.
    pub fn total_flops(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.flops()).sum()
    }

    /// Total weight bytes across all operators (the model size).
    pub fn total_weight_bytes(&self) -> Bytes {
        self.nodes.iter().map(|n| n.op.weight_bytes()).sum()
    }

    /// Total parameter count.
    pub fn parameter_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.op.parameter_count()).sum()
    }

    /// Consumers of each node (inverse edges), indexed by node id.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                out[input.0].push(node.id);
            }
        }
        out
    }

    /// Checks structural invariants: ids are dense, inputs reference earlier
    /// nodes only (topological order), no self-edges.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.id.0 != idx {
                return Err(GraphError::NonDenseIds {
                    expected: idx,
                    found: node.id,
                });
            }
            let mut seen = HashSet::new();
            for &input in &node.inputs {
                if input.0 >= idx {
                    return Err(GraphError::ForwardEdge {
                        node: node.id,
                        input,
                    });
                }
                if !seen.insert(input) {
                    return Err(GraphError::DuplicateEdge {
                        node: node.id,
                        input,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Structural errors reported by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Node ids are not the dense range `0..len`.
    NonDenseIds {
        /// Expected id at this position.
        expected: usize,
        /// Id actually found.
        found: NodeId,
    },
    /// A node references an input at or after its own position.
    ForwardEdge {
        /// Offending node.
        node: NodeId,
        /// Input that is not an earlier node.
        input: NodeId,
    },
    /// A node lists the same input twice.
    DuplicateEdge {
        /// Offending node.
        node: NodeId,
        /// Duplicated input.
        input: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NonDenseIds { expected, found } => {
                write!(f, "node id {found} found where {expected} was expected")
            }
            GraphError::ForwardEdge { node, input } => {
                write!(f, "node {node} references non-earlier input {input}")
            }
            GraphError::DuplicateEdge { node, input } => {
                write!(f, "node {node} lists input {input} twice")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental graph builder that assigns dense ids and maintains topological
/// order by construction.
///
/// ```
/// use dscs_nn::graph::GraphBuilder;
/// use dscs_nn::op::Operator;
/// use dscs_nn::tensor::DType;
///
/// let mut b = GraphBuilder::default();
/// let a = b.add("fc1", Operator::MatMul { m: 1, k: 4, n: 8, dtype: DType::Int8 }, &[]);
/// let _ = b.add("fc2", Operator::MatMul { m: 1, k: 8, n: 2, dtype: DType::Int8 }, &[a]);
/// let g = b.build();
/// assert_eq!(g.nodes().len(), 2);
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Appends an operator fed by `inputs` and returns its id.
    ///
    /// # Panics
    /// Panics if any input id has not been added yet.
    pub fn add(&mut self, name: impl Into<String>, op: Operator, inputs: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len());
        for &input in inputs {
            assert!(
                input.0 < id.0,
                "input {input} must be added before node {id}"
            );
        }
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Appends an operator fed by the previously added node (or nothing if the
    /// graph is empty) — the common case for sequential models.
    pub fn add_seq(&mut self, name: impl Into<String>, op: Operator) -> NodeId {
        let inputs: Vec<NodeId> = if self.nodes.is_empty() {
            Vec::new()
        } else {
            vec![NodeId(self.nodes.len() - 1)]
        };
        self.add(name, op, &inputs)
    }

    /// Id of the most recently added node.
    ///
    /// # Panics
    /// Panics if the builder is empty.
    pub fn last(&self) -> NodeId {
        NodeId(self.nodes.len().checked_sub(1).expect("builder is empty"))
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalises the graph.
    pub fn build(self) -> Graph {
        let graph = Graph { nodes: self.nodes };
        debug_assert!(graph.validate().is_ok());
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{ActivationKind, Operator};
    use crate::tensor::DType;

    fn mm(m: u64, k: u64, n: u64) -> Operator {
        Operator::MatMul {
            m,
            k,
            n,
            dtype: DType::Int8,
        }
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = GraphBuilder::default();
        let a = b.add("a", mm(1, 2, 3), &[]);
        let c = b.add("c", mm(1, 3, 4), &[a]);
        assert_eq!(a, NodeId(0));
        assert_eq!(c, NodeId(1));
        let g = b.build();
        assert!(g.validate().is_ok());
        assert_eq!(g.node(c).inputs, vec![a]);
    }

    #[test]
    fn sequential_builder_links_previous() {
        let mut b = GraphBuilder::default();
        b.add_seq("a", mm(1, 2, 3));
        b.add_seq(
            "act",
            Operator::Activation {
                kind: ActivationKind::Relu,
                elements: 3,
                dtype: DType::Int8,
            },
        );
        let g = b.build();
        assert_eq!(g.node(NodeId(1)).inputs, vec![NodeId(0)]);
    }

    #[test]
    fn totals_sum_over_nodes() {
        let mut b = GraphBuilder::default();
        b.add_seq("a", mm(2, 4, 8));
        b.add_seq("b", mm(2, 8, 16));
        let g = b.build();
        assert_eq!(g.total_flops(), 2 * 2 * 4 * 8 + 2 * 2 * 8 * 16);
        assert_eq!(g.parameter_count(), 4 * 8 + 8 * 16);
        assert_eq!(g.total_weight_bytes().as_u64(), 4 * 8 + 8 * 16);
    }

    #[test]
    fn consumers_invert_edges() {
        let mut b = GraphBuilder::default();
        let a = b.add("a", mm(1, 2, 3), &[]);
        let c = b.add("c", mm(1, 3, 4), &[a]);
        let d = b.add("d", mm(1, 3, 4), &[a]);
        let g = b.build();
        let consumers = g.consumers();
        assert_eq!(consumers[a.0], vec![c, d]);
        assert!(consumers[c.0].is_empty());
    }

    #[test]
    fn validate_catches_forward_edges() {
        let g = Graph {
            nodes: vec![Node {
                id: NodeId(0),
                name: "a".into(),
                op: mm(1, 1, 1),
                inputs: vec![NodeId(0)],
            }],
        };
        assert!(matches!(g.validate(), Err(GraphError::ForwardEdge { .. })));
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn builder_rejects_unknown_inputs() {
        let mut b = GraphBuilder::default();
        b.add("a", mm(1, 1, 1), &[NodeId(5)]);
    }
}
