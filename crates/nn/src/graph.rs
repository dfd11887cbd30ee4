//! Operator graphs.
//!
//! A model is a DAG of [`Operator`] nodes held in topological order: each node
//! is an operator plus the earlier nodes whose outputs feed it. The analytical
//! and cycle models read the operators in order; the compiler's fusion pass
//! also reads the producer/consumer edges.

use std::fmt;

use dscs_simcore::quantity::Bytes;

use crate::op::Operator;

/// Identifier of a node within one graph: its index in [`Graph::nodes`].
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
    /// The operator.
    pub op: Operator,
    /// Producer nodes whose outputs feed this node.
    pub inputs: Vec<NodeId>,
}

/// An operator graph in topological order, built by [`GraphBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Nodes in topological order; a node's [`NodeId`] is its index here.
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
        for (id, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
                out[input.0].push(NodeId(id));
            }
        }
        out
    }
}

/// Incremental graph builder: the only way to make a [`Graph`], so every graph
/// lists each node after its inputs and each input at most once.
///
/// ```
/// use dscs_nn::graph::GraphBuilder;
/// use dscs_nn::op::Operator;
/// use dscs_nn::tensor::DType;
///
/// let mut b = GraphBuilder::default();
/// let a = b.add(Operator::MatMul { m: 1, k: 4, n: 8, dtype: DType::Int8 }, &[]);
/// let _ = b.add(Operator::MatMul { m: 1, k: 8, n: 2, dtype: DType::Int8 }, &[a]);
/// let g = b.build();
/// assert_eq!(g.nodes().len(), 2);
/// assert_eq!(g.consumers()[a.0].len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Appends an operator fed by `inputs` and returns its id.
    ///
    /// # Panics
    /// Panics if any input id has not been added yet, or is listed twice.
    pub fn add(&mut self, op: Operator, inputs: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len());
        for (i, &input) in inputs.iter().enumerate() {
            assert!(
                input.0 < id.0,
                "input {input} must be added before node {id}"
            );
            assert!(
                !inputs[..i].contains(&input),
                "node {id} lists input {input} twice"
            );
        }
        self.nodes.push(Node {
            op,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Appends an operator fed by the previously added node (or nothing if the
    /// graph is empty) — the common case for sequential models.
    pub fn add_seq(&mut self, op: Operator) -> NodeId {
        let inputs: Vec<NodeId> = if self.nodes.is_empty() {
            Vec::new()
        } else {
            vec![NodeId(self.nodes.len() - 1)]
        };
        self.add(op, &inputs)
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
        Graph { nodes: self.nodes }
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
        let a = b.add(mm(1, 2, 3), &[]);
        let c = b.add(mm(1, 3, 4), &[a]);
        assert_eq!(a, NodeId(0));
        assert_eq!(c, NodeId(1));
        let g = b.build();
        assert_eq!(g.node(c).inputs, vec![a]);
    }

    #[test]
    fn sequential_builder_links_previous() {
        let mut b = GraphBuilder::default();
        b.add_seq(mm(1, 2, 3));
        b.add_seq(Operator::Activation {
            kind: ActivationKind::Relu,
            elements: 3,
            dtype: DType::Int8,
        });
        let g = b.build();
        assert_eq!(g.node(NodeId(1)).inputs, vec![NodeId(0)]);
    }

    #[test]
    fn totals_sum_over_nodes() {
        let mut b = GraphBuilder::default();
        b.add_seq(mm(2, 4, 8));
        b.add_seq(mm(2, 8, 16));
        let g = b.build();
        assert_eq!(g.total_flops(), 2 * 2 * 4 * 8 + 2 * 2 * 8 * 16);
        assert_eq!(g.parameter_count(), 4 * 8 + 8 * 16);
        assert_eq!(g.total_weight_bytes().as_u64(), 4 * 8 + 8 * 16);
    }

    #[test]
    fn consumers_invert_edges() {
        let mut b = GraphBuilder::default();
        let a = b.add(mm(1, 2, 3), &[]);
        let c = b.add(mm(1, 3, 4), &[a]);
        let d = b.add(mm(1, 3, 4), &[a]);
        let g = b.build();
        let consumers = g.consumers();
        assert_eq!(consumers[a.0], vec![c, d]);
        assert!(consumers[c.0].is_empty());
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn builder_rejects_unknown_inputs() {
        let mut b = GraphBuilder::default();
        b.add(mm(1, 1, 1), &[NodeId(5)]);
    }

    #[test]
    #[should_panic(expected = "lists input n0 twice")]
    fn builder_rejects_repeated_inputs() {
        let mut b = GraphBuilder::default();
        let a = b.add(mm(1, 1, 1), &[]);
        b.add(mm(1, 1, 1), &[a, a]);
    }
}
