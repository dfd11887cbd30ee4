//! Code generation: lowering fusion groups into DSA instruction streams.
//!
//! Each GEMM-class operator is lowered to its implicit-GEMM dimensions
//! (convolutions via im2col), tiled for the target configuration, and emitted
//! as interleaved `LoadTile`/`GemmTile` pairs so the executor can overlap DMA
//! with compute. Vector-class operators become `VectorTile`s; fused consumers
//! read their producer's output from the shared on-chip buffer so only the
//! group's external inputs and final output travel over DMA.

use dscs_dsa::config::DsaConfig;
use dscs_dsa::isa::{Instruction, Program};
use dscs_nn::graph::Graph;
use dscs_nn::op::{Operator, OperatorClass};

use crate::fusion::{fuse, FusionGroup, FusionPolicy};
use crate::tiling::select_tiling;

/// The implicit-GEMM view of a GEMM-class operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    /// Output rows.
    pub m: u64,
    /// Reduction depth.
    pub k: u64,
    /// Output columns.
    pub n: u64,
}

/// Lowers a GEMM-class operator to its implicit-GEMM dimensions.
///
/// Returns `None` for operators that are not GEMM-class.
pub fn gemm_dims(op: &Operator) -> Option<GemmDims> {
    match *op {
        Operator::MatMul { m, k, n, .. } => Some(GemmDims { m, k, n }),
        Operator::Conv2d {
            batch,
            in_channels,
            out_channels,
            in_h,
            in_w,
            kernel,
            stride,
            ..
        } => {
            let out_h = in_h.div_ceil(stride);
            let out_w = in_w.div_ceil(stride);
            Some(GemmDims {
                m: batch * out_h * out_w,
                k: in_channels * kernel * kernel,
                n: out_channels,
            })
        }
        Operator::DepthwiseConv2d {
            batch,
            channels,
            in_h,
            in_w,
            kernel,
            stride,
            ..
        } => {
            let out_h = in_h.div_ceil(stride);
            let out_w = in_w.div_ceil(stride);
            Some(GemmDims {
                m: batch * out_h * out_w,
                k: kernel * kernel,
                n: channels,
            })
        }
        _ => None,
    }
}

/// Compiler options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Whether to fuse vector consumers into their GEMM producers.
    pub fusion: FusionPolicy,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            fusion: FusionPolicy::Enabled,
        }
    }
}

/// Compiles a model graph into a DSA program for `config`.
///
/// ```
/// use dscs_compiler::codegen::compile;
/// use dscs_dsa::config::DsaConfig;
/// use dscs_dsa::executor::Executor;
/// use dscs_nn::zoo::{Model, ModelKind};
///
/// let config = DsaConfig::paper_optimal();
/// let model = Model::build(ModelKind::ResNet50);
/// let program = compile(model.graph(), &config, Default::default());
/// assert!(Executor::new(config).run(&program).total_ops >= model.graph().total_flops());
/// ```
pub fn compile(graph: &Graph, config: &DsaConfig, options: CompileOptions) -> Program {
    let groups = fuse(graph, options.fusion);
    let mut program = Program::default();
    for group in &groups {
        emit_group(graph, config, group, &mut program);
        program.push(Instruction::Sync);
    }
    program
}

fn emit_group(graph: &Graph, config: &DsaConfig, group: &FusionGroup, program: &mut Program) {
    for (pos, &node_id) in group.nodes.iter().enumerate() {
        let node = graph.node(node_id);
        let is_first = pos == 0;
        let is_last = pos + 1 == group.nodes.len();
        match node.op.class() {
            OperatorClass::Gemm => {
                let dims = gemm_dims(&node.op).expect("GEMM-class operators lower to GEMM dims");
                emit_gemm(config, dims, is_first, is_last, &node.op, program);
            }
            OperatorClass::Vector => {
                // External input only if this op starts the group (otherwise the
                // producer's output is already on-chip).
                if is_first {
                    program.push(Instruction::load_tile(node.op.input_bytes().as_u64()));
                }
                let elements = node.op.output_bytes().as_u64().max(1);
                let ops_per_element = (node.op.flops() / elements.max(1)).max(1);
                program.push(Instruction::vector_tile(elements, ops_per_element));
                if is_last {
                    program.push(Instruction::store_tile(node.op.output_bytes().as_u64()));
                }
            }
            OperatorClass::DataMovement => {
                // Pure layout changes stay within the scratchpad when fused; when
                // standalone they are a DMA round trip.
                if is_first && is_last {
                    program.push(Instruction::load_tile(node.op.input_bytes().as_u64()));
                    program.push(Instruction::store_tile(node.op.output_bytes().as_u64()));
                }
            }
        }
    }
}

fn emit_gemm(
    config: &DsaConfig,
    dims: GemmDims,
    load_input: bool,
    store_output: bool,
    op: &Operator,
    program: &mut Program,
) {
    let tiling = select_tiling(config, dims.m, dims.k, dims.n);
    let m_tiles = dims.m.div_ceil(tiling.tile_m);
    let k_tiles = dims.k.div_ceil(tiling.tile_k);
    let n_tiles = dims.n.div_ceil(tiling.tile_n);

    // Embedding-style GEMMs never materialise the full weight matrix; for
    // ordinary GEMMs the weights stream tile by tile. We scale the per-tile
    // weight bytes so the total matches the operator's real weight footprint
    // (conv weights are much smaller than the im2col K x N product).
    let weight_total = op.weight_bytes().as_u64();
    let weight_tile = (weight_total / (k_tiles * n_tiles).max(1)).max(1);
    let input_total = if load_input {
        op.input_bytes().as_u64()
    } else {
        0
    };
    let input_tile = (input_total / (m_tiles * k_tiles).max(1)).max(1);
    let output_total = if store_output {
        op.output_bytes().as_u64()
    } else {
        0
    };
    let output_tile = (output_total / (m_tiles * n_tiles).max(1)).max(1);

    for _n in 0..n_tiles {
        for _k in 0..k_tiles {
            program.push(Instruction::load_tile(weight_tile));
            for _m in 0..m_tiles {
                if load_input {
                    program.push(Instruction::load_tile(input_tile));
                }
                let tile_m = tiling.tile_m.min(dims.m);
                let tile_k = tiling.tile_k.min(dims.k);
                let tile_n = tiling.tile_n.min(dims.n);
                program.push(Instruction::gemm_tile(tile_m, tile_k, tile_n));
            }
        }
        if store_output {
            for _m in 0..m_tiles {
                program.push(Instruction::store_tile(output_tile));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscs_dsa::config::{MemoryKind, TechnologyNode};
    use dscs_dsa::executor::Executor;
    use dscs_dsa::isa::Instruction;
    use dscs_nn::tensor::DType;
    use dscs_nn::zoo::{Model, ModelKind};

    #[test]
    fn conv_lowers_to_implicit_gemm() {
        let op = Operator::Conv2d {
            batch: 1,
            in_channels: 64,
            out_channels: 128,
            in_h: 56,
            in_w: 56,
            kernel: 3,
            stride: 2,
            dtype: DType::Int8,
        };
        let dims = gemm_dims(&op).expect("conv is GEMM-class");
        assert_eq!(dims.m, 28 * 28);
        assert_eq!(dims.k, 64 * 9);
        assert_eq!(dims.n, 128);
        // Implicit GEMM preserves the FLOP count.
        assert_eq!(2 * dims.m * dims.k * dims.n, op.flops());
    }

    #[test]
    fn vector_ops_do_not_lower_to_gemm() {
        let op = Operator::Softmax {
            rows: 4,
            cols: 10,
            dtype: DType::Fp16,
        };
        assert!(gemm_dims(&op).is_none());
    }

    #[test]
    fn compiled_program_covers_model_flops() {
        let model = Model::build(ModelKind::ResNet50);
        let program = compile(
            model.graph(),
            &DsaConfig::paper_optimal(),
            CompileOptions::default(),
        );
        // Tiling pads dimensions, so the program does at least the model's work
        // but not an unreasonable amount more.
        let ops = Executor::new(DsaConfig::paper_optimal())
            .run(&program)
            .total_ops;
        let ratio = ops as f64 / model.graph().total_flops() as f64;
        assert!((1.0..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fusion_reduces_dma_traffic() {
        let model = Model::build(ModelKind::VitBase);
        let cfg = DsaConfig::paper_optimal();
        let fused = compile(model.graph(), &cfg, CompileOptions::default());
        let unfused = compile(
            model.graph(),
            &cfg,
            CompileOptions {
                fusion: FusionPolicy::Disabled,
            },
        );
        assert!(fused.total_dma_bytes().as_u64() < unfused.total_dma_bytes().as_u64());
    }

    #[test]
    fn weight_traffic_tracks_model_size() {
        let model = Model::build(ModelKind::BertBase);
        let cfg = DsaConfig::paper_optimal();
        let program = compile(model.graph(), &cfg, CompileOptions::default());
        let weights = model.weight_bytes().as_u64();
        let dma = program.total_dma_bytes().as_u64();
        // DMA must at least stream the weights once, and with batch-1 reuse the
        // total traffic should stay within a small multiple of the weights.
        assert!(dma >= weights, "dma {dma} < weights {weights}");
        assert!(dma < 4 * weights, "dma {dma} vs weights {weights}");
    }

    #[test]
    fn bigger_batch_amortises_weight_traffic() {
        let cfg = DsaConfig::paper_optimal();
        let b1 = Model::build_with_batch(ModelKind::BertBase, 1);
        let b8 = Model::build_with_batch(ModelKind::BertBase, 8);
        let p1 = compile(b1.graph(), &cfg, CompileOptions::default());
        let p8 = compile(b8.graph(), &cfg, CompileOptions::default());
        let traffic_per_item_b1 = p1.total_dma_bytes().as_f64();
        let traffic_per_item_b8 = p8.total_dma_bytes().as_f64() / 8.0;
        assert!(traffic_per_item_b8 < traffic_per_item_b1);
    }

    #[test]
    fn larger_array_executes_fewer_but_bigger_tiles() {
        let model = Model::build(ModelKind::ResNet50);
        let small = DsaConfig::square(
            32,
            dscs_simcore::quantity::Bytes::from_mib(1).as_u64(),
            MemoryKind::Ddr5,
            TechnologyNode::Nm45,
        );
        let large = DsaConfig {
            node: TechnologyNode::Nm45,
            ..DsaConfig::paper_optimal()
        };
        let gemm_tiles = |config| {
            let program = compile(model.graph(), &config, CompileOptions::default());
            program
                .instructions()
                .iter()
                .filter(|i| matches!(i, Instruction::GemmTile { .. }))
                .count()
        };
        assert!(gemm_tiles(large) <= gemm_tiles(small));
    }
}
