//! Reusable layer-block builders for the model zoo.
//!
//! These helpers emit the operator sequences that make up the benchmark
//! networks: convolution + batch-norm + activation blocks, residual
//! bottlenecks, transformer encoder/decoder blocks and classifier heads. Every
//! block runs in int8, as the DSA executes the benchmark networks.

use crate::graph::GraphBuilder;
use crate::op::{ActivationKind, ElementwiseKind, Operator};
use crate::tensor::DType;

/// Element type of the benchmark networks' operators.
pub(crate) const DT: DType = DType::Int8;

/// Spatial feature-map dimensions threaded through convolutional builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureMap {
    /// Batch size.
    pub batch: u64,
    /// Channels.
    pub channels: u64,
    /// Height.
    pub h: u64,
    /// Width.
    pub w: u64,
}

impl FeatureMap {
    /// Number of elements.
    pub fn numel(&self) -> u64 {
        self.batch * self.channels * self.h * self.w
    }
}

/// Appends `conv -> batch-norm -> relu`, returning the output feature map.
pub fn conv_bn_relu(
    b: &mut GraphBuilder,
    input: FeatureMap,
    out_channels: u64,
    kernel: u64,
    stride: u64,
) -> FeatureMap {
    b.add_seq(Operator::Conv2d {
        batch: input.batch,
        in_channels: input.channels,
        out_channels,
        in_h: input.h,
        in_w: input.w,
        kernel,
        stride,
        dtype: DT,
    });
    let out = FeatureMap {
        batch: input.batch,
        channels: out_channels,
        h: input.h.div_ceil(stride),
        w: input.w.div_ceil(stride),
    };
    b.add_seq(Operator::BatchNorm {
        elements: out.numel(),
        dtype: DT,
    });
    b.add_seq(Operator::Activation {
        kind: ActivationKind::Relu,
        elements: out.numel(),
        dtype: DT,
    });
    out
}

/// Appends a ResNet bottleneck block (1x1 reduce, 3x3, 1x1 expand + residual add).
pub fn resnet_bottleneck(
    b: &mut GraphBuilder,
    input: FeatureMap,
    mid_channels: u64,
    out_channels: u64,
    stride: u64,
) -> FeatureMap {
    let skip_src = if b.is_empty() { None } else { Some(b.last()) };
    let x = conv_bn_relu(b, input, mid_channels, 1, 1);
    let x = conv_bn_relu(b, x, mid_channels, 3, stride);
    let out = conv_bn_relu(b, x, out_channels, 1, 1);
    // Projection shortcut when shape changes (fed by the block's input, or by
    // the last conv when the block opens the graph), then residual add.
    if input.channels != out_channels || stride != 1 {
        let src = skip_src.unwrap_or_else(|| b.last());
        let proj = Operator::Conv2d {
            batch: input.batch,
            in_channels: input.channels,
            out_channels,
            in_h: input.h,
            in_w: input.w,
            kernel: 1,
            stride,
            dtype: DT,
        };
        b.add(proj, &[src]);
    }
    b.add_seq(Operator::Elementwise {
        kind: ElementwiseKind::Add,
        elements: out.numel(),
        dtype: DT,
    });
    out
}

/// Appends a MobileNet-style depthwise-separable block.
pub fn depthwise_separable(
    b: &mut GraphBuilder,
    input: FeatureMap,
    out_channels: u64,
    stride: u64,
) -> FeatureMap {
    b.add_seq(Operator::DepthwiseConv2d {
        batch: input.batch,
        channels: input.channels,
        in_h: input.h,
        in_w: input.w,
        kernel: 3,
        stride,
        dtype: DT,
    });
    let mid = FeatureMap {
        batch: input.batch,
        channels: input.channels,
        h: input.h.div_ceil(stride),
        w: input.w.div_ceil(stride),
    };
    b.add_seq(Operator::BatchNorm {
        elements: mid.numel(),
        dtype: DT,
    });
    b.add_seq(Operator::Activation {
        kind: ActivationKind::Relu,
        elements: mid.numel(),
        dtype: DT,
    });
    conv_bn_relu(b, mid, out_channels, 1, 1)
}

/// Appends a transformer encoder block: multi-head self-attention + FFN with
/// residual adds and layer norms.
pub fn transformer_encoder_block(
    b: &mut GraphBuilder,
    tokens: u64,
    hidden: u64,
    ffn: u64,
    heads: u64,
) {
    attention_block(b, tokens, tokens, hidden, heads);
    feed_forward_block(b, tokens, hidden, ffn);
}

/// Appends a transformer decoder block: masked self-attention, cross-attention
/// over `src_tokens` encoder outputs, and an FFN.
pub fn transformer_decoder_block(
    b: &mut GraphBuilder,
    tgt_tokens: u64,
    src_tokens: u64,
    hidden: u64,
    ffn: u64,
    heads: u64,
) {
    attention_block(b, tgt_tokens, tgt_tokens, hidden, heads);
    attention_block(b, tgt_tokens, src_tokens, hidden, heads);
    feed_forward_block(b, tgt_tokens, hidden, ffn);
}

/// Appends a multi-head attention block where `q_tokens` queries attend over
/// `kv_tokens` keys/values.
pub fn attention_block(
    b: &mut GraphBuilder,
    q_tokens: u64,
    kv_tokens: u64,
    hidden: u64,
    heads: u64,
) {
    // Q, K, V projections.
    b.add_seq(Operator::MatMul {
        m: q_tokens,
        k: hidden,
        n: hidden,
        dtype: DT,
    });
    b.add_seq(Operator::MatMul {
        m: kv_tokens,
        k: hidden,
        n: hidden,
        dtype: DT,
    });
    b.add_seq(Operator::MatMul {
        m: kv_tokens,
        k: hidden,
        n: hidden,
        dtype: DT,
    });
    // Scores: per head, [q, d_head] x [d_head, kv].
    let d_head = hidden / heads.max(1);
    b.add_seq(Operator::MatMul {
        m: q_tokens * heads,
        k: d_head,
        n: kv_tokens,
        dtype: DT,
    });
    b.add_seq(Operator::Softmax {
        rows: q_tokens * heads,
        cols: kv_tokens,
        dtype: DT,
    });
    // Context: [q, kv] x [kv, d_head] per head.
    b.add_seq(Operator::MatMul {
        m: q_tokens * heads,
        k: kv_tokens,
        n: d_head,
        dtype: DT,
    });
    // Output projection + residual + layer norm.
    b.add_seq(Operator::MatMul {
        m: q_tokens,
        k: hidden,
        n: hidden,
        dtype: DT,
    });
    b.add_seq(Operator::Elementwise {
        kind: ElementwiseKind::Add,
        elements: q_tokens * hidden,
        dtype: DT,
    });
    b.add_seq(Operator::LayerNorm {
        rows: q_tokens,
        cols: hidden,
        dtype: DT,
    });
}

/// Appends a transformer feed-forward block (two projections with GELU) plus
/// residual add and layer norm.
pub fn feed_forward_block(b: &mut GraphBuilder, tokens: u64, hidden: u64, ffn: u64) {
    b.add_seq(Operator::MatMul {
        m: tokens,
        k: hidden,
        n: ffn,
        dtype: DT,
    });
    b.add_seq(Operator::Activation {
        kind: ActivationKind::Gelu,
        elements: tokens * ffn,
        dtype: DT,
    });
    b.add_seq(Operator::MatMul {
        m: tokens,
        k: ffn,
        n: hidden,
        dtype: DT,
    });
    b.add_seq(Operator::Elementwise {
        kind: ElementwiseKind::Add,
        elements: tokens * hidden,
        dtype: DT,
    });
    b.add_seq(Operator::LayerNorm {
        rows: tokens,
        cols: hidden,
        dtype: DT,
    });
}

/// Appends a global-average-pool + fully-connected classifier head.
pub fn classifier_head(b: &mut GraphBuilder, input: FeatureMap, classes: u64) {
    b.add_seq(Operator::Pool {
        batch: input.batch,
        channels: input.channels,
        out_h: 1,
        out_w: 1,
        window: input.h,
        dtype: DT,
    });
    b.add_seq(Operator::MatMul {
        m: input.batch,
        k: input.channels,
        n: classes,
        dtype: DT,
    });
    b.add_seq(Operator::Softmax {
        rows: input.batch,
        cols: classes,
        dtype: DT,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn conv_block_tracks_spatial_dims() {
        let mut b = GraphBuilder::default();
        let input = FeatureMap {
            batch: 1,
            channels: 3,
            h: 224,
            w: 224,
        };
        let out = conv_bn_relu(&mut b, input, 64, 7, 2);
        assert_eq!(out.channels, 64);
        assert_eq!(out.h, 112);
        assert_eq!(b.build().nodes().len(), 3);
    }

    #[test]
    fn bottleneck_emits_projection_on_shape_change() {
        let mut b = GraphBuilder::default();
        let input = FeatureMap {
            batch: 1,
            channels: 64,
            h: 56,
            w: 56,
        };
        conv_bn_relu(&mut b, input, 64, 3, 1);
        let skip_src = b.last();
        resnet_bottleneck(&mut b, input, 64, 256, 1);
        let g = b.build();
        let block = &g.nodes()[skip_src.0 + 1..];
        assert!(block.iter().any(|n| n.inputs == [skip_src]
            && matches!(
                n.op,
                Operator::Conv2d {
                    kernel: 1,
                    in_channels: 64,
                    out_channels: 256,
                    ..
                }
            )));
        assert!(matches!(
            block.last().expect("non-empty").op,
            Operator::Elementwise {
                kind: ElementwiseKind::Add,
                ..
            }
        ));
    }

    #[test]
    fn attention_flops_scale_quadratically_with_tokens() {
        let flops_for = |tokens: u64| {
            let mut b = GraphBuilder::default();
            attention_block(&mut b, tokens, tokens, 768, 12);
            b.build().total_flops()
        };
        let f128 = flops_for(128);
        let f256 = flops_for(256);
        // Projections scale linearly, score/context quadratically, so the ratio
        // sits between 2x and 4x.
        assert!(f256 > 2 * f128 && f256 < 4 * f128);
    }

    #[test]
    fn encoder_block_has_attention_and_ffn() {
        let mut b = GraphBuilder::default();
        transformer_encoder_block(&mut b, 128, 768, 3072, 12);
        let g = b.build();
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.op, Operator::Softmax { .. })));
        assert!(g.nodes().iter().any(|n| matches!(
            n.op,
            Operator::Activation {
                kind: ActivationKind::Gelu,
                ..
            }
        )));
    }

    #[test]
    fn decoder_block_has_cross_attention() {
        let mut b = GraphBuilder::default();
        transformer_decoder_block(&mut b, 64, 128, 512, 2048, 8);
        let g = b.build();
        let softmax_cols: Vec<u64> = g
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                Operator::Softmax { cols, .. } => Some(cols),
                _ => None,
            })
            .collect();
        assert_eq!(softmax_cols, [64, 128], "self-, then cross-attention");
    }

    #[test]
    fn depthwise_separable_produces_pointwise_output_channels() {
        let mut b = GraphBuilder::default();
        let input = FeatureMap {
            batch: 1,
            channels: 32,
            h: 112,
            w: 112,
        };
        let out = depthwise_separable(&mut b, input, 64, 1);
        assert_eq!(out.channels, 64);
        assert_eq!(out.h, 112);
    }

    #[test]
    fn classifier_head_ends_with_softmax() {
        let mut b = GraphBuilder::default();
        let input = FeatureMap {
            batch: 1,
            channels: 2048,
            h: 7,
            w: 7,
        };
        conv_bn_relu(&mut b, input, 2048, 1, 1);
        classifier_head(&mut b, input, 1000);
        let g = b.build();
        assert!(matches!(
            g.nodes().last().expect("non-empty").op,
            Operator::Softmax { cols: 1000, .. }
        ));
    }
}
