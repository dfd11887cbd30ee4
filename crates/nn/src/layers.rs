//! Reusable layer-block builders for the model zoo.
//!
//! These helpers emit the operator sequences that make up the benchmark
//! networks: convolution + batch-norm + activation blocks, residual
//! bottlenecks, transformer encoder/decoder blocks and classifier heads.

use crate::graph::GraphBuilder;
use crate::op::{ActivationKind, ElementwiseKind, Operator};
use crate::tensor::DType;

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
    name: &str,
    input: FeatureMap,
    out_channels: u64,
    kernel: u64,
    stride: u64,
    dtype: DType,
) -> FeatureMap {
    let conv = Operator::Conv2d {
        batch: input.batch,
        in_channels: input.channels,
        out_channels,
        in_h: input.h,
        in_w: input.w,
        kernel,
        stride,
        dtype,
    };
    b.add_seq(format!("{name}.conv"), conv);
    let out = FeatureMap {
        batch: input.batch,
        channels: out_channels,
        h: input.h.div_ceil(stride),
        w: input.w.div_ceil(stride),
    };
    b.add_seq(
        format!("{name}.bn"),
        Operator::BatchNorm {
            elements: out.numel(),
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.relu"),
        Operator::Activation {
            kind: ActivationKind::Relu,
            elements: out.numel(),
            dtype,
        },
    );
    out
}

/// Appends a ResNet bottleneck block (1x1 reduce, 3x3, 1x1 expand + residual add).
pub fn resnet_bottleneck(
    b: &mut GraphBuilder,
    name: &str,
    input: FeatureMap,
    mid_channels: u64,
    out_channels: u64,
    stride: u64,
    dtype: DType,
) -> FeatureMap {
    let skip_src = if b.is_empty() { None } else { Some(b.last()) };
    let x = conv_bn_relu(b, &format!("{name}.a"), input, mid_channels, 1, 1, dtype);
    let x = conv_bn_relu(b, &format!("{name}.b"), x, mid_channels, 3, stride, dtype);
    let out = conv_bn_relu(b, &format!("{name}.c"), x, out_channels, 1, 1, dtype);
    // Projection shortcut when shape changes, then residual add.
    if input.channels != out_channels || stride != 1 {
        if let Some(src) = skip_src {
            let proj = Operator::Conv2d {
                batch: input.batch,
                in_channels: input.channels,
                out_channels,
                in_h: input.h,
                in_w: input.w,
                kernel: 1,
                stride,
                dtype,
            };
            b.add(format!("{name}.proj"), proj, &[src]);
        } else {
            b.add_seq(
                format!("{name}.proj"),
                Operator::Conv2d {
                    batch: input.batch,
                    in_channels: input.channels,
                    out_channels,
                    in_h: input.h,
                    in_w: input.w,
                    kernel: 1,
                    stride,
                    dtype,
                },
            );
        }
    }
    b.add_seq(
        format!("{name}.add"),
        Operator::Elementwise {
            kind: ElementwiseKind::Add,
            elements: out.numel(),
            dtype,
        },
    );
    out
}

/// Appends a MobileNet-style depthwise-separable block.
pub fn depthwise_separable(
    b: &mut GraphBuilder,
    name: &str,
    input: FeatureMap,
    out_channels: u64,
    stride: u64,
    dtype: DType,
) -> FeatureMap {
    b.add_seq(
        format!("{name}.dw"),
        Operator::DepthwiseConv2d {
            batch: input.batch,
            channels: input.channels,
            in_h: input.h,
            in_w: input.w,
            kernel: 3,
            stride,
            dtype,
        },
    );
    let mid = FeatureMap {
        batch: input.batch,
        channels: input.channels,
        h: input.h.div_ceil(stride),
        w: input.w.div_ceil(stride),
    };
    b.add_seq(
        format!("{name}.dw.bn"),
        Operator::BatchNorm {
            elements: mid.numel(),
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.dw.relu"),
        Operator::Activation {
            kind: ActivationKind::Relu,
            elements: mid.numel(),
            dtype,
        },
    );
    conv_bn_relu(b, &format!("{name}.pw"), mid, out_channels, 1, 1, dtype)
}

/// Appends a transformer encoder block: multi-head self-attention + FFN with
/// residual adds and layer norms.
pub fn transformer_encoder_block(
    b: &mut GraphBuilder,
    name: &str,
    tokens: u64,
    hidden: u64,
    ffn: u64,
    heads: u64,
    dtype: DType,
) {
    attention_block(
        b,
        &format!("{name}.attn"),
        tokens,
        tokens,
        hidden,
        heads,
        dtype,
    );
    feed_forward_block(b, &format!("{name}.ffn"), tokens, hidden, ffn, dtype);
}

/// Appends a transformer decoder block: masked self-attention, cross-attention
/// over `src_tokens` encoder outputs, and an FFN.
#[allow(clippy::too_many_arguments)]
pub fn transformer_decoder_block(
    b: &mut GraphBuilder,
    name: &str,
    tgt_tokens: u64,
    src_tokens: u64,
    hidden: u64,
    ffn: u64,
    heads: u64,
    dtype: DType,
) {
    attention_block(
        b,
        &format!("{name}.self_attn"),
        tgt_tokens,
        tgt_tokens,
        hidden,
        heads,
        dtype,
    );
    attention_block(
        b,
        &format!("{name}.cross_attn"),
        tgt_tokens,
        src_tokens,
        hidden,
        heads,
        dtype,
    );
    feed_forward_block(b, &format!("{name}.ffn"), tgt_tokens, hidden, ffn, dtype);
}

/// Appends a multi-head attention block where `q_tokens` queries attend over
/// `kv_tokens` keys/values.
pub fn attention_block(
    b: &mut GraphBuilder,
    name: &str,
    q_tokens: u64,
    kv_tokens: u64,
    hidden: u64,
    heads: u64,
    dtype: DType,
) {
    // Q, K, V projections.
    b.add_seq(
        format!("{name}.q_proj"),
        Operator::MatMul {
            m: q_tokens,
            k: hidden,
            n: hidden,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.k_proj"),
        Operator::MatMul {
            m: kv_tokens,
            k: hidden,
            n: hidden,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.v_proj"),
        Operator::MatMul {
            m: kv_tokens,
            k: hidden,
            n: hidden,
            dtype,
        },
    );
    // Scores: per head, [q, d_head] x [d_head, kv].
    let d_head = hidden / heads.max(1);
    b.add_seq(
        format!("{name}.scores"),
        Operator::MatMul {
            m: q_tokens * heads,
            k: d_head,
            n: kv_tokens,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.softmax"),
        Operator::Softmax {
            rows: q_tokens * heads,
            cols: kv_tokens,
            dtype,
        },
    );
    // Context: [q, kv] x [kv, d_head] per head.
    b.add_seq(
        format!("{name}.context"),
        Operator::MatMul {
            m: q_tokens * heads,
            k: kv_tokens,
            n: d_head,
            dtype,
        },
    );
    // Output projection + residual + layer norm.
    b.add_seq(
        format!("{name}.out_proj"),
        Operator::MatMul {
            m: q_tokens,
            k: hidden,
            n: hidden,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.residual"),
        Operator::Elementwise {
            kind: ElementwiseKind::Add,
            elements: q_tokens * hidden,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.ln"),
        Operator::LayerNorm {
            rows: q_tokens,
            cols: hidden,
            dtype,
        },
    );
}

/// Appends a transformer feed-forward block (two projections with GELU) plus
/// residual add and layer norm.
pub fn feed_forward_block(
    b: &mut GraphBuilder,
    name: &str,
    tokens: u64,
    hidden: u64,
    ffn: u64,
    dtype: DType,
) {
    b.add_seq(
        format!("{name}.fc1"),
        Operator::MatMul {
            m: tokens,
            k: hidden,
            n: ffn,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.gelu"),
        Operator::Activation {
            kind: ActivationKind::Gelu,
            elements: tokens * ffn,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.fc2"),
        Operator::MatMul {
            m: tokens,
            k: ffn,
            n: hidden,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.residual"),
        Operator::Elementwise {
            kind: ElementwiseKind::Add,
            elements: tokens * hidden,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.ln"),
        Operator::LayerNorm {
            rows: tokens,
            cols: hidden,
            dtype,
        },
    );
}

/// Appends a global-average-pool + fully-connected classifier head.
pub fn classifier_head(
    b: &mut GraphBuilder,
    name: &str,
    input: FeatureMap,
    classes: u64,
    dtype: DType,
) {
    b.add_seq(
        format!("{name}.gap"),
        Operator::Pool {
            batch: input.batch,
            channels: input.channels,
            out_h: 1,
            out_w: 1,
            window: input.h,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.fc"),
        Operator::MatMul {
            m: input.batch,
            k: input.channels,
            n: classes,
            dtype,
        },
    );
    b.add_seq(
        format!("{name}.softmax"),
        Operator::Softmax {
            rows: input.batch,
            cols: classes,
            dtype,
        },
    );
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
        let out = conv_bn_relu(&mut b, "stem", input, 64, 7, 2, DType::Int8);
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
        conv_bn_relu(&mut b, "stem", input, 64, 3, 1, DType::Int8);
        let before = b.last().0 + 1;
        resnet_bottleneck(&mut b, "block", input, 64, 256, 1, DType::Int8);
        let names: Vec<String> = b.build().nodes()[before..]
            .iter()
            .map(|n| n.name.clone())
            .collect();
        assert!(names.iter().any(|n| n.contains("proj")));
        assert!(names.iter().any(|n| n.contains("add")));
    }

    #[test]
    fn attention_flops_scale_quadratically_with_tokens() {
        let flops_for = |tokens: u64| {
            let mut b = GraphBuilder::default();
            attention_block(&mut b, "a", tokens, tokens, 768, 12, DType::Int8);
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
        transformer_encoder_block(&mut b, "enc0", 128, 768, 3072, 12, DType::Int8);
        let g = b.build();
        assert!(g.nodes().iter().any(|n| n.name.contains("attn")));
        assert!(g.nodes().iter().any(|n| n.name.contains("ffn")));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn decoder_block_has_cross_attention() {
        let mut b = GraphBuilder::default();
        transformer_decoder_block(&mut b, "dec0", 64, 128, 512, 2048, 8, DType::Int8);
        let g = b.build();
        assert!(g.nodes().iter().any(|n| n.name.contains("cross_attn")));
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
        let out = depthwise_separable(&mut b, "ds1", input, 64, 1, DType::Int8);
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
        conv_bn_relu(&mut b, "x", input, 2048, 1, 1, DType::Int8);
        classifier_head(&mut b, "head", input, 1000, DType::Int8);
        let g = b.build();
        assert!(g
            .nodes()
            .last()
            .expect("non-empty")
            .name
            .contains("softmax"));
    }
}
