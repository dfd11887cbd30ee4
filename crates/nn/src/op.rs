//! The operator vocabulary supported by the DSCS-Serverless DSA.
//!
//! The paper's workload analysis (Section 4) finds that the benchmark models
//! consist of GEMM-class operators (matrix multiplication, convolution) plus
//! element-wise math, activations, data-layout transformations,
//! reduction-based normalisations and data-type conversions. GEMM-class
//! operators map to the Matrix Processing Unit; everything else maps to the
//! Vector Processing Unit.

use dscs_simcore::quantity::Bytes;

use crate::tensor::DType;

/// Element-wise activation functions executed on the VPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (transformers).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActivationKind {
    /// Approximate arithmetic operations per element (used by the VPU cycle model).
    pub const fn ops_per_element(self) -> u64 {
        match self {
            ActivationKind::Relu => 1,
            ActivationKind::Gelu => 8,
            ActivationKind::Sigmoid => 4,
        }
    }
}

/// Element-wise binary/unary arithmetic executed on the VPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementwiseKind {
    /// Element-wise addition (residual connections, bias add).
    Add,
    /// Element-wise multiplication (gating, scaling).
    Mul,
    /// Element-wise division.
    Div,
}

/// Which execution unit an operator maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorClass {
    /// Executed on the systolic-array Matrix Processing Unit.
    Gemm,
    /// Executed on the SIMD Vector Processing Unit.
    Vector,
    /// Pure data movement / layout change (no arithmetic).
    DataMovement,
}

/// One operator (layer) in a model graph.
///
/// Every variant knows its FLOP count and the bytes it reads and writes, which
/// is all the cycle, roofline and energy models consume.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Dense matrix multiplication: `[m, k] x [k, n] -> [m, n]`.
    MatMul {
        /// Output rows (typically batch x sequence).
        m: u64,
        /// Reduction dimension.
        k: u64,
        /// Output columns.
        n: u64,
        /// Element type of the inputs.
        dtype: DType,
    },
    /// 2-D convolution in NCHW layout.
    Conv2d {
        /// Batch size.
        batch: u64,
        /// Input channels.
        in_channels: u64,
        /// Output channels.
        out_channels: u64,
        /// Input spatial height.
        in_h: u64,
        /// Input spatial width.
        in_w: u64,
        /// Square kernel size.
        kernel: u64,
        /// Stride.
        stride: u64,
        /// Element type.
        dtype: DType,
    },
    /// Depthwise 2-D convolution (MobileNet-style).
    DepthwiseConv2d {
        /// Batch size.
        batch: u64,
        /// Channels (input == output).
        channels: u64,
        /// Input spatial height.
        in_h: u64,
        /// Input spatial width.
        in_w: u64,
        /// Square kernel size.
        kernel: u64,
        /// Stride.
        stride: u64,
        /// Element type.
        dtype: DType,
    },
    /// Element-wise arithmetic over `elements` values.
    Elementwise {
        /// Operation kind.
        kind: ElementwiseKind,
        /// Number of elements.
        elements: u64,
        /// Element type.
        dtype: DType,
    },
    /// Element-wise activation function.
    Activation {
        /// Activation kind.
        kind: ActivationKind,
        /// Number of elements.
        elements: u64,
        /// Element type.
        dtype: DType,
    },
    /// Softmax over `rows` rows of `cols` values (attention, classifier heads).
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Values per row.
        cols: u64,
        /// Element type.
        dtype: DType,
    },
    /// Layer normalisation over `rows` rows of `cols` values.
    LayerNorm {
        /// Number of independent rows.
        rows: u64,
        /// Values per row.
        cols: u64,
        /// Element type.
        dtype: DType,
    },
    /// Batch normalisation (inference: scale + shift) over `elements` values.
    BatchNorm {
        /// Number of elements.
        elements: u64,
        /// Element type.
        dtype: DType,
    },
    /// Spatial pooling (max or average).
    Pool {
        /// Batch size.
        batch: u64,
        /// Channels.
        channels: u64,
        /// Output spatial height.
        out_h: u64,
        /// Output spatial width.
        out_w: u64,
        /// Square pooling window.
        window: u64,
        /// Element type.
        dtype: DType,
    },
    /// Embedding table lookup: `tokens` gathers of `dim`-wide rows.
    Embedding {
        /// Number of lookups.
        tokens: u64,
        /// Embedding width.
        dim: u64,
        /// Vocabulary size (weights).
        vocab: u64,
        /// Element type.
        dtype: DType,
    },
    /// Data layout transformation (transpose / reshape / im2col staging).
    Layout {
        /// Number of elements moved.
        elements: u64,
        /// Element type.
        dtype: DType,
    },
    /// Data type conversion between `from` and `to` over `elements` values.
    Cast {
        /// Number of elements.
        elements: u64,
        /// Source type.
        from: DType,
        /// Destination type.
        to: DType,
    },
}

impl Operator {
    /// The execution unit class of this operator.
    pub fn class(&self) -> OperatorClass {
        match self {
            Operator::MatMul { .. }
            | Operator::Conv2d { .. }
            | Operator::DepthwiseConv2d { .. } => OperatorClass::Gemm,
            Operator::Layout { .. } => OperatorClass::DataMovement,
            _ => OperatorClass::Vector,
        }
    }

    /// Output spatial size of a strided convolution (same padding).
    fn conv_out(dim: u64, stride: u64) -> u64 {
        dim.div_ceil(stride)
    }

    /// Floating-point (or int) operations performed, counting one
    /// multiply-accumulate as two operations.
    pub fn flops(&self) -> u64 {
        match *self {
            Operator::MatMul { m, k, n, .. } => 2 * m * k * n,
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
                let out_h = Self::conv_out(in_h, stride);
                let out_w = Self::conv_out(in_w, stride);
                2 * batch * out_channels * out_h * out_w * in_channels * kernel * kernel
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
                let out_h = Self::conv_out(in_h, stride);
                let out_w = Self::conv_out(in_w, stride);
                2 * batch * channels * out_h * out_w * kernel * kernel
            }
            Operator::Elementwise { elements, .. } => elements,
            Operator::Activation { kind, elements, .. } => elements * kind.ops_per_element(),
            Operator::Softmax { rows, cols, .. } => rows * cols * 5,
            Operator::LayerNorm { rows, cols, .. } => rows * cols * 8,
            Operator::BatchNorm { elements, .. } => elements * 2,
            Operator::Pool {
                batch,
                channels,
                out_h,
                out_w,
                window,
                ..
            } => batch * channels * out_h * out_w * window * window,
            Operator::Embedding { tokens, dim, .. } => tokens * dim,
            Operator::Layout { .. } => 0,
            Operator::Cast { elements, .. } => elements,
        }
    }

    /// Bytes of model weights this operator reads (zero for weight-free ops).
    pub fn weight_bytes(&self) -> Bytes {
        let bytes = match *self {
            Operator::MatMul { k, n, dtype, .. } => k * n * dtype.size_bytes(),
            Operator::Conv2d {
                in_channels,
                out_channels,
                kernel,
                dtype,
                ..
            } => out_channels * in_channels * kernel * kernel * dtype.size_bytes(),
            Operator::DepthwiseConv2d {
                channels,
                kernel,
                dtype,
                ..
            } => channels * kernel * kernel * dtype.size_bytes(),
            Operator::BatchNorm { elements: _, dtype } => {
                // Scale and shift vectors are negligible relative to conv weights;
                // approximate with a small fixed charge.
                2 * 1024 * dtype.size_bytes()
            }
            Operator::Embedding {
                vocab, dim, dtype, ..
            } => vocab * dim * dtype.size_bytes(),
            _ => 0,
        };
        Bytes::new(bytes)
    }

    /// Bytes of activations read (excluding weights).
    pub fn input_bytes(&self) -> Bytes {
        let bytes = match *self {
            Operator::MatMul { m, k, dtype, .. } => m * k * dtype.size_bytes(),
            Operator::Conv2d {
                batch,
                in_channels,
                in_h,
                in_w,
                dtype,
                ..
            } => batch * in_channels * in_h * in_w * dtype.size_bytes(),
            Operator::DepthwiseConv2d {
                batch,
                channels,
                in_h,
                in_w,
                dtype,
                ..
            } => batch * channels * in_h * in_w * dtype.size_bytes(),
            Operator::Elementwise {
                elements, dtype, ..
            } => 2 * elements * dtype.size_bytes(),
            Operator::Activation {
                elements, dtype, ..
            } => elements * dtype.size_bytes(),
            Operator::Softmax { rows, cols, dtype } | Operator::LayerNorm { rows, cols, dtype } => {
                rows * cols * dtype.size_bytes()
            }
            Operator::BatchNorm { elements, dtype } => elements * dtype.size_bytes(),
            Operator::Pool {
                batch,
                channels,
                out_h,
                out_w,
                window,
                dtype,
            } => batch * channels * out_h * out_w * window * window * dtype.size_bytes(),
            Operator::Embedding { tokens, .. } => tokens * 4, // token ids are int32
            Operator::Layout { elements, dtype } => elements * dtype.size_bytes(),
            Operator::Cast { elements, from, .. } => elements * from.size_bytes(),
        };
        Bytes::new(bytes)
    }

    /// Bytes of activations written.
    pub fn output_bytes(&self) -> Bytes {
        let bytes = match *self {
            Operator::MatMul { m, n, dtype, .. } => m * n * dtype.size_bytes(),
            Operator::Conv2d {
                batch,
                out_channels,
                in_h,
                in_w,
                stride,
                dtype,
                ..
            } => {
                batch
                    * out_channels
                    * Self::conv_out(in_h, stride)
                    * Self::conv_out(in_w, stride)
                    * dtype.size_bytes()
            }
            Operator::DepthwiseConv2d {
                batch,
                channels,
                in_h,
                in_w,
                stride,
                dtype,
                ..
            } => {
                batch
                    * channels
                    * Self::conv_out(in_h, stride)
                    * Self::conv_out(in_w, stride)
                    * dtype.size_bytes()
            }
            Operator::Elementwise {
                elements, dtype, ..
            }
            | Operator::Activation {
                elements, dtype, ..
            }
            | Operator::BatchNorm { elements, dtype }
            | Operator::Layout { elements, dtype } => elements * dtype.size_bytes(),
            Operator::Softmax { rows, cols, dtype } | Operator::LayerNorm { rows, cols, dtype } => {
                rows * cols * dtype.size_bytes()
            }
            Operator::Pool {
                batch,
                channels,
                out_h,
                out_w,
                dtype,
                ..
            } => batch * channels * out_h * out_w * dtype.size_bytes(),
            Operator::Embedding {
                tokens, dim, dtype, ..
            } => tokens * dim * dtype.size_bytes(),
            Operator::Cast { elements, to, .. } => elements * to.size_bytes(),
        };
        Bytes::new(bytes)
    }

    /// Number of weight parameters (element count, not bytes).
    pub fn parameter_count(&self) -> u64 {
        match *self {
            Operator::MatMul { k, n, .. } => k * n,
            Operator::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => out_channels * in_channels * kernel * kernel,
            Operator::DepthwiseConv2d {
                channels, kernel, ..
            } => channels * kernel * kernel,
            Operator::Embedding { vocab, dim, .. } => vocab * dim,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_and_bytes() {
        let op = Operator::MatMul {
            m: 4,
            k: 8,
            n: 16,
            dtype: DType::Int8,
        };
        assert_eq!(op.flops(), 2 * 4 * 8 * 16);
        assert_eq!(op.weight_bytes().as_u64(), 8 * 16);
        assert_eq!(op.input_bytes().as_u64(), 4 * 8);
        assert_eq!(op.output_bytes().as_u64(), 4 * 16);
        assert_eq!(op.class(), OperatorClass::Gemm);
        assert_eq!(op.parameter_count(), 128);
    }

    #[test]
    fn conv_flops_scale_with_output_size() {
        let base = Operator::Conv2d {
            batch: 1,
            in_channels: 64,
            out_channels: 64,
            in_h: 56,
            in_w: 56,
            kernel: 3,
            stride: 1,
            dtype: DType::Int8,
        };
        let strided = Operator::Conv2d {
            batch: 1,
            in_channels: 64,
            out_channels: 64,
            in_h: 56,
            in_w: 56,
            kernel: 3,
            stride: 2,
            dtype: DType::Int8,
        };
        assert_eq!(base.flops(), 4 * strided.flops());
    }

    #[test]
    fn depthwise_is_cheaper_than_dense() {
        let dense = Operator::Conv2d {
            batch: 1,
            in_channels: 128,
            out_channels: 128,
            in_h: 28,
            in_w: 28,
            kernel: 3,
            stride: 1,
            dtype: DType::Int8,
        };
        let dw = Operator::DepthwiseConv2d {
            batch: 1,
            channels: 128,
            in_h: 28,
            in_w: 28,
            kernel: 3,
            stride: 1,
            dtype: DType::Int8,
        };
        assert!(dw.flops() * 64 < dense.flops());
    }

    #[test]
    fn vector_ops_classify_as_vector() {
        let act = Operator::Activation {
            kind: ActivationKind::Gelu,
            elements: 100,
            dtype: DType::Fp16,
        };
        assert_eq!(act.class(), OperatorClass::Vector);
        assert_eq!(act.flops(), 800);
        let layout = Operator::Layout {
            elements: 10,
            dtype: DType::Fp32,
        };
        assert_eq!(layout.class(), OperatorClass::DataMovement);
        assert_eq!(layout.flops(), 0);
    }

    #[test]
    fn cast_changes_output_size() {
        let cast = Operator::Cast {
            elements: 100,
            from: DType::Fp32,
            to: DType::Fp16,
        };
        assert_eq!(cast.input_bytes().as_u64(), 400);
        assert_eq!(cast.output_bytes().as_u64(), 200);
    }

    #[test]
    fn embedding_weights_dominate() {
        let emb = Operator::Embedding {
            tokens: 128,
            dim: 768,
            vocab: 30522,
            dtype: DType::Int8,
        };
        assert!(emb.weight_bytes().as_u64() > emb.output_bytes().as_u64());
        assert_eq!(emb.parameter_count(), 30522 * 768);
    }
}
