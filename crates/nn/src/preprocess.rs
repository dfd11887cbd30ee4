//! Data pre- and post-processing function models.
//!
//! In the paper's benchmark pipelines each application is a chain of three
//! serverless functions: *Function 1* performs data pre-processing (image
//! decode/resize/normalise, text tokenisation, tabular featurisation),
//! *Function 2* performs ML/DNN inference, and *Function 3* is a notification
//! service that always runs on a host CPU. The VPU can execute the
//! pre/post-processing functions, which is how DSCS-Serverless widens the set
//! of offloadable functions (Section 4.1).

use dscs_simcore::quantity::Bytes;

use crate::graph::{Graph, GraphBuilder};
use crate::op::{ElementwiseKind, Operator};
use crate::tensor::DType;

/// The kind of pre-processing the application's first function performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreprocessKind {
    /// JPEG-class image decode, resize to the model input and normalise.
    ImageDecodeResize {
        /// Target height after resize.
        target_h: u64,
        /// Target width after resize.
        target_w: u64,
        /// Channels (3 for RGB).
        channels: u64,
    },
    /// Text tokenisation into sub-word ids.
    Tokenize {
        /// Expected token count produced.
        tokens: u64,
    },
    /// Tabular featurisation (parsing, scaling, one-hot encoding).
    TabularFeaturize {
        /// Number of numeric features produced.
        features: u64,
    },
}

/// Specification of the pre-processing function: its kind plus the size of the
/// raw input object it reads from storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreprocessSpec {
    /// What the function does.
    pub kind: PreprocessKind,
    /// Raw input object size read from storage (e.g. the JPEG size).
    pub raw_input: Bytes,
}

impl PreprocessSpec {
    /// Builds the operator graph for the pre-processing work at the given batch size.
    pub fn graph(&self, batch: u64) -> Graph {
        assert!(batch > 0, "batch must be positive");
        let mut b = GraphBuilder::default();
        match self.kind {
            PreprocessKind::ImageDecodeResize {
                target_h,
                target_w,
                channels,
            } => {
                // Decode: roughly ~40 ops per output pixel for entropy decode + IDCT.
                let decoded = batch * channels * target_h * target_w * 4; // decode at 2x resolution
                b.add_seq(Operator::Elementwise {
                    kind: ElementwiseKind::Mul,
                    elements: decoded * 40,
                    dtype: DType::Int8,
                });
                // Resize: bilinear interpolation, ~8 ops/output pixel.
                let out_elems = batch * channels * target_h * target_w;
                b.add_seq(Operator::Elementwise {
                    kind: ElementwiseKind::Mul,
                    elements: out_elems * 8,
                    dtype: DType::Fp16,
                });
                // Normalise: subtract mean, divide by std.
                b.add_seq(Operator::Elementwise {
                    kind: ElementwiseKind::Div,
                    elements: out_elems * 2,
                    dtype: DType::Fp16,
                });
                // Quantise to int8 for the DSA.
                b.add_seq(Operator::Cast {
                    elements: out_elems,
                    from: DType::Fp16,
                    to: DType::Int8,
                });
            }
            PreprocessKind::Tokenize { tokens } => {
                // Byte-pair tokenisation: ~200 ops per produced token (vocab scan,
                // merges), plus layout of the id tensor.
                b.add_seq(Operator::Elementwise {
                    kind: ElementwiseKind::Add,
                    elements: batch * tokens * 200,
                    dtype: DType::Int32,
                });
                b.add_seq(Operator::Layout {
                    elements: batch * tokens,
                    dtype: DType::Int32,
                });
            }
            PreprocessKind::TabularFeaturize { features } => {
                // Parse + scale + one-hot: ~30 ops per feature.
                b.add_seq(Operator::Elementwise {
                    kind: ElementwiseKind::Mul,
                    elements: batch * features * 30,
                    dtype: DType::Fp32,
                });
                b.add_seq(Operator::Cast {
                    elements: batch * features,
                    from: DType::Fp32,
                    to: DType::Int8,
                });
            }
        }
        b.build()
    }
}

/// Specification of the post-inference output handed to the notification
/// function (Function 3), which always runs on a host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PostprocessSpec {
    /// Size of the result object written back to persistent storage.
    pub result_size: Bytes,
    /// Approximate CPU work (operations) the notification function performs
    /// per request: formatting, templating and issuing the notification call.
    pub notification_ops: u64,
}

impl PostprocessSpec {
    /// A typical small-JSON notification result.
    pub fn json_result(result_size: Bytes) -> Self {
        PostprocessSpec {
            result_size,
            notification_ops: 2_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_preprocess_graph_ends_in_int8() {
        let spec = PreprocessSpec {
            kind: PreprocessKind::ImageDecodeResize {
                target_h: 224,
                target_w: 224,
                channels: 3,
            },
            raw_input: Bytes::from_mib(2),
        };
        let g = spec.graph(1);
        assert_eq!(g.nodes().len(), 4);
        assert!(g.total_flops() > 0);
    }

    #[test]
    fn preprocess_flops_scale_with_batch() {
        let spec = PreprocessSpec {
            kind: PreprocessKind::Tokenize { tokens: 128 },
            raw_input: Bytes::from_kib(4),
        };
        let f1 = spec.graph(1).total_flops();
        let f8 = spec.graph(8).total_flops();
        assert_eq!(f8, 8 * f1);
    }

    #[test]
    fn tabular_preprocess_does_work() {
        let spec = PreprocessSpec {
            kind: PreprocessKind::TabularFeaturize { features: 64 },
            raw_input: Bytes::from_kib(16),
        };
        assert!(spec.graph(4).total_flops() > 0);
    }

    #[test]
    fn postprocess_spec_has_notification_cost() {
        let p = PostprocessSpec::json_result(Bytes::from_kib(2));
        assert!(p.notification_ops > 0);
        assert_eq!(p.result_size.as_u64(), 2048);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let spec = PreprocessSpec {
            kind: PreprocessKind::Tokenize { tokens: 8 },
            raw_input: Bytes::from_kib(1),
        };
        let _ = spec.graph(0);
    }
}
