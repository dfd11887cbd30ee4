//! The benchmark suite (Table 1).
//!
//! Eight real-world, latency-critical serverless applications inspired by AWS
//! Lambda case studies. Each is a three-function pipeline (data pre-processing,
//! ML/DNN inference, notification) that exchanges data through disaggregated
//! storage. Where the paper uses representative Hugging Face models for
//! non-public AWS models, we use the structurally equivalent networks from
//! `dscs-nn`'s zoo.

use std::fmt;

use dscs_faas::function::AppPipeline;
use dscs_nn::preprocess::{PostprocessSpec, PreprocessKind, PreprocessSpec};
use dscs_nn::zoo::{Model, ModelKind};
use dscs_simcore::quantity::Bytes;

/// The eight benchmark applications, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Binary logistic regression over loan-applicant features (IBM credit risk).
    CreditRiskAssessment,
    /// Object detection on insurance-claim photos (AWS Lookout-style).
    AssetDamageDetection,
    /// Personal-protective-equipment detection (AWS Rekognition PPE).
    PpeDetection,
    /// Conversational chatbot on a generative language model (AWS serverless bot).
    ConversationalChatbot,
    /// Neural machine translation of documents (AWS Translate).
    DocumentTranslation,
    /// Medical-image classification (Inception-v3 clinical analysis).
    ClinicalAnalysis,
    /// Text content moderation (AWS Rekognition moderation pipeline).
    ContentModeration,
    /// Wildfire remote sensing with a vision transformer (SDG&E drone imagery).
    RemoteSensing,
}

// `Benchmark as usize` is each benchmark's position in `Benchmark::ALL`.
const _: () = {
    let mut i = 0;
    while i < Benchmark::ALL.len() {
        assert!(Benchmark::ALL[i] as usize == i);
        i += 1;
    }
};

impl Benchmark {
    /// All benchmarks in the paper's order, which is also discriminant
    /// order: `Benchmark::ALL[b as usize] == b`, so per-benchmark tables
    /// index by `b as usize`.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::CreditRiskAssessment,
        Benchmark::AssetDamageDetection,
        Benchmark::PpeDetection,
        Benchmark::ConversationalChatbot,
        Benchmark::DocumentTranslation,
        Benchmark::ClinicalAnalysis,
        Benchmark::ContentModeration,
        Benchmark::RemoteSensing,
    ];

    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::CreditRiskAssessment => "Credit Risk Assessment",
            Benchmark::AssetDamageDetection => "Asset Damage Detection",
            Benchmark::PpeDetection => "PPE Detection",
            Benchmark::ConversationalChatbot => "Conversational Chatbot",
            Benchmark::DocumentTranslation => "Document Translation",
            Benchmark::ClinicalAnalysis => "Clinical Analysis",
            Benchmark::ContentModeration => "Content Moderation",
            Benchmark::RemoteSensing => "Remote Sensing",
        }
    }

    /// The full benchmark specification.
    pub fn spec(&self) -> BenchmarkSpec {
        match self {
            Benchmark::CreditRiskAssessment => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::LogisticRegression,
                description:
                    "binary credit-risk scoring with logistic regression over engineered features",
                input_size: Bytes::from_kib(24),
                intermediate_size: Bytes::new(64),
                result_size: Bytes::from_kib(1),
                preprocess: PreprocessKind::TabularFeaturize { features: 64 },
            },
            Benchmark::AssetDamageDetection => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::SsdMobileNet,
                description: "object detection over insurance claim photos (SSD-MobileNetV1)",
                input_size: Bytes::from_mib(3),
                intermediate_size: Bytes::new(3 * 300 * 300),
                result_size: Bytes::from_kib(8),
                preprocess: PreprocessKind::ImageDecodeResize {
                    target_h: 300,
                    target_w: 300,
                    channels: 3,
                },
            },
            Benchmark::PpeDetection => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::ResNet50,
                description: "personal protective equipment detection (ResNet-50)",
                input_size: Bytes::from_mib(4),
                intermediate_size: Bytes::new(3 * 224 * 224),
                result_size: Bytes::from_kib(2),
                preprocess: PreprocessKind::ImageDecodeResize {
                    target_h: 224,
                    target_w: 224,
                    channels: 3,
                },
            },
            Benchmark::ConversationalChatbot => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::Gpt2Chatbot,
                description: "conversational chatbot on a GPT-2 class language model",
                input_size: Bytes::from_kib(8),
                intermediate_size: Bytes::new(128 * 4),
                result_size: Bytes::from_kib(4),
                preprocess: PreprocessKind::Tokenize { tokens: 96 },
            },
            Benchmark::DocumentTranslation => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::TransformerNmt,
                description: "document translation with a transformer-base seq2seq model",
                input_size: Bytes::from_kib(64),
                intermediate_size: Bytes::new(64 * 4),
                result_size: Bytes::from_kib(64),
                preprocess: PreprocessKind::Tokenize { tokens: 64 },
            },
            Benchmark::ClinicalAnalysis => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::InceptionV3,
                description: "clinical blood-smear classification (Inception-v3)",
                input_size: Bytes::from_mib(8),
                intermediate_size: Bytes::new(3 * 299 * 299),
                result_size: Bytes::from_kib(2),
                preprocess: PreprocessKind::ImageDecodeResize {
                    target_h: 299,
                    target_w: 299,
                    channels: 3,
                },
            },
            Benchmark::ContentModeration => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::BertBase,
                description: "social-media content moderation with a BERT-base classifier",
                input_size: Bytes::from_kib(16),
                intermediate_size: Bytes::new(128 * 4),
                result_size: Bytes::from_kib(1),
                preprocess: PreprocessKind::Tokenize { tokens: 128 },
            },
            Benchmark::RemoteSensing => BenchmarkSpec {
                benchmark: *self,
                model: ModelKind::VitBase,
                description: "wildfire detection over drone imagery with a vision transformer",
                input_size: Bytes::from_mib(6),
                intermediate_size: Bytes::new(3 * 224 * 224),
                result_size: Bytes::from_kib(4),
                preprocess: PreprocessKind::ImageDecodeResize {
                    target_h: 224,
                    target_w: 224,
                    channels: 3,
                },
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of one benchmark application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// The inference model (from the zoo).
    pub model: ModelKind,
    /// One-line description (the Table 1 "description" column).
    pub description: &'static str,
    /// Size of the raw input object arriving at storage (per request).
    pub input_size: Bytes,
    /// Size of the pre-processed tensor exchanged between functions 1 and 2.
    pub intermediate_size: Bytes,
    /// Size of the inference result exchanged between functions 2 and 3.
    pub result_size: Bytes,
    /// What the pre-processing function does.
    pub preprocess: PreprocessKind,
}

impl BenchmarkSpec {
    /// Builds the inference model at a batch size.
    pub fn model(&self, batch: u64) -> Model {
        Model::build_with_batch(self.model, batch)
    }

    /// The pre-processing specification.
    pub fn preprocess_spec(&self) -> PreprocessSpec {
        PreprocessSpec {
            kind: self.preprocess,
            raw_input: self.input_size,
        }
    }

    /// The post-processing / notification specification.
    pub fn postprocess_spec(&self) -> PostprocessSpec {
        PostprocessSpec::json_result(self.result_size)
    }

    /// The serverless pipeline (preprocess → inference → notification) with the
    /// container image sized to hold the model weights plus runtime.
    pub fn pipeline(&self) -> AppPipeline {
        let weights = Model::build(self.model).weight_bytes();
        let image = Bytes::from_mib(150) + weights;
        AppPipeline::standard_three_stage(self.name_slug(), image)
    }

    /// Model parameter count (the Table 1 "parameters" column).
    pub fn parameter_count(&self) -> u64 {
        Model::build(self.model).parameter_count()
    }

    /// A lowercase, dash-separated identifier.
    pub fn name_slug(&self) -> String {
        self.benchmark.name().to_lowercase().replace(' ', "-")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_specs_and_pipelines() {
        for b in Benchmark::ALL {
            let spec = b.spec();
            assert_eq!(spec.benchmark, b);
            assert!(spec.input_size.as_u64() > 0);
            let pipeline = spec.pipeline();
            let acceleratable: Vec<bool> =
                pipeline.functions.iter().map(|f| f.acceleratable).collect();
            assert_eq!(acceleratable, [true, true, false]);
        }
    }

    #[test]
    fn serverless_payloads_respect_lambda_limits() {
        // AWS caps serverless request payloads around 20 MB; every benchmark's
        // input object stays under that.
        for b in Benchmark::ALL {
            assert!(b.spec().input_size < Bytes::from_mib(20), "{b}");
        }
    }

    #[test]
    fn image_benchmarks_have_megabyte_inputs_text_benchmarks_kilobytes() {
        assert!(Benchmark::PpeDetection.spec().input_size > Bytes::from_mib(1));
        assert!(Benchmark::RemoteSensing.spec().input_size > Bytes::from_mib(1));
        assert!(Benchmark::ContentModeration.spec().input_size < Bytes::from_mib(1));
        assert!(Benchmark::CreditRiskAssessment.spec().input_size < Bytes::from_mib(1));
    }

    #[test]
    fn parameter_counts_span_four_orders_of_magnitude() {
        let small = Benchmark::CreditRiskAssessment.spec().parameter_count();
        let large = Benchmark::ConversationalChatbot.spec().parameter_count();
        assert!(small < 1_000);
        assert!(large > 100_000_000);
    }

    #[test]
    fn intermediates_are_smaller_than_inputs_for_image_apps() {
        for b in [
            Benchmark::PpeDetection,
            Benchmark::ClinicalAnalysis,
            Benchmark::RemoteSensing,
        ] {
            let spec = b.spec();
            assert!(spec.intermediate_size < spec.input_size, "{b}");
        }
    }

    #[test]
    fn names_and_slugs_are_stable() {
        assert_eq!(Benchmark::PpeDetection.to_string(), "PPE Detection");
        assert_eq!(Benchmark::PpeDetection.spec().name_slug(), "ppe-detection");
        assert_eq!(Benchmark::ALL.len(), 8);
    }
}
