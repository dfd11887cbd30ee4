//! # dscs-nn
//!
//! Machine-learning workload intermediate representation (IR) for the
//! DSCS-Serverless reproduction.
//!
//! The paper targets a domain-specific accelerator for ML/DNN serverless
//! functions, spanning image classification, object detection, semantic
//! analysis, logistic regression, neural machine translation, conversational AI
//! and generative AI. This crate provides:
//!
//! * [`tensor`] — element types and their sizes.
//! * [`op`] — the operator vocabulary the paper's DSA supports (GEMM-class
//!   operators executed on the Matrix Processing Unit, and vector-class
//!   operators executed on the Vector Processing Unit).
//! * [`graph`] — operator graphs: each node is an operator and the earlier
//!   nodes that feed it, in topological order, with aggregate FLOP, weight and
//!   parameter accounting.
//! * [`layers`] — reusable building blocks (conv blocks, attention blocks,
//!   feed-forward blocks) used by the model zoo.
//! * [`zoo`] — structural models of the eight benchmark applications' networks
//!   (Table 1): logistic regression, ResNet-50, SSD-MobileNet, Inception-v3,
//!   BERT, a seq2seq translation transformer, a GPT-2-class chatbot model and a
//!   Vision Transformer.
//! * [`preprocess`] — the data pre/post-processing functions that accompany the
//!   inference function in each serverless pipeline.
//!
//! The IR is *structural*: it records shapes, FLOPs, bytes and producer edges,
//! not weight values or layer names, because every downstream consumer (the DSA
//! cycle model, the platform roofline models, the compiler) only needs
//! operation counts, data volumes and which operator feeds which.
//!
//! # Example
//!
//! ```
//! use dscs_nn::zoo::{Model, ModelKind};
//!
//! let resnet = Model::build(ModelKind::ResNet50);
//! assert!(resnet.graph().total_flops() > 7.0e9 as u64); // ~8 GFLOPs per image
//! assert!(resnet.parameter_count() > 20_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod layers;
pub mod op;
pub mod preprocess;
pub mod tensor;
pub mod zoo;
