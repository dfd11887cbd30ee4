//! Serverless functions and application DAGs.
//!
//! Applications are expressed as chains of decoupled functions (Section 5.1).
//! Every benchmark in the paper is a three-function pipeline — data
//! pre-processing, ML/DNN inference, and a notification service — that
//! exchanges data through persistent storage. Deployment metadata marks which
//! functions are amenable to in-storage acceleration.

use std::fmt;

use dscs_simcore::quantity::Bytes;
use dscs_simcore::time::SimDuration;

/// What a function does, which determines where it may execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionRole {
    /// Data pre-processing (decode, resize, tokenise, featurise).
    Preprocess,
    /// ML/DNN inference.
    Inference,
    /// Notification / result delivery; always runs on a host CPU.
    Notification,
}

impl fmt::Display for FunctionRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FunctionRole::Preprocess => "preprocess",
            FunctionRole::Inference => "inference",
            FunctionRole::Notification => "notification",
        };
        f.write_str(s)
    }
}

/// One serverless function's deployment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Function name (unique within an application).
    pub name: String,
    /// Role in the pipeline.
    pub role: FunctionRole,
    /// Whether the developer marked this function as acceleratable by the
    /// in-storage DSA (the YAML hint DSCS-Serverless adds).
    pub acceleratable: bool,
    /// Execution timeout.
    pub timeout: SimDuration,
    /// Memory limit of the function's container.
    pub memory_limit: Bytes,
    /// Size of the container image (runtime, libraries, model weights) that a
    /// cold start must pull and unpack.
    pub image_size: Bytes,
}

impl FunctionSpec {
    /// Creates a function spec with common defaults (30 s timeout, 1 GiB memory).
    pub fn new(
        name: impl Into<String>,
        role: FunctionRole,
        acceleratable: bool,
        image_size: Bytes,
    ) -> Self {
        FunctionSpec {
            name: name.into(),
            role,
            acceleratable,
            timeout: SimDuration::from_secs(30),
            memory_limit: Bytes::from_gib(1),
            image_size,
        }
    }
}

/// A serverless application: an ordered chain of functions (the paper's DAGs
/// are linear chains for all eight benchmarks) plus its storage inputs/outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPipeline {
    /// Application name.
    pub name: String,
    /// Functions in invocation order.
    pub functions: Vec<FunctionSpec>,
}

impl AppPipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    /// Panics if `functions` is empty or function names are not unique.
    pub fn new(name: impl Into<String>, functions: Vec<FunctionSpec>) -> Self {
        assert!(
            !functions.is_empty(),
            "a pipeline needs at least one function"
        );
        let mut names: Vec<&str> = functions.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            functions.len(),
            "function names must be unique"
        );
        AppPipeline {
            name: name.into(),
            functions,
        }
    }

    /// The standard three-function pipeline used by every benchmark:
    /// preprocess -> inference -> notification, with the first two marked
    /// acceleratable.
    pub fn standard_three_stage(name: impl Into<String>, image_size: Bytes) -> Self {
        let name = name.into();
        AppPipeline::new(
            name.clone(),
            vec![
                FunctionSpec::new(
                    format!("{name}-preprocess"),
                    FunctionRole::Preprocess,
                    true,
                    Bytes::from_mib(180),
                ),
                FunctionSpec::new(
                    format!("{name}-inference"),
                    FunctionRole::Inference,
                    true,
                    image_size,
                ),
                FunctionSpec::new(
                    format!("{name}-notify"),
                    FunctionRole::Notification,
                    false,
                    Bytes::from_mib(60),
                ),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pipeline_has_three_stages() {
        let p = AppPipeline::standard_three_stage("ppe-detection", Bytes::from_mib(300));
        assert_eq!(p.functions.len(), 3);
        assert_eq!(p.functions[0].role, FunctionRole::Preprocess);
        assert_eq!(p.functions[1].role, FunctionRole::Inference);
        assert_eq!(p.functions[2].role, FunctionRole::Notification);
        assert!(p.functions[0].acceleratable && p.functions[1].acceleratable);
    }

    #[test]
    fn notification_is_never_acceleratable_in_standard_pipeline() {
        let p = AppPipeline::standard_three_stage("x", Bytes::from_mib(100));
        assert!(!p.functions[2].acceleratable);
    }

    #[test]
    fn duplicate_names_rejected() {
        let f = FunctionSpec::new("same", FunctionRole::Inference, true, Bytes::from_mib(10));
        let result =
            std::panic::catch_unwind(|| AppPipeline::new("app", vec![f.clone(), f.clone()]));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn empty_pipeline_rejected() {
        let _ = AppPipeline::new("empty", Vec::new());
    }
}
