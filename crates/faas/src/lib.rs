//! # dscs-faas
//!
//! Serverless-framework substrate for the DSCS-Serverless reproduction: the
//! OpenFaaS/Kubernetes-shaped pieces the paper integrates with (Section 5).
//!
//! * [`function`] — function specifications and application pipelines (the
//!   three-stage preprocess → inference → notification chains of Table 1),
//!   including the `acceleratable` deployment hint.
//! * [`config`] — the YAML-style deployment file parser with the DSCS
//!   `acceleratable` extension.
//! * [`registry`] — the function registry that deployment and cold starts use.
//! * [`coldstart`] — container/cold-start model, including DSCS's path that
//!   caches evicted images on the drive's flash and reloads them over P2P.
//! * [`scheduler`] — the FCFS, DSCS-aware scheduler with fail-over to
//!   conventional compute nodes.
//!
//! # Example
//!
//! ```
//! use dscs_faas::config::parse_deployment;
//! use dscs_faas::registry::FunctionRegistry;
//!
//! let yaml = "app: ppe\nfunctions:\n  - name: infer\n    role: inference\n    acceleratable: true\n";
//! let pipeline = parse_deployment(yaml).expect("valid deployment");
//! let mut registry = FunctionRegistry::new();
//! registry.deploy(pipeline).expect("deployed");
//! assert_eq!(registry.app_names(), ["ppe"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coldstart;
pub mod config;
pub mod function;
pub mod registry;
pub mod scheduler;
