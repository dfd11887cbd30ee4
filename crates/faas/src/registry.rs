//! Function registry.
//!
//! OpenFaaS keeps deployed functions (and their container images) in a
//! registry; invocation looks the function up, and cold starts pull the image
//! from it. The registry here stores deployed [`AppPipeline`]s by name.

use std::collections::HashMap;

use crate::function::AppPipeline;

/// Errors returned by the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An application with the same name is already deployed.
    AlreadyDeployed(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::AlreadyDeployed(app) => write!(f, "application already deployed: {app}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The function registry.
#[derive(Debug, Default, Clone)]
pub struct FunctionRegistry {
    apps: HashMap<String, AppPipeline>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// Deploys an application.
    pub fn deploy(&mut self, pipeline: AppPipeline) -> Result<(), RegistryError> {
        if self.apps.contains_key(&pipeline.name) {
            return Err(RegistryError::AlreadyDeployed(pipeline.name));
        }
        self.apps.insert(pipeline.name.clone(), pipeline);
        Ok(())
    }

    /// Names of deployed applications, sorted.
    pub fn app_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.apps.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use dscs_simcore::quantity::Bytes;

    use super::*;
    use crate::function::AppPipeline;

    fn sample() -> AppPipeline {
        AppPipeline::standard_three_stage("remote-sensing", Bytes::from_mib(420))
    }

    #[test]
    fn duplicate_deploys_rejected() {
        let mut r = FunctionRegistry::new();
        r.deploy(sample()).expect("deploy");
        assert_eq!(
            r.deploy(sample()),
            Err(RegistryError::AlreadyDeployed("remote-sensing".to_string()))
        );
    }

    #[test]
    fn app_names_sorted() {
        let mut r = FunctionRegistry::new();
        r.deploy(AppPipeline::standard_three_stage(
            "zeta",
            Bytes::from_mib(1),
        ))
        .expect("ok");
        r.deploy(AppPipeline::standard_three_stage(
            "alpha",
            Bytes::from_mib(1),
        ))
        .expect("ok");
        assert_eq!(r.app_names(), vec!["alpha", "zeta"]);
    }
}
