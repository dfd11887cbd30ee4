//! Function registry.
//!
//! OpenFaaS keeps deployed functions (and their container images) in a
//! registry; invocation looks the function up, and cold starts pull the image
//! from it. The registry here stores deployed [`AppPipeline`]s and answers the
//! lookups the scheduler and the end-to-end model need.

use std::collections::HashMap;

use crate::function::{AppPipeline, FunctionSpec};

/// Errors returned by the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An application with the same name is already deployed.
    AlreadyDeployed(String),
    /// The application is not deployed.
    UnknownApp(String),
    /// The function is not part of the application.
    UnknownFunction {
        /// Application name.
        app: String,
        /// Function name.
        function: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::AlreadyDeployed(app) => write!(f, "application already deployed: {app}"),
            RegistryError::UnknownApp(app) => write!(f, "unknown application: {app}"),
            RegistryError::UnknownFunction { app, function } => {
                write!(f, "unknown function {function} in application {app}")
            }
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

    /// Looks up a deployed application.
    pub fn app(&self, app: &str) -> Result<&AppPipeline, RegistryError> {
        self.apps
            .get(app)
            .ok_or_else(|| RegistryError::UnknownApp(app.to_string()))
    }

    /// Looks up one function of a deployed application.
    pub fn function(&self, app: &str, function: &str) -> Result<&FunctionSpec, RegistryError> {
        let pipeline = self.app(app)?;
        pipeline
            .functions
            .iter()
            .find(|f| f.name == function)
            .ok_or_else(|| RegistryError::UnknownFunction {
                app: app.to_string(),
                function: function.to_string(),
            })
    }

    /// Number of deployed applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
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
    fn deploy_and_lookup() {
        let mut r = FunctionRegistry::new();
        r.deploy(sample()).expect("deploy");
        assert_eq!(r.app_count(), 1);
        assert_eq!(r.app("remote-sensing").expect("app").len(), 3);
        assert!(r
            .function("remote-sensing", "remote-sensing-inference")
            .is_ok());
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
    fn unknown_lookups_error() {
        let r = FunctionRegistry::new();
        assert!(matches!(r.app("nope"), Err(RegistryError::UnknownApp(_))));
        let mut r = FunctionRegistry::new();
        r.deploy(sample()).expect("deploy");
        assert!(matches!(
            r.function("remote-sensing", "nope"),
            Err(RegistryError::UnknownFunction { .. })
        ));
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
