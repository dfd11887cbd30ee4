//! Deployment configuration parsing.
//!
//! Developers describe each function in a YAML-style configuration file.
//! DSCS-Serverless extends the file with an `acceleratable` hint so the
//! scheduler knows which functions may be offloaded to the in-storage DSA
//! (Section 5.1, "Programming model").
//!
//! The parser handles the small, flat subset of YAML the deployment files use —
//! top-level `key: value` pairs plus a `functions:` list of indented blocks —
//! without pulling in a YAML dependency.

use std::fmt;

use dscs_simcore::quantity::Bytes;
use dscs_simcore::time::SimDuration;

use crate::function::{AppPipeline, FunctionRole, FunctionSpec};

/// Errors produced while parsing a deployment config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigParseError {
    /// A line was not `key: value` or a list item.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A required key is missing.
    MissingKey(&'static str),
    /// A value could not be interpreted.
    InvalidValue {
        /// The key whose value is invalid.
        key: String,
        /// The raw value.
        value: String,
    },
}

impl fmt::Display for ConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigParseError::Malformed { line, text } => {
                write!(f, "malformed config at line {line}: {text:?}")
            }
            ConfigParseError::MissingKey(key) => write!(f, "missing required key {key:?}"),
            ConfigParseError::InvalidValue { key, value } => {
                write!(f, "invalid value {value:?} for key {key:?}")
            }
        }
    }
}

impl std::error::Error for ConfigParseError {}

/// Parses a deployment configuration into an [`AppPipeline`].
///
/// # Example
///
/// ```
/// use dscs_faas::config::parse_deployment;
///
/// let yaml = r#"
/// app: remote-sensing
/// functions:
///   - name: preprocess
///     role: preprocess
///     acceleratable: true
///     image_mb: 180
///   - name: infer
///     role: inference
///     acceleratable: true
///     image_mb: 420
///     timeout_s: 60
///   - name: notify
///     role: notification
///     acceleratable: false
///     image_mb: 60
/// "#;
/// let pipeline = parse_deployment(yaml).expect("valid config");
/// assert_eq!(pipeline.name, "remote-sensing");
/// let acceleratable: Vec<bool> = pipeline.functions.iter().map(|f| f.acceleratable).collect();
/// assert_eq!(acceleratable, [true, true, false]);
/// ```
pub fn parse_deployment(text: &str) -> Result<AppPipeline, ConfigParseError> {
    let mut app_name: Option<String> = None;
    let mut functions: Vec<FunctionSpec> = Vec::new();
    let mut current: Option<FunctionBuilder> = None;
    let mut in_functions = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(item) = trimmed.strip_prefix("- ") {
            if !in_functions {
                return Err(ConfigParseError::Malformed {
                    line: line_no,
                    text: line.to_string(),
                });
            }
            if let Some(builder) = current.take() {
                functions.push(builder.build()?);
            }
            let mut builder = FunctionBuilder::default();
            apply_kv(&mut builder, item, line_no)?;
            current = Some(builder);
            continue;
        }
        let (key, value) = split_kv(trimmed, line_no)?;
        if line.starts_with(' ') {
            // Indented: belongs to the current function block.
            let builder = current.as_mut().ok_or(ConfigParseError::Malformed {
                line: line_no,
                text: line.to_string(),
            })?;
            builder.set(key, value)?;
        } else {
            match key {
                "app" | "name" => app_name = Some(value.to_string()),
                "functions" => in_functions = true,
                // Other top-level metadata (provider, storage, triggers, ...) is
                // accepted and ignored; it does not affect scheduling decisions.
                _ => {}
            }
        }
    }
    if let Some(builder) = current.take() {
        functions.push(builder.build()?);
    }

    let name = app_name.ok_or(ConfigParseError::MissingKey("app"))?;
    if functions.is_empty() {
        return Err(ConfigParseError::MissingKey("functions"));
    }
    Ok(AppPipeline::new(name, functions))
}

fn split_kv(text: &str, line: usize) -> Result<(&str, &str), ConfigParseError> {
    let (key, value) = text.split_once(':').ok_or(ConfigParseError::Malformed {
        line,
        text: text.to_string(),
    })?;
    Ok((key.trim(), value.trim()))
}

fn apply_kv(
    builder: &mut FunctionBuilder,
    text: &str,
    line: usize,
) -> Result<(), ConfigParseError> {
    let (key, value) = split_kv(text, line)?;
    builder.set(key, value)
}

#[derive(Debug, Default)]
struct FunctionBuilder {
    name: Option<String>,
    role: Option<FunctionRole>,
    acceleratable: Option<bool>,
    image_mb: Option<u64>,
    timeout_s: Option<u64>,
    memory_mb: Option<u64>,
}

impl FunctionBuilder {
    fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigParseError> {
        let invalid = || ConfigParseError::InvalidValue {
            key: key.to_string(),
            value: value.to_string(),
        };
        match key {
            "name" => self.name = Some(value.to_string()),
            "role" => {
                self.role = Some(match value {
                    "preprocess" | "pre-processing" => FunctionRole::Preprocess,
                    "inference" | "ml" | "dnn" => FunctionRole::Inference,
                    "notification" | "notify" => FunctionRole::Notification,
                    _ => return Err(invalid()),
                })
            }
            "acceleratable" | "dscs" => {
                self.acceleratable = Some(match value {
                    "true" | "yes" => true,
                    "false" | "no" => false,
                    _ => return Err(invalid()),
                })
            }
            "image_mb" => self.image_mb = Some(value.parse().map_err(|_| invalid())?),
            "timeout_s" => self.timeout_s = Some(value.parse().map_err(|_| invalid())?),
            "memory_mb" => self.memory_mb = Some(value.parse().map_err(|_| invalid())?),
            // Unknown per-function keys (env, handlers, triggers) are ignored.
            _ => {}
        }
        Ok(())
    }

    fn build(self) -> Result<FunctionSpec, ConfigParseError> {
        let name = self
            .name
            .ok_or(ConfigParseError::MissingKey("functions[].name"))?;
        let role = self
            .role
            .ok_or(ConfigParseError::MissingKey("functions[].role"))?;
        let mut spec = FunctionSpec::new(
            name,
            role,
            self.acceleratable.unwrap_or(false),
            Bytes::from_mib(self.image_mb.unwrap_or(120)),
        );
        if let Some(t) = self.timeout_s {
            spec.timeout = SimDuration::from_secs(t);
        }
        if let Some(m) = self.memory_mb {
            spec.memory_limit = Bytes::from_mib(m);
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
app: content-moderation
provider: openfaas
functions:
  - name: decode
    role: preprocess
    acceleratable: true
    image_mb: 150
  - name: classify
    role: inference
    acceleratable: true
    image_mb: 380
    timeout_s: 45
    memory_mb: 2048
  - name: flag
    role: notification
    acceleratable: false
    image_mb: 40
"#;

    #[test]
    fn parses_full_pipeline() {
        let p = parse_deployment(SAMPLE).expect("valid");
        assert_eq!(p.name, "content-moderation");
        assert_eq!(p.functions.len(), 3);
        assert_eq!(p.functions[1].timeout, SimDuration::from_secs(45));
        assert_eq!(p.functions[1].memory_limit, Bytes::from_mib(2048));
        assert!(p.functions[0].acceleratable);
        assert!(!p.functions[2].acceleratable);
    }

    #[test]
    fn missing_app_name_is_an_error() {
        let text = "functions:\n  - name: a\n    role: inference\n";
        assert_eq!(
            parse_deployment(text),
            Err(ConfigParseError::MissingKey("app"))
        );
    }

    #[test]
    fn missing_functions_is_an_error() {
        let text = "app: x\n";
        assert_eq!(
            parse_deployment(text),
            Err(ConfigParseError::MissingKey("functions"))
        );
    }

    #[test]
    fn bad_role_reported_with_value() {
        let text = "app: x\nfunctions:\n  - name: a\n    role: quantum\n";
        match parse_deployment(text) {
            Err(ConfigParseError::InvalidValue { key, value }) => {
                assert_eq!(key, "role");
                assert_eq!(value, "quantum");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let text = "app: x\nregion: us-west-2\nfunctions:\n  - name: a\n    role: inference\n    handler: main.py\n";
        let p = parse_deployment(text).expect("valid");
        assert_eq!(p.functions.len(), 1);
        assert!(!p.functions[0].acceleratable);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# deployment\napp: x\n\nfunctions:\n  # the only function\n  - name: a\n    role: inference\n";
        assert!(parse_deployment(text).is_ok());
    }

    #[test]
    fn list_item_outside_functions_is_malformed() {
        let text = "app: x\n- name: a\n";
        assert!(matches!(
            parse_deployment(text),
            Err(ConfigParseError::Malformed { line: 2, .. })
        ));
    }
}
