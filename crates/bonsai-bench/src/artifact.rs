//! Shared loader for the `BENCH_*.json` artifacts.
//!
//! Every gate emits a byte-deterministic JSON document whose first field
//! is a `schema` string of the form `bonsai-<kind>-v<N>`. This module is
//! the one place that contract is parsed and enforced: the diff explainer,
//! the gate runner and the tests all load artifacts through this module,
//! so a bench that forgets to self-identify (or bumps its schema without
//! bumping the version) fails loudly instead of producing a silently
//! meaningless comparison.

use bonsai_obs::json::{self, Value};

/// A loaded, schema-validated bench artifact.
#[derive(Clone, Debug)]
pub struct BenchArtifact {
    /// The full schema string, e.g. `bonsai-profile-v1`.
    pub schema: String,
    /// The artifact kind, e.g. `profile` (the `<kind>` of
    /// `bonsai-<kind>-v<N>`).
    pub kind: String,
    /// The schema version (the `<N>`).
    pub version: u32,
    /// The parsed document root.
    pub value: Value,
}

/// Split a schema string `bonsai-<kind>-v<N>` into `(kind, version)`.
///
/// The kind may itself contain dashes (`bonsai-weak-scaling-v2` →
/// `("weak-scaling", 2)`); the version is whatever follows the *last*
/// `-v` segment.
pub fn parse_schema(schema: &str) -> Result<(String, u32), String> {
    let rest = schema
        .strip_prefix("bonsai-")
        .ok_or_else(|| format!("schema `{schema}` does not start with `bonsai-`"))?;
    let (kind, ver) = rest
        .rsplit_once("-v")
        .ok_or_else(|| format!("schema `{schema}` has no `-v<N>` version suffix"))?;
    if kind.is_empty() {
        return Err(format!("schema `{schema}` has an empty kind"));
    }
    let version: u32 = ver
        .parse()
        .map_err(|_| format!("schema `{schema}` has a non-numeric version `{ver}`"))?;
    Ok((kind.to_string(), version))
}

/// Parse an artifact document: valid JSON, object root, well-formed
/// top-level `schema` field.
pub fn parse_artifact(text: &str) -> Result<BenchArtifact, String> {
    let value = json::parse(text)?;
    if !matches!(value, Value::Obj(_)) {
        return Err("artifact root is not a JSON object".into());
    }
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("artifact has no top-level `schema` string")?
        .to_string();
    let (kind, version) = parse_schema(&schema)?;
    Ok(BenchArtifact {
        schema,
        kind,
        version,
        value,
    })
}

/// Load and validate an artifact from disk.
pub fn load_artifact(path: &std::path::Path) -> Result<BenchArtifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    parse_artifact(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_strings_round_trip() {
        assert_eq!(
            parse_schema("bonsai-profile-v1").unwrap(),
            ("profile".to_string(), 1)
        );
        assert_eq!(
            parse_schema("bonsai-weak-scaling-v12").unwrap(),
            ("weak-scaling".to_string(), 12)
        );
        assert!(parse_schema("fresnel-profile-v1").is_err());
        assert!(parse_schema("bonsai-profile").is_err());
        assert!(parse_schema("bonsai-v1").is_err());
        assert!(parse_schema("bonsai-profile-vx").is_err());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_artifact("[1, 2]").is_err());
        assert!(parse_artifact("{\"x\": 1}").is_err());
        assert!(parse_artifact("{\"schema\": 7}").is_err());
        assert!(parse_artifact("{\"schema\": \"bonsai-step-v1\"").is_err());
        let a = parse_artifact("{\"schema\": \"bonsai-step-v1\", \"x\": 1}").unwrap();
        assert_eq!(a.kind, "step");
        assert_eq!(a.version, 1);
        assert_eq!(a.value.get("x").and_then(Value::as_f64), Some(1.0));
    }

    /// Every checked-in `BENCH_*.json` at the repo root parses,
    /// self-identifies through the shared loader and is in the writer's
    /// canonical layout, and the set of them is exactly the gate table's
    /// kinds.
    #[test]
    fn all_checked_in_artifacts_self_identify() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut kinds = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let stem = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"));
            let Some(stem) = stem else { continue };
            let a = load_artifact(&path).unwrap_or_else(|e| panic!("{e}"));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                json::write(&a.value) == text,
                "{name} is not in canonical layout (`gates --bless` rewrites it)"
            );
            // The file name and the embedded schema agree on the kind.
            assert_eq!(a.kind, stem, "{name}: schema kind mismatch");
            assert!(a.version >= 1);
            kinds.push(a.kind);
        }
        kinds.sort();
        let gates = &crate::gates::GATES;
        let mut listed: Vec<&str> = gates.iter().map(|g| g.kind).collect();
        listed.sort_unstable();
        assert_eq!(kinds, listed, "the tracked artifacts and GATES disagree");
        listed.dedup();
        assert_eq!(listed.len(), gates.len(), "a kind is listed twice");
    }
}
