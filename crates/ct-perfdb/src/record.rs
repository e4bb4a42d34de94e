//! The versioned run record: one measurement outcome, annotated with
//! enough provenance to compare it against past and future runs.
//!
//! Serialization is hand-rolled on `ct_obs::jsonw` / `ct_obs::chrome::json`
//! like every other machine-readable artifact in the workspace. The
//! schema string is the compatibility contract:
//!
//! * [`to_json`](RunRecord::to_json) always emits every field, so
//!   `from_json(to_json(r)) == r` exactly;
//! * [`from_json`](RunRecord::from_json) ignores unknown fields
//!   (forward compatibility: a v1 reader skips what a v1.x writer adds)
//!   and tolerates missing optional sections (machine/config/metrics
//!   default), but rejects a missing or different `schema` outright —
//!   silently misreading records from a future incompatible schema is
//!   how trend analytics go quietly wrong.

use std::collections::BTreeMap;

use crate::machine::MachineInfo;
use ct_obs::chrome::json::{self, Value};
use ct_obs::jsonw::{arr, Obj};

/// Schema identifier stamped into every record. Bump the trailing
/// version only for incompatible changes; additive fields do not need a
/// bump (readers skip unknown fields).
pub const SCHEMA: &str = "ifdk-run/v1";

/// What was run: the knobs that make two measurements comparable (or
/// not). Producers fill what they know and leave the rest defaulted —
/// `gups` has no grid, the distributed example has no tile string.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// Back-projection kernel name (`scalar`, `lanes`, ...).
    pub kernel: String,
    /// Projection memory layout (`standard`, `transposed`).
    pub layout: String,
    /// Worker threads (or ranks, for the distributed pipeline).
    pub threads: u64,
    /// Process-grid rows (distributed runs; 0 when not applicable).
    pub grid_rows: u64,
    /// Process-grid columns (distributed runs; 0 when not applicable).
    pub grid_cols: u64,
    /// Tile / blocking shape as a display string (e.g. `"8x64"`).
    pub tile: String,
    /// Problem-size description (e.g. `"256^3"`, `"64^3 x 192p"`).
    pub problem: String,
}

/// One appended trajectory entry: who measured (source bin), when
/// (unix milliseconds), where ([`MachineInfo`]), what ([`RunConfig`])
/// and the outcome metrics by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Producing tool: `gups`, `tracereport`, `distributed`.
    pub source: String,
    /// Wall-clock timestamp in unix milliseconds
    /// (`ct_obs::clock::unix_millis`).
    pub t_unix_ms: u64,
    /// Machine provenance; its fingerprint keys the trajectory.
    pub machine: MachineInfo,
    /// Run configuration.
    pub config: RunConfig,
    /// Outcome metrics by name (`gups_median`, `overlap_efficiency`,
    /// `stage.bp.p95_ns`, ...). BTreeMap so serialization order — and
    /// therefore the JSONL bytes — is deterministic.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Start a record for `source` measured at `t_unix_ms` on `machine`.
    pub fn new(source: &str, t_unix_ms: u64, machine: MachineInfo) -> Self {
        Self {
            source: source.to_string(),
            t_unix_ms,
            machine,
            ..Self::default()
        }
    }

    /// Set an outcome metric. Non-finite values are dropped rather than
    /// stored: the JSON writer would clamp them to `0`, and a silent
    /// zero in a throughput trajectory reads as a catastrophic
    /// regression instead of a broken probe.
    pub fn set_metric(&mut self, name: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        }
        self
    }

    /// Look up an outcome metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Serialize to one line of compact JSON (a JSONL record). Every
    /// field is always emitted so the round trip through
    /// [`from_json`](Self::from_json) is exact.
    pub fn to_json(&self) -> String {
        let mut config = Obj::new();
        config
            .field_str("kernel", &self.config.kernel)
            .field_str("layout", &self.config.layout)
            .field_u64("threads", self.config.threads)
            .field_u64("grid_rows", self.config.grid_rows)
            .field_u64("grid_cols", self.config.grid_cols)
            .field_str("tile", &self.config.tile)
            .field_str("problem", &self.config.problem);

        let metrics = arr(self.metrics.iter().map(|(name, value)| {
            let mut m = Obj::new();
            m.field_str("name", name).field_f64("value", *value);
            m.finish()
        }));

        let mut o = Obj::new();
        o.field_str("schema", SCHEMA)
            .field_str("source", &self.source)
            .field_u64("t_unix_ms", self.t_unix_ms)
            .field_str("fingerprint", &self.machine.fingerprint())
            .field_raw("machine", &self.machine.to_json())
            .field_raw("config", &config.finish())
            .field_raw("metrics", &metrics);
        o.finish()
    }

    /// Parse one JSONL line. Rejects missing/foreign `schema` values
    /// with an error naming what was found; tolerates unknown fields
    /// and missing optional sections (see module docs).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("run record missing \"schema\" field")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported run-record schema {schema:?} (this reader understands {SCHEMA:?})"
            ));
        }
        let source = v
            .get("source")
            .and_then(Value::as_str)
            .ok_or("run record missing \"source\" field")?
            .to_string();
        let t_unix_ms =
            v.get("t_unix_ms")
                .and_then(Value::as_f64)
                .ok_or("run record missing numeric \"t_unix_ms\" field")? as u64;

        let machine = v
            .get("machine")
            .map(MachineInfo::from_value)
            .unwrap_or_default();

        let mut config = RunConfig::default();
        if let Some(c) = v.get("config") {
            if let Some(s) = c.get("kernel").and_then(Value::as_str) {
                config.kernel = s.to_string();
            }
            if let Some(s) = c.get("layout").and_then(Value::as_str) {
                config.layout = s.to_string();
            }
            if let Some(n) = c.get("threads").and_then(Value::as_f64) {
                config.threads = n as u64;
            }
            if let Some(n) = c.get("grid_rows").and_then(Value::as_f64) {
                config.grid_rows = n as u64;
            }
            if let Some(n) = c.get("grid_cols").and_then(Value::as_f64) {
                config.grid_cols = n as u64;
            }
            if let Some(s) = c.get("tile").and_then(Value::as_str) {
                config.tile = s.to_string();
            }
            if let Some(s) = c.get("problem").and_then(Value::as_str) {
                config.problem = s.to_string();
            }
        }

        let mut metrics = BTreeMap::new();
        if let Some(list) = v.get("metrics").and_then(Value::as_array) {
            for entry in list {
                let name = entry.get("name").and_then(Value::as_str);
                let value = entry.get("value").and_then(Value::as_f64);
                if let (Some(name), Some(value)) = (name, value) {
                    metrics.insert(name.to_string(), value);
                }
            }
        }

        Ok(Self {
            source,
            t_unix_ms,
            machine,
            config,
            metrics,
        })
    }

    /// The machine fingerprint this record is keyed by.
    pub fn fingerprint(&self) -> String {
        self.machine.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut r = RunRecord::new(
            "gups",
            1_754_600_000_123,
            MachineInfo {
                cpu_model: "Example CPU @ 3.00GHz".into(),
                cpu_flags: vec!["avx2".into(), "fma".into()],
                logical_cpus: 8,
                target_features: vec!["sse2".into()],
            },
        );
        r.config = RunConfig {
            kernel: "lanes".into(),
            layout: "transposed".into(),
            threads: 4,
            grid_rows: 0,
            grid_cols: 0,
            tile: "8x64".into(),
            problem: "64^3".into(),
        };
        r.set_metric("gups_median", 0.2125)
            .set_metric("gups_mad", 0.003)
            .set_metric("secs_median", 1.5);
        r
    }

    #[test]
    fn exact_round_trip() {
        let r = sample();
        let parsed = RunRecord::from_json(&r.to_json()).expect("round trip parses");
        assert_eq!(parsed, r);
        // And the serialized bytes themselves are stable.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let line = sample().to_json();
        let with_extra =
            line.replacen("\"source\"", "\"future_field\":{\"a\":[1,2]},\"source\"", 1);
        let parsed = RunRecord::from_json(&with_extra).expect("extra fields tolerated");
        assert_eq!(parsed, sample());
    }

    #[test]
    fn missing_sections_default() {
        let line = r#"{"schema":"ifdk-run/v1","source":"monitor","t_unix_ms":12}"#;
        let parsed = RunRecord::from_json(line).expect("minimal record parses");
        assert_eq!(parsed.source, "monitor");
        assert_eq!(parsed.t_unix_ms, 12);
        assert_eq!(parsed.machine, MachineInfo::default());
        assert_eq!(parsed.config, RunConfig::default());
        assert!(parsed.metrics.is_empty());
    }

    #[test]
    fn wrong_schema_is_rejected_with_clear_error() {
        let line = sample().to_json().replace("ifdk-run/v1", "ifdk-run/v9");
        let err = RunRecord::from_json(&line).expect_err("wrong schema must fail");
        assert!(
            err.contains("ifdk-run/v9"),
            "error names found schema: {err}"
        );
        assert!(err.contains(SCHEMA), "error names supported schema: {err}");

        let no_schema = r#"{"source":"gups","t_unix_ms":1}"#;
        let err = RunRecord::from_json(no_schema).expect_err("missing schema must fail");
        assert!(err.contains("schema"), "error mentions schema: {err}");
    }

    #[test]
    fn non_finite_metrics_are_dropped() {
        let mut r = sample();
        r.set_metric("bad", f64::NAN)
            .set_metric("worse", f64::INFINITY);
        assert_eq!(r.metric("bad"), None);
        assert_eq!(r.metric("worse"), None);
        assert_eq!(r.metric("gups_median"), Some(0.2125));
    }

    #[test]
    fn fingerprint_field_matches_machine() {
        let r = sample();
        let line = r.to_json();
        let v = ct_obs::chrome::json::parse(&line).expect("parses");
        assert_eq!(
            v.get("fingerprint").and_then(Value::as_str),
            Some(r.machine.fingerprint().as_str())
        );
    }
}
