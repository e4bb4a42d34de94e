//! Machine-readable run reports.
//!
//! Every experiment regenerator (the `bench` crate's table/figure
//! binaries) and the examples emit the same report shape, so
//! EXPERIMENTS.md rows are generated rather than hand-copied.

use ct_obs::jsonw::{arr, str_lit, Obj};
use std::collections::BTreeMap;

/// One measured (or modelled) experiment datapoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Which experiment this belongs to (e.g. `"table4"`, `"fig5a"`).
    pub experiment: String,
    /// Configuration label (e.g. the problem string, GPU count, kernel).
    pub label: String,
    /// Named scalar results (seconds, GUPS, RMSE, ...).
    pub values: BTreeMap<String, f64>,
    /// Free-form notes (substitutions, tolerances, deviations).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Start a report.
    pub fn new(experiment: &str, label: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            label: label.to_string(),
            ..Default::default()
        }
    }

    /// Record a named value (builder style).
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.values.insert(key.to_string(), value);
        self
    }

    /// Record a value in place.
    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_string(), value);
    }

    /// Add a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Look a value up.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// One compact JSON object: `experiment`, `label`, `values` (an
    /// object, keys sorted) and `notes`.
    pub fn to_json(&self) -> String {
        let mut values = Obj::new();
        for (key, value) in &self.values {
            values.field_f64(key, *value);
        }
        let mut o = Obj::new();
        o.field_str("experiment", &self.experiment)
            .field_str("label", &self.label)
            .field_raw("values", &values.finish())
            .field_raw("notes", &arr(self.notes.iter().map(|n| str_lit(n))));
        o.finish()
    }

    /// Absorb an observation capture's per-stage aggregates as named
    /// values: for each stage, `{prefix}{stage}.total_secs` (busiest
    /// rank), `.count`, `.max_secs` and `.bytes` (when nonzero), plus
    /// `{prefix}counter.*` sums and `{prefix}gauge.*` maxima — see
    /// `ct_obs::TraceData::summary_values`. Lets the bench/figure
    /// binaries publish measured stage times alongside their modelled
    /// values without hand-copying.
    pub fn fold_observations(&mut self, prefix: &str, data: &ct_obs::TraceData) {
        for (k, v) in data.summary_values(prefix) {
            self.values.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let mut r = RunReport::new("table4", "512x512x1024->256^3")
            .with("gups", 188.6)
            .with("seconds", 0.35);
        r.note("scaled 8x from the paper's problem");
        assert_eq!(r.get("gups"), Some(188.6));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.notes.len(), 1);
        r.set("gups", 190.0);
        assert_eq!(r.get("gups"), Some(190.0));
    }

    #[test]
    fn json_escapes_strings_and_sorts_values() {
        let mut r = RunReport::new("table4", "a \"quoted\"\nlabel é")
            .with("seconds", 0.35)
            .with("gups", 188.6);
        r.note("scaled 8x");
        let text = r.to_json();
        assert!(text.is_ascii(), "{text}");
        let v = ct_obs::chrome::json::parse(&text).expect("report parses");
        let keys: Vec<&str> = v
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["experiment", "label", "values", "notes"]);
        assert_eq!(
            v.get("label").and_then(|l| l.as_str()),
            Some(r.label.as_str())
        );
        let values = v.get("values").and_then(|x| x.as_object()).expect("values");
        assert_eq!(values[0].0, "gups");
        assert_eq!(
            values[1],
            (
                "seconds".to_string(),
                ct_obs::chrome::json::Value::Num(0.35)
            )
        );
        assert_eq!(
            v.get("notes").and_then(|n| n.as_array()).map(|n| n.len()),
            Some(1)
        );
    }

    #[test]
    fn fold_observations_imports_stage_aggregates() {
        let rec = ct_obs::Recorder::summary();
        {
            let track = rec.track(0, ct_obs::ThreadRole::Main);
            let mut sp = track.span("allgather");
            sp.set_bytes(512);
            drop(sp);
            track.counter_add("ring.push_stalls", 3);
            track.gauge_max("ring.high_water", 7);
        }
        let mut r = RunReport::new("fig7", "2x2");
        r.fold_observations("obs.", &rec.collect());
        assert_eq!(r.get("obs.allgather.count"), Some(1.0));
        assert_eq!(r.get("obs.allgather.bytes"), Some(512.0));
        assert!(r.get("obs.allgather.total_secs").is_some());
        assert_eq!(r.get("obs.counter.ring.push_stalls"), Some(3.0));
        assert_eq!(r.get("obs.gauge.ring.high_water"), Some(7.0));
    }
}
