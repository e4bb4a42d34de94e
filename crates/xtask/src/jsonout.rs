//! The `cargo xtask analyze --format json` document, built with
//! `ct_obs::jsonw`: the schema is small and versioned, fields appear in
//! call order, strings are escaped to pure ASCII.
//!
//! Document shape, schema `ifdk-analyze/v3` (findings plus per-pass
//! finding counts and wall time):
//!
//! ```json
//! {
//!   "schema": "ifdk-analyze/v3",
//!   "subcommand": "analyze",
//!   "clean": false,
//!   "count": 2,
//!   "findings": [
//!     {"path": "crates/x/src/a.rs", "line": 7, "rule": "lock-order",
//!      "message": "..."}
//!   ],
//!   "passes": [
//!     {"name": "lock-discipline", "findings": 1, "wall_ms": 3.2}
//!   ]
//! }
//! ```
//!
//! Errors (exit 3) become `{"schema": "ifdk-analyze/v3", "error": "..."}`
//! so CI consumers always parse one object per run.

use crate::passes::{AnalyzeReport, PassReport};
use crate::rules::Violation;
use ct_obs::jsonw::{arr, Obj};
use std::path::Path;

pub const SCHEMA: &str = "ifdk-analyze/v3";

/// Render a finished analyze run.
pub fn findings_doc(what: &str, report: &AnalyzeReport) -> String {
    let mut o = Obj::new();
    o.field_str("schema", SCHEMA)
        .field_str("subcommand", what)
        .field_bool("clean", report.violations.is_empty())
        .field_u64("count", report.violations.len() as u64)
        .field_raw("findings", &arr(report.violations.iter().map(finding)))
        .field_raw("passes", &arr(report.passes.iter().map(pass)));
    o.finish() + "\n"
}

fn slashed(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

fn finding(v: &Violation) -> String {
    let mut o = Obj::new();
    o.field_str("path", &slashed(&v.path))
        .field_u64("line", v.line as u64)
        .field_str("rule", v.rule)
        .field_str("message", &v.msg);
    o.finish()
}

fn pass(p: &PassReport) -> String {
    let mut o = Obj::new();
    o.field_str("name", p.name)
        .field_u64("findings", p.findings as u64)
        .field_f64("wall_ms", p.wall_ms);
    o.finish()
}

/// Render a usage / internal error (the exit-3 path).
pub fn error_doc(message: &str) -> String {
    let mut o = Obj::new();
    o.field_str("schema", SCHEMA).field_str("error", message);
    o.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn empty_report() -> AnalyzeReport {
        AnalyzeReport {
            violations: Vec::new(),
            passes: Vec::new(),
        }
    }

    #[test]
    fn clean_run_renders_empty_findings() {
        let doc = findings_doc("analyze", &empty_report());
        assert_eq!(
            doc,
            "{\"schema\":\"ifdk-analyze/v3\",\"subcommand\":\"analyze\",\
             \"clean\":true,\"count\":0,\"findings\":[],\"passes\":[]}\n"
        );
    }

    #[test]
    fn findings_and_escapes_round_trip() {
        let v = Violation {
            path: PathBuf::from("crates/x/src/a.rs"),
            line: 7,
            rule: "lock-order",
            msg: "cycle \"a\" -> b\nsee §6c".to_string(),
        };
        let mut report = empty_report();
        report.violations.push(v);
        let doc = findings_doc("analyze", &report);
        assert!(doc.contains("\"clean\":false,\"count\":1"), "{doc}");
        assert!(
            doc.contains("\"path\":\"crates/x/src/a.rs\",\"line\":7"),
            "{doc}"
        );
        assert!(doc.contains("\\\"a\\\" -> b\\n"), "{doc}");
        assert!(doc.contains("\\u00a7"), "non-ASCII must be escaped: {doc}");
    }

    #[test]
    fn passes_are_emitted_in_order() {
        let mut report = empty_report();
        for (name, findings, wall_ms) in [("panic-reachable", 0, 1.5), ("lock-discipline", 1, 3.25)]
        {
            report.passes.push(PassReport {
                name,
                findings,
                wall_ms,
            });
        }
        let doc = findings_doc("analyze", &report);
        assert!(
            doc.contains(
                "\"passes\":[{\"name\":\"panic-reachable\",\"findings\":0,\"wall_ms\":1.5},\
                 {\"name\":\"lock-discipline\",\"findings\":1,\"wall_ms\":3.25}]}"
            ),
            "{doc}"
        );
    }

    #[test]
    fn error_doc_is_one_object() {
        let doc = error_doc("read ci/analyze.conf: not found");
        assert!(
            doc.starts_with("{\"schema\":\"ifdk-analyze/v3\",\"error\":"),
            "{doc}"
        );
    }
}
