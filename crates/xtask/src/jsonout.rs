//! The `cargo xtask analyze --format json` document, built with
//! `ct_obs::jsonw`: the schema is small and versioned, fields appear in
//! call order, strings are escaped to pure ASCII.
//!
//! Document shape, schema `ifdk-analyze/v2` (v1 plus per-pass stats and
//! the elidable checked-gather report from the interval analysis):
//!
//! ```json
//! {
//!   "schema": "ifdk-analyze/v2",
//!   "subcommand": "analyze",
//!   "clean": false,
//!   "count": 2,
//!   "findings": [
//!     {"path": "crates/x/src/a.rs", "line": 7, "rule": "lock-order",
//!      "message": "..."}
//!   ],
//!   "passes": [
//!     {"name": "index-bounds", "findings": 1, "wall_ms": 3.2,
//!      "stats": [{"name": "cfg_blocks", "value": 412}]}
//!   ],
//!   "elidable_gathers": 1,
//!   "gathers": [
//!     {"path": "crates/x/src/a.rs", "line": 9, "fn": "ct_bp::warp::row",
//!      "what": "`tex.get(i)`", "loop_depth": 2}
//!   ]
//! }
//! ```
//!
//! Errors (exit 3) become `{"schema": "ifdk-analyze/v2", "error": "..."}`
//! so CI consumers always parse one object per run.

use crate::passes::{AnalyzeReport, Gather, PassReport};
use crate::rules::Violation;
use ct_obs::jsonw::{arr, Obj};
use std::path::Path;

pub const SCHEMA: &str = "ifdk-analyze/v2";

/// Render a finished analyze run.
pub fn findings_doc(what: &str, report: &AnalyzeReport) -> String {
    let mut o = Obj::new();
    o.field_str("schema", SCHEMA)
        .field_str("subcommand", what)
        .field_bool("clean", report.violations.is_empty())
        .field_u64("count", report.violations.len() as u64)
        .field_raw("findings", &arr(report.violations.iter().map(finding)))
        .field_raw("passes", &arr(report.passes.iter().map(pass)))
        .field_u64("elidable_gathers", report.gathers.len() as u64)
        .field_raw("gathers", &arr(report.gathers.iter().map(gather)));
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
    let stats = arr(p.stats.iter().map(|(name, value)| {
        let mut o = Obj::new();
        o.field_str("name", name).field_u64("value", *value);
        o.finish()
    }));
    let mut o = Obj::new();
    o.field_str("name", p.name)
        .field_u64("findings", p.findings as u64)
        .field_f64("wall_ms", p.wall_ms)
        .field_raw("stats", &stats);
    o.finish()
}

fn gather(g: &Gather) -> String {
    let mut o = Obj::new();
    o.field_str("path", &slashed(&g.path))
        .field_u64("line", g.line as u64)
        .field_str("fn", &g.qual)
        .field_str("what", &g.what)
        .field_u64("loop_depth", g.depth as u64);
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
            gathers: Vec::new(),
        }
    }

    #[test]
    fn clean_run_renders_empty_findings() {
        let doc = findings_doc("analyze", &empty_report());
        assert_eq!(
            doc,
            "{\"schema\":\"ifdk-analyze/v2\",\"subcommand\":\"analyze\",\
             \"clean\":true,\"count\":0,\"findings\":[],\"passes\":[],\
             \"elidable_gathers\":0,\"gathers\":[]}\n"
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
    fn passes_and_gathers_are_emitted() {
        let mut report = empty_report();
        report.passes.push(PassReport {
            name: "index-bounds",
            findings: 1,
            wall_ms: 3.25,
            stats: vec![("cfg_blocks".to_string(), 412)],
        });
        report.gathers.push(Gather {
            path: PathBuf::from("crates/x/src/a.rs"),
            line: 9,
            qual: "ct_bp::warp::row".to_string(),
            what: "`tex.get(i)`".to_string(),
            depth: 2,
        });
        let doc = findings_doc("analyze", &report);
        assert!(
            doc.contains(
                "{\"name\":\"index-bounds\",\"findings\":1,\"wall_ms\":3.25,\
                 \"stats\":[{\"name\":\"cfg_blocks\",\"value\":412}]}"
            ),
            "{doc}"
        );
        assert!(doc.contains("\"elidable_gathers\":1"), "{doc}");
        assert!(
            doc.contains(
                "{\"path\":\"crates/x/src/a.rs\",\"line\":9,\"fn\":\"ct_bp::warp::row\",\
                 \"what\":\"`tex.get(i)`\",\"loop_depth\":2}"
            ),
            "{doc}"
        );
    }

    #[test]
    fn error_doc_is_one_object() {
        let doc = error_doc("read ci/analyze.conf: not found");
        assert!(
            doc.starts_with("{\"schema\":\"ifdk-analyze/v2\",\"error\":"),
            "{doc}"
        );
    }
}
