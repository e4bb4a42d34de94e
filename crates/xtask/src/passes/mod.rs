//! The analysis-pass framework behind `cargo xtask analyze`.
//!
//! A [`Pass`] sees the loaded [`Workspace`], the shared [`CallGraph`]
//! and the declared [`Config`], and fills a [`PassOutput`]: violations
//! and the set of escape directives that actually suppressed something.
//! Passes are independent, so [`run_all`] runs each on its own scoped
//! thread and merges the outputs deterministically (registration order,
//! then the location sort) — the same reporting contract as `xtask
//! lint`, with per-pass wall time kept for the JSON document.
//!
//! After the passes finish, `run_all` audits the escape directives:
//! an `analyze: allow(..)` no pass consumed is dead weight that will
//! silently exempt a future defect at that site, so it is reported as
//! `stale-allow`. The audit is skipped under `--roots` overrides
//! (narrowed reachability would make honest escapes look dead).

pub mod alloc;
pub mod determinism;
pub mod layering;
pub mod locks;
pub mod panics;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::rules::Violation;
use crate::workspace::Workspace;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub struct Analysis<'a> {
    pub ws: &'a Workspace,
    pub graph: &'a CallGraph,
    pub conf: &'a Config,
    /// False under `--roots` overrides: ad-hoc reachability queries
    /// must not report honest escapes as stale.
    pub audit_escapes: bool,
}

/// Everything one pass produced.
#[derive(Default)]
pub struct PassOutput {
    pub violations: Vec<Violation>,
    /// Escape directives that matched a finding: (file, directive line,
    /// pass key as written). Anything not in here after all passes ran
    /// is stale.
    pub used_escapes: BTreeSet<(PathBuf, usize, String)>,
}

impl PassOutput {
    /// Record that the directive at (`path`, `line`) for `pass` matched
    /// a finding (suppressed or malformed — either way it is live).
    pub fn used(&mut self, path: &Path, line: usize, pass: &str) {
        self.used_escapes
            .insert((path.to_path_buf(), line, pass.to_string()));
    }
}

/// Per-pass summary surfaced in the JSON document.
pub struct PassReport {
    pub name: &'static str,
    pub findings: usize,
    pub wall_ms: f64,
}

/// The combined result of one analyzer run.
pub struct AnalyzeReport {
    pub violations: Vec<Violation>,
    pub passes: Vec<PassReport>,
}

pub trait Pass: Sync {
    fn name(&self) -> &'static str;
    fn run(&self, cx: &Analysis<'_>, out: &mut PassOutput);
}

pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panics::PanicReachability),
        Box::new(layering::CrateLayering),
        Box::new(determinism::Determinism),
        Box::new(locks::LockDiscipline),
        Box::new(alloc::AllocReachability),
    ]
}

/// Short escape keys accepted in `analyze: allow(<key>, ..)` and the
/// pass each belongs to.
const ESCAPE_ALIASES: &[(&str, &str)] = &[
    ("panic", "panic-reachable"),
    ("lock", "lock-discipline"),
    ("alloc", "alloc-reachable"),
];

fn known_escape_key(passes: &[Box<dyn Pass>], key: &str) -> bool {
    passes.iter().any(|p| p.name() == key) || ESCAPE_ALIASES.iter().any(|(short, _)| *short == key)
}

pub fn run_all(cx: &Analysis<'_>) -> AnalyzeReport {
    let passes = default_passes();
    let mut violations = Vec::new();
    // An exemption naming a pass that does not exist is a typo that
    // would silently exempt nothing — reject it up front.
    for file in &cx.ws.files {
        for a in &file.lexed.analyze_allows {
            if !known_escape_key(&passes, &a.pass) {
                violations.push(Violation {
                    path: file.rel.clone(),
                    line: a.line,
                    rule: "analyze-allow",
                    msg: format!("allow directive names unknown pass `{}`", a.pass),
                });
            }
        }
    }

    // Passes are independent: one scoped worker each, merged in
    // registration order so the report stays deterministic.
    let timed: Vec<(PassOutput, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = passes
            .iter()
            .map(|p| {
                s.spawn(move || {
                    // lint: allow(raw-clock)
                    let t0 = std::time::Instant::now();
                    let mut out = PassOutput::default();
                    p.run(cx, &mut out);
                    (out, t0.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis pass panicked"))
            .collect()
    });

    let mut reports = Vec::new();
    let mut used: BTreeSet<(PathBuf, usize, String)> = BTreeSet::new();
    for (pass, (out, wall_ms)) in passes.iter().zip(timed) {
        reports.push(PassReport {
            name: pass.name(),
            findings: out.violations.len(),
            wall_ms,
        });
        violations.extend(out.violations);
        used.extend(out.used_escapes);
    }

    if cx.audit_escapes {
        for file in &cx.ws.files {
            for a in &file.lexed.analyze_allows {
                if !known_escape_key(&passes, &a.pass) {
                    continue; // already reported as analyze-allow
                }
                if !used.contains(&(file.rel.clone(), a.line, a.pass.clone())) {
                    violations.push(Violation {
                        path: file.rel.clone(),
                        line: a.line,
                        rule: "stale-allow",
                        msg: format!(
                            "escape `analyze: allow({})` suppresses nothing — remove it",
                            a.pass
                        ),
                    });
                }
            }
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    AnalyzeReport {
        violations,
        passes: reports,
    }
}
