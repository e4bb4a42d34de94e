//! `cargo xtask` — repo-local verification tasks.
//!
//! Two subcommands:
//!
//! * `lint` — a token-level pass over every Rust source file in the
//!   workspace (plus the standalone `ct-sync` and `xtask` crates)
//!   enforcing the project conventions rustc and clippy cannot see.
//!   See [`rules`] for the rule table.
//! * `analyze` — the static analyzer: a recursive-descent item parser
//!   ([`parser`]) over the masking lexer, a conservative workspace call
//!   graph ([`callgraph`]), and five passes ([`passes`]):
//!   panic-reachability from the hot-path `root` entries, crate-layering
//!   DAG checks, hash-order determinism lints over the `result-crate`
//!   entries, lock discipline (order cycles, blocking under a guard,
//!   condvar waits without a re-check loop) over the guard scopes
//!   extracted by [`guards`], and allocation-reachability from the
//!   `alloc-root` entries. After the passes run, every
//!   `analyze: allow(..)` / `lint: allow(..)` escape that no longer
//!   suppresses a finding is reported as `stale-allow`. Roots, blocking
//!   prefixes and the declared layering live in `ci/analyze.conf`;
//!   `--roots a,b` overrides the roots for ad-hoc queries, `--dir
//!   <path>` analyzes another tree (used by CI to assert the
//!   negative-control fixtures still fail), `--format json` emits the
//!   `ifdk-analyze/v3` findings document for CI artifacts.
//!
//! Float rules live outside the analyzer: the root `clippy.toml` bans
//! `f32::mul_add` / `f64::mul_add` workspace-wide, and the bitwise
//! equivalence tests referee summation order.
//!
//! Exit codes follow the repo's gate contract for both subcommands:
//! 0 = clean, 1 = violations found, 3 = usage / internal error.

#![forbid(unsafe_code)]

mod callgraph;
mod config;
mod guards;
mod jsonout;
mod lexer;
mod parser;
mod passes;
mod rules;
mod workspace;

use rules::Violation;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <lint | analyze [--roots <qual,..>] [--dir <path>] \
     [--format <text|json>]>";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => report("lint", lint(&repo_root())),
        Some("analyze") => match parse_analyze_args(&args[1..]) {
            Ok(opts) => {
                let root = opts.dir.unwrap_or_else(repo_root);
                let result = analyze(&root, opts.roots.as_deref());
                match opts.format {
                    Format::Text => report("analyze", result.map(|r| r.violations)),
                    Format::Json => report_json("analyze", result),
                }
            }
            Err(e) => {
                eprintln!("xtask analyze: {e}");
                eprintln!("{USAGE}");
                ExitCode::from(3)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(3)
        }
    }
}

/// Shared 0/1/3 reporting for both subcommands.
fn report(what: &str, result: Result<Vec<Violation>, String>) -> ExitCode {
    match result {
        Ok(violations) if violations.is_empty() => {
            eprintln!("xtask {what}: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("xtask {what}: {} violation(s)", violations.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("xtask {what}: {e}");
            ExitCode::from(3)
        }
    }
}

/// `--format json`: one `ifdk-analyze/v3` object on stdout, same exit
/// codes as the text reporter (CI archives the document as an artifact
/// while the exit code still gates the job).
fn report_json(what: &str, result: Result<passes::AnalyzeReport, String>) -> ExitCode {
    match result {
        Ok(report) => {
            print!("{}", jsonout::findings_doc(what, &report));
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            print!("{}", jsonout::error_doc(&e));
            ExitCode::from(3)
        }
    }
}

struct AnalyzeArgs {
    dir: Option<PathBuf>,
    roots: Option<Vec<String>>,
    format: Format,
}

fn parse_analyze_args(args: &[String]) -> Result<AnalyzeArgs, String> {
    let mut opts = AnalyzeArgs {
        dir: None,
        roots: None,
        format: Format::Text,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--roots" => {
                let v = it.next().ok_or("--roots needs a value")?;
                opts.roots = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--dir" => {
                opts.dir = Some(PathBuf::from(it.next().ok_or("--dir needs a value")?));
            }
            "--format" => {
                opts.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some(other) => return Err(format!("unknown format {other:?}")),
                    None => return Err("--format needs a value".to_string()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Run the static analyzer over the tree at `root`.
fn analyze(
    root: &Path,
    roots_override: Option<&[String]>,
) -> Result<passes::AnalyzeReport, String> {
    let mut conf = config::Config::load(root)?;
    if let Some(roots) = roots_override {
        conf.roots = roots.to_vec();
    }
    let ws = workspace::load(root)?;
    let graph = callgraph::CallGraph::build(&ws);
    let cx = passes::Analysis {
        ws: &ws,
        graph: &graph,
        conf: &conf,
        // Narrowed ad-hoc reachability must not make honest escapes
        // look dead.
        audit_escapes: roots_override.is_none(),
    };
    let mut report = passes::run_all(&cx);
    if cx.audit_escapes {
        audit_lint_escapes(root, &mut report.violations)?;
        report
            .violations
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }
    Ok(report)
}

/// The lint half of the stale-escape audit: re-derive the unfiltered
/// lint candidates for every linted file and report `lint: allow(..)`
/// directives that no candidate matches — a dead escape is a standing
/// exemption waiting for a future defect to hide under.
fn audit_lint_escapes(root: &Path, out: &mut Vec<Violation>) -> Result<(), String> {
    for (rel, lx, candidates) in lint_candidates(root)? {
        for (l, rule) in &lx.allows {
            let used = candidates
                .iter()
                .any(|v| v.rule == rule && (v.line == *l || v.line == *l + 1));
            if !used {
                out.push(Violation {
                    path: rel.clone(),
                    line: *l,
                    rule: "stale-allow",
                    msg: format!("escape `lint: allow({rule})` suppresses nothing — remove it"),
                });
            }
        }
    }
    Ok(())
}

/// The repo root is two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}

/// Run every rule over the repo; returns violations sorted by location.
fn lint(root: &Path) -> Result<Vec<Violation>, String> {
    let mut out = Vec::new();
    for (_, lx, candidates) in lint_candidates(root)? {
        out.extend(rules::filter_allowed(&lx, candidates));
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(out)
}

/// Unfiltered lint candidates per file — shared by `lint` (which drops
/// the `lint: allow`-suppressed ones) and the analyzer's stale-escape
/// audit (which needs to know what each directive suppresses).
fn lint_candidates(root: &Path) -> Result<Vec<(PathBuf, lexer::Lexed, Vec<Violation>)>, String> {
    let mut files = Vec::new();
    for top in ["crates", "examples", "tests"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();

    let mut out = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path.as_path())
            .to_path_buf();
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lx = lexer::lex(&src);
        let test_flags = lexer::test_lines(&lx.masked);

        let mut candidates = Vec::new();
        if is_lib_root(&rel) {
            rules::check_forbid_unsafe(&rel, &lx, &mut candidates);
        }
        rules::check_bench_exit(&rel, &lx, &mut candidates);
        rules::check_obs_names(&rel, &lx, &mut candidates);
        rules::check_raw_clock(&rel, &lx, &mut candidates);
        if in_library_scope(&rel) {
            rules::check_no_unwrap(&rel, &lx, &test_flags, &mut candidates);
        }
        out.push((rel, lx, candidates));
    }
    Ok(out)
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: every lib
/// target in the repo (`src/lib.rs` under crates/, plus the examples
/// and integration-test helper libs).
fn is_lib_root(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    (s.starts_with("crates/") && s.ends_with("/src/lib.rs"))
        || s == "examples/lib.rs"
        || s == "tests/src/lib.rs"
}

/// Library code for the no-unwrap rule: crate sources under crates/,
/// excluding bin targets (bench regenerators, xtask itself) — binaries
/// may panic on broken invariants at top level, libraries must not.
fn in_library_scope(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    s.starts_with("crates/") && s.contains("/src/") && !s.contains("/src/bin/")
}

/// Recursively collect `.rs` files, skipping build output and analyzer
/// fixtures (which deliberately seed violations).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_are_as_documented() {
        assert!(is_lib_root(Path::new("crates/ifdk/src/lib.rs")));
        assert!(is_lib_root(Path::new("examples/lib.rs")));
        assert!(!is_lib_root(Path::new("crates/bench/src/bin/gups.rs")));
        assert!(in_library_scope(Path::new("crates/ifdk/src/ring.rs")));
        assert!(!in_library_scope(Path::new("crates/bench/src/bin/gups.rs")));
        assert!(!in_library_scope(Path::new("examples/quickstart.rs")));
        assert!(!in_library_scope(Path::new(
            "tests/integration/end_to_end.rs"
        )));
    }

    #[test]
    fn lint_flags_a_seeded_fixture_tree() {
        let dir = std::env::temp_dir().join("xtask-lint-fixture");
        let src_dir = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src_dir).expect("create fixture tree");
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
        )
        .expect("write fixture");
        let found = lint(&dir).expect("lint runs");
        let rendered: Vec<String> = found.iter().map(|v| v.to_string()).collect();
        assert!(
            rendered
                .iter()
                .any(|v| v.starts_with("crates/demo/src/lib.rs:1: [forbid-unsafe]")),
            "{rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.starts_with("crates/demo/src/lib.rs:2: [no-unwrap]")),
            "{rendered:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn negative_fixture() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/negative")
    }

    #[test]
    fn negative_control_fixture_trips_every_pass() {
        let found = analyze(&negative_fixture(), None).expect("analyze runs");
        let rendered: Vec<String> = found.violations.iter().map(|v| v.to_string()).collect();
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[panic-reachable]") && v.contains("demo_a::util::first")),
            "seeded unwrap not caught: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[layering]") && v.contains("cycle")),
            "seeded layering cycle not caught: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[determinism]") && v.contains("counts")),
            "seeded hash-order export not caught: {rendered:?}"
        );
        assert!(
            rendered.iter().any(|v| v.contains("[lock-order]")
                && v.contains("demo_d::Pair::self.a")
                && v.contains("demo_d::Pair::self.b")),
            "seeded ab/ba lock-order cycle not caught: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[lock-blocking]") && v.contains("demo_d::ring::push")),
            "seeded blocking-under-guard not caught: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[lock-wait-loop]") && v.contains("demo_d::Pair::wait_once")),
            "seeded wait-outside-loop not caught: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[alloc-reachable]") && v.contains("demo_e::scratch::copy_out")),
            "seeded reachable allocation not caught: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|v| v.contains("[stale-allow]") && v.contains("demo-b")),
            "seeded stale escape not caught: {rendered:?}"
        );
    }

    #[test]
    fn negative_control_reports_five_passes() {
        let report = analyze(&negative_fixture(), None).expect("analyze runs");
        let names: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "panic-reachable",
                "layering",
                "determinism",
                "lock-discipline",
                "alloc-reachable"
            ]
        );
    }

    #[test]
    fn roots_override_narrows_the_panic_pass() {
        // Pointing the roots at demo-b (which never panics) silences
        // the reachability finding; the seeded layering and determinism
        // defects still fire, so the tree stays red either way.
        let roots = vec!["demo_b".to_string()];
        let found = analyze(&negative_fixture(), Some(&roots)).expect("analyze runs");
        let rendered: Vec<String> = found.violations.iter().map(|v| v.to_string()).collect();
        assert!(
            !rendered.iter().any(|v| v.contains("[panic-reachable]")),
            "{rendered:?}"
        );
        assert!(
            rendered.iter().any(|v| v.contains("[layering]")),
            "{rendered:?}"
        );
    }

    #[test]
    fn self_hosting_lint_and_analyze_are_clean() {
        // xtask is part of the workspace it checks: both subcommands
        // must pass over the repo, exemptions carrying reasons.
        let root = repo_root();
        let lint_found: Vec<String> = lint(&root)
            .expect("lint runs")
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(lint_found.is_empty(), "{lint_found:?}");
        let analyze_found: Vec<String> = analyze(&root, None)
            .expect("analyze runs")
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(analyze_found.is_empty(), "{analyze_found:?}");
    }
}
