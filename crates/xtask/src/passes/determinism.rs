//! Determinism: exported values must not depend on hash-map order.
//!
//! Serialized reports and run records are diffed byte-for-byte, and
//! trace replay assumes a stable event order — so in result-producing
//! crates (`result-crate` lines in `ci/analyze.conf`) iterating a
//! `HashMap`/`HashSet` into anything that is returned or serialized is
//! a latent flake. The pass tracks identifiers bound to hash
//! collections in each file and flags order-dependent consumption:
//! `.iter()`, `.keys()`, `.values()`, `.drain()`, `for _ in &map`, and
//! friends. `BTreeMap`/`BTreeSet` are the sanctioned alternatives;
//! sites that sort after collecting can carry
//! `// analyze: allow(determinism, reason = "...")`.

use super::{Analysis, Pass, PassOutput};
use crate::rules::Violation;
use std::collections::BTreeSet;

pub struct Determinism;

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

impl Pass for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn run(&self, cx: &Analysis<'_>, out: &mut PassOutput) {
        let ws = cx.ws;
        for file in &ws.files {
            let crate_name = &ws.crates[file.crate_idx].name;
            if !cx.conf.result_crates.contains(crate_name) {
                continue;
            }
            let tracked = tracked_idents(&file.lexed.masked);
            if tracked.is_empty() {
                continue;
            }
            for (idx, text) in file.lexed.masked.lines().enumerate() {
                let line = idx + 1;
                if file.test_lines.get(line).copied().unwrap_or(false) {
                    continue;
                }
                for ident in &tracked {
                    let Some(what) = order_dependent_use(text, ident) else {
                        continue;
                    };
                    if let Some(a) = file.lexed.analyze_allowed(line, "determinism") {
                        out.used(&file.rel, a.line, "determinism");
                        if a.reason.is_some() {
                            continue;
                        }
                    }
                    out.violations.push(Violation {
                        path: file.rel.clone(),
                        line,
                        rule: "determinism",
                        msg: format!(
                            "`{ident}` is a HashMap/HashSet and `{what}` iterates it in \
                             arbitrary order; use a BTree collection or sort before export"
                        ),
                    });
                }
            }
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file:
/// `let m = HashMap::new()`, `let m: HashMap<..>`, struct fields and
/// params `m: HashMap<..>`.
fn tracked_idents(masked: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for text in masked.lines() {
        for marker in ["HashMap", "HashSet"] {
            let Some(at) = find_word(text, marker) else {
                continue;
            };
            // `let NAME` on the same line wins.
            if let Some(let_at) = find_word(text, "let") {
                if let_at < at {
                    if let Some(name) = next_ident(&text[let_at + 3..]) {
                        if name != "mut" {
                            out.insert(name);
                        } else if let Some(name) = next_ident(&text[let_at + 3..].trim_start()[3..])
                        {
                            out.insert(name);
                        }
                        continue;
                    }
                }
            }
            // Otherwise `NAME: HashMap<..>` (field / param), where the
            // `:` is not part of `::`.
            let head = &text[..at];
            let head = head.trim_end();
            if let Some(h) = head.strip_suffix(':') {
                if !h.ends_with(':') {
                    if let Some(name) = last_ident(h) {
                        out.insert(name);
                    }
                }
            }
        }
    }
    out
}

/// If `text` consumes `ident` in iteration order, name the consumer.
fn order_dependent_use(text: &str, ident: &str) -> Option<String> {
    let mut from = 0usize;
    while let Some(p) = text[from..].find(ident) {
        let at = from + p;
        from = at + ident.len();
        let b = text.as_bytes();
        let before_ok = at == 0 || {
            let c = b[at - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        if !before_ok {
            continue;
        }
        let rest = &text[at + ident.len()..];
        for m in ITER_METHODS {
            if rest.starts_with(m) {
                return Some(format!("{ident}{}", m.trim_end_matches('(')));
            }
        }
        // `for x in &map` / `for (k, v) in map`.
        let head = text[..at].trim_end();
        let head = head.strip_suffix('&').unwrap_or(head).trim_end();
        if head.ends_with(" in") || head.ends_with("\tin") {
            let after = rest.trim_start();
            if after.is_empty() || after.starts_with('{') {
                return Some(format!("for _ in {ident}"));
            }
        }
    }
    None
}

fn find_word(text: &str, word: &str) -> Option<usize> {
    let b = text.as_bytes();
    let mut from = 0usize;
    while let Some(p) = text[from..].find(word) {
        let at = from + p;
        from = at + word.len();
        let before = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let end = at + word.len();
        let after = end >= text.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if before && after {
            return Some(at);
        }
    }
    None
}

fn next_ident(text: &str) -> Option<String> {
    let t = text.trim_start();
    let end = t
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(t.len());
    (end > 0).then(|| t[..end].to_string())
}

fn last_ident(text: &str) -> Option<String> {
    let t = text.trim_end();
    let start = t
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|p| p + 1)
        .unwrap_or(0);
    (start < t.len()).then(|| t[start..].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_are_tracked_through_let_and_fields() {
        let src = "let mut counts = HashMap::new();\nstruct S { totals: HashMap<String, u64> }\nuse std::collections::HashMap;\n";
        let t = tracked_idents(src);
        assert!(t.contains("counts"), "{t:?}");
        assert!(t.contains("totals"), "{t:?}");
        assert!(!t.contains("collections"), "{t:?}");
        assert!(!t.contains("HashMap"), "{t:?}");
    }

    #[test]
    fn iteration_is_flagged_lookup_is_not() {
        assert!(order_dependent_use("for (k, v) in &counts {", "counts").is_some());
        assert!(order_dependent_use("counts.iter().collect::<Vec<_>>()", "counts").is_some());
        assert!(order_dependent_use("counts.keys()", "counts").is_some());
        assert!(order_dependent_use("counts.get(\"k\")", "counts").is_none());
        assert!(order_dependent_use("counts.insert(k, v);", "counts").is_none());
        assert!(order_dependent_use("recounts.iter()", "counts").is_none());
    }
}
