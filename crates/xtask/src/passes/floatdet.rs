//! Float determinism: the bit-identity contract, analyzer-checked.
//!
//! `ct_bp`'s kernels promise bit-identical volumes for a fixed input
//! regardless of thread count or scheduling. Two things break that
//! promise silently:
//!
//! * **Order-sensitive reductions** (`float-order`): float addition is
//!   not associative, so folding partials in `HashMap` iteration order,
//!   or merging worker results in channel-arrival order, yields a
//!   different bit pattern per run. The documented-deterministic path
//!   is the tiled merge (fixed tile order); anything else that
//!   accumulates floats from an unordered source is flagged. Detection
//!   is a taint dataflow over the CFG: values derived from hash-map
//!   iteration or `recv`-family joins are tainted, and a float
//!   accumulation whose RHS is tainted — or that sits inside a loop
//!   iterating an unordered source — is a finding.
//! * **Ungated FMA** (`float-fma`): `mul_add` contracts to one rounding
//!   on FMA hardware and libm-emulates elsewhere, so a `.mul_add(..)`
//!   reachable from a strict-mode kernel root must sit behind an
//!   explicit FMA gate. The CFG records match-arm patterns and
//!   if-conditions as edge conditions; a boolean "may be ungated"
//!   dataflow clears on edges whose condition names the Fma gate, and
//!   any `.mul_add` still reachable in the may-ungated state is a
//!   finding.
//!
//! Escapes: `// analyze: allow(float, reason = "...")` (full name
//! `float-determinism` accepted). Roots come from the `float-root`
//! lines of `ci/analyze.conf`.

use super::{Analysis, Pass, PassOutput};
use crate::callgraph;
use crate::cfg::{self, StmtKind};
use crate::dataflow::{self, Lattice};
use crate::passes::determinism::{order_dependent_use, tracked_idents};
use crate::rules::Violation;
use std::collections::BTreeSet;

pub struct FloatDeterminism;

/// Taint lattice: the set of variables whose value may depend on an
/// unordered iteration or arrival order. Join is union.
#[derive(Clone, PartialEq, Default)]
struct Taint {
    vars: BTreeSet<String>,
}

impl Lattice for Taint {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.vars.len();
        self.vars.extend(other.vars.iter().cloned());
        self.vars.len() != before
    }
}

/// "May be ungated" lattice for the FMA pass: true until an edge whose
/// condition names the FMA gate is taken. Join is OR.
#[derive(Clone, PartialEq)]
struct MayUngated(bool);

impl Lattice for MayUngated {
    fn join(&mut self, other: &Self) -> bool {
        let grew = !self.0 && other.0;
        self.0 |= other.0;
        grew
    }
}

/// Channel/thread-join receivers whose arrival order is scheduling-
/// dependent.
const RECV_FAMILY: &[&str] = &[".recv()", ".try_recv()", ".recv_timeout(", ".try_iter()"];

impl Pass for FloatDeterminism {
    fn name(&self) -> &'static str {
        "float-determinism"
    }

    fn run(&self, cx: &Analysis<'_>, out: &mut PassOutput) {
        self.check_fma(cx, out);
        self.check_order(cx, out);
    }
}

impl FloatDeterminism {
    /// `float-fma`: `.mul_add` reachable from a strict root and not
    /// dominated by an FMA-gate check.
    fn check_fma(&self, cx: &Analysis<'_>, out: &mut PassOutput) {
        let ws = cx.ws;
        let roots: Vec<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && !f.cfg_off
                    && cx
                        .conf
                        .float_roots
                        .iter()
                        .any(|r| f.qual == *r || f.qual.starts_with(&format!("{r}::")))
            })
            .map(|(i, _)| i)
            .collect();
        let pred = cx.graph.reach(&roots);

        for &fi in pred.keys() {
            let f = &ws.fns[fi];
            let Some((b0, b1)) = f.body else { continue };
            let file = &ws.files[f.file];
            let masked = &file.lexed.masked;
            if !masked[b0..b1.min(masked.len())].contains(".mul_add(") {
                continue;
            }
            out.stat("fma_fns_checked", 1);

            let g = cfg::lower(masked, (b0, b1));
            out.stat("cfg_blocks", g.blocks.len() as u64);
            let sol = dataflow::forward(
                &g,
                MayUngated(true),
                |_, _, state| state.clone(),
                |cond, state| {
                    if cond.polarity && names_fma_gate(&masked[cond.span.0..cond.span.1]) {
                        MayUngated(false)
                    } else {
                        state.clone()
                    }
                },
            );
            out.stat("solver_iterations", sol.iterations as u64);

            for (bi, blk) in g.blocks.iter().enumerate() {
                let ungated = sol.inputs[bi].as_ref().is_some_and(|s| s.0);
                if !ungated {
                    continue;
                }
                for s in &blk.stmts {
                    let text = &masked[s.span.0..s.span.1.min(masked.len())];
                    let Some(p) = text.find(".mul_add(") else {
                        continue;
                    };
                    let line = callgraph::line_of(masked, s.span.0 + p);
                    if file.test_lines.get(line).copied().unwrap_or(false) {
                        continue;
                    }
                    if escaped(file, line, out, "mul_add call") {
                        continue;
                    }
                    out.violations.push(Violation {
                        path: file.rel.clone(),
                        line,
                        rule: "float-fma",
                        msg: format!(
                            "`mul_add` in `{}` is reachable from a strict-mode kernel root \
                             without an FMA gate check — contraction changes the rounding; \
                             gate it behind an explicit FMA mode",
                            f.qual
                        ),
                    });
                }
            }
        }
    }

    /// `float-order`: float accumulation fed by hash-order iteration or
    /// channel-arrival joins, anywhere in production code.
    fn check_order(&self, cx: &Analysis<'_>, out: &mut PassOutput) {
        let ws = cx.ws;
        for (fi, f) in ws.fns.iter().enumerate() {
            if f.is_test || f.cfg_off {
                continue;
            }
            let Some((b0, b1)) = f.body else { continue };
            let file = &ws.files[f.file];
            let masked = &file.lexed.masked;
            let body = &masked[b0..b1.min(masked.len())];
            // Cheap pre-filter: the function must both touch an
            // unordered source and accumulate.
            let hash_tracked = tracked_idents(masked);
            let has_unordered =
                !hash_tracked.is_empty() || RECV_FAMILY.iter().any(|m| body.contains(m));
            let accumulates = body.contains("+=")
                || body.contains(".sum")
                || body.contains(".fold(")
                || body.contains(".product");
            if !has_unordered || !accumulates {
                continue;
            }
            out.stat("order_fns_checked", 1);
            let _ = fi;

            let g = cfg::lower(masked, (b0, b1));
            out.stat("cfg_blocks", g.blocks.len() as u64);

            // Loop heads iterating an unordered source: any accumulation
            // under them folds in that order.
            let unordered_head = |head: usize| -> bool {
                g.blocks[head].stmts.iter().any(|s| match &s.kind {
                    StmtKind::ForHead { iter, .. } => {
                        let it = &masked[iter.0..iter.1];
                        hash_tracked
                            .iter()
                            .any(|id| order_dependent_use(it, id).is_some())
                            || RECV_FAMILY.iter().any(|m| it.contains(m))
                            || it.contains(".try_iter()")
                    }
                    _ => false,
                })
            };

            let sol = dataflow::forward(
                &g,
                Taint::default(),
                |_, blk, state| {
                    let mut t = state.clone();
                    for s in &blk.stmts {
                        taint_stmt(masked, s, &hash_tracked, &mut t);
                    }
                    t
                },
                |_, state| state.clone(),
            );
            out.stat("solver_iterations", sol.iterations as u64);

            for (bi, blk) in g.blocks.iter().enumerate() {
                let Some(in_state) = &sol.inputs[bi] else {
                    continue;
                };
                let mut taint = in_state.clone();
                let in_unordered_loop = blk.encl_heads.iter().any(|&h| unordered_head(h))
                    || (blk.loop_head && unordered_head(bi));
                for s in &blk.stmts {
                    let text = masked[s.span.0..s.span.1.min(masked.len())].trim();
                    if let Some((acc, rhs)) = float_accumulation(text, ws) {
                        let rhs_tainted = taint.vars.iter().any(|v| contains_word(rhs, v))
                            || expr_unordered(rhs, &hash_tracked);
                        if rhs_tainted || in_unordered_loop {
                            let line = callgraph::line_of(masked, s.span.0);
                            if !file.test_lines.get(line).copied().unwrap_or(false)
                                && !escaped(file, line, out, "order-sensitive reduction")
                            {
                                let how = if in_unordered_loop {
                                    "inside a loop over an unordered source"
                                } else {
                                    "from an order-tainted value"
                                };
                                out.violations.push(Violation {
                                    path: file.rel.clone(),
                                    line,
                                    rule: "float-order",
                                    msg: format!(
                                        "float accumulator `{acc}` in `{}` is folded {how} — \
                                         summation order changes the bits; sort keys or use \
                                         the tiled merge",
                                        f.qual
                                    ),
                                });
                            }
                        }
                    } else if let Some(what) = single_stmt_reduction(text, &hash_tracked, ws) {
                        let line = callgraph::line_of(masked, s.span.0);
                        if !file.test_lines.get(line).copied().unwrap_or(false)
                            && !escaped(file, line, out, "order-sensitive reduction")
                        {
                            out.violations.push(Violation {
                                path: file.rel.clone(),
                                line,
                                rule: "float-order",
                                msg: format!(
                                    "float reduction `{what}` in `{}` folds an unordered \
                                     source — summation order changes the bits",
                                    f.qual
                                ),
                            });
                        }
                    }
                    taint_stmt(masked, s, &hash_tracked, &mut taint);
                }
            }
        }
    }
}

/// Mark an escape used and report a missing reason; true when the
/// finding is suppressed (well-formed or not — the directive is live).
fn escaped(
    file: &crate::workspace::FileInfo,
    line: usize,
    out: &mut PassOutput,
    what: &str,
) -> bool {
    let hit = file
        .lexed
        .analyze_allowed(line, "float")
        .map(|a| ("float", a))
        .or_else(|| {
            file.lexed
                .analyze_allowed(line, "float-determinism")
                .map(|a| ("float-determinism", a))
        });
    match hit {
        Some((key, a)) => {
            out.used(&file.rel, a.line, key);
            if a.reason.is_none() {
                out.violations.push(Violation {
                    path: file.rel.clone(),
                    line,
                    rule: "float-allow",
                    msg: format!(
                        "exemption for {what} is missing its reason — write \
                         analyze: allow(float, reason = \"...\")"
                    ),
                });
            }
            true
        }
        None => false,
    }
}

/// Does a condition text name the FMA gate? Matches the workspace
/// idiom: `Kernel::LanesFma`, `Fma => ..` match arms, `use_fma`,
/// `cfg!(target_feature = "fma")`, `has_fma`.
fn names_fma_gate(cond: &str) -> bool {
    cond.contains("Fma") || cond.contains("fma")
}

/// Statement-level taint transfer: a binding or assignment whose RHS
/// consumes an unordered source (or an already-tainted var) taints the
/// bound name; for-loops over unordered sources taint their pattern.
fn taint_stmt(masked: &str, s: &cfg::Stmt, hash_tracked: &BTreeSet<String>, t: &mut Taint) {
    match &s.kind {
        StmtKind::ForHead { pat, iter } => {
            let it = &masked[iter.0..iter.1];
            if expr_unordered(it, hash_tracked) || t.vars.iter().any(|v| contains_word(it, v)) {
                for name in idents_of(&masked[pat.0..pat.1]) {
                    t.vars.insert(name);
                }
            }
        }
        StmtKind::BindOpaque { name } => {
            // A `let r = loop { .. }` result: opaque, keep untainted —
            // the loop body's own accumulations were already checked.
            let _ = name;
        }
        StmtKind::Plain => {
            let text = masked[s.span.0..s.span.1.min(masked.len())].trim();
            let (lhs, rhs) = match split_binding(text) {
                Some(p) => p,
                None => return,
            };
            let dirty =
                expr_unordered(rhs, hash_tracked) || t.vars.iter().any(|v| contains_word(rhs, v));
            if dirty {
                for name in idents_of(lhs) {
                    t.vars.insert(name);
                }
            }
        }
    }
}

/// `let PAT = RHS` or `PLACE = RHS` (plain `=` only).
fn split_binding(text: &str) -> Option<(&str, &str)> {
    let (head, rest) = match text.strip_prefix("let ") {
        Some(r) => {
            let eq = find_plain_eq(r)?;
            (&r[..eq], &r[eq + 1..])
        }
        None => {
            let eq = find_plain_eq(text)?;
            (&text[..eq], &text[eq + 1..])
        }
    };
    Some((head.trim(), rest.trim()))
}

fn find_plain_eq(t: &str) -> Option<usize> {
    let b = t.as_bytes();
    let mut depth = 0i32;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = if i > 0 { b[i - 1] } else { b' ' };
                let next = b.get(i + 1).copied().unwrap_or(b' ');
                if next != b'='
                    && !matches!(
                        prev,
                        b'=' | b'!'
                            | b'<'
                            | b'>'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                    )
                {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Does an expression consume an unordered source directly?
fn expr_unordered(expr: &str, hash_tracked: &BTreeSet<String>) -> bool {
    hash_tracked
        .iter()
        .any(|id| order_dependent_use(expr, id).is_some())
        || RECV_FAMILY.iter().any(|m| expr.contains(m))
}

/// `ACC += RHS` / `*ACC += RHS` where ACC is a known float identifier
/// or the RHS carries float evidence.
fn float_accumulation<'a>(
    text: &'a str,
    ws: &crate::workspace::Workspace,
) -> Option<(String, &'a str)> {
    let p = text.find("+=")?;
    let lhs = text[..p].trim().trim_start_matches('*').trim();
    let rhs = text[p + 2..].trim();
    let acc = lhs.rsplit('.').next().unwrap_or(lhs).trim();
    if acc.is_empty() || !acc.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let is_float = ws.float_idents.contains(acc)
        || rhs.contains("f32")
        || rhs.contains("f64")
        || rhs.contains(".0 ")
        || rhs.ends_with(".0");
    is_float.then(|| (acc.to_string(), rhs))
}

/// One-statement reductions: `map.values().sum::<f32>()` and friends.
fn single_stmt_reduction(
    text: &str,
    hash_tracked: &BTreeSet<String>,
    ws: &crate::workspace::Workspace,
) -> Option<String> {
    let red = [
        ".sum::<f32>",
        ".sum::<f64>",
        ".fold(",
        ".product::<f32>",
        ".product::<f64>",
    ]
    .iter()
    .find(|m| text.contains(**m))?;
    if !expr_unordered(text, hash_tracked) {
        return None;
    }
    // `.fold(` needs float evidence; the typed sums carry their own.
    if *red == ".fold(" {
        let floaty = text.contains("f32")
            || text.contains("f64")
            || text.contains("0.0")
            || idents_of(text)
                .iter()
                .any(|id| ws.float_idents.contains(id.as_str()));
        if !floaty {
            return None;
        }
    }
    let start = text.find(*red)?;
    let head = text[..start]
        .rsplit(|c: char| c.is_whitespace() || c == '=')
        .next()?;
    Some(format!("{}{}..", head.trim(), red.trim_end_matches('(')))
}

fn contains_word(text: &str, word: &str) -> bool {
    let b = text.as_bytes();
    let mut from = 0usize;
    while let Some(p) = text[from..].find(word) {
        let at = from + p;
        from = at + word.len();
        let before = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let end = at + word.len();
        let after = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if before && after {
            return true;
        }
    }
    false
}

fn idents_of(pat: &str) -> Vec<String> {
    pat.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| {
            !s.is_empty()
                && !s.starts_with(|c: char| c.is_ascii_digit())
                && !["mut", "ref", "let", "_"].contains(s)
        })
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_gate_names_match_workspace_idioms() {
        assert!(names_fma_gate("Kernel::LanesFma"));
        assert!(names_fma_gate("use_fma"));
        assert!(names_fma_gate("cfg!(target_feature = \"fma\")"));
        assert!(!names_fma_gate("Kernel::Warp"));
    }

    #[test]
    fn binding_split_ignores_comparisons() {
        assert_eq!(split_binding("let x = y.recv()"), Some(("x", "y.recv()")));
        assert_eq!(
            split_binding("total = total + v"),
            Some(("total", "total + v"))
        );
        assert!(split_binding("if a == b {").is_none());
        assert!(split_binding("x += 1").is_none());
    }

    #[test]
    fn word_containment_is_boundary_aware() {
        assert!(contains_word("a + part", "part"));
        assert!(!contains_word("partial", "part"));
        assert!(contains_word("(part)", "part"));
    }
}
