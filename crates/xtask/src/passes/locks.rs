//! Lock discipline: keep the producer/consumer overlap deadlock-free.
//!
//! Three rules over the guard scopes extracted by [`crate::guards`] and
//! the conservative call graph:
//!
//! * `lock-order` — a cycle in the lock-acquisition-order graph. An
//!   edge `A -> B` is recorded whenever lock `B` is acquired (directly,
//!   or transitively through a call) while a guard on `A` is live; a
//!   cycle means two threads can each hold one lock and wait for the
//!   other.
//! * `lock-blocking` — a call that can reach a declared blocking
//!   operation (`blocking` lines in `ci/analyze.conf`: ring push/pop,
//!   channel send/recv, condvar waits, parallel-fs I/O) while a guard
//!   is live. Blocking under a lock stalls every other thread that
//!   needs the lock for as long as the blocked thread sleeps.
//!   Exception: `cv.wait(&mut g)` atomically releases `g`'s own mutex —
//!   the call is only flagged for *other* guards held across it.
//! * `lock-wait-loop` — a `Condvar::wait`/`wait_timeout` call not
//!   syntactically inside a `while`/`loop`: condvars wake spuriously,
//!   so the predicate must be re-checked.
//!
//! Lock identity is textual: `crate::SelfType::receiver` (e.g.
//! `ct_sync::RingBuffer::self.shared.state`). Two syntactically
//! different paths to the same mutex are two keys (missed orderings,
//! never false aliasing); see DESIGN §6c for the full envelope.
//! Exemptions: `analyze: allow(lock, reason = "...")`, reason
//! mandatory.

use super::{Analysis, Pass, PassOutput};
use crate::callgraph::line_of;
use crate::guards;
use crate::rules::Violation;
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub struct LockDiscipline;

impl Pass for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn run(&self, cx: &Analysis<'_>, out: &mut PassOutput) {
        let ws = cx.ws;
        let n = ws.fns.len();

        // Which functions may block? Seed from the declared `blocking`
        // prefixes, then walk the call graph backwards; `next[f]` is the
        // callee one step closer to the blocking site, for reporting.
        let mut next: Vec<Option<usize>> = vec![None; n];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, es) in cx.graph.edges.iter().enumerate() {
            for &(t, _) in es {
                rev[t].push(i);
            }
        }
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, f) in ws.fns.iter().enumerate() {
            if f.is_test || f.cfg_off {
                continue;
            }
            let declared = cx
                .conf
                .blocking
                .iter()
                .any(|r| f.qual == *r || f.qual.starts_with(&format!("{r}::")));
            if declared {
                next[i] = Some(i);
                queue.push_back(i);
            }
        }
        while let Some(t) = queue.pop_front() {
            for &caller in &rev[t] {
                if next[caller].is_none() {
                    next[caller] = Some(t);
                    queue.push_back(caller);
                }
            }
        }

        // Guard scopes and direct lock keys per function.
        let mut fn_guards: Vec<Vec<guards::Guard>> = vec![Vec::new(); n];
        let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        for (i, f) in ws.fns.iter().enumerate() {
            if f.is_test || f.cfg_off {
                continue;
            }
            let Some((b0, b1)) = f.body else { continue };
            let masked = &ws.files[f.file].lexed.masked;
            let gs = guards::guard_scopes(masked, b0, b1);
            for g in &gs {
                direct[i].insert(lock_key(ws, i, &g.receiver));
            }
            fn_guards[i] = gs;
        }

        // Transitive acquire sets, to a fixpoint. The graph is small
        // (hundreds of fns, a handful of lock keys) so the naive
        // iteration converges in a few rounds.
        let mut acq = direct.clone();
        loop {
            let mut changed = false;
            for i in 0..n {
                for &(t, _) in &cx.graph.edges[i] {
                    if t == i {
                        continue;
                    }
                    let add: Vec<String> = acq[t].difference(&acq[i]).cloned().collect();
                    if !add.is_empty() {
                        acq[i].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut reported: BTreeSet<(usize, usize, &'static str)> = BTreeSet::new();
        // Acquisition-order edges: key -> key, anchored at the first
        // site that witnesses the edge.
        let mut order: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();

        for (i, f) in ws.fns.iter().enumerate() {
            if f.is_test || f.cfg_off {
                continue;
            }
            let file = &ws.files[f.file];
            let masked = &file.lexed.masked;
            let waits = f
                .body
                .map(|(b0, b1)| guards::wait_sites(masked, b0, b1))
                .unwrap_or_default();
            for g in &fn_guards[i] {
                let held = lock_key(ws, i, &g.receiver);
                // Nested direct acquisitions.
                for g2 in &fn_guards[i] {
                    if g.covers(g2.at) {
                        let inner = lock_key(ws, i, &g2.receiver);
                        if inner != held {
                            record_edge(&mut order, held.clone(), inner, f.file, g2.at);
                        }
                    }
                }
                for &(t, at) in &cx.graph.edges[i] {
                    if !g.covers(at) {
                        continue;
                    }
                    let line = line_of(masked, at);
                    if file.test_lines.get(line).copied().unwrap_or(false) {
                        continue;
                    }
                    // Transitive acquisitions through the callee.
                    for inner in &acq[t] {
                        if *inner != held {
                            record_edge(&mut order, held.clone(), inner.clone(), f.file, at);
                        }
                    }
                    // Blocking call under the guard.
                    let Some(first_hop) = next[t] else { continue };
                    if is_wait_releasing(masked, at, &waits, g) {
                        continue;
                    }
                    if !reported.insert((f.file, line, "lock-blocking")) {
                        continue;
                    }
                    match file.lexed.analyze_allowed(line, "lock") {
                        Some(a) => {
                            out.used(&file.rel, a.line, "lock");
                            if a.reason.is_none() {
                                out.violations
                                    .push(missing_reason(file, line, "blocking call"));
                            }
                        }
                        None => {
                            let sink = blocking_chain(ws, &next, t);
                            out.violations.push(Violation {
                                path: file.rel.clone(),
                                line,
                                rule: "lock-blocking",
                                msg: format!(
                                    "call to `{}` can block ({sink}) while `{held}` is held \
                                     (acquired line {})",
                                    ws.fns[first_hop].qual,
                                    line_of(masked, g.at),
                                ),
                            });
                        }
                    }
                }
            }

            // Condvar waits must re-check their predicate in a loop.
            for w in &waits {
                let line = line_of(masked, w.at);
                if w.in_loop
                    || file.test_lines.get(line).copied().unwrap_or(false)
                    || !reported.insert((f.file, line, "lock-wait-loop"))
                {
                    continue;
                }
                match file.lexed.analyze_allowed(line, "lock") {
                    Some(a) => {
                        out.used(&file.rel, a.line, "lock");
                        if a.reason.is_none() {
                            out.violations
                                .push(missing_reason(file, line, "wait outside a loop"));
                        }
                    }
                    None => out.violations.push(Violation {
                        path: file.rel.clone(),
                        line,
                        rule: "lock-wait-loop",
                        msg: format!(
                            "condvar wait in `{}` is not inside a `while`/`loop` predicate \
                             re-check — condvars wake spuriously",
                            f.qual
                        ),
                    }),
                }
            }
        }

        // Drop order edges the code exempts (reason mandatory), then
        // look for a cycle in what remains.
        type KeptEdge<'a> = (&'a (String, String), &'a (usize, usize));
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut kept: Vec<KeptEdge> = Vec::new();
        for (edge, site) in &order {
            let file = &ws.files[site.0];
            let line = line_of(&file.lexed.masked, site.1);
            if file.test_lines.get(line).copied().unwrap_or(false) {
                continue;
            }
            if let Some(a) = file.lexed.analyze_allowed(line, "lock") {
                out.used(&file.rel, a.line, "lock");
                if a.reason.is_none() && reported.insert((site.0, line, "lock-allow")) {
                    out.violations
                        .push(missing_reason(file, line, "lock-order edge"));
                }
                continue;
            }
            adj.entry(edge.0.as_str())
                .or_default()
                .push(edge.1.as_str());
            adj.entry(edge.1.as_str()).or_default();
            kept.push((edge, site));
        }
        if let Some(cycle) = find_cycle(&adj) {
            // Anchor the report at the lexically smallest participating
            // edge site so re-runs are stable.
            let on_cycle = |a: &str, b: &str| cycle.windows(2).any(|w| w[0] == a && w[1] == b);
            let site = kept
                .iter()
                .filter(|(e, _)| on_cycle(&e.0, &e.1))
                .map(|&(_, s)| *s)
                .min();
            if let Some((fi, at)) = site {
                let file = &ws.files[fi];
                out.violations.push(Violation {
                    path: file.rel.clone(),
                    line: line_of(&file.lexed.masked, at),
                    rule: "lock-order",
                    msg: format!(
                        "lock-order cycle (potential deadlock): {}",
                        cycle.join(" -> ")
                    ),
                });
            }
        }
    }
}

/// Textual lock identity: crate, enclosing type, receiver path.
fn lock_key(ws: &Workspace, fi: usize, receiver: &str) -> String {
    let f = &ws.fns[fi];
    let krate = f.module.first().map(String::as_str).unwrap_or("");
    match &f.self_type {
        Some(t) => format!("{krate}::{t}::{receiver}"),
        None => format!("{krate}::{receiver}"),
    }
}

fn record_edge(
    order: &mut BTreeMap<(String, String), (usize, usize)>,
    from: String,
    to: String,
    file: usize,
    at: usize,
) {
    order.entry((from, to)).or_insert((file, at));
}

/// `cv.wait(&mut g)` releases `g`'s mutex for the duration of the wait:
/// if the call at `at` is a wait site whose arguments name this guard's
/// binding, it does not block *under* that guard.
fn is_wait_releasing(
    masked: &str,
    at: usize,
    waits: &[guards::WaitSite],
    g: &guards::Guard,
) -> bool {
    if !masked[at..].starts_with(".wait") {
        return false;
    }
    let Some(name) = g.name.as_deref() else {
        return false;
    };
    waits
        .iter()
        .any(|w| w.at == at && guards::args_name_guard(&w.args, name))
}

fn missing_reason(file: &crate::workspace::FileInfo, line: usize, what: &str) -> Violation {
    Violation {
        path: file.rel.clone(),
        line,
        rule: "lock-allow",
        msg: format!(
            "exemption for {what} is missing its reason — write \
             analyze: allow(lock, reason = \"...\")"
        ),
    }
}

/// Render `f -> ... -> blocking` through the `next` hop pointers.
fn blocking_chain(ws: &Workspace, next: &[Option<usize>], start: usize) -> String {
    let mut quals = vec![ws.fns[start].qual.clone()];
    let mut cur = start;
    while let Some(t) = next[cur] {
        if t == cur {
            break;
        }
        quals.push(ws.fns[t].qual.clone());
        cur = t;
    }
    if quals.len() == 1 {
        format!("declared blocking: `{}`", quals[0])
    } else {
        format!(
            "reaches `{}` via {}",
            quals[quals.len() - 1],
            quals.join(" -> ")
        )
    }
}

/// One cycle in the acquisition-order graph, as `[a, b, .., a]`, or
/// `None`. White/grey/black DFS, deterministic over the BTreeMap order.
fn find_cycle<'a>(adj: &BTreeMap<&'a str, Vec<&'a str>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<&str, Mark> = adj.keys().map(|&k| (k, Mark::White)).collect();

    fn visit<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        for &t in adj.get(node).map(Vec::as_slice).unwrap_or(&[]) {
            match marks.get(t).copied().unwrap_or(Mark::White) {
                Mark::Grey => {
                    let from = stack.iter().position(|&s| s == t).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| s.to_string()).collect();
                    cycle.push(t.to_string());
                    return Some(cycle);
                }
                Mark::White => {
                    if let Some(c) = visit(t, adj, marks, stack) {
                        return Some(c);
                    }
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }

    let keys: Vec<&str> = adj.keys().copied().collect();
    for k in keys {
        if marks.get(k) == Some(&Mark::White) {
            let mut stack = Vec::new();
            if let Some(c) = visit(k, adj, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::config::Config;

    fn analyze_fixture(tag: &str, lib: &str, blocking: &[&str]) -> Vec<String> {
        let dir = std::env::temp_dir().join(format!("xtask-locks-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/demo/src")).expect("fixture dir");
        std::fs::write(
            dir.join("crates/demo/Cargo.toml"),
            "[package]\nname = \"demo\"\n",
        )
        .expect("manifest");
        std::fs::write(dir.join("crates/demo/src/lib.rs"), lib).expect("lib");
        let ws = crate::workspace::load(&dir).expect("workspace loads");
        std::fs::remove_dir_all(&dir).ok();
        let graph = CallGraph::build(&ws);
        let conf = Config {
            roots: Vec::new(),
            layers: BTreeMap::new(),
            result_crates: Vec::new(),
            alloc_roots: Vec::new(),
            blocking: blocking.iter().map(|s| s.to_string()).collect(),
            path: dir.join("ci/analyze.conf"),
        };
        let cx = Analysis {
            ws: &ws,
            graph: &graph,
            conf: &conf,
            audit_escapes: true,
        };
        let mut out = PassOutput::default();
        LockDiscipline.run(&cx, &mut out);
        out.violations.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn blocking_call_under_guard_is_flagged() {
        let got = analyze_fixture(
            "block",
            "pub struct M;\nimpl M {\n    pub fn lock(&self) -> u32 { 0 }\n}\n\
             pub fn push(x: u32) -> u32 { x }\n\
             pub struct S { m: M }\nimpl S {\n\
                 pub fn bad(&self) {\n        let g = self.m.lock();\n        push(g);\n    }\n\
                 pub fn good(&self) {\n        let g = self.m.lock();\n        drop(g);\n        push(1);\n    }\n}\n",
            &["demo::push"],
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("[lock-blocking]"), "{got:?}");
        assert!(got[0].contains("demo::push"), "{got:?}");
    }

    #[test]
    fn lock_order_cycle_across_two_methods_is_flagged() {
        let got = analyze_fixture(
            "cycle",
            "pub struct M;\nimpl M {\n    pub fn lock(&self) -> u32 { 0 }\n}\n\
             pub struct P { a: M, b: M }\nimpl P {\n\
                 pub fn ab(&self) {\n        let g = self.a.lock();\n        let h = self.b.lock();\n        drop(h);\n        drop(g);\n    }\n\
                 pub fn ba(&self) {\n        let g = self.b.lock();\n        let h = self.a.lock();\n        drop(h);\n        drop(g);\n    }\n}\n",
            &[],
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("[lock-order]"), "{got:?}");
        assert!(got[0].contains("self.a"), "{got:?}");
        assert!(got[0].contains("self.b"), "{got:?}");
    }

    #[test]
    fn transitive_acquire_through_a_call_builds_the_edge() {
        // `outer` holds `a` and calls `inner`, which locks `b`;
        // `other` holds `b` and locks `a` directly — cycle.
        let got = analyze_fixture(
            "transitive",
            "pub struct M;\nimpl M {\n    pub fn lock(&self) -> u32 { 0 }\n}\n\
             pub struct P { a: M, b: M }\nimpl P {\n\
                 pub fn outer(&self) {\n        let g = self.a.lock();\n        self.inner();\n        drop(g);\n    }\n\
                 pub fn inner(&self) {\n        let h = self.b.lock();\n        drop(h);\n    }\n\
                 pub fn other(&self) {\n        let g = self.b.lock();\n        let h = self.a.lock();\n        drop(h);\n        drop(g);\n    }\n}\n",
            &[],
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("[lock-order]"), "{got:?}");
    }

    #[test]
    fn wait_not_in_loop_is_flagged_and_wait_on_own_guard_is_not_blocking() {
        let got = analyze_fixture(
            "wait",
            "pub struct M;\nimpl M {\n    pub fn lock(&self) -> u32 { 0 }\n}\n\
             pub struct C;\nimpl C {\n    pub fn wait(&self, g: &mut u32) {}\n}\n\
             pub struct S { m: M, cv: C }\nimpl S {\n\
                 pub fn once(&self) {\n        let mut g = self.m.lock();\n        self.cv.wait(&mut g);\n    }\n\
                 pub fn looped(&self) {\n        let mut g = self.m.lock();\n        while g == 0 {\n            self.cv.wait(&mut g);\n        }\n    }\n\
                 pub fn relay(&self, g: &mut u32) {\n        self.cv.wait(g);\n    }\n}\n",
            &["demo::C::wait"],
        );
        // `once` holds its own guard, `relay` holds none — the wait-loop
        // rule must fire either way; `looped` re-checks and is clean.
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(
            got.iter().all(|v| v.contains("[lock-wait-loop]")),
            "{got:?}"
        );
        assert!(got.iter().any(|v| v.contains("demo::S::once")), "{got:?}");
        assert!(got.iter().any(|v| v.contains("demo::S::relay")), "{got:?}");
    }

    #[test]
    fn allow_with_reason_silences_and_bare_allow_is_flagged() {
        let got = analyze_fixture(
            "allow",
            "pub struct M;\nimpl M {\n    pub fn lock(&self) -> u32 { 0 }\n}\n\
             pub fn push(x: u32) -> u32 { x }\n\
             pub struct S { m: M }\nimpl S {\n\
                 pub fn a(&self) {\n        let g = self.m.lock();\n\
                 // analyze: allow(lock, reason = \"bounded: queue has reserved capacity\")\n        push(g);\n    }\n\
                 pub fn b(&self) {\n        let g = self.m.lock();\n\
                 // analyze: allow(lock)\n        push(g);\n    }\n}\n",
            &["demo::push"],
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("[lock-allow]"), "{got:?}");
        assert!(got[0].contains("missing its reason"), "{got:?}");
    }
}
