//! Offline critical-path and stall analysis over a trace capture.
//!
//! The paper's pipeline claim (Section 4.1.3, Figure 4) is that per-rank
//! Filter/Main/Back-projection threads overlap through circular buffers
//! so completely that end-to-end time collapses to the slowest single
//! stage — Eq. 19's `max(...)`. A wall clock cannot confirm that; this
//! module can. [`PipelineAnalysis::from_trace`] consumes a
//! [`TraceData`] capture (live from a recorder, or re-imported with
//! [`crate::chrome::parse_trace`]) and computes:
//!
//! * **per-lane utilization** — for every `(rank, role)` lane: busy
//!   time, ring-wait stall time, idle time, and the *bubbles* (gaps with
//!   nothing running) that break the pipeline ([`LaneUtilization`]);
//! * **ring-stall attribution** — who waited, on which buffer, how many
//!   times, for how long ([`StallStat`]), from the timed
//!   `*.push_wait` / `*.pop_wait` spans `ct_sync::ring` records;
//! * **the critical path** — the heaviest chain (by covered time)
//!   through the producer→consumer dependency graph built from span
//!   [`crate::SpanDeps`] tags, program order, collective peer groups
//!   and buffer releases ([`PathStep`]);
//! * **overlap efficiency** — `max_stage_secs / wall_secs`, the measured
//!   counterpart of Eq. 19: 1.0 means the pipeline is perfectly hidden
//!   behind its slowest stage, lower values quantify lost overlap.
//!
//! The analysis is pure: no clocks, no I/O, deterministic for a given
//! capture.
//!
//! ```
//! use ct_obs::{Recorder, ThreadRole};
//! use ct_obs::analysis::PipelineAnalysis;
//!
//! let rec = Recorder::trace();
//! {
//!     let t = rec.track(0, ThreadRole::Filter);
//!     let _s = t.span("filter").with_index(0);
//! }
//! let a = PipelineAnalysis::from_trace(&rec.collect()).unwrap();
//! assert!(a.overlap_efficiency > 0.0 && a.overlap_efficiency <= 1.0);
//! ```

use crate::recorder::ThreadRole;
use crate::trace::{fmt_ns, SpanEvent, TraceData};
use std::collections::BTreeMap;
use std::fmt;

/// Which side of a ring buffer a stall was observed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallKind {
    /// The producer waited for free space (`*.push_wait`).
    Push,
    /// The consumer waited for an item (`*.pop_wait`).
    Pop,
}

impl StallKind {
    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            StallKind::Push => "push",
            StallKind::Pop => "pop",
        }
    }
}

/// Split a span name into `(buffer, kind)` when it is a ring-wait span.
/// `ring.gather.push_wait` → `("ring.gather", Push)`.
fn wait_span(name: &'static str) -> Option<(&'static str, StallKind)> {
    if let Some(buf) = name.strip_suffix(".push_wait") {
        Some((buf, StallKind::Push))
    } else {
        name.strip_suffix(".pop_wait")
            .map(|buf| (buf, StallKind::Pop))
    }
}

/// Busy/stall/idle accounting for one `(rank, role)` pipeline lane,
/// measured against the capture's global `[start, end]` window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUtilization {
    /// Distributed rank.
    pub rank: u32,
    /// Pipeline thread role.
    pub role: ThreadRole,
    /// Nanoseconds covered by non-wait spans (interval union, so
    /// overlapping worker spans are not double-counted).
    pub busy_ns: u64,
    /// Nanoseconds spent inside ring-wait spans.
    pub stall_ns: u64,
    /// Nanoseconds of the global window with nothing recorded on this
    /// lane: `wall - busy - stall`, the summed bubble time.
    pub idle_ns: u64,
    /// The gaps themselves, `(start_ns, end_ns)` within the global
    /// window, longest uncovered stretches of the lane.
    pub bubbles: Vec<(u64, u64)>,
}

impl LaneUtilization {
    /// Busy fraction of the global window, in `[0, 1]`.
    pub fn busy_frac(&self) -> f64 {
        let wall = self.busy_ns + self.stall_ns + self.idle_ns;
        if wall == 0 {
            0.0
        } else {
            self.busy_ns as f64 / wall as f64
        }
    }
}

/// Aggregated ring-buffer stall observations for one
/// `(rank, role, buffer, side)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallStat {
    /// Rank that waited.
    pub rank: u32,
    /// Role (lane) that waited.
    pub role: ThreadRole,
    /// Ring-buffer name the wait was on (span name minus the
    /// `.push_wait` / `.pop_wait` suffix).
    pub buffer: &'static str,
    /// Producer- or consumer-side wait.
    pub kind: StallKind,
    /// Number of wait spans observed.
    pub count: u64,
    /// Summed wait nanoseconds.
    pub total_ns: u64,
    /// Longest single wait, nanoseconds.
    pub max_ns: u64,
}

/// How a critical-path step is linked to the step that precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The chronologically first step: nothing preceded it.
    Origin,
    /// Program order: the previous span on the same lane.
    Program,
    /// A producer→consumer edge from a [`crate::SpanDeps`] tag.
    Dependency,
    /// A collective peer (AllGather within a grid column, Reduce within
    /// a grid row): the slowest participant gates the operation.
    Collective,
    /// A buffer release: a wait span ended because another lane of the
    /// same rank made progress.
    Release,
}

impl EdgeKind {
    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            EdgeKind::Origin => "origin",
            EdgeKind::Program => "program order",
            EdgeKind::Dependency => "dependency",
            EdgeKind::Collective => "collective peer",
            EdgeKind::Release => "buffer release",
        }
    }
}

/// One span on the critical path, chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Rank of the span.
    pub rank: u32,
    /// Lane of the span.
    pub role: ThreadRole,
    /// Stage name.
    pub name: &'static str,
    /// Projection / batch index tag, if any.
    pub index: Option<u64>,
    /// Start, nanoseconds since capture origin.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// How the *predecessor* step handed off to this one.
    pub edge: EdgeKind,
}

/// The complete offline analysis of one pipeline run.
///
/// Built by [`PipelineAnalysis::from_trace`]; rendered with
/// [`PipelineAnalysis::report`]; gated with
/// [`PipelineAnalysis::meets_overlap`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAnalysis {
    /// Capture start: earliest span start, nanoseconds.
    pub start_ns: u64,
    /// End-to-end wall time covered by the capture, nanoseconds.
    pub wall_ns: u64,
    /// Busy time of the busiest lane — the denominator-free side of
    /// Eq. 19's `max(...)`.
    pub max_stage_ns: u64,
    /// The lane that owns `max_stage_ns`.
    pub max_stage_lane: (u32, ThreadRole),
    /// Covered time of the critical path, nanoseconds: each step adds
    /// its interval minus the overlap with its predecessor's end.
    /// Always within `[max_stage_ns, wall_ns]` — the busiest lane's own
    /// program-order chain is a candidate chain, and end-ordered chains
    /// cannot cover more than the wall.
    pub critical_path_ns: u64,
    /// `max_stage / wall` in `[0, 1]`: 1.0 means wall time collapsed to
    /// the slowest stage, exactly the paper's pipeline ideal.
    pub overlap_efficiency: f64,
    /// Per-lane busy/stall/idle accounting, sorted by `(rank, role)`.
    pub lanes: Vec<LaneUtilization>,
    /// Ring-stall attribution, sorted by descending total wait.
    pub stalls: Vec<StallStat>,
    /// The critical path, chronological.
    pub critical_path: Vec<PathStep>,
}

/// Merge intervals into a disjoint sorted union.
fn merged(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in v {
        if let Some(last) = out.last_mut() {
            if s <= last.1 {
                last.1 = last.1.max(e);
                continue;
            }
        }
        out.push((s, e));
    }
    out
}

/// Total length of a disjoint interval set.
fn interval_total(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|(s, e)| e - s).sum()
}

/// `a \ b` for disjoint sorted interval sets.
fn interval_subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut bi = 0;
    for &(mut s, e) in a {
        while s < e {
            // Skip b-intervals entirely before s.
            while bi < b.len() && b[bi].1 <= s {
                bi += 1;
            }
            match b.get(bi) {
                Some(&(bs, be)) if bs < e => {
                    if s < bs {
                        out.push((s, bs));
                    }
                    s = be.max(s);
                }
                _ => {
                    out.push((s, e));
                    break;
                }
            }
        }
        // A b-interval can span into the next a-interval; step back so the
        // outer skip re-evaluates it.
        bi = bi.saturating_sub(1);
    }
    out
}

/// `(waits, total stalled ns, max single stall ns)` accumulator keyed
/// by `(rank, role, buffer, side)`.
type StallAgg = BTreeMap<(u32, ThreadRole, &'static str, StallKind), (u64, u64, u64)>;

/// One dependency-graph node: a top-level (non-nested) span.
struct Node {
    rank: u32,
    role: ThreadRole,
    name: &'static str,
    index: Option<u64>,
    deps: Option<crate::trace::SpanDeps>,
    start_ns: u64,
    end_ns: u64,
    is_wait: bool,
    /// Previous top-level node on the same lane.
    lane_pred: Option<usize>,
}

impl PipelineAnalysis {
    /// Analyze a capture. Returns `None` when the capture holds no span
    /// events (summary-mode or empty recorders cannot be analyzed).
    pub fn from_trace(data: &TraceData) -> Option<PipelineAnalysis> {
        if data.events.is_empty() {
            return None;
        }
        let t0 = data
            .events
            .iter()
            .map(|e| e.start_ns)
            .min()
            .expect("events non-empty");
        let t1 = data
            .events
            .iter()
            .map(|e| e.end_ns())
            .max()
            .expect("events non-empty");
        let wall_ns = t1 - t0;

        // ---- group events per (rank, role) lane -------------------------
        let mut lanes_ev: BTreeMap<(u32, ThreadRole), Vec<&SpanEvent>> = BTreeMap::new();
        for e in &data.events {
            lanes_ev.entry((e.rank, e.role)).or_default().push(e);
        }

        // ---- per-lane utilization + top-level node extraction -----------
        let mut nodes: Vec<Node> = Vec::new();
        let mut lanes: Vec<LaneUtilization> = Vec::new();
        let mut stall_agg: StallAgg = BTreeMap::new();
        for (&(rank, role), evs) in &mut lanes_ev {
            // Outer spans first at equal starts, so the sweep sees them
            // before their children.
            evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
            let mut busy_iv = Vec::new();
            let mut wait_iv = Vec::new();
            let mut cur_end = 0u64;
            let mut lane_pred: Option<usize> = None;
            for e in evs.iter() {
                let wait = wait_span(e.name);
                if let Some((buffer, kind)) = wait {
                    wait_iv.push((e.start_ns, e.end_ns()));
                    let s = stall_agg
                        .entry((rank, role, buffer, kind))
                        .or_insert((0, 0, 0));
                    s.0 += 1;
                    s.1 += e.dur_ns;
                    s.2 = s.2.max(e.dur_ns);
                } else {
                    busy_iv.push((e.start_ns, e.end_ns()));
                }
                // Top-level = not contained in a prior span on this lane.
                if e.start_ns >= cur_end || e.end_ns() > cur_end {
                    nodes.push(Node {
                        rank,
                        role,
                        name: e.name,
                        index: e.index,
                        deps: e.deps,
                        start_ns: e.start_ns,
                        end_ns: e.end_ns(),
                        is_wait: wait.is_some(),
                        lane_pred,
                    });
                    lane_pred = Some(nodes.len() - 1);
                    cur_end = cur_end.max(e.end_ns());
                }
            }
            let stall_u = merged(wait_iv);
            // Waits nested in a busy span count as stall, not busy.
            let busy_u = interval_subtract(&merged(busy_iv), &stall_u);
            let covered = {
                let mut all: Vec<(u64, u64)> = busy_u.clone();
                all.extend(stall_u.iter().copied());
                merged(all)
            };
            let mut bubbles = Vec::new();
            let mut cursor = t0;
            for &(s, e) in &covered {
                if s > cursor {
                    bubbles.push((cursor, s));
                }
                cursor = cursor.max(e);
            }
            if cursor < t1 {
                bubbles.push((cursor, t1));
            }
            let busy_ns = interval_total(&busy_u);
            let stall_ns = interval_total(&stall_u);
            lanes.push(LaneUtilization {
                rank,
                role,
                busy_ns,
                stall_ns,
                idle_ns: wall_ns - busy_ns - stall_ns,
                bubbles,
            });
        }

        let mut stalls: Vec<StallStat> = stall_agg
            .into_iter()
            .map(
                |((rank, role, buffer, kind), (count, total_ns, max_ns))| StallStat {
                    rank,
                    role,
                    buffer,
                    kind,
                    count,
                    total_ns,
                    max_ns,
                },
            )
            .collect();
        stalls.sort_by_key(|s| (std::cmp::Reverse(s.total_ns), s.rank, s.role, s.buffer));

        let (max_stage_ns, max_stage_lane) = lanes
            .iter()
            .map(|l| (l.busy_ns, (l.rank, l.role)))
            .max()
            .expect("at least one lane when events exist");

        // ---- critical path: heaviest chain in the dependency graph ------
        // The grid shape, when the run recorded it, turns AllGather and
        // Reduce spans into collective peer groups.
        let grid_rows = data
            .gauges
            .iter()
            .find(|g| g.name == "grid.rows")
            .map(|g| g.value as u32)
            .filter(|&r| r > 0);
        let collective_group = |n: &Node, m: &Node| -> bool {
            let Some(rows) = grid_rows else { return false };
            if n.name != m.name || n.index != m.index {
                return false;
            }
            match n.name {
                "allgather" => n.rank / rows == m.rank / rows,
                "reduce" => n.rank % rows == m.rank % rows,
                _ => false,
            }
        };

        // Longest chain by *covered time*: walking an edge u -> v adds
        // v's interval minus its overlap with u's chain end, so a chain
        // is measured like the union of its spans. This pins the
        // invariants structurally: every lane's own program-order chain
        // is a candidate (so the result is at least the busiest lane's
        // covered time, i.e. >= max_stage), and the increments telescope
        // against non-decreasing end times (so it never exceeds wall).
        let order = {
            let mut ix: Vec<usize> = (0..nodes.len()).collect();
            ix.sort_by_key(|&i| (nodes[i].end_ns, nodes[i].start_ns, i));
            ix
        };
        let mut dp = vec![0u64; nodes.len()];
        let mut pred: Vec<Option<(usize, EdgeKind)>> = vec![None; nodes.len()];
        let mut done = vec![false; nodes.len()];
        for &v in &order {
            let c = &nodes[v];
            dp[v] = c.end_ns - c.start_ns;
            let mut cands: Vec<(usize, EdgeKind)> = Vec::new();
            if let Some(p) = c.lane_pred {
                cands.push((p, EdgeKind::Program));
            }
            for (u, n) in nodes.iter().enumerate() {
                if u == v {
                    continue;
                }
                if let Some(d) = c.deps {
                    if n.rank == c.rank
                        && n.name == d.stage
                        && n.index.is_some_and(|ix| d.contains(ix))
                    {
                        cands.push((u, EdgeKind::Dependency));
                    }
                }
                if collective_group(c, n) {
                    cands.push((u, EdgeKind::Collective));
                }
                if c.is_wait && n.rank == c.rank && n.role != c.role {
                    cands.push((u, EdgeKind::Release));
                }
            }
            for (u, kind) in cands {
                // Only earlier-finishing work can gate this span.
                if !done[u] || nodes[u].end_ns > c.end_ns {
                    continue;
                }
                let gain = c.end_ns - nodes[u].end_ns.max(c.start_ns);
                if dp[u] + gain > dp[v] {
                    dp[v] = dp[u] + gain;
                    pred[v] = Some((u, kind));
                }
            }
            done[v] = true;
        }
        // Heaviest chain; end-time order breaks ties toward the chain
        // that finishes last (the one gating the wall).
        let mut term = order[0];
        for &v in &order {
            if dp[v] >= dp[term] {
                term = v;
            }
        }
        let mut chain_rev: Vec<(usize, EdgeKind)> = Vec::new();
        let mut cur = term;
        loop {
            match pred[cur] {
                Some((u, kind)) => {
                    chain_rev.push((cur, kind));
                    cur = u;
                }
                None => {
                    chain_rev.push((cur, EdgeKind::Origin));
                    break;
                }
            }
        }
        chain_rev.reverse();
        let critical_path: Vec<PathStep> = chain_rev
            .iter()
            .map(|&(i, edge)| {
                let n = &nodes[i];
                PathStep {
                    rank: n.rank,
                    role: n.role,
                    name: n.name,
                    index: n.index,
                    start_ns: n.start_ns,
                    dur_ns: n.end_ns - n.start_ns,
                    edge,
                }
            })
            .collect();
        let critical_path_ns = dp[term];

        let overlap_efficiency = if wall_ns == 0 {
            1.0
        } else {
            max_stage_ns as f64 / wall_ns as f64
        };

        Some(PipelineAnalysis {
            start_ns: t0,
            wall_ns,
            max_stage_ns,
            max_stage_lane,
            critical_path_ns,
            overlap_efficiency,
            lanes,
            stalls,
            critical_path,
        })
    }

    /// Wall seconds covered by the capture.
    pub fn wall_secs(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Busiest-lane seconds: the measured side of Eq. 19's `max(...)`.
    pub fn max_stage_secs(&self) -> f64 {
        self.max_stage_ns as f64 / 1e9
    }

    /// Critical-path seconds (interval union of the path's spans).
    pub fn critical_path_secs(&self) -> f64 {
        self.critical_path_ns as f64 / 1e9
    }

    /// True when overlap efficiency reaches `min_overlap` — the gate
    /// `tracereport --min-overlap` applies.
    pub fn meets_overlap(&self, min_overlap: f64) -> bool {
        self.overlap_efficiency >= min_overlap
    }

    /// Summed stall seconds across every lane and buffer.
    pub fn total_stall_secs(&self) -> f64 {
        self.stalls.iter().map(|s| s.total_ns).sum::<u64>() as f64 / 1e9
    }

    /// Serialize the complete analysis as one compact JSON object —
    /// the machine-readable twin of [`PipelineAnalysis::report`], used
    /// by `tracereport --format json`, written with the crate's one
    /// JSON serializer, [`crate::jsonw`].
    pub fn to_json(&self) -> String {
        let (mr, ml) = self.max_stage_lane;
        let lanes = crate::jsonw::arr(self.lanes.iter().map(|l| {
            let mut o = crate::jsonw::Obj::new();
            o.field_u64("rank", u64::from(l.rank))
                .field_str("role", l.role.as_str())
                .field_u64("busy_ns", l.busy_ns)
                .field_u64("stall_ns", l.stall_ns)
                .field_u64("idle_ns", l.idle_ns)
                .field_f64("busy_frac", l.busy_frac())
                .field_u64("bubbles", l.bubbles.len() as u64);
            o.finish()
        }));
        let stalls = crate::jsonw::arr(self.stalls.iter().map(|s| {
            let mut o = crate::jsonw::Obj::new();
            o.field_u64("rank", u64::from(s.rank))
                .field_str("role", s.role.as_str())
                .field_str("buffer", s.buffer)
                .field_str("kind", s.kind.as_str())
                .field_u64("count", s.count)
                .field_u64("total_ns", s.total_ns)
                .field_u64("max_ns", s.max_ns);
            o.finish()
        }));
        let path = crate::jsonw::arr(self.critical_path.iter().map(|p| {
            let mut o = crate::jsonw::Obj::new();
            o.field_u64("rank", u64::from(p.rank))
                .field_str("role", p.role.as_str())
                .field_str("name", p.name);
            if let Some(ix) = p.index {
                o.field_u64("index", ix);
            }
            o.field_u64("start_ns", p.start_ns)
                .field_u64("dur_ns", p.dur_ns)
                .field_str("edge", p.edge.as_str());
            o.finish()
        }));
        let mut o = crate::jsonw::Obj::new();
        o.field_u64("start_ns", self.start_ns)
            .field_u64("wall_ns", self.wall_ns)
            .field_u64("max_stage_ns", self.max_stage_ns)
            .field_raw("max_stage_lane", &{
                let mut lane = crate::jsonw::Obj::new();
                lane.field_u64("rank", u64::from(mr))
                    .field_str("role", ml.as_str());
                lane.finish()
            })
            .field_u64("critical_path_ns", self.critical_path_ns)
            .field_f64("overlap_efficiency", self.overlap_efficiency)
            .field_raw("lanes", &lanes)
            .field_raw("stalls", &stalls)
            .field_raw("critical_path", &path);
        o.finish()
    }

    /// Render the analysis as a human-readable report: the headline
    /// overlap figure, per-lane utilization, top ring stalls, and the
    /// tail of the critical path.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let (mr, ml) = self.max_stage_lane;
        out.push_str(&format!(
            "pipeline analysis: wall {}, critical path {}, max stage {} (rank {mr} {})\n\
             overlap efficiency: {:.3} (1.0 = wall time collapses to the slowest stage, Eq. 19)\n",
            fmt_ns(self.wall_ns),
            fmt_ns(self.critical_path_ns),
            fmt_ns(self.max_stage_ns),
            ml.as_str(),
            self.overlap_efficiency,
        ));

        out.push_str("\nper-lane utilization:\n");
        let mut rows = vec![[
            "rank".to_string(),
            "role".into(),
            "busy".into(),
            "stall".into(),
            "idle".into(),
            "busy%".into(),
            "bubbles".into(),
        ]];
        for l in &self.lanes {
            rows.push([
                l.rank.to_string(),
                l.role.as_str().into(),
                fmt_ns(l.busy_ns),
                fmt_ns(l.stall_ns),
                fmt_ns(l.idle_ns),
                format!("{:.1}", 100.0 * l.busy_frac()),
                l.bubbles.len().to_string(),
            ]);
        }
        push_table(&mut out, &rows);

        if self.stalls.is_empty() {
            out.push_str("\nring stalls: none recorded\n");
        } else {
            out.push_str("\ntop ring stalls:\n");
            let mut rows = vec![[
                "rank".to_string(),
                "role".into(),
                "buffer".into(),
                "side".into(),
                "waits".into(),
                "total".into(),
                "max".into(),
            ]];
            for s in self.stalls.iter().take(8) {
                rows.push([
                    s.rank.to_string(),
                    s.role.as_str().into(),
                    s.buffer.into(),
                    s.kind.as_str().into(),
                    s.count.to_string(),
                    fmt_ns(s.total_ns),
                    fmt_ns(s.max_ns),
                ]);
            }
            push_table(&mut out, &rows);
            if self.stalls.len() > 8 {
                out.push_str(&format!("  ... {} more\n", self.stalls.len() - 8));
            }
        }

        let show = 12usize;
        let skip = self.critical_path.len().saturating_sub(show);
        out.push_str(&format!(
            "\ncritical path ({} steps{}):\n",
            self.critical_path.len(),
            if skip > 0 {
                format!(", last {show}")
            } else {
                String::new()
            }
        ));
        for step in self.critical_path.iter().skip(skip) {
            let idx = step.index.map(|i| format!("[{i}]")).unwrap_or_default();
            out.push_str(&format!(
                "  rank {} {:<14} {}{} {} @ +{}  <- {}\n",
                step.rank,
                step.role.as_str(),
                step.name,
                idx,
                fmt_ns(step.dur_ns),
                fmt_ns(step.start_ns - self.start_ns),
                step.edge.as_str(),
            ));
        }
        out
    }
}

impl fmt::Display for PipelineAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report())
    }
}

/// Append rows as a column-aligned table (first column left-aligned).
fn push_table<const N: usize>(out: &mut String, rows: &[[String; N]]) {
    let mut widths = [0usize; N];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    for row in rows {
        out.push_str("  ");
        for (i, (cell, w)) in row.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{cell:<w$}"));
            } else {
                out.push_str(&format!("{cell:>w$}"));
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MetricStat, SpanDeps};

    fn ev(
        rank: u32,
        role: ThreadRole,
        name: &'static str,
        start: u64,
        end: u64,
        index: u64,
        deps: Option<SpanDeps>,
    ) -> SpanEvent {
        SpanEvent {
            rank,
            role,
            name,
            start_ns: start,
            dur_ns: end - start,
            index: Some(index),
            bytes: None,
            deps,
        }
    }

    fn dep(stage: &'static str, lo: u64, hi: u64) -> Option<SpanDeps> {
        Some(SpanDeps { stage, lo, hi })
    }

    /// A 1-rank pipeline where the filter lane is busy the whole run:
    /// the textbook perfectly overlapped case.
    fn perfect_pipeline() -> TraceData {
        let mut data = TraceData::default();
        for i in 0..4u64 {
            data.events.push(ev(
                0,
                ThreadRole::Filter,
                "filter",
                i * 10,
                (i + 1) * 10,
                i,
                None,
            ));
            data.events.push(ev(
                0,
                ThreadRole::Main,
                "allgather",
                (i + 1) * 10 - 5,
                (i + 1) * 10,
                i,
                dep("filter", i, i),
            ));
        }
        data
    }

    #[test]
    fn empty_capture_yields_none() {
        assert!(PipelineAnalysis::from_trace(&TraceData::default()).is_none());
    }

    #[test]
    fn perfect_pipeline_has_unit_efficiency() {
        let a = PipelineAnalysis::from_trace(&perfect_pipeline()).unwrap();
        assert_eq!(a.wall_ns, 40);
        assert_eq!(a.max_stage_ns, 40);
        assert_eq!(a.max_stage_lane, (0, ThreadRole::Filter));
        assert!((a.overlap_efficiency - 1.0).abs() < 1e-12);
        assert!(a.meets_overlap(1.0));
        let filter_lane = &a.lanes[0];
        assert_eq!(filter_lane.role, ThreadRole::Filter);
        assert_eq!(filter_lane.busy_ns, 40);
        assert_eq!(filter_lane.idle_ns, 0);
        assert!(filter_lane.bubbles.is_empty());
    }

    #[test]
    fn bubbles_account_for_all_uncovered_time() {
        let mut data = perfect_pipeline();
        // Punch a hole in the main lane: allgather 2 (35..40) removed.
        data.events
            .retain(|e| !(e.name == "allgather" && e.index == Some(2)));
        let a = PipelineAnalysis::from_trace(&data).unwrap();
        for l in &a.lanes {
            let bubble_total: u64 = l.bubbles.iter().map(|(s, e)| e - s).sum();
            assert_eq!(
                bubble_total,
                a.wall_ns - l.busy_ns - l.stall_ns,
                "lane {:?}",
                (l.rank, l.role)
            );
        }
    }

    #[test]
    fn ordering_invariant_holds() {
        let a = PipelineAnalysis::from_trace(&perfect_pipeline()).unwrap();
        assert!(a.max_stage_ns <= a.critical_path_ns);
        assert!(a.critical_path_ns <= a.wall_ns);
    }

    #[test]
    fn dependency_edges_reach_the_producer() {
        let a = PipelineAnalysis::from_trace(&perfect_pipeline()).unwrap();
        // Last node is allgather 3; its chain must include filter spans.
        assert!(a
            .critical_path
            .iter()
            .any(|s| s.name == "filter" && s.role == ThreadRole::Filter));
        assert!(a
            .critical_path
            .iter()
            .any(|s| s.edge == EdgeKind::Dependency || s.edge == EdgeKind::Program));
        assert_eq!(a.critical_path[0].edge, EdgeKind::Origin);
        // Chronological order.
        for w in a.critical_path.windows(2) {
            assert!(w[0].start_ns + w[0].dur_ns <= w[1].start_ns + w[1].dur_ns);
        }
    }

    #[test]
    fn wait_spans_count_as_stall_not_busy() {
        let mut data = TraceData::default();
        data.events
            .push(ev(0, ThreadRole::Filter, "filter", 0, 60, 0, None));
        data.events.push(ev(
            0,
            ThreadRole::Main,
            "ring.gather.pop_wait",
            0,
            50,
            0,
            None,
        ));
        data.events.push(ev(
            0,
            ThreadRole::Main,
            "allgather",
            50,
            60,
            0,
            dep("filter", 0, 0),
        ));
        let a = PipelineAnalysis::from_trace(&data).unwrap();
        let main = a.lanes.iter().find(|l| l.role == ThreadRole::Main).unwrap();
        assert_eq!(main.stall_ns, 50);
        assert_eq!(main.busy_ns, 10);
        assert_eq!(main.idle_ns, 0);
        assert_eq!(a.stalls.len(), 1);
        let s = &a.stalls[0];
        assert_eq!(s.buffer, "ring.gather");
        assert_eq!(s.kind, StallKind::Pop);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_ns, 50);
        // The busiest lane is filter (60 ns busy), and the wait keeps
        // main's efficiency contribution honest.
        assert_eq!(a.max_stage_lane, (0, ThreadRole::Filter));
        assert!((a.overlap_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn release_edges_cross_lanes_through_waits() {
        let mut data = TraceData::default();
        // bp lane busy 0..80; main waits on the bp ring until bp finishes
        // a batch, then pushes.
        data.events.push(ev(
            0,
            ThreadRole::Backprojection,
            "bp.batch",
            0,
            80,
            0,
            None,
        ));
        data.events.push(ev(
            0,
            ThreadRole::Main,
            "ring.bp.push_wait",
            10,
            80,
            1,
            None,
        ));
        data.events
            .push(ev(0, ThreadRole::Main, "allgather", 80, 90, 1, None));
        let a = PipelineAnalysis::from_trace(&data).unwrap();
        // Path: allgather <- program pred (the wait) <- release (bp.batch).
        let names: Vec<_> = a.critical_path.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["bp.batch", "ring.bp.push_wait", "allgather"]);
        assert_eq!(a.critical_path[1].edge, EdgeKind::Release);
    }

    #[test]
    fn collective_peers_join_through_grid_gauges() {
        let mut data = TraceData::default();
        // 2x1 grid (rows=2): ranks 0 and 1 share a column. Rank 1's
        // allgather 0 is the slow peer gating rank 0's.
        data.events
            .push(ev(0, ThreadRole::Main, "allgather", 50, 60, 0, None));
        data.events
            .push(ev(1, ThreadRole::Main, "allgather", 0, 55, 0, None));
        data.gauges.push(MetricStat {
            rank: 0,
            role: ThreadRole::Main,
            name: "grid.rows",
            value: 2,
        });
        let a = PipelineAnalysis::from_trace(&data).unwrap();
        let ranks: Vec<_> = a.critical_path.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![1, 0]);
        assert_eq!(a.critical_path[1].edge, EdgeKind::Collective);
    }

    #[test]
    fn json_export_parses_and_carries_the_headline_numbers() {
        let a = PipelineAnalysis::from_trace(&perfect_pipeline()).unwrap();
        let json = a.to_json();
        let v = crate::chrome::json::parse(&json).expect("analysis json parses");
        assert_eq!(
            v.get("wall_ns").and_then(|x| x.as_f64()),
            Some(a.wall_ns as f64)
        );
        assert_eq!(
            v.get("overlap_efficiency").and_then(|x| x.as_f64()),
            Some(a.overlap_efficiency)
        );
        let lane = v.get("max_stage_lane").expect("lane object");
        assert_eq!(lane.get("role").and_then(|x| x.as_str()), Some("filter"));
        let lanes = v.get("lanes").and_then(|x| x.as_array()).unwrap();
        assert_eq!(lanes.len(), a.lanes.len());
        let path = v.get("critical_path").and_then(|x| x.as_array()).unwrap();
        assert_eq!(path.len(), a.critical_path.len());
        assert_eq!(path[0].get("edge").and_then(|x| x.as_str()), Some("origin"));
    }

    #[test]
    fn report_mentions_the_headline_numbers() {
        let a = PipelineAnalysis::from_trace(&perfect_pipeline()).unwrap();
        let r = a.report();
        assert!(r.contains("overlap efficiency"));
        assert!(r.contains("per-lane utilization"));
        assert!(r.contains("critical path"));
        assert!(r.contains("filter"));
        assert_eq!(r, format!("{a}"));
    }
}
