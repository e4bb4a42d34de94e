//! The recorder: shared sink, per-thread tracks, RAII spans and metrics.
//!
//! Design: a [`Recorder`] is a cheap-to-clone handle on a shared sink (or
//! on nothing, when disabled). Each pipeline thread opens a [`Track`]
//! tagged with its `(rank, role)`; spans and metrics buffer in the
//! track's thread-local storage and merge into the shared sink exactly
//! once, when the last clone of the track is dropped. The hot path
//! therefore never takes a lock, and with the recorder off it does no
//! work at all — no clock reads, no allocation, a single `Option` check.

use crate::trace::{Hist, MetricStat, SpanDeps, SpanEvent, StageStat, TraceData};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which pipeline thread a track belongs to (paper Figure 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadRole {
    /// The filtering thread: PFS load + ramp filtering.
    Filter,
    /// The main thread: per-projection AllGather, row Reduce, store.
    Main,
    /// The back-projection thread: batched kernel accumulation.
    Backprojection,
    /// Auxiliary I/O not attributable to a pipeline thread.
    Io,
    /// Anything else (drivers, tests, examples).
    Other,
}

impl ThreadRole {
    /// Stable display name, also used as the Chrome-trace thread name.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadRole::Filter => "filter",
            ThreadRole::Main => "main",
            ThreadRole::Backprojection => "backprojection",
            ThreadRole::Io => "io",
            ThreadRole::Other => "other",
        }
    }

    /// Stable thread id for trace export (one lane per role).
    pub fn tid(self) -> u64 {
        match self {
            ThreadRole::Filter => 1,
            ThreadRole::Main => 2,
            ThreadRole::Backprojection => 3,
            ThreadRole::Io => 4,
            ThreadRole::Other => 5,
        }
    }

    /// The inverse of [`ThreadRole::tid`], for trace re-import.
    pub fn from_tid(tid: u64) -> Option<ThreadRole> {
        match tid {
            1 => Some(ThreadRole::Filter),
            2 => Some(ThreadRole::Main),
            3 => Some(ThreadRole::Backprojection),
            4 => Some(ThreadRole::Io),
            5 => Some(ThreadRole::Other),
            _ => None,
        }
    }
}

/// What an enabled recorder retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Per-stage aggregates only (counts, totals, extrema, histograms) —
    /// the cost profile of the old `StageTimer`, minus its per-sample
    /// allocations.
    Summary,
    /// Aggregates plus every individual span, for timeline export.
    Trace,
}

#[derive(Debug, Default)]
struct Global {
    events: Vec<SpanEvent>,
    stages: BTreeMap<(u32, ThreadRole, &'static str), StageAgg>,
    counters: BTreeMap<(u32, ThreadRole, &'static str), u64>,
    gauges: BTreeMap<(u32, ThreadRole, &'static str), u64>,
}

/// Live-telemetry hooks attached to a recorder. Read once per
/// [`Recorder::track`] call; tracks opened before an attach do not feed
/// the hooks (attach before launching the pipeline).
#[derive(Debug, Default)]
struct LiveHooks {
    live: Option<crate::live::LiveRegistry>,
    flight: Option<crate::live::FlightRecorder>,
}

#[derive(Debug)]
struct Inner {
    mode: Mode,
    origin: Instant,
    state: Mutex<Global>,
    hooks: Mutex<LiveHooks>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of trace; the cast is safe for
        // any real run.
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Global> {
        // A panicked rank must not lose the other ranks' telemetry.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Per-stage aggregate: the summary every mode maintains.
#[derive(Debug, Clone, Default)]
struct StageAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    bytes: u64,
    hist: Hist,
}

impl StageAgg {
    fn record(&mut self, dur_ns: u64, bytes: u64) {
        self.min_ns = if self.count == 0 {
            dur_ns
        } else {
            self.min_ns.min(dur_ns)
        };
        self.count += 1;
        self.total_ns += dur_ns;
        self.max_ns = self.max_ns.max(dur_ns);
        self.bytes += bytes;
        self.hist.record(dur_ns);
    }

    fn merge(&mut self, other: &StageAgg) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.bytes += other.bytes;
        self.hist.merge(&other.hist);
    }
}

/// A cheap-to-clone handle on a shared observation sink. `off` recorders
/// carry no sink at all, making every recording call a no-op.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A disabled recorder: no locks, no allocations, no clock reads.
    /// This is also the `Default`.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// Per-stage aggregates only — cheap enough for always-on use.
    pub fn summary() -> Self {
        Self::with_mode(Mode::Summary)
    }

    /// Full span capture for timeline export.
    pub fn trace() -> Self {
        Self::with_mode(Mode::Trace)
    }

    fn with_mode(mode: Mode) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                mode,
                origin: Instant::now(),
                state: Mutex::new(Global::default()),
                hooks: Mutex::new(LiveHooks::default()),
            })),
        }
    }

    /// True unless this recorder is `off`.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when individual spans are retained for timeline export.
    pub fn is_tracing(&self) -> bool {
        matches!(self.inner.as_deref(), Some(i) if i.mode == Mode::Trace)
    }

    /// Open a track for one `(rank, role)` pipeline thread. The track
    /// buffers locally; its data reaches the recorder when the last clone
    /// of the track is dropped (normally: when the thread finishes).
    pub fn track(&self, rank: u32, role: ThreadRole) -> Track {
        Track {
            shared: self.inner.as_ref().map(|inner| {
                let (live, flight) = {
                    let hooks = inner.hooks.lock().unwrap_or_else(|p| p.into_inner());
                    (
                        hooks.live.clone(),
                        hooks.flight.as_ref().map(|f| f.lane(rank, role)),
                    )
                };
                Rc::new(TrackShared {
                    inner: Arc::clone(inner),
                    rank,
                    role,
                    local: RefCell::new(Local::default()),
                    live,
                    flight,
                    live_cells: RefCell::new(BTreeMap::new()),
                })
            }),
        }
    }

    /// Attach a live registry: tracks opened *after* this call mirror
    /// their completed spans into its stage cells as they record (see
    /// [`crate::live`]). No-op on an `off` recorder (a
    /// disabled recorder hands out disabled tracks).
    pub fn attach_live(&self, registry: &crate::live::LiveRegistry) {
        if let Some(inner) = self.inner.as_deref() {
            inner.hooks.lock().unwrap_or_else(|p| p.into_inner()).live = Some(registry.clone());
        }
    }

    /// Attach a flight recorder: tracks opened after this call feed
    /// every completed span into their `(rank, role)` flight lane —
    /// in every mode, including `summary` (the flight window is bounded,
    /// so this does not reintroduce unbounded capture).
    pub fn attach_flight(&self, flight: &crate::live::FlightRecorder) {
        if let Some(inner) = self.inner.as_deref() {
            inner.hooks.lock().unwrap_or_else(|p| p.into_inner()).flight = Some(flight.clone());
        }
    }

    /// Detach both live hooks (registry and flight recorder). Tracks
    /// opened after this call stop mirroring; already-open tracks keep
    /// their handles until dropped.
    pub fn detach_live(&self) {
        if let Some(inner) = self.inner.as_deref() {
            *inner.hooks.lock().unwrap_or_else(|p| p.into_inner()) = LiveHooks::default();
        }
    }

    /// Snapshot everything merged so far as a [`TraceData`]. Tracks that
    /// are still open have not merged yet; call this after the
    /// instrumented run completes.
    pub fn collect(&self) -> TraceData {
        let Some(inner) = self.inner.as_deref() else {
            return TraceData::default();
        };
        let g = inner.lock();
        let mut events = g.events.clone();
        // Thread-merge order is nondeterministic; the capture is not.
        events.sort_by_key(|e| (e.rank, e.role, e.start_ns, e.name, e.index));
        TraceData {
            events,
            stages: g
                .stages
                .iter()
                .map(|(&(rank, role, name), a)| StageStat {
                    rank,
                    role,
                    name,
                    count: a.count,
                    total_ns: a.total_ns,
                    min_ns: a.min_ns,
                    max_ns: a.max_ns,
                    bytes: a.bytes,
                    hist: a.hist.clone(),
                })
                .collect(),
            counters: g
                .counters
                .iter()
                .map(|(&(rank, role, name), &value)| MetricStat {
                    rank,
                    role,
                    name,
                    value,
                })
                .collect(),
            gauges: g
                .gauges
                .iter()
                .map(|(&(rank, role, name), &value)| MetricStat {
                    rank,
                    role,
                    name,
                    value,
                })
                .collect(),
        }
    }

    /// Clear everything recorded so far (the clock origin is retained).
    /// Lets one recorder be reused across runs without mixing captures.
    pub fn reset(&self) {
        if let Some(inner) = self.inner.as_deref() {
            *inner.lock() = Global::default();
        }
    }
}

#[derive(Debug, Default)]
struct Local {
    events: Vec<SpanEvent>,
    stages: BTreeMap<&'static str, StageAgg>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
}

#[derive(Debug)]
struct TrackShared {
    inner: Arc<Inner>,
    rank: u32,
    role: ThreadRole,
    local: RefCell<Local>,
    /// Live registry handle, when one was attached at track-open time.
    live: Option<crate::live::LiveRegistry>,
    /// This lane's flight ring, when a flight recorder was attached.
    flight: Option<crate::live::FlightLane>,
    /// Per-name cache so the hot path hits the registry's map once per
    /// `(track, name)` rather than once per record.
    live_cells: RefCell<BTreeMap<&'static str, Arc<crate::live::StageCell>>>,
}

impl TrackShared {
    fn live_cell(&self, name: &'static str) -> Option<Arc<crate::live::StageCell>> {
        let reg = self.live.as_ref()?;
        let mut cells = self.live_cells.borrow_mut();
        Some(Arc::clone(
            cells.entry(name).or_insert_with(|| reg.stage(name)),
        ))
    }

    /// Mirror one completed span into the live hooks: the stage's
    /// completion cell and this lane's flight ring.
    #[allow(clippy::too_many_arguments)]
    fn live_span(
        &self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        index: Option<u64>,
        bytes: Option<u64>,
        deps: Option<SpanDeps>,
    ) {
        if let Some(cell) = self.live_cell(name) {
            cell.record(dur_ns);
        }
        if let Some(lane) = self.flight.as_ref() {
            lane.record(SpanEvent {
                rank: self.rank,
                role: self.role,
                name,
                start_ns,
                dur_ns,
                index,
                bytes,
                deps,
            });
        }
    }
}

impl Drop for TrackShared {
    fn drop(&mut self) {
        let local = self.local.take();
        if local.events.is_empty()
            && local.stages.is_empty()
            && local.counters.is_empty()
            && local.gauges.is_empty()
        {
            return;
        }
        let mut g = self.inner.lock();
        g.events.extend(local.events);
        for (name, agg) in local.stages {
            g.stages
                .entry((self.rank, self.role, name))
                .or_default()
                .merge(&agg);
        }
        for (name, v) in local.counters {
            *g.counters.entry((self.rank, self.role, name)).or_insert(0) += v;
        }
        for (name, v) in local.gauges {
            let e = g.gauges.entry((self.rank, self.role, name)).or_insert(0);
            *e = (*e).max(v);
        }
    }
}

/// One `(rank, role)` recording lane. Not `Send`: a track belongs to the
/// thread that opened it (clones share the same thread-local buffer).
#[derive(Debug, Clone)]
pub struct Track {
    shared: Option<Rc<TrackShared>>,
}

impl Track {
    /// A track that records nothing (what `Recorder::off` hands out).
    pub fn disabled() -> Self {
        Track { shared: None }
    }

    /// True unless the parent recorder was off.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The rank tag, if recording.
    pub fn rank(&self) -> Option<u32> {
        self.shared.as_ref().map(|s| s.rank)
    }

    /// The role tag, if recording.
    pub fn role(&self) -> Option<ThreadRole> {
        self.shared.as_ref().map(|s| s.role)
    }

    /// Open a span for `stage`. The span records when dropped; spans nest
    /// freely (each is an independent guard on the same track).
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            inner: self.shared.as_ref().map(|sh| SpanInner {
                track: Rc::clone(sh),
                name,
                start_ns: sh.inner.now_ns(),
                index: None,
                bytes: None,
                deps: None,
            }),
        }
    }

    /// Time a closure under `stage`, returning its result.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Add to a monotonically increasing counter (e.g. ring push stalls,
    /// bytes moved).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(sh) = self.shared.as_ref() {
            *sh.local.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Raise a high-water-mark gauge (e.g. ring-buffer occupancy).
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        if let Some(sh) = self.shared.as_ref() {
            let mut local = sh.local.borrow_mut();
            let e = local.gauges.entry(name).or_insert(0);
            *e = (*e).max(value);
        }
    }

    /// Record a span that already ran, from wall-clock instants captured
    /// elsewhere — typically on pool worker threads, which cannot own a
    /// `Track` (tracks are thread-local by design). The span lands on
    /// this track's `(rank, role)` lane exactly as if it had been opened
    /// at `started` and dropped at `finished`; instants predating the
    /// recorder's origin clamp to it.
    pub fn record_completed(
        &self,
        name: &'static str,
        index: Option<u64>,
        bytes: Option<u64>,
        started: Instant,
        finished: Instant,
    ) {
        let Some(sh) = self.shared.as_ref() else {
            return;
        };
        let origin = sh.inner.origin;
        let start_ns = started.saturating_duration_since(origin).as_nanos() as u64;
        let end_ns = finished.saturating_duration_since(origin).as_nanos() as u64;
        let dur_ns = end_ns.saturating_sub(start_ns);
        {
            let mut local = sh.local.borrow_mut();
            local
                .stages
                .entry(name)
                .or_default()
                .record(dur_ns, bytes.unwrap_or(0));
            if sh.inner.mode == Mode::Trace {
                local.events.push(SpanEvent {
                    rank: sh.rank,
                    role: sh.role,
                    name,
                    start_ns,
                    dur_ns,
                    index,
                    bytes,
                    deps: None,
                });
            }
        }
        sh.live_span(name, start_ns, dur_ns, index, bytes, None);
    }

    /// Record one sample into `name`'s latency histogram without opening
    /// a span (count/total/extrema/log2 buckets, no timeline event).
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        if let Some(sh) = self.shared.as_ref() {
            sh.local
                .borrow_mut()
                .stages
                .entry(name)
                .or_default()
                .record(ns, 0);
            if let Some(cell) = sh.live_cell(name) {
                cell.record(ns);
            }
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    track: Rc<TrackShared>,
    name: &'static str,
    start_ns: u64,
    index: Option<u64>,
    bytes: Option<u64>,
    deps: Option<SpanDeps>,
}

/// An in-flight span; records itself (duration, tags) when dropped.
#[derive(Debug)]
#[must_use = "a span records the duration until it is dropped"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// A span that records nothing.
    pub fn disabled() -> Self {
        Span { inner: None }
    }

    /// Tag with a projection/batch index (builder style).
    pub fn with_index(mut self, index: u64) -> Self {
        if let Some(s) = self.inner.as_mut() {
            s.index = Some(index);
        }
        self
    }

    /// Tag the producer spans this span consumed: an inclusive index
    /// range `lo..=hi` into `stage`'s spans on the same rank (builder
    /// style). Feeds [`crate::analysis`] dependency edges and Chrome flow
    /// arrows.
    pub fn with_deps(mut self, stage: &'static str, lo: u64, hi: u64) -> Self {
        if let Some(s) = self.inner.as_mut() {
            s.deps = Some(SpanDeps { stage, lo, hi });
        }
        self
    }

    /// Tag with the number of payload bytes this span moved.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(s) = self.inner.as_mut() {
            s.bytes = Some(bytes);
        }
    }

    /// True when this span will actually record.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else {
            return;
        };
        let end_ns = s.track.inner.now_ns();
        let dur_ns = end_ns.saturating_sub(s.start_ns);
        {
            let mut local = s.track.local.borrow_mut();
            local
                .stages
                .entry(s.name)
                .or_default()
                .record(dur_ns, s.bytes.unwrap_or(0));
            if s.track.inner.mode == Mode::Trace {
                local.events.push(SpanEvent {
                    rank: s.track.rank,
                    role: s.track.role,
                    name: s.name,
                    start_ns: s.start_ns,
                    dur_ns,
                    index: s.index,
                    bytes: s.bytes,
                    deps: s.deps,
                });
            }
        }
        s.track
            .live_span(s.name, s.start_ns, dur_ns, s.index, s.bytes, s.deps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_is_inert() {
        let rec = Recorder::off();
        assert!(!rec.is_enabled());
        assert!(!rec.is_tracing());
        let track = rec.track(0, ThreadRole::Main);
        assert!(!track.is_enabled());
        assert_eq!(track.rank(), None);
        let mut sp = track.span("x").with_index(3);
        assert!(!sp.is_recording());
        sp.set_bytes(10);
        drop(sp);
        track.counter_add("c", 1);
        track.gauge_max("g", 9);
        track.observe_ns("h", 5);
        assert_eq!(rec.collect(), TraceData::default());
    }

    #[test]
    fn default_recorder_is_off() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn summary_mode_aggregates_without_events() {
        let rec = Recorder::summary();
        assert!(rec.is_enabled());
        assert!(!rec.is_tracing());
        {
            let track = rec.track(2, ThreadRole::Filter);
            for i in 0..5u64 {
                let _sp = track.span("filter").with_index(i);
            }
            let mut sp = track.span("load");
            sp.set_bytes(400);
            drop(sp);
        }
        let data = rec.collect();
        assert!(data.events.is_empty(), "summary mode keeps no events");
        let f = data.stage(2, ThreadRole::Filter, "filter").unwrap();
        assert_eq!(f.count, 5);
        assert!(f.total_ns >= f.max_ns);
        assert!(f.min_ns <= f.max_ns);
        let l = data.stage(2, ThreadRole::Filter, "load").unwrap();
        assert_eq!(l.bytes, 400);
    }

    #[test]
    fn trace_mode_records_span_events_with_tags() {
        let rec = Recorder::trace();
        {
            let track = rec.track(1, ThreadRole::Main);
            let mut sp = track.span("allgather").with_index(7);
            sp.set_bytes(1024);
            drop(sp);
        }
        let data = rec.collect();
        assert_eq!(data.events.len(), 1);
        let e = &data.events[0];
        assert_eq!(e.rank, 1);
        assert_eq!(e.role, ThreadRole::Main);
        assert_eq!(e.name, "allgather");
        assert_eq!(e.index, Some(7));
        assert_eq!(e.bytes, Some(1024));
        // Aggregates exist alongside the events.
        assert_eq!(
            data.stage(1, ThreadRole::Main, "allgather").unwrap().count,
            1
        );
    }

    #[test]
    fn with_deps_tags_the_event() {
        let rec = Recorder::trace();
        {
            let track = rec.track(0, ThreadRole::Backprojection);
            let _sp = track
                .span("bp.batch")
                .with_index(0)
                .with_deps("allgather", 3, 5);
        }
        let data = rec.collect();
        let deps = data.events[0].deps.expect("deps tag retained");
        assert_eq!(deps.stage, "allgather");
        assert!(deps.contains(3) && deps.contains(5) && !deps.contains(6));
        // Off spans ignore the builder without panicking.
        let off = Track::disabled().span("x").with_deps("y", 0, 0);
        assert!(!off.is_recording());
    }

    #[test]
    fn spans_nest_and_both_record() {
        let rec = Recorder::trace();
        {
            let track = rec.track(0, ThreadRole::Filter);
            let _outer = track.span("load");
            {
                let _inner = track.span("pfs.read");
            }
        }
        let data = rec.collect();
        assert_eq!(data.events.len(), 2);
        // The inner span starts no earlier and ends no later.
        let outer = data.events.iter().find(|e| e.name == "load").unwrap();
        let inner = data.events.iter().find(|e| e.name == "pfs.read").unwrap();
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn counters_gauges_histograms() {
        let rec = Recorder::summary();
        {
            let track = rec.track(3, ThreadRole::Backprojection);
            track.counter_add("ring.push_stalls", 2);
            track.counter_add("ring.push_stalls", 3);
            track.gauge_max("ring.high_water", 4);
            track.gauge_max("ring.high_water", 9);
            track.gauge_max("ring.high_water", 7);
            track.observe_ns("batch_latency", 1_000);
            track.observe_ns("batch_latency", 1_000_000);
        }
        let data = rec.collect();
        assert_eq!(data.counter(3, "ring.push_stalls"), Some(5));
        assert_eq!(data.gauge(3, "ring.high_water"), Some(9));
        let h = data
            .stage(3, ThreadRole::Backprojection, "batch_latency")
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min_ns, 1_000);
        assert_eq!(h.max_ns, 1_000_000);
        assert_eq!(h.hist.count(), 2);
        assert!(h.hist.bucket_count(Hist::bucket_of(1_000)) >= 1);
    }

    #[test]
    fn attached_hooks_mirror_spans() {
        use crate::live::{FlightRecorder, LiveRegistry};
        let rec = Recorder::summary();
        let reg = LiveRegistry::new();
        let flight = FlightRecorder::new(4);
        rec.attach_live(&reg);
        rec.attach_flight(&flight);
        {
            let track = rec.track(1, ThreadRole::Filter);
            for i in 0..6u64 {
                let _sp = track.span("filter").with_index(i);
            }
            track.observe_ns("ring.gather.push_wait", 5_000);
            let now = Instant::now();
            track.record_completed("bp.tile", Some(0), Some(64), now, now);
        }
        // Live cells saw every span as it completed — even though the
        // recorder is in summary mode (no events in the final capture).
        assert_eq!(reg.stage("filter").done(), 6);
        assert_eq!(reg.stage("ring.gather.push_wait").done(), 1);
        assert_eq!(reg.stage("bp.tile").done(), 1);
        // The flight lane kept the last `capacity` spans, drop-oldest.
        let dump = flight.dump();
        assert!(rec.collect().events.is_empty(), "summary mode");
        let filter_lane: Vec<_> = dump.events.iter().filter(|e| e.name == "filter").collect();
        assert_eq!(filter_lane.len(), 3, "4-capacity lane minus bp.tile");
        assert_eq!(filter_lane[0].index, Some(3), "oldest spans evicted");
        // Detach: tracks opened afterwards stop mirroring.
        rec.detach_live();
        {
            let track = rec.track(1, ThreadRole::Filter);
            let _sp = track.span("filter");
        }
        assert_eq!(reg.stage("filter").done(), 6);
    }

    #[test]
    fn record_completed_lands_like_a_live_span() {
        let rec = Recorder::trace();
        {
            let track = rec.track(2, ThreadRole::Backprojection);
            // Instants measured "somewhere else" (e.g. a pool worker).
            let started = Instant::now();
            let finished = Instant::now();
            track.record_completed("bp.tile", Some(5), Some(64), started, finished);
        }
        let data = rec.collect();
        assert_eq!(data.events.len(), 1);
        let e = &data.events[0];
        assert_eq!(e.name, "bp.tile");
        assert_eq!(e.index, Some(5));
        assert_eq!(e.bytes, Some(64));
        let s = data
            .stage(2, ThreadRole::Backprojection, "bp.tile")
            .unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.bytes, 64);
    }

    #[test]
    fn record_completed_clamps_pre_origin_instants() {
        let before = Instant::now();
        let rec = Recorder::summary();
        let track = rec.track(0, ThreadRole::Other);
        track.record_completed("early", None, None, before, before);
        drop(track);
        let data = rec.collect();
        let s = data.stage(0, ThreadRole::Other, "early").unwrap();
        assert_eq!(s.count, 1);
    }

    #[test]
    fn tracks_merge_across_threads() {
        let rec = Recorder::summary();
        std::thread::scope(|s| {
            for rank in 0..4u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    let track = rec.track(rank, ThreadRole::Filter);
                    for _ in 0..10 {
                        let _sp = track.span("filter");
                    }
                    track.counter_add("n", 1);
                });
            }
        });
        let data = rec.collect();
        assert_eq!(data.stages.len(), 4);
        for rank in 0..4 {
            assert_eq!(
                data.stage(rank, ThreadRole::Filter, "filter")
                    .unwrap()
                    .count,
                10
            );
            assert_eq!(data.counter(rank, "n"), Some(1));
        }
    }

    #[test]
    fn same_tag_tracks_accumulate() {
        // Two successive tracks with the same (rank, role) — e.g. a rank
        // re-run or a track per phase — merge into one aggregate.
        let rec = Recorder::summary();
        for _ in 0..2 {
            let track = rec.track(0, ThreadRole::Main);
            let _sp = track.span("reduce");
        }
        assert_eq!(
            rec.collect()
                .stage(0, ThreadRole::Main, "reduce")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn clones_share_one_buffer_and_merge_once() {
        let rec = Recorder::trace();
        {
            let track = rec.track(0, ThreadRole::Main);
            let clone = track.clone();
            let _a = track.span("a");
            let _b = clone.span("b");
            drop(track); // clone still alive: nothing merged yet
            assert_eq!(rec.collect().events.len(), 0);
            drop((_a, _b));
            drop(clone);
        }
        assert_eq!(rec.collect().events.len(), 2);
    }

    #[test]
    fn reset_clears_the_capture() {
        let rec = Recorder::summary();
        {
            let track = rec.track(0, ThreadRole::Main);
            let _sp = track.span("x");
        }
        assert!(!rec.collect().stages.is_empty());
        rec.reset();
        assert_eq!(rec.collect(), TraceData::default());
    }

    #[test]
    fn time_passes_through_result() {
        let rec = Recorder::summary();
        let track = rec.track(0, ThreadRole::Other);
        let v = track.time("work", || 41 + 1);
        assert_eq!(v, 42);
        drop(track);
        assert_eq!(
            rec.collect()
                .stage(0, ThreadRole::Other, "work")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn role_names_and_tids_are_distinct() {
        let roles = [
            ThreadRole::Filter,
            ThreadRole::Main,
            ThreadRole::Backprojection,
            ThreadRole::Io,
            ThreadRole::Other,
        ];
        let names: std::collections::BTreeSet<_> = roles.iter().map(|r| r.as_str()).collect();
        let tids: std::collections::BTreeSet<_> = roles.iter().map(|r| r.tid()).collect();
        assert_eq!(names.len(), roles.len());
        assert_eq!(tids.len(), roles.len());
    }
}
