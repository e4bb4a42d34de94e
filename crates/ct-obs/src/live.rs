//! Live telemetry: the stall watchdog and flight recorder of a
//! *running* reconstruction.
//!
//! Everything else in `ct-obs` reports after the fact — a capture is
//! collected once the run completes and analyzed offline. A lane that
//! blocks and never wakes never completes its wait span, so that
//! capture cannot say what failed first. This module watches the run
//! while it executes, and everything it finds lands in the run's one
//! artifact, its trace:
//!
//! * [`LiveRegistry`] — per-stage completion cells ([`StageCell`]:
//!   items done and busy time), ring-buffer probes ([`RingProbe`]
//!   reading [`RingLiveState`]) and the watchdog trips so far.
//! * [`FlightRecorder`] — a bounded drop-oldest ring of the most recent
//!   completed spans per `(rank, role)` lane, always on in O(capacity)
//!   memory, dumpable at any moment into an ordinary
//!   [`TraceData`] ([`FlightRecorder::dump`]) so [`crate::analysis`]
//!   works on live runs without unbounded capture.
//! * [`LiveSession`] — the **stall watchdog** thread: it polls every
//!   ring probe at a quarter of the deadline, and any ring side whose
//!   in-flight push/pop wait exceeds the deadline trips it, capturing a
//!   flight dump with ring attribution and recording a `watchdog.trip`
//!   event in the trace. [`LiveSession::stop`] returns a
//!   [`LiveOutcome`].
//!
//! Both hooks attach to a [`Recorder`] (see [`Recorder::attach_live`]);
//! spans recorded through the normal [`crate::Track`] machinery feed the
//! registry and the flight recorder with no extra instrumentation at the
//! call sites.

pub use crate::analysis::StallKind;

use crate::clock::{Duration, Instant};
use crate::recorder::{Recorder, ThreadRole};
use crate::trace::{SpanEvent, TraceData};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicked pipeline thread must not take live telemetry with it.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-stage live completion cell: how many items finished and how much
/// busy time they took. Two relaxed atomics on the write path.
#[derive(Debug, Default)]
pub struct StageCell {
    done: AtomicU64,
    busy_ns: AtomicU64,
}

impl StageCell {
    /// Record one completed item of `dur_ns`.
    pub fn record(&self, dur_ns: u64) {
        self.record_batch(1, dur_ns)
    }

    /// Record `n` completed items that together took `dur_ns`.
    pub fn record_batch(&self, n: u64, dur_ns: u64) {
        self.done.fetch_add(n, Relaxed);
        self.busy_ns.fetch_add(dur_ns, Relaxed);
    }

    /// Items completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Relaxed)
    }

    /// Summed busy nanoseconds so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Relaxed)
    }
}

/// One ring buffer's in-flight waits, as read by a [`RingProbe`]:
/// what the stall watchdog needs to see a wait *while it is happening*.
/// Completed-stall totals live in `ct_sync::ring::RingMetrics`. Plain
/// data: `ct-obs` defines the shape, `ct_sync::ring::RingBuffer::live_state`
/// fills it (the layering runs strictly upward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingLiveState {
    /// How long the currently blocked producer (if any) has been
    /// waiting, nanoseconds. 0 when no producer is blocked.
    pub cur_push_wait_ns: u64,
    /// How long the currently blocked consumer (if any) has been
    /// waiting, nanoseconds. 0 when no consumer is blocked.
    pub cur_pop_wait_ns: u64,
}

impl RingLiveState {
    /// The current in-flight wait for one side, nanoseconds.
    pub fn cur_wait_ns(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::Push => self.cur_push_wait_ns,
            StallKind::Pop => self.cur_pop_wait_ns,
        }
    }
}

/// A named closure that reads one ring's [`RingLiveState`]. Registered
/// via [`LiveRegistry::watch_ring`]; polled by the watchdog thread.
#[derive(Clone)]
pub struct RingProbe {
    name: String,
    read: Arc<dyn Fn() -> RingLiveState + Send + Sync>,
}

impl RingProbe {
    /// Wrap a state-reading closure under `name`.
    pub fn new(
        name: impl Into<String>,
        read: impl Fn() -> RingLiveState + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            read: Arc::new(read),
        }
    }

    /// The probe's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read the ring's current state.
    pub fn read(&self) -> RingLiveState {
        (self.read)()
    }
}

impl fmt::Debug for RingProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingProbe")
            .field("name", &self.name)
            .finish()
    }
}

/// One watchdog trip: a ring lane exceeded the stall deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// Time since registry origin, nanoseconds.
    pub t_ns: u64,
    /// The ring probe's name.
    pub ring: String,
    /// Which side was blocked.
    pub kind: StallKind,
    /// The in-flight wait observed, nanoseconds.
    pub wait_ns: u64,
}

#[derive(Debug)]
struct RegistryInner {
    origin: Instant,
    stages: Mutex<BTreeMap<String, Arc<StageCell>>>,
    rings: Mutex<Vec<RingProbe>>,
    trips: Mutex<Vec<WatchdogTrip>>,
    trip_dump: Mutex<Option<TraceData>>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        Self {
            origin: crate::clock::now(),
            stages: Mutex::new(BTreeMap::new()),
            rings: Mutex::new(Vec::new()),
            trips: Mutex::new(Vec::new()),
            trip_dump: Mutex::new(None),
        }
    }
}

/// The live registry: cheap-to-clone handle shared by the pipeline
/// threads (writers) and the watchdog (reader).
#[derive(Debug, Clone, Default)]
pub struct LiveRegistry {
    inner: Arc<RegistryInner>,
}

impl LiveRegistry {
    /// A fresh registry; its clock origin is "now".
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds since the registry was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.origin.elapsed().as_nanos() as u64
    }

    /// Get-or-create the completion cell for `name`. Writers fetch the
    /// cell once and record through the returned handle.
    pub fn stage(&self, name: &str) -> Arc<StageCell> {
        let mut stages = lock(&self.inner.stages);
        Arc::clone(
            stages
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(StageCell::default())),
        )
    }

    /// Register a ring probe for watchdog checks.
    pub fn watch_ring(&self, probe: RingProbe) {
        lock(&self.inner.rings).push(probe);
    }

    /// All watchdog trips, in detection order.
    pub fn trips(&self) -> Vec<WatchdogTrip> {
        lock(&self.inner.trips).clone()
    }

    /// The flight-recorder dump captured at the *first* trip, if any.
    pub fn trip_dump(&self) -> Option<TraceData> {
        lock(&self.inner.trip_dump).clone()
    }

    /// Record a watchdog trip (and keep the first accompanying flight
    /// dump). Returns the new trip count.
    pub fn record_trip(&self, trip: WatchdogTrip, dump: Option<TraceData>) -> u64 {
        if let Some(d) = dump {
            lock(&self.inner.trip_dump).get_or_insert(d);
        }
        let mut trips = lock(&self.inner.trips);
        trips.push(trip);
        trips.len() as u64
    }
}

#[derive(Debug)]
struct FlightRing {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

/// One `(rank, role)` lane of the flight recorder: a bounded drop-oldest
/// ring of completed spans. Cheap to clone (handles share the ring);
/// fetched once per track and written on every completed span.
#[derive(Debug, Clone)]
pub struct FlightLane {
    capacity: usize,
    ring: Arc<Mutex<FlightRing>>,
}

impl FlightLane {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ring: Arc::new(Mutex::new(FlightRing {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            })),
        }
    }

    /// Record one completed span, evicting the oldest at capacity.
    pub fn record(&self, event: SpanEvent) {
        let mut ring = lock(&self.ring);
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        // analyze: allow(alloc, reason = "bounded flight ring: capacity reserved in new() and the eviction above keeps len < capacity, so push_back never reallocates")
        ring.events.push_back(event);
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        lock(&self.ring).events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted so far.
    pub fn dropped(&self) -> u64 {
        lock(&self.ring).dropped
    }
}

#[derive(Debug)]
struct FlightInner {
    capacity: usize,
    lanes: Mutex<BTreeMap<(u32, ThreadRole), FlightLane>>,
}

/// The flight recorder: always-on bounded span retention, one
/// [`FlightLane`] per `(rank, role)`. Memory is O(lanes x capacity)
/// regardless of run length; [`Self::dump`] turns the retained window
/// into an ordinary [`TraceData`] at any moment — including while the
/// pipeline is still running.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` spans per lane
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(FlightInner {
                capacity: capacity.max(1),
                lanes: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Get-or-create the lane for `(rank, role)`.
    pub fn lane(&self, rank: u32, role: ThreadRole) -> FlightLane {
        lock(&self.inner.lanes)
            .entry((rank, role))
            .or_insert_with(|| FlightLane::new(self.inner.capacity))
            .clone()
    }

    /// Total spans evicted across all lanes.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner.lanes)
            .values()
            .map(FlightLane::dropped)
            .sum()
    }

    /// Dump the retained window as a capture: sorted events plus
    /// rebuilt per-stage aggregates, ready for [`crate::analysis`] and
    /// [`crate::chrome`].
    pub fn dump(&self) -> TraceData {
        let lanes: Vec<FlightLane> = lock(&self.inner.lanes).values().cloned().collect();
        let mut events = Vec::new();
        for lane in lanes {
            events.extend(lock(&lane.ring).events.iter().cloned());
        }
        TraceData::from_events(events)
    }
}

/// Watchdog configuration for a [`LiveSession`].
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Stall-watchdog deadline: a ring side blocked longer than this
    /// trips the watchdog, which polls at a quarter of it. `None` runs
    /// no watchdog thread.
    pub stall_deadline: Option<Duration>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        Self {
            stall_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// What a live session observed, returned by [`LiveSession::stop`].
#[derive(Debug)]
pub struct LiveOutcome {
    /// All watchdog trips, in order.
    pub trips: Vec<WatchdogTrip>,
    /// Flight dump captured at the *first* trip (the run's state when
    /// things went wrong), if the watchdog tripped.
    pub trip_dump: Option<TraceData>,
    /// Flight dump taken at stop (the run's last `capacity` spans per
    /// lane), if a flight recorder was attached.
    pub flight_dump: Option<TraceData>,
}

/// The stall watchdog: one thread polling every ring probe until
/// stopped. Start it just before launching the pipeline,
/// [`Self::stop`] it right after.
#[derive(Debug)]
pub struct LiveSession {
    stop: Arc<(Mutex<bool>, Condvar)>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    registry: LiveRegistry,
    flight: Option<FlightRecorder>,
}

impl LiveSession {
    /// Spawn the watchdog (none without a stall deadline).
    ///
    /// `recorder` is where `watchdog.trip` events land (rank 0, role
    /// `Other`); pass the same recorder the pipeline records into so
    /// trips show up in the final capture.
    pub fn start(
        registry: LiveRegistry,
        flight: Option<FlightRecorder>,
        recorder: &Recorder,
        opts: LiveOptions,
    ) -> LiveSession {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let watchdog = opts.stall_deadline.map(|deadline| {
            let stop = Arc::clone(&stop);
            let reg = registry.clone();
            let fl = flight.clone();
            let recorder = recorder.clone();
            std::thread::Builder::new()
                .name("ct-obs-watchdog".into())
                .spawn(move || watchdog_main(reg, fl, recorder, deadline, stop))
                .expect("spawning the stall watchdog thread")
        });
        LiveSession {
            stop,
            watchdog,
            registry,
            flight,
        }
    }

    /// Signal the watchdog, join it, and assemble the outcome.
    pub fn stop(self) -> LiveOutcome {
        {
            let (lk, cv) = &*self.stop;
            *lock(lk) = true;
            cv.notify_all();
        }
        if let Some(handle) = self.watchdog {
            // A panicked watchdog loses only the trips it had not yet
            // recorded; the run's own result stands.
            let _ = handle.join();
        }
        LiveOutcome {
            trips: self.registry.trips(),
            trip_dump: self.registry.trip_dump(),
            flight_dump: self.flight.as_ref().map(FlightRecorder::dump),
        }
    }
}

fn watchdog_main(
    registry: LiveRegistry,
    flight: Option<FlightRecorder>,
    recorder: Recorder,
    deadline: Duration,
    stop: Arc<(Mutex<bool>, Condvar)>,
) {
    // The watchdog's own track: `watchdog.trip` events land on
    // (rank 0, Other) and merge into the recorder when the thread ends.
    let track = recorder.track(0, ThreadRole::Other);
    let deadline_ns = (deadline.as_nanos() as u64).max(1);
    let period = (deadline / 4).max(Duration::from_millis(1));
    // Ring sides currently past the deadline: a side trips once per
    // excursion and re-arms when its wait drops back under.
    let mut over: BTreeSet<(String, StallKind)> = BTreeSet::new();
    loop {
        let stopping = {
            let (lk, cv) = &*stop;
            let mut g = lock(lk);
            if !*g {
                g = cv
                    .wait_timeout(g, period)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            *g
        };
        if stopping {
            break;
        }
        watchdog_check(&registry, flight.as_ref(), &track, deadline_ns, &mut over);
    }
}

/// One watchdog pass over every registered ring.
fn watchdog_check(
    registry: &LiveRegistry,
    flight: Option<&FlightRecorder>,
    track: &crate::recorder::Track,
    deadline_ns: u64,
    over: &mut BTreeSet<(String, StallKind)>,
) {
    let probes: Vec<RingProbe> = lock(&registry.inner.rings).clone();
    for probe in &probes {
        let state = probe.read();
        for kind in [StallKind::Push, StallKind::Pop] {
            let wait_ns = state.cur_wait_ns(kind);
            let key = (probe.name().to_string(), kind);
            if wait_ns < deadline_ns {
                over.remove(&key);
                continue;
            }
            if !over.insert(key) {
                continue; // already tripped for this excursion
            }
            let trip = WatchdogTrip {
                t_ns: registry.elapsed_ns(),
                ring: probe.name().to_string(),
                kind,
                wait_ns,
            };
            let dump = flight.map(FlightRecorder::dump);
            let n = registry.record_trip(trip, dump);
            let now = crate::clock::now();
            track.record_completed("watchdog.trip", Some(n - 1), None, now, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Track;

    #[test]
    fn stage_cells_accumulate() {
        let reg = LiveRegistry::new();
        let cell = reg.stage("filter");
        cell.record(1_000);
        cell.record_batch(3, 6_000);
        assert_eq!(cell.done(), 4);
        assert_eq!(cell.busy_ns(), 7_000);
        // Same name returns the same cell.
        assert_eq!(reg.stage("filter").done(), 4);
    }

    fn ev(name: &'static str, start: u64) -> SpanEvent {
        SpanEvent {
            rank: 0,
            role: ThreadRole::Filter,
            name,
            start_ns: start,
            dur_ns: 10,
            index: None,
            bytes: None,
            deps: None,
        }
    }

    #[test]
    fn flight_lane_drops_oldest_at_capacity() {
        let fr = FlightRecorder::new(3);
        let lane = fr.lane(0, ThreadRole::Filter);
        assert!(lane.is_empty());
        for i in 0..5 {
            lane.record(ev("filter", i * 100));
        }
        assert_eq!(lane.len(), 3);
        assert_eq!(lane.dropped(), 2);
        assert_eq!(fr.dropped(), 2);
        let dump = fr.dump();
        assert_eq!(dump.events.len(), 3);
        // The oldest two are gone; the window starts at 200.
        assert_eq!(dump.events[0].start_ns, 200);
        let s = dump.stage(0, ThreadRole::Filter, "filter").expect("stage");
        assert_eq!(s.count, 3);
    }

    #[test]
    fn flight_lanes_are_per_rank_role_and_shared() {
        let fr = FlightRecorder::new(8);
        let a = fr.lane(0, ThreadRole::Filter);
        let b = fr.lane(0, ThreadRole::Filter);
        a.record(ev("filter", 0));
        assert_eq!(b.len(), 1, "same (rank, role) shares one ring");
        fr.lane(1, ThreadRole::Main).record(SpanEvent {
            rank: 1,
            role: ThreadRole::Main,
            ..ev("allgather", 50)
        });
        let dump = fr.dump();
        assert_eq!(dump.ranks(), vec![0, 1]);
    }

    #[test]
    fn session_watchdog_trips_once_per_stall() {
        let rec = Recorder::summary();
        let reg = LiveRegistry::new();
        let flight = FlightRecorder::new(16);
        flight
            .lane(0, ThreadRole::Backprojection)
            .record(SpanEvent {
                role: ThreadRole::Backprojection,
                name: "backprojection",
                ..ev("backprojection", 0)
            });
        // A ring probe that always reports a 50 ms in-flight push wait.
        reg.watch_ring(RingProbe::new("ring.bp", || RingLiveState {
            cur_push_wait_ns: 50_000_000,
            ..RingLiveState::default()
        }));
        let session = LiveSession::start(
            reg.clone(),
            Some(flight),
            &rec,
            LiveOptions {
                stall_deadline: Some(Duration::from_millis(10)),
            },
        );
        std::thread::sleep(Duration::from_millis(30));
        let outcome = session.stop();
        // The stall was continuously over deadline: exactly one trip
        // (per-excursion dedup), attributed to the right ring and side.
        assert_eq!(outcome.trips.len(), 1, "{:?}", outcome.trips);
        assert_eq!(outcome.trips[0].ring, "ring.bp");
        assert_eq!(outcome.trips[0].kind, StallKind::Push);
        assert!(outcome.trips[0].wait_ns >= 10_000_000);
        // The trip dump is the flight window at trip time.
        let td = outcome.trip_dump.expect("trip dump captured");
        assert_eq!(td.events.len(), 1);
        assert!(outcome.flight_dump.is_some());
        // The watchdog.trip event merged into the recorder.
        let trace = rec.collect();
        let s = trace
            .stage(0, ThreadRole::Other, "watchdog.trip")
            .expect("watchdog.trip recorded");
        assert_eq!(s.count, 1);
    }

    #[test]
    fn session_without_watchdog_or_rings_stays_clean() {
        let rec = Recorder::off();
        let reg = LiveRegistry::new();
        reg.stage("filter").record(5);
        let session = LiveSession::start(
            reg.clone(),
            None,
            &rec,
            LiveOptions {
                stall_deadline: None,
            },
        );
        std::thread::sleep(Duration::from_millis(12));
        let outcome = session.stop();
        assert!(outcome.trips.is_empty());
        assert!(outcome.trip_dump.is_none());
        assert!(outcome.flight_dump.is_none());
    }

    #[test]
    #[ignore = "bench-style overhead budgets; run with `cargo test -- --ignored`"]
    fn recording_overhead_budgets() {
        // Budgets are deliberately generous (10-100x typical measured
        // cost) so the test asserts "did not regress catastrophically"
        // rather than machine-specific microbenchmark numbers.
        let n = 1_000_000u64;

        // Disabled-track span path: a single Option check. Budget:
        // 200 ns/op.
        let track = Track::disabled();
        let t0 = Instant::now();
        for i in 0..n {
            let _sp = track.span("filter").with_index(i);
        }
        let per_op = t0.elapsed().as_nanos() as f64 / n as f64;
        assert!(
            per_op < 200.0,
            "disabled span path: {per_op:.1} ns/op exceeds the 200 ns budget"
        );

        // Flight-recorder record path: one short mutex hold + VecDeque
        // rotate. Budget: 2000 ns/op.
        let fr = FlightRecorder::new(512);
        let lane = fr.lane(0, ThreadRole::Backprojection);
        let t0 = Instant::now();
        for i in 0..n {
            lane.record(SpanEvent {
                rank: 0,
                role: ThreadRole::Backprojection,
                name: "backprojection",
                start_ns: i,
                dur_ns: 10,
                index: Some(i),
                bytes: None,
                deps: None,
            });
        }
        let per_op = t0.elapsed().as_nanos() as f64 / n as f64;
        assert!(
            per_op < 2000.0,
            "flight record path: {per_op:.1} ns/op exceeds the 2000 ns budget"
        );

        // Live stage-cell record path: two relaxed atomics. Budget:
        // 2000 ns/op.
        let reg = LiveRegistry::new();
        let cell = reg.stage("backprojection");
        let t0 = Instant::now();
        for _ in 0..n {
            cell.record(10);
        }
        let per_op = t0.elapsed().as_nanos() as f64 / n as f64;
        assert!(
            per_op < 2000.0,
            "stage cell record path: {per_op:.1} ns/op exceeds the 2000 ns budget"
        );
    }
}
