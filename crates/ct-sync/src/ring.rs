//! Bounded circular buffers — the inter-thread queues of an iFDK rank.
//!
//! "Those threads ... execute independently and exchange data with each
//! other using circular buffers" (paper Section 4.1.3, Figure 4a). The
//! buffer is a classic bounded MPMC queue: producers block when it is
//! full (back-pressure keeps the filtering stage from racing ahead of the
//! GPU), consumers block when it is empty, and closing it wakes everyone
//! so pipelines drain cleanly.
//!
//! Stalls are first-class observations, not just counters: every blocked
//! push or pop adds its wait *duration* to the stall totals and maxima
//! (read them back with [`RingBuffer::metrics`]), and a buffer built with
//! [`RingBuffer::with_wait_spans`] additionally emits a timed
//! `<name>.push_wait` / `<name>.pop_wait` span on the waiting thread's
//! ambient [`ct_obs::current`] track — which is how
//! `ct_obs::analysis` attributes pipeline stalls to specific buffers.
//!
//! The buffer lives in `ct-sync` (re-exported as `ifdk::RingBuffer`) so
//! that it is written against the facade's [`Mutex`]/[`Condvar`]: the
//! `--cfg loom` build swaps those for model-checked primitives and
//! `tests/loom_ring.rs` explores every bounded-preemption interleaving of
//! push/pop/close.

use crate::{Condvar, Mutex};
use ct_obs::clock::{self, Instant};
use std::collections::VecDeque;
use std::sync::Arc;

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Largest queue length ever reached (occupancy high-water mark).
    high_water: usize,
    /// Push calls that found the buffer full and had to wait at least
    /// once (back-pressure on the producer).
    push_stalls: u64,
    /// Pop calls that found the buffer empty and had to wait at least
    /// once (starvation of the consumer).
    pop_stalls: u64,
    /// Summed nanoseconds producers spent blocked in `push`.
    push_stall_ns: u64,
    /// Summed nanoseconds consumers spent blocked in `pop`.
    pop_stall_ns: u64,
    /// Longest single completed push stall, nanoseconds.
    push_stall_max_ns: u64,
    /// Longest single completed pop stall, nanoseconds.
    pop_stall_max_ns: u64,
    /// Producers currently blocked inside `push`.
    blocked_pushers: usize,
    /// Consumers currently blocked inside `pop`.
    blocked_poppers: usize,
    /// When the *oldest* currently blocked producer started waiting.
    /// `None` while no producer is blocked. When one of several blocked
    /// producers completes, this conservatively resets to "now" — exact
    /// for the 1-producer/1-consumer rings the iFDK pipeline uses, an
    /// underestimate (never a false stall) otherwise.
    push_wait_since: Option<Instant>,
    /// Same, consumer side.
    pop_wait_since: Option<Instant>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// `(push_wait, pop_wait)` span names emitted on the ambient track of
    /// a blocked thread; `None` keeps waits as bare metrics.
    wait_spans: Option<(&'static str, &'static str)>,
}

/// A bounded blocking FIFO. Clones share the same buffer.
pub struct RingBuffer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for RingBuffer<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> RingBuffer<T> {
    /// Create a buffer holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// Create a buffer that, in addition to the stall metrics, records a
    /// timed span on the blocked thread's [`ct_obs::current`] track for
    /// every stall: `push_wait` names producer-side waits, `pop_wait`
    /// consumer-side ones. Spans carry the stall ordinal as their index.
    /// With no ambient track bound (or the recorder off) the spans cost
    /// nothing.
    pub fn with_wait_spans(
        capacity: usize,
        push_wait: &'static str,
        pop_wait: &'static str,
    ) -> Self {
        Self::build(capacity, Some((push_wait, pop_wait)))
    }

    fn build(capacity: usize, wait_spans: Option<(&'static str, &'static str)>) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::with_capacity(capacity),
                    closed: false,
                    high_water: 0,
                    push_stalls: 0,
                    pop_stalls: 0,
                    push_stall_ns: 0,
                    pop_stall_ns: 0,
                    push_stall_max_ns: 0,
                    pop_stall_max_ns: 0,
                    blocked_pushers: 0,
                    blocked_poppers: 0,
                    push_wait_since: None,
                    pop_wait_since: None,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
                capacity,
                wait_spans,
            }),
        }
    }

    /// Capacity the buffer was created with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Current queue length (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// True when currently empty (racy; diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking push. Returns `Err(item)` if the buffer is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.shared.state.lock();
        let mut wait: Option<(Instant, ct_obs::Span)> = None;
        let result = loop {
            if st.closed {
                break Err(item);
            }
            if st.queue.len() < self.shared.capacity {
                // analyze: allow(alloc, reason = "bounded: storage reserved at construction and the len < capacity check above holds, so push_back never reallocates")
                st.queue.push_back(item);
                st.high_water = st.high_water.max(st.queue.len());
                break Ok(());
            }
            if wait.is_none() {
                st.push_stalls += 1;
                st.blocked_pushers += 1;
                let started = clock::now();
                if st.push_wait_since.is_none() {
                    st.push_wait_since = Some(started);
                }
                let span = match self.shared.wait_spans {
                    Some((name, _)) => ct_obs::current::span(name).with_index(st.push_stalls - 1),
                    None => ct_obs::Span::disabled(),
                };
                wait = Some((started, span));
            }
            self.shared.not_full.wait(&mut st);
        };
        if let Some((started, span)) = wait {
            let ns = started.elapsed().as_nanos() as u64;
            st.push_stall_ns += ns;
            st.push_stall_max_ns = st.push_stall_max_ns.max(ns);
            st.blocked_pushers -= 1;
            st.push_wait_since = if st.blocked_pushers == 0 {
                None
            } else {
                Some(clock::now())
            };
            drop(span);
        }
        drop(st);
        if result.is_ok() {
            self.shared.not_empty.notify_one();
        }
        result
    }

    /// Blocking pop. Returns `None` once the buffer is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.shared.state.lock();
        let mut wait: Option<(Instant, ct_obs::Span)> = None;
        let result = loop {
            if let Some(item) = st.queue.pop_front() {
                break Some(item);
            }
            if st.closed {
                break None;
            }
            if wait.is_none() {
                st.pop_stalls += 1;
                st.blocked_poppers += 1;
                let started = clock::now();
                if st.pop_wait_since.is_none() {
                    st.pop_wait_since = Some(started);
                }
                let span = match self.shared.wait_spans {
                    Some((_, name)) => ct_obs::current::span(name).with_index(st.pop_stalls - 1),
                    None => ct_obs::Span::disabled(),
                };
                wait = Some((started, span));
            }
            self.shared.not_empty.wait(&mut st);
        };
        if let Some((started, span)) = wait {
            let ns = started.elapsed().as_nanos() as u64;
            st.pop_stall_ns += ns;
            st.pop_stall_max_ns = st.pop_stall_max_ns.max(ns);
            st.blocked_poppers -= 1;
            st.pop_wait_since = if st.blocked_poppers == 0 {
                None
            } else {
                Some(clock::now())
            };
            drop(span);
        }
        drop(st);
        if result.is_some() {
            self.shared.not_full.notify_one();
        }
        result
    }

    /// Pop exactly `max` items, blocking for each, or fewer once the
    /// buffer is closed and drained — how the back-projection thread
    /// assembles projection batches. A short (or empty) batch therefore
    /// only ever ends the stream, so batch boundaries are a function of
    /// the item sequence, never of timing.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            match self.pop() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        out
    }

    /// Close the buffer: producers fail, consumers drain then see `None`.
    pub fn close(&self) {
        let mut st = self.shared.state.lock();
        st.closed = true;
        drop(st);
        self.shared.not_full.notify_all();
        self.shared.not_empty.notify_all();
    }

    /// Snapshot of the buffer's occupancy and stall statistics. These are
    /// what an observability layer reads once per pipeline run — the
    /// counters themselves are maintained inside the existing critical
    /// sections, so tracking them costs no extra synchronisation.
    pub fn metrics(&self) -> RingMetrics {
        let st = self.shared.state.lock();
        RingMetrics {
            capacity: self.shared.capacity,
            len: st.queue.len(),
            high_water: st.high_water,
            push_stalls: st.push_stalls,
            pop_stalls: st.pop_stalls,
            push_stall_ns: st.push_stall_ns,
            pop_stall_ns: st.pop_stall_ns,
            max_push_stall_ns: st.push_stall_max_ns,
            max_pop_stall_ns: st.pop_stall_max_ns,
        }
    }

    /// Live-telemetry snapshot: the *in-flight* waits — how long the
    /// currently blocked producer/consumer (if any) has already been
    /// waiting. Completed stalls only show up in the
    /// [`RingBuffer::metrics`] totals after the waiter wakes; a
    /// deadlocked or throttled lane never wakes, so a stall watchdog
    /// must see the wait *while it is happening*. This is what
    /// [`RingBuffer::live_probe`] samples.
    pub fn live_state(&self) -> ct_obs::live::RingLiveState {
        let st = self.shared.state.lock();
        let now = clock::now();
        let cur = |since: Option<Instant>| -> u64 {
            since.map_or(0, |s| now.saturating_duration_since(s).as_nanos() as u64)
        };
        ct_obs::live::RingLiveState {
            cur_push_wait_ns: cur(st.push_wait_since),
            cur_pop_wait_ns: cur(st.pop_wait_since),
        }
    }
}

impl<T: Send + 'static> RingBuffer<T> {
    /// A named [`ct_obs::live::RingProbe`] over this buffer, ready for
    /// [`ct_obs::live::LiveRegistry::watch_ring`]. The probe holds a
    /// clone of the buffer (shared state, not data), so it keeps the
    /// ring's metrics alive for the sampler even after the pipeline
    /// drops its handles.
    pub fn live_probe(&self, name: impl Into<String>) -> ct_obs::live::RingProbe {
        let rb = self.clone();
        ct_obs::live::RingProbe::new(name, move || rb.live_state())
    }
}

/// A point-in-time view of a buffer's occupancy statistics.
///
/// `high_water` close to `capacity` plus a large `push_stalls` means the
/// consumer is the bottleneck (the paper's back-pressure case: filtering
/// races ahead of back-projection); a large `pop_stalls` with a low
/// high-water mark means the producer is. The `*_stall_ns` totals and
/// maxima say how *costly* those stalls were, not just how frequent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RingMetrics {
    /// Configured capacity.
    pub capacity: usize,
    /// Queue length at snapshot time.
    pub len: usize,
    /// Largest queue length ever reached.
    pub high_water: usize,
    /// Push calls that blocked on a full buffer at least once.
    pub push_stalls: u64,
    /// Pop calls that blocked on an empty buffer at least once.
    pub pop_stalls: u64,
    /// Summed nanoseconds producers spent blocked.
    pub push_stall_ns: u64,
    /// Summed nanoseconds consumers spent blocked.
    pub pop_stall_ns: u64,
    /// Longest single completed push stall, nanoseconds.
    pub max_push_stall_ns: u64,
    /// Longest single completed pop stall, nanoseconds.
    pub max_pop_stall_ns: u64,
}

impl RingMetrics {
    /// Summed producer blocked time in seconds.
    pub fn push_stall_secs(&self) -> f64 {
        self.push_stall_ns as f64 / 1e9
    }

    /// Summed consumer blocked time in seconds.
    pub fn pop_stall_secs(&self) -> f64 {
        self.pop_stall_ns as f64 / 1e9
    }

    /// Longest single completed push stall in seconds.
    pub fn max_push_stall_secs(&self) -> f64 {
        self.max_push_stall_ns as f64 / 1e9
    }

    /// Longest single completed pop stall in seconds.
    pub fn max_pop_stall_secs(&self) -> f64 {
        self.max_pop_stall_ns as f64 / 1e9
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Deterministic handshake: spin (yielding) until `cond` holds. The
    /// ring's stall counters increment *before* the thread parks, so
    /// "peer has stalled" is observable without sleeping — the tests
    /// below use this instead of `thread::sleep` so they cannot flake on
    /// a loaded machine and waste no wall-clock when the peer is fast.
    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = clock::now() + Duration::from_secs(30);
        while !cond() {
            assert!(clock::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_order() {
        let rb = RingBuffer::new(4);
        rb.push(1).expect("open buffer accepts");
        rb.push(2).expect("open buffer accepts");
        rb.push(3).expect("open buffer accepts");
        assert_eq!(rb.pop(), Some(1));
        assert_eq!(rb.pop(), Some(2));
        assert_eq!(rb.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let rb = RingBuffer::new(4);
        rb.push("a").expect("open buffer accepts");
        rb.close();
        assert_eq!(rb.push("b"), Err("b"));
        assert_eq!(rb.pop(), Some("a"));
        assert_eq!(rb.pop(), None);
    }

    #[test]
    fn producer_blocks_until_consumed() {
        let rb = RingBuffer::new(1);
        rb.push(0u32).expect("open buffer accepts");
        let rb2 = rb.clone();
        let handle = std::thread::spawn(move || {
            // This push must block until the main thread pops.
            rb2.push(1).expect("buffer never closes");
        });
        wait_until("producer stalls on the full buffer", || {
            rb.metrics().push_stalls == 1
        });
        assert_eq!(rb.len(), 1, "blocked producer must not have pushed");
        assert_eq!(rb.pop(), Some(0));
        handle.join().expect("producer thread");
        assert_eq!(rb.pop(), Some(1));
    }

    #[test]
    fn consumer_blocks_until_produced() {
        let rb = RingBuffer::<u64>::new(2);
        let rb2 = rb.clone();
        let handle = std::thread::spawn(move || rb2.pop());
        wait_until("consumer stalls on the empty buffer", || {
            rb.metrics().pop_stalls == 1
        });
        rb.push(99).expect("open buffer accepts");
        assert_eq!(handle.join().expect("consumer thread"), Some(99));
    }

    #[test]
    fn pop_batch_takes_available() {
        let rb = RingBuffer::new(8);
        for i in 0..5 {
            rb.push(i).expect("open buffer accepts");
        }
        let batch = rb.pop_batch(3);
        assert_eq!(batch, vec![0, 1, 2]);
        // A short batch means the stream ended: without the close this
        // call would block for the missing items.
        rb.close();
        let batch = rb.pop_batch(10);
        assert_eq!(batch, vec![3, 4]);
        assert!(rb.pop_batch(4).is_empty());
        assert!(rb.pop_batch(0).is_empty());
    }

    #[test]
    fn pipeline_transfers_everything() {
        let rb = RingBuffer::new(3);
        let producer = rb.clone();
        let n = 1000u32;
        let handle = std::thread::spawn(move || {
            for i in 0..n {
                producer.push(i).expect("buffer never closes early");
            }
            producer.close();
        });
        let mut got = Vec::new();
        while let Some(x) = rb.pop() {
            got.push(x);
        }
        handle.join().expect("producer thread");
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn multi_producer_multi_consumer() {
        let rb = RingBuffer::new(4);
        let total: u64 = std::thread::scope(|s| {
            for t in 0..4u64 {
                let rb = rb.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        rb.push(t * 1000 + i).expect("buffer never closes");
                    }
                });
            }
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let rb = rb.clone();
                    s.spawn(move || {
                        let mut sum = 0u64;
                        let mut count = 0;
                        while count < 200 {
                            if let Some(x) = rb.pop() {
                                sum += x;
                                count += 1;
                            }
                        }
                        sum
                    })
                })
                .collect();
            consumers
                .into_iter()
                .map(|c| c.join().expect("consumer thread"))
                .sum()
        });
        let expect: u64 = (0..4u64)
            .map(|t| (0..100).map(|i| t * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        RingBuffer::<u8>::new(0);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let rb = RingBuffer::new(8);
        assert_eq!(
            rb.metrics(),
            RingMetrics {
                capacity: 8,
                ..RingMetrics::default()
            }
        );
        rb.push(1).expect("open buffer accepts");
        rb.push(2).expect("open buffer accepts");
        rb.push(3).expect("open buffer accepts");
        assert_eq!(rb.metrics().high_water, 3);
        // Draining does not lower the mark.
        assert!(rb.pop().is_some());
        assert!(rb.pop().is_some());
        assert_eq!(rb.metrics().len, 1);
        assert_eq!(rb.metrics().high_water, 3);
        rb.push(4).expect("open buffer accepts");
        assert_eq!(rb.metrics().high_water, 3, "peak was 3, now only 2 queued");
    }

    #[test]
    fn push_stalls_and_pop_stalls_are_counted_once_per_call() {
        let rb = RingBuffer::new(1);

        // Unblocked traffic: no stalls, no waits.
        rb.push(0u32).expect("open buffer accepts");
        assert_eq!(rb.pop(), Some(0));
        let m = rb.metrics();
        assert_eq!((m.push_stalls, m.pop_stalls), (0, 0));
        assert_eq!((m.push_stall_ns, m.pop_stall_ns), (0, 0));

        // A push into a full buffer stalls exactly once, even though the
        // condvar may wake it spuriously several times.
        rb.push(1).expect("open buffer accepts");
        let rb2 = rb.clone();
        let producer = std::thread::spawn(move || rb2.push(2).expect("buffer never closes"));
        wait_until("producer stalls on the full buffer", || {
            rb.metrics().push_stalls == 1
        });
        assert_eq!(rb.pop(), Some(1));
        producer.join().expect("producer thread");
        assert_eq!(rb.metrics().push_stalls, 1);

        // A pop from an empty buffer waits exactly once.
        assert_eq!(rb.pop(), Some(2));
        let rb2 = rb.clone();
        let consumer = std::thread::spawn(move || rb2.pop());
        wait_until("consumer stalls on the empty buffer", || {
            rb.metrics().pop_stalls == 1
        });
        rb.push(3).expect("open buffer accepts");
        assert_eq!(consumer.join().expect("consumer thread"), Some(3));
        let m = rb.metrics();
        assert_eq!((m.push_stalls, m.pop_stalls), (1, 1));
        // Each stall parked on a condvar for at least one scheduler
        // round-trip; the durations must land in the totals.
        assert!(m.push_stall_ns > 0, "push stall unrecorded: {m:?}");
        assert!(m.pop_stall_ns > 0, "pop stall unrecorded: {m:?}");
        // The single stall is also the longest one so far.
        assert_eq!(m.max_push_stall_ns, m.push_stall_ns);
        assert_eq!(m.max_pop_stall_ns, m.pop_stall_ns);
        assert!((m.push_stall_secs() - m.push_stall_ns as f64 / 1e9).abs() < 1e-12);
        assert!(m.max_push_stall_secs() > 0.0);
    }

    #[test]
    fn backpressured_pipeline_reports_stalls() {
        // Fill the buffer, then start a producer that must stall; only
        // begin draining once the stall is visible in the metrics. The
        // buffer saturates (high_water == capacity) deterministically.
        let rb = RingBuffer::new(2);
        rb.push(0u32).expect("open buffer accepts");
        rb.push(1).expect("open buffer accepts");
        let producer = rb.clone();
        let handle = std::thread::spawn(move || {
            for i in 2..50u32 {
                producer.push(i).expect("buffer never closes early");
            }
            producer.close();
        });
        wait_until("producer stalls on the full buffer", || {
            rb.metrics().push_stalls > 0
        });
        let mut got = 0;
        while rb.pop().is_some() {
            got += 1;
        }
        handle.join().expect("producer thread");
        assert_eq!(got, 50);
        let m = rb.metrics();
        assert_eq!(m.high_water, 2);
        assert!(m.push_stalls > 0, "fast producer never stalled: {m:?}");
        assert!(m.push_stall_ns > 0);
    }

    #[test]
    fn live_state_exposes_in_flight_waits() {
        let rb = RingBuffer::new(1);
        rb.push(0u32).expect("open buffer accepts");

        // No one blocked: both in-flight waits read zero.
        let s = rb.live_state();
        assert_eq!((s.cur_push_wait_ns, s.cur_pop_wait_ns), (0, 0));

        // Block a producer; its wait must be visible *while it waits* —
        // before the stall totals record anything.
        let producer = {
            let rb = rb.clone();
            std::thread::spawn(move || rb.push(1).expect("buffer never closes"))
        };
        wait_until("producer stalls on the full buffer", || {
            rb.metrics().push_stalls == 1
        });
        wait_until("in-flight push wait becomes visible", || {
            rb.live_state().cur_push_wait_ns > 0
        });
        assert_eq!(rb.metrics().push_stall_ns, 0, "stall has not completed yet");

        // Unblock; the in-flight wait clears and the completed stall
        // lands in the totals.
        assert_eq!(rb.pop(), Some(0));
        producer.join().expect("producer thread");
        assert_eq!(rb.live_state().cur_push_wait_ns, 0);
        assert!(rb.metrics().max_push_stall_ns > 0);

        // The probe wraps the same state under a name.
        let probe = rb.live_probe("ring.test");
        assert_eq!(probe.name(), "ring.test");
        assert_eq!(probe.read(), rb.live_state());
    }

    #[test]
    fn wait_spans_land_on_the_ambient_track() {
        use ct_obs::{Recorder, ThreadRole};

        let rec = Recorder::trace();
        let rb = RingBuffer::with_wait_spans(1, "ring.test.push_wait", "ring.test.pop_wait");

        // Consumer (this thread) waits on an empty buffer with an ambient
        // track bound; the producer pushes only once the consumer's stall
        // is visible, so exactly one wait span is recorded.
        let producer = {
            let rb = rb.clone();
            std::thread::spawn(move || {
                wait_until("consumer stalls on the empty buffer", || {
                    rb.metrics().pop_stalls == 1
                });
                rb.push(7u32).expect("buffer never closes");
            })
        };
        {
            let track = rec.track(3, ThreadRole::Main);
            let _cur = ct_obs::current::set_current(&track);
            assert_eq!(rb.pop(), Some(7));
        }
        producer.join().expect("producer thread");

        let data = rec.collect();
        let waits: Vec<_> = data
            .events
            .iter()
            .filter(|e| e.name == "ring.test.pop_wait")
            .collect();
        assert_eq!(waits.len(), 1, "one stall, one span: {:?}", data.events);
        assert_eq!(waits[0].rank, 3);
        assert_eq!(waits[0].role, ThreadRole::Main);
        assert_eq!(waits[0].index, Some(0));
        assert!(waits[0].dur_ns > 0, "span must cover the wait");
        let m = rb.metrics();
        assert_eq!(m.pop_stalls, 1);
    }

    #[test]
    fn unnamed_buffers_record_no_spans() {
        use ct_obs::{Recorder, ThreadRole};

        let rec = Recorder::trace();
        let rb = RingBuffer::new(1);
        let producer = {
            let rb = rb.clone();
            std::thread::spawn(move || {
                wait_until("consumer stalls on the empty buffer", || {
                    rb.metrics().pop_stalls == 1
                });
                rb.push(1u32).expect("buffer never closes");
            })
        };
        {
            let track = rec.track(0, ThreadRole::Main);
            let _cur = ct_obs::current::set_current(&track);
            assert_eq!(rb.pop(), Some(1));
        }
        producer.join().expect("producer thread");
        assert!(
            rec.collect().events.is_empty(),
            "plain RingBuffer::new must stay span-silent"
        );
        assert_eq!(rb.metrics().pop_stalls, 1, "metrics still count the stall");
    }
}
