//! Exhaustive model checking of `RingBuffer` under `--cfg loom`.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --manifest-path crates/ct-sync/Cargo.toml \
//!     --release --test loom_ring
//! ```
//!
//! Each test body runs under *every* thread interleaving within the
//! configured preemption bound (default 2, `CT_LOOM_PREEMPTIONS` to
//! deepen). The checked invariants are the ones the iFDK pipeline leans
//! on: FIFO order, blocking push/pop never deadlock at tiny capacities,
//! closing wakes blocked peers (no lost wakeups), and the stall counters
//! stay consistent under every schedule.

#![cfg(loom)]

use ct_sync::model::model;
use ct_sync::ring::RingBuffer;
use ct_sync::thread;

#[test]
fn spsc_capacity_one_preserves_fifo() {
    model(|| {
        let rb = RingBuffer::new(1);
        let producer = {
            let rb = rb.clone();
            thread::spawn(move || {
                for i in 0..3u32 {
                    rb.push(i).expect("ring is never closed");
                }
            })
        };
        for expect in 0..3u32 {
            assert_eq!(rb.pop(), Some(expect), "FIFO order violated");
        }
        producer.join().expect("producer thread");
    });
}

#[test]
fn spsc_capacity_two_preserves_fifo() {
    model(|| {
        let rb = RingBuffer::new(2);
        let producer = {
            let rb = rb.clone();
            thread::spawn(move || {
                for i in 0..3u32 {
                    rb.push(i).expect("ring is never closed");
                }
                rb.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = rb.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2]);
        producer.join().expect("producer thread");
    });
}

#[test]
fn close_wakes_blocked_producer() {
    // A producer parked on a full ring MUST observe close() — if the
    // close path ever dropped the not_full notification, this model
    // would abort with a deadlock ("lost wakeup") under the schedule
    // where the producer blocks first.
    model(|| {
        let rb = RingBuffer::new(1);
        rb.push(1u32).expect("ring starts open");
        let producer = {
            let rb = rb.clone();
            thread::spawn(move || rb.push(2))
        };
        rb.close();
        let outcome = producer.join().expect("producer thread");
        // Depending on the schedule the producer either reached the full
        // ring before close (blocked, then woken into Err) or after
        // (immediate Err) — it must never succeed and never hang.
        assert_eq!(outcome, Err(2));
        assert_eq!(rb.pop(), Some(1), "queued item survives close");
        assert_eq!(rb.pop(), None, "drained closed ring terminates");
    });
}

#[test]
fn close_wakes_blocked_consumer() {
    // The mirror image: a consumer parked on an empty ring must observe
    // close() under every schedule, drain the in-flight item, then end.
    model(|| {
        let rb = RingBuffer::new(1);
        let consumer = {
            let rb = rb.clone();
            thread::spawn(move || (rb.pop(), rb.pop()))
        };
        rb.push(7u32).expect("ring starts open");
        rb.close();
        let (first, second) = consumer.join().expect("consumer thread");
        assert_eq!(first, Some(7), "in-flight item must not be lost");
        assert_eq!(second, None, "closed+drained ring must terminate");
    });
}

#[test]
fn mpmc_two_by_two_transfers_every_item_exactly_once() {
    model(|| {
        let rb = RingBuffer::new(1);
        let p0 = {
            let rb = rb.clone();
            thread::spawn(move || rb.push(10u32).expect("ring is never closed"))
        };
        let p1 = {
            let rb = rb.clone();
            thread::spawn(move || rb.push(20u32).expect("ring is never closed"))
        };
        let c0 = {
            let rb = rb.clone();
            thread::spawn(move || rb.pop().expect("two items for two pops"))
        };
        let c1 = {
            let rb = rb.clone();
            thread::spawn(move || rb.pop().expect("two items for two pops"))
        };
        p0.join().expect("producer 0");
        p1.join().expect("producer 1");
        let mut got = vec![
            c0.join().expect("consumer 0"),
            c1.join().expect("consumer 1"),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 20], "each item delivered exactly once");
    });
}

#[test]
fn stall_counters_are_monotone_and_consistent() {
    model(|| {
        let rb = RingBuffer::new(1);
        rb.push(1u32).expect("ring starts open");
        let producer = {
            let rb = rb.clone();
            thread::spawn(move || rb.push(2u32).expect("ring is never closed"))
        };
        let mid = rb.metrics();
        assert_eq!(rb.pop(), Some(1));
        assert_eq!(rb.pop(), Some(2));
        producer.join().expect("producer thread");
        let end = rb.metrics();
        // Monotonicity across the two snapshots, under every schedule.
        assert!(end.push_stalls >= mid.push_stalls);
        assert!(end.pop_stalls >= mid.pop_stalls);
        assert!(end.push_stall_ns >= mid.push_stall_ns);
        // The producer stalled at most once (it is one push call).
        assert!(end.push_stalls <= 1);
        assert_eq!(end.high_water, 1, "capacity-1 ring never exceeds 1");
    });
}

#[test]
fn pop_batch_drains_without_deadlock() {
    model(|| {
        let rb = RingBuffer::new(2);
        let producer = {
            let rb = rb.clone();
            thread::spawn(move || {
                for i in 0..3u32 {
                    rb.push(i).expect("ring is never closed");
                }
                rb.close();
            })
        };
        let mut got = Vec::new();
        loop {
            let batch = rb.pop_batch(2);
            if batch.is_empty() {
                break;
            }
            got.extend(batch);
        }
        producer.join().expect("producer thread");
        assert_eq!(got, vec![0, 1, 2], "batched drain preserves FIFO");
    });
}
