//! Property tests of `RingBuffer` close/drain semantics at randomized
//! capacities, thread counts and close timings.
//!
//! The generator is a hand-rolled xorshift PRNG with fixed seeds rather
//! than a registry property-testing crate, keeping the verified
//! substrate free of external dependencies; every run therefore explores
//! the same case set, and a failing case prints its full configuration
//! so it can be replayed directly.
//!
//! The property: for any (capacity, producers, consumers, items,
//! close-point) configuration, the multiset of items accepted by `push`
//! equals the multiset of items returned by `pop` — nothing is lost,
//! nothing is duplicated, and a closed buffer rejects exactly the
//! remainder. Metrics must stay consistent: a drained buffer reports no
//! items and the high-water mark never exceeds the capacity.

#![cfg(not(loom))]

use ct_sync::ring::RingBuffer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    capacity: usize,
    producers: u64,
    consumers: u64,
    items_per_producer: u64,
    /// Close the buffer after this many items have been popped in total
    /// (`None`: producers close it after sending everything).
    close_after_pops: Option<u64>,
}

fn multiset(values: impl IntoIterator<Item = u64>) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for v in values {
        *m.entry(v).or_insert(0) += 1;
    }
    m
}

/// Run one configuration; returns (accepted, rejected, popped) counts
/// after asserting the conservation property.
fn run_case(case: Case) -> (usize, usize, usize) {
    let rb = Arc::new(RingBuffer::new(case.capacity));
    let popped_total = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let producer_handles: Vec<_> = (0..case.producers)
        .map(|p| {
            let rb = Arc::clone(&rb);
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut rejected = Vec::new();
                for i in 0..case.items_per_producer {
                    let item = p * 1_000_000 + i;
                    match rb.push(item) {
                        Ok(()) => accepted.push(item),
                        Err(returned) => {
                            assert_eq!(returned, item, "push must return the rejected item");
                            rejected.push(item);
                        }
                    }
                }
                (accepted, rejected)
            })
        })
        .collect();

    let consumer_handles: Vec<_> = (0..case.consumers)
        .map(|_| {
            let rb = Arc::clone(&rb);
            let popped_total = Arc::clone(&popped_total);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = rb.pop() {
                    got.push(item);
                    let so_far =
                        popped_total.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    if case.close_after_pops == Some(so_far) {
                        rb.close();
                    }
                }
                got
            })
        })
        .collect();

    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for h in producer_handles {
        let (a, r) = h.join().expect("producer thread");
        accepted.extend(a);
        rejected.extend(r);
    }
    if case.close_after_pops.is_none() {
        rb.close();
    } else {
        // Close may never have triggered (fewer items than the threshold);
        // close now so consumers drain out.
        rb.close();
    }
    let mut popped = Vec::new();
    for h in consumer_handles {
        popped.extend(h.join().expect("consumer thread"));
    }

    // Conservation: accepted multiset == popped multiset, and together
    // with rejections every produced item is accounted for exactly once.
    assert_eq!(
        multiset(accepted.iter().copied()),
        multiset(popped.iter().copied()),
        "accepted != popped for {case:?}"
    );
    assert_eq!(
        accepted.len() + rejected.len(),
        (case.producers * case.items_per_producer) as usize,
        "lost track of items in {case:?}"
    );

    // A drained, closed buffer stays terminal.
    assert_eq!(rb.pop(), None, "post-drain pop must stay None for {case:?}");
    assert_eq!(
        rb.push(u64::MAX),
        Err(u64::MAX),
        "closed buffer must reject pushes for {case:?}"
    );

    // Metrics consistency.
    let m = rb.metrics();
    assert_eq!(m.capacity, case.capacity);
    assert_eq!(m.len, 0, "drained buffer reports items for {case:?}");
    assert!(
        m.high_water <= case.capacity,
        "high water above capacity for {case:?}: {m:?}"
    );

    (accepted.len(), rejected.len(), popped.len())
}

#[test]
fn conservation_across_randomized_configurations() {
    let mut rng = Rng(0x1FDC_2019_0D15_7A17);
    for round in 0..60 {
        let total_items;
        let case = {
            let producers = rng.range(1, 4);
            let items_per_producer = rng.range(0, 40);
            total_items = producers * items_per_producer;
            Case {
                capacity: rng.range(1, 8) as usize,
                producers,
                consumers: rng.range(1, 4),
                items_per_producer,
                // Mostly graceful closes; every third round closes early
                // somewhere inside the stream to race close against
                // blocked producers and consumers.
                close_after_pops: if round % 3 == 2 && total_items > 0 {
                    Some(rng.range(1, total_items))
                } else {
                    None
                },
            }
        };
        let (accepted, rejected, popped) = run_case(case);
        assert_eq!(accepted, popped);
        if case.close_after_pops.is_none() {
            assert_eq!(
                rejected, 0,
                "graceful close must not reject anything: {case:?}"
            );
            assert_eq!(accepted as u64, total_items);
        }
    }
}

#[test]
fn capacity_one_under_maximum_contention() {
    // The tightest configuration — every push and most pops stall — run
    // at several thread counts.
    for threads in 1..=4u64 {
        let case = Case {
            capacity: 1,
            producers: threads,
            consumers: threads,
            items_per_producer: 25,
            close_after_pops: None,
        };
        let (accepted, rejected, popped) = run_case(case);
        assert_eq!(accepted as u64, threads * 25);
        assert_eq!(rejected, 0);
        assert_eq!(popped as u64, threads * 25);
    }
}

#[test]
fn immediate_close_rejects_everything() {
    let rb = RingBuffer::<u64>::new(4);
    rb.close();
    for i in 0..10 {
        assert_eq!(rb.push(i), Err(i));
    }
    assert_eq!(rb.pop(), None);
    assert_eq!(rb.metrics().push_stalls, 0, "closed pushes never stall");
}
