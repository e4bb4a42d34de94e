//! # ct-comm — in-process message-passing substrate with MPI-style
//! collectives
//!
//! iFDK structures its distributed computation as a 2D grid of MPI ranks
//! with two collectives on sub-communicators: **AllGather** of filtered
//! projections within each *column* and a single **Reduce** of partial
//! sub-volumes within each *row* (paper Section 4.1, Figure 3). This crate
//! is the substrate that carries that structure when no MPI installation
//! is available (see DESIGN.md): ranks are OS threads, point-to-point
//! messages are typed envelopes matched MPI-style by
//! `(communicator, source, tag)`, and the collectives are the *real
//! algorithms* (ring AllGather, binomial-tree Reduce/Bcast, dissemination
//! barrier), so message counts and traffic volumes match what an MPI
//! implementation would put on the wire. Each collective has exactly one
//! algorithm — the one an iFDK run issues — and no selector: a traffic
//! count is a function of the communicator size and the payload alone.
//!
//! ```
//! use ct_comm::Universe;
//!
//! let sums = Universe::run(4, |comm| {
//!     let mine = vec![comm.rank() as f32];
//!     let all = comm.all_gather(&mine);       // ring algorithm
//!     all.iter().sum::<f32>()
//! }).unwrap();
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod fabric;
pub mod stats;

use fabric::{Fabric, RecvError};
use stats::TrafficStats;
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by the communication runtime.
#[derive(Debug)]
pub enum CommError {
    /// One or more ranks panicked; the payloads are the panic messages.
    RankPanicked {
        /// `(rank, message)` for each panicked rank.
        failures: Vec<(usize, String)>,
    },
    /// A receive timed out (likely deadlock or a dead peer).
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// Human-readable description of what it waited for.
        waiting_for: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankPanicked { failures } => {
                write!(f, "{} rank(s) panicked: ", failures.len())?;
                for (r, m) in failures {
                    write!(f, "[rank {r}: {m}] ")?;
                }
                Ok(())
            }
            CommError::Timeout { rank, waiting_for } => {
                write!(f, "rank {rank} timed out waiting for {waiting_for}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// The launcher: spawns `n` ranks as threads and hands each a
/// world [`Comm`].
#[derive(Debug, Clone)]
pub struct Universe {
    /// Receive timeout applied to every blocking receive; a deadlocked
    /// rank fails fast instead of hanging the process.
    pub recv_timeout: Duration,
}

impl Default for Universe {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(60),
        }
    }
}

impl Universe {
    /// Run `f` on `size` ranks with default settings, returning the
    /// per-rank results in rank order.
    pub fn run<R, F>(size: usize, f: F) -> Result<Vec<R>, CommError>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        Universe::default().launch(size, f)
    }

    /// Run `f` on `size` ranks with this universe's settings.
    pub fn launch<R, F>(&self, size: usize, f: F) -> Result<Vec<R>, CommError>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        self.launch_with_stats(size, f).map(|(r, _)| r)
    }

    /// Like [`Universe::launch`], also returning the fabric's final
    /// traffic totals (sampled after every rank has terminated, so the
    /// counts are complete).
    pub fn launch_with_stats<R, F>(
        &self,
        size: usize,
        f: F,
    ) -> Result<(Vec<R>, stats::TrafficStats), CommError>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        assert!(size > 0, "need at least one rank");
        let fabric = Arc::new(Fabric::new(size));
        let timeout = self.recv_timeout;
        let results: Vec<std::thread::Result<R>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let fabric = Arc::clone(&fabric);
                    let f = &f;
                    s.spawn(move || {
                        let comm = Comm {
                            fabric,
                            ranks: (0..size).collect(),
                            my_index: rank,
                            comm_id: 0,
                            next_split_id: std::cell::Cell::new(1),
                            timeout,
                            local_stats: stats::StatsCell::new(),
                        };
                        f(&comm)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut ok = Vec::with_capacity(size);
        let mut failures = Vec::new();
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => ok.push(v),
                Err(p) => {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    failures.push((rank, msg));
                }
            }
        }
        if failures.is_empty() {
            Ok((ok, fabric.stats()))
        } else {
            Err(CommError::RankPanicked { failures })
        }
    }

    /// Traffic statistics accumulated by all communicators of a run are
    /// returned through [`Comm::stats`] snapshots taken inside the ranks.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            recv_timeout: timeout,
        }
    }
}

/// A communicator: a named, ordered group of ranks sharing a message
///-matching space. Clone-free; obtain sub-communicators via
/// [`Comm::split`].
pub struct Comm {
    fabric: Arc<Fabric>,
    /// Global rank of each member, indexed by communicator rank.
    ranks: Vec<usize>,
    /// This rank's index within `ranks`.
    my_index: usize,
    /// Communicator identity used for message matching.
    comm_id: u64,
    /// Per-rank counter making split-derived communicator ids consistent
    /// (every member executes the same sequence of collective calls).
    next_split_id: std::cell::Cell<u64>,
    timeout: Duration,
    /// Traffic sent by *this* rank through *this* communicator — unlike
    /// the fabric-global [`Comm::stats`], these counters attribute bytes
    /// to a rank and a collective group, which is what per-span
    /// observability needs.
    local_stats: stats::StatsCell,
}

impl Comm {
    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The receive timeout in effect.
    #[inline]
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Global (world) rank of communicator member `r`.
    #[inline]
    pub fn global_rank(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// Snapshot of the fabric-wide traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.fabric.stats()
    }

    /// Snapshot of the traffic *this rank* has sent through *this*
    /// communicator. Collectives route every transfer through
    /// [`Comm::send`]/[`Comm::send_vec`], so diffing two snapshots around
    /// a collective yields that call's outbound traffic — the bridge from
    /// the fabric's accounting into per-span observability attributes.
    pub fn local_stats(&self) -> TrafficStats {
        self.local_stats.snapshot()
    }

    /// Send `value` to communicator rank `dst` with `tag`.
    ///
    /// Buffered/asynchronous: never blocks.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        assert!(dst < self.size(), "destination {dst} out of range");
        let bytes = std::mem::size_of::<T>();
        self.local_stats.record_send(bytes);
        self.fabric.send(
            self.ranks[self.my_index],
            self.ranks[dst],
            self.comm_id,
            tag,
            Box::new(value),
            bytes,
        );
    }

    /// Send a slice-like payload, accounting its true byte size.
    pub fn send_vec<T: Send + 'static>(&self, dst: usize, tag: u64, value: Vec<T>) {
        assert!(dst < self.size(), "destination {dst} out of range");
        let bytes = std::mem::size_of::<T>() * value.len();
        self.local_stats.record_send(bytes);
        self.fabric.send(
            self.ranks[self.my_index],
            self.ranks[dst],
            self.comm_id,
            tag,
            Box::new(value),
            bytes,
        );
    }

    /// Blocking receive of a `T` from communicator rank `src` with `tag`.
    ///
    /// # Panics
    /// Panics on timeout (converted to [`CommError::RankPanicked`] by the
    /// launcher) or if the arriving payload has a different type.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert!(src < self.size(), "source {src} out of range");
        match self.fabric.recv(
            self.ranks[self.my_index],
            self.ranks[src],
            self.comm_id,
            tag,
            self.timeout,
        ) {
            Ok(boxed) => *boxed.downcast::<T>().unwrap_or_else(|_| {
                panic!(
                    "rank {}: type mismatch receiving tag {tag} from {src}",
                    self.my_index
                )
            }),
            Err(RecvError::Timeout) => panic!(
                "rank {}: receive timeout (src {src}, tag {tag}, comm {})",
                self.my_index, self.comm_id
            ),
        }
    }

    /// Split into sub-communicators by `color`; ranks sharing a color form
    /// a new communicator ordered by `(key, old rank)` — the semantics of
    /// `MPI_Comm_split`.
    ///
    /// Collective: every member must call it with its own `(color, key)`.
    pub fn split(&self, color: u64, key: u64) -> Comm {
        // Exchange (color, key) among all members via the existing
        // all_gather, then derive membership deterministically.
        let mine = vec![(self.my_index, color, key)];
        let all = self.all_gather(&mine);
        let split_seq = self.next_split_id.get();
        self.next_split_id.set(split_seq + 1);
        let mut members: Vec<(u64, usize)> = all
            .iter()
            .filter(|(_, c, _)| *c == color)
            .map(|&(r, _, k)| (k, r))
            .collect();
        members.sort_unstable();
        let ranks: Vec<usize> = members.iter().map(|&(_, r)| self.ranks[r]).collect();
        let my_global = self.ranks[self.my_index];
        let my_index = ranks
            .iter()
            .position(|&g| g == my_global)
            .expect("caller is a member of its own color group");
        // Deterministic id: same on every member because split_seq and
        // color are identical across the group.
        let comm_id = self
            .comm_id
            .wrapping_mul(1_000_003)
            .wrapping_add(split_seq)
            .wrapping_mul(1_000_033)
            .wrapping_add(color.wrapping_add(1));
        Comm {
            fabric: Arc::clone(&self.fabric),
            ranks,
            my_index,
            comm_id,
            next_split_id: std::cell::Cell::new(1),
            timeout: self.timeout,
            local_stats: stats::StatsCell::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_universe() {
        let out = Universe::run(1, |c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            7
        })
        .unwrap();
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, 123u32);
                c.recv::<u32>(1, 6)
            } else {
                let x = c.recv::<u32>(0, 5);
                c.send(0, 6, x * 2);
                x
            }
        })
        .unwrap();
        assert_eq!(out, vec![246, 123]);
    }

    #[test]
    fn messages_match_by_tag_not_arrival_order() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, "first".to_string());
                c.send(1, 2, "second".to_string());
                String::new()
            } else {
                // Receive in the opposite order they were sent.
                let b = c.recv::<String>(0, 2);
                let a = c.recv::<String>(0, 1);
                format!("{a}-{b}")
            }
        })
        .unwrap();
        assert_eq!(out[1], "first-second");
    }

    #[test]
    fn rank_panic_is_reported() {
        let err = Universe::run(3, |c| {
            if c.rank() == 1 {
                panic!("boom at rank one");
            }
            c.rank()
        })
        .unwrap_err();
        match err {
            CommError::RankPanicked { failures } => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].0, 1);
                assert!(failures[0].1.contains("boom"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn recv_timeout_fails_fast() {
        let uni = Universe::with_timeout(Duration::from_millis(50));
        let err = uni
            .launch(2, |c| {
                if c.rank() == 0 {
                    // Wait for a message nobody sends.
                    let _: u32 = c.recv(1, 99);
                }
                0
            })
            .unwrap_err();
        assert!(matches!(err, CommError::RankPanicked { .. }));
    }

    #[test]
    fn split_forms_row_and_column_groups() {
        // 6 ranks as a 2x3 grid: color by row, key by column.
        let out = Universe::run(6, |c| {
            let row = c.rank() / 3;
            let col = c.rank() % 3;
            let row_comm = c.split(row as u64, col as u64);
            let col_comm = c.split(col as u64, row as u64);
            (
                row_comm.size(),
                row_comm.rank(),
                col_comm.size(),
                col_comm.rank(),
            )
        })
        .unwrap();
        for (rank, &(rs, rr, cs, cr)) in out.iter().enumerate() {
            assert_eq!(rs, 3);
            assert_eq!(rr, rank % 3);
            assert_eq!(cs, 2);
            assert_eq!(cr, rank / 3);
        }
    }

    #[test]
    fn split_subcomms_are_isolated() {
        // Messages in one sub-communicator must not leak into a sibling.
        let out = Universe::run(4, |c| {
            let half = c.rank() / 2; // {0,1} and {2,3}
            let sub = c.split(half as u64, c.rank() as u64);
            if sub.rank() == 0 {
                sub.send(1, 7, c.rank() as u32);
                0
            } else {
                sub.recv::<u32>(0, 7)
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 0, 0, 2]);
    }

    #[test]
    fn local_stats_attribute_traffic_per_rank_and_comm() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 0, vec![1.0f32; 64]);
            } else {
                let v: Vec<f32> = c.recv(0, 0);
                assert_eq!(v.len(), 64);
            }
            c.local_stats()
        })
        .unwrap();
        // Only the sender's own communicator counts the 256 bytes;
        // fabric-global stats (send_vec_accounts_bytes) cannot tell the
        // ranks apart.
        assert_eq!(out[0].messages_sent, 1);
        assert_eq!(out[0].bytes_sent, 256);
        assert_eq!(out[1], TrafficStats::default());
    }

    #[test]
    fn split_comms_count_their_own_traffic() {
        let out = Universe::run(2, |c| {
            let sub = c.split(0, c.rank() as u64);
            let before = sub.local_stats();
            if sub.rank() == 0 {
                sub.send_vec(1, 9, vec![0u8; 100]);
            } else {
                let _: Vec<u8> = sub.recv(0, 9);
            }
            sub.local_stats().since(before).bytes_sent
        })
        .unwrap();
        // The split() exchange itself went through the parent comm, so
        // the sub-communicator's delta is exactly the payload.
        assert_eq!(out, vec![100, 0]);
    }

    #[test]
    fn send_vec_accounts_bytes() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 0, vec![1.0f32; 256]);
            } else {
                let v: Vec<f32> = c.recv(0, 0);
                assert_eq!(v.len(), 256);
            }
            c.stats().bytes_sent
        })
        .unwrap();
        // At least 1 KiB was counted somewhere (stats are fabric-global).
        assert!(out.iter().any(|&b| b >= 1024), "{out:?}");
    }
}
