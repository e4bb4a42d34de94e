//! MPI-style collectives over [`crate::Comm`], implemented with the real
//! distributed algorithms so message counts and volumes match an MPI
//! library's:
//!
//! * [`Comm::barrier`] — dissemination barrier, `ceil(log2 p)` rounds.
//! * [`Comm::broadcast`] — binomial tree, `ceil(log2 p)` rounds.
//! * [`Comm::all_gather`] — ring algorithm, `p - 1` steps each moving one
//!   block (the collective iFDK issues once per projection within each
//!   column group, Section 4.1.3).
//! * [`Comm::reduce`] / [`Comm::reduce_sum_f32`] — binomial tree toward
//!   the root (the single volume reduction per row group, Figure 4b).
//!
//! Every collective is *collective*: all members must call it in the same
//! program order. Tags are namespaced per algorithm; pairwise FIFO then
//! keeps back-to-back collectives on one communicator from interleaving.

use crate::Comm;

// Tag namespace for collective traffic (user tags live below this).
const TAG_BARRIER: u64 = 1 << 60;
const TAG_BCAST: u64 = 2 << 60;
const TAG_ALLGATHER: u64 = 4 << 60;
const TAG_REDUCE: u64 = 5 << 60;

impl Comm {
    /// Dissemination barrier: after it returns, every member has entered.
    pub fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            self.send(to, TAG_BARRIER + k as u64, ());
            let () = self.recv(from, TAG_BARRIER + k as u64);
            dist *= 2;
            k += 1;
        }
    }

    /// Binomial-tree broadcast of `value` from `root` to every member.
    pub fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        let p = self.size();
        assert!(root < p, "root out of range");
        let me = self.rank();
        let vr = (me + p - root) % p; // virtual rank: root becomes 0
        let mut have: Option<T> = if me == root {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        // Receive phase: the lowest set bit of vr identifies the parent.
        if vr != 0 {
            let lsb = vr & vr.wrapping_neg();
            let parent = (vr - lsb + root) % p;
            have = Some(self.recv(parent, TAG_BCAST + lsb as u64));
        }
        // Send phase: forward to children at descending power-of-two
        // offsets below our own lowest set bit (the root covers all of
        // them).
        let v = have.expect("value present after receive phase");
        let mut mask = if vr == 0 {
            p.next_power_of_two() / 2
        } else {
            (vr & vr.wrapping_neg()) >> 1
        };
        while mask >= 1 {
            if vr + mask < p {
                let child = (vr + mask + root) % p;
                self.send(child, TAG_BCAST + mask as u64, v.clone());
            }
            mask >>= 1;
        }
        v
    }

    /// Ring AllGather: every member contributes `block` and receives the
    /// concatenation of all members' blocks in rank order. All blocks must
    /// have equal length.
    pub fn all_gather<T: Clone + Send + 'static>(&self, block: &[T]) -> Vec<T> {
        let p = self.size();
        let me = self.rank();
        let blen = block.len();
        let mut pieces: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        pieces[me] = Some(block.to_vec());
        if p == 1 {
            return block.to_vec();
        }
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        // Step t: pass along the block that originated at (me - t).
        for t in 0..p - 1 {
            let send_origin = (me + p - t) % p;
            let send_piece = pieces[send_origin]
                .clone()
                .expect("piece received in an earlier step");
            self.send_vec(right, TAG_ALLGATHER + t as u64, send_piece);
            let recv_origin = (me + p - t - 1) % p;
            let got: Vec<T> = self.recv(left, TAG_ALLGATHER + t as u64);
            assert_eq!(got.len(), blen, "AllGather requires equal block sizes");
            pieces[recv_origin] = Some(got);
        }
        let mut out = Vec::with_capacity(p * blen);
        for piece in pieces.into_iter() {
            out.extend(piece.expect("all pieces collected"));
        }
        out
    }

    /// Binomial-tree reduction toward `root` with a caller-supplied
    /// element-wise combine (`acc`, `incoming`). Returns `Some(result)` at
    /// the root, `None` elsewhere.
    pub fn reduce<T, F>(&self, root: usize, data: &[T], combine: F) -> Option<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut [T], &[T]),
    {
        let p = self.size();
        assert!(root < p, "root out of range");
        let me = self.rank();
        let vr = (me + p - root) % p;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let parent = (vr - mask + root) % p;
                self.send_vec(parent, TAG_REDUCE + mask as u64, acc);
                return None;
            }
            if vr + mask < p {
                let child = (vr + mask + root) % p;
                let incoming: Vec<T> = self.recv(child, TAG_REDUCE + mask as u64);
                assert_eq!(incoming.len(), acc.len(), "reduce length mismatch");
                combine(&mut acc, &incoming);
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Element-wise sum reduction of `f32` buffers to `root` — the
    /// framework's sub-volume reduction (`MPI_Reduce`, Figure 4b).
    pub fn reduce_sum_f32(&self, root: usize, data: &[f32]) -> Option<Vec<f32>> {
        self.reduce(root, data, |acc, inc| {
            for (a, b) in acc.iter_mut().zip(inc.iter()) {
                *a += *b;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn barrier_completes_at_many_sizes() {
        for p in [1usize, 2, 3, 5, 8] {
            Universe::run(p, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for p in [1usize, 2, 3, 6, 9] {
            for root in 0..p {
                let out = Universe::run(p, |c| {
                    let v = if c.rank() == root {
                        Some(format!("hello-{root}"))
                    } else {
                        None
                    };
                    c.broadcast(root, v)
                })
                .unwrap();
                assert!(out.iter().all(|s| s == &format!("hello-{root}")), "p={p}");
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        for p in [1usize, 2, 3, 4, 7] {
            let out = Universe::run(p, |c| {
                let block = vec![c.rank() as u32 * 10, c.rank() as u32 * 10 + 1];
                c.all_gather(&block)
            })
            .unwrap();
            let expect: Vec<u32> = (0..p as u32).flat_map(|r| [r * 10, r * 10 + 1]).collect();
            for got in out {
                assert_eq!(got, expect, "p={p}");
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1usize, 2, 5, 8] {
            for root in [0, p - 1] {
                let out = Universe::run(p, |c| {
                    let data = vec![c.rank() as f32, 1.0];
                    c.reduce_sum_f32(root, &data)
                })
                .unwrap();
                let total: f32 = (0..p).map(|r| r as f32).sum();
                for (r, res) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(res.as_deref(), Some(&[total, p as f32][..]));
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn collectives_on_split_groups() {
        // Columns of a 2x3 grid AllGather independently; rows reduce.
        let out = Universe::run(6, |c| {
            let row = c.rank() / 3;
            let col = c.rank() % 3;
            let col_comm = c.split(col as u64, row as u64);
            let gathered = col_comm.all_gather(&[c.rank() as f32]);
            let row_comm = c.split(10 + row as u64, col as u64);
            let reduced = row_comm.reduce_sum_f32(0, &[c.rank() as f32]);
            (gathered, reduced)
        })
        .unwrap();
        // Column of col=1 contains global ranks 1 and 4.
        assert_eq!(out[1].0, vec![1.0, 4.0]);
        assert_eq!(out[4].0, vec![1.0, 4.0]);
        // Row 0 = ranks 0,1,2 reduced at its rank 0 (global 0): 3.0.
        assert_eq!(out[0].1.as_deref(), Some(&[3.0f32][..]));
        assert!(out[1].1.is_none());
        // Row 1 = ranks 3,4,5: 12.0 at global rank 3.
        assert_eq!(out[3].1.as_deref(), Some(&[12.0f32][..]));
    }

    #[test]
    fn ring_allgather_message_count_matches_algorithm() {
        // p ranks, p-1 steps, one message per rank per step; totals are
        // sampled after every rank terminates.
        let p = 4;
        let (_, stats) = Universe::default()
            .launch_with_stats(p, |c| {
                let _ = c.all_gather(&[0u8; 16]);
            })
            .unwrap();
        let ag_msgs = (p * (p - 1)) as u64;
        assert_eq!(stats.messages_sent, ag_msgs);
        // Each allgather message carries 16 bytes.
        assert_eq!(stats.bytes_sent, ag_msgs * 16);
    }
}
