//! Discrete-event simulation of one rank's three-thread pipeline
//! (paper Figure 4), producing the "measured" counterpart of the analytic
//! model.
//!
//! The paper reports ~76 % of model peak on average and attributes the gap
//! to identifiable overheads (Section 5.3.3): inter-thread data exchange
//! through the circular buffers, the batch-granularity H2D staging, PCIe
//! switch contention on the D2H drain, the cold first call of
//! `MPI_Reduce`, and volume slices not tuned to the PFS stripe size. The
//! simulator models the pipeline at *batch* granularity — filtered
//! projections flow through AllGather operations into 32-projection
//! back-projection batches — and applies those overheads as explicit,
//! documented factors (see [`Overheads`]). All ranks are symmetric, so
//! simulating one representative rank suffices.

use crate::model::{ModelBreakdown, ModelInput};

/// Documented overhead factors on top of the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// Multiplier on kernel batch time: circular-buffer exchange, batch
    /// assembly, kernel launch (paper Section 5.3.3, first gap item).
    pub bp_exchange: f64,
    /// AllGather contention growth per doubling of total ranks.
    pub allgather_contention_per_log2: f64,
    /// Multiplier on the D2H drain (PCIe switch contention: measured
    /// 4.8 s vs 2.6 s peak in Figure 5).
    pub d2h_contention: f64,
    /// Reduce overhead: cold-start base plus growth per doubling of `C`
    /// (measured 2.4-4.2 s vs 2.7 s peak).
    pub reduce_base: f64,
    /// See [`Overheads::reduce_base`].
    pub reduce_per_log2c: f64,
    /// Multiplier on the PFS store (slices not stripe-aligned: measured
    /// 11.2 s vs 9.0 s peak).
    pub store_misalignment: f64,
}

impl Default for Overheads {
    fn default() -> Self {
        Self {
            bp_exchange: 1.25,
            allgather_contention_per_log2: 0.04,
            d2h_contention: 1.8,
            reduce_base: 0.9,
            reduce_per_log2c: 0.08,
            store_misalignment: 1.17,
        }
    }
}

/// One contiguous activity of one pipeline thread (for Figure 4c-style
/// timelines).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSegment {
    /// Thread name: `"filter"`, `"main"` or `"bp"`.
    pub thread: String,
    /// Activity label (e.g. `"allgather"`, `"h2d+bp"`, `"store"`).
    pub label: String,
    /// Start time, seconds.
    pub t0: f64,
    /// End time, seconds.
    pub t1: f64,
}

/// A full per-rank timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineTrace {
    /// Segments in chronological order per thread.
    pub segments: Vec<ThreadSegment>,
}

impl TimelineTrace {
    /// Last event end time.
    pub fn makespan(&self) -> f64 {
        self.segments.iter().map(|s| s.t1).fold(0.0, f64::max)
    }

    /// Total busy time of one thread.
    pub fn busy(&self, thread: &str) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.thread == thread)
            .map(|s| s.t1 - s.t0)
            .sum()
    }
}

/// Simulation output: per-stage times comparable to both the analytic
/// model and the paper's measured series.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSim {
    /// Busy time of the filter thread (load + filter).
    pub t_flt: f64,
    /// Busy time of the AllGather operations on the main thread.
    pub t_allgather: f64,
    /// Busy time of the BP thread (H2D + kernel).
    pub t_bp: f64,
    /// Makespan of the overlapped phase (Table 5's `T_compute`).
    pub t_compute: f64,
    /// D2H drain after compute.
    pub t_d2h: f64,
    /// Volume reduction (zero when `C = 1`).
    pub t_reduce: f64,
    /// PFS store.
    pub t_store: f64,
    /// End-to-end runtime.
    pub t_runtime: f64,
    /// End-to-end GUPS.
    pub gups: f64,
    /// Table 5's overlap ratio.
    pub delta: f64,
    /// The per-rank timeline.
    pub trace: TimelineTrace,
}

/// Run the pipeline simulation for one configuration.
pub fn simulate_pipeline(input: &ModelInput, ov: &Overheads) -> PipelineSim {
    let model = ModelBreakdown::evaluate(input);
    let m = &input.machine;
    let n_ranks = input.n_gpus();

    // --- Stage rates -----------------------------------------------------
    // Filter thread: this rank loads+filters `ops` projections; the node's
    // filtering throughput is shared by its resident ranks.
    let ops = input.ops_per_rank();
    let flt_rate_rank = m.th_flt / m.gpus_per_node as f64; // proj/s per rank
    let t_load_share = model.t_load / ops.max(1) as f64; // amortised load per projection

    // AllGather: ring of R blocks, with a contention factor growing with
    // the total rank count.
    let contention = 1.0 + ov.allgather_contention_per_log2 * (n_ranks.max(1) as f64).log2();
    let ag_op =
        (input.r.saturating_sub(1)) as f64 * input.projection_bytes() / m.allgather_bw * contention;

    // BP thread: batches of up to 32 projections; each batch is staged H2D
    // then back-projected.
    let batch = 32usize;
    let received = input.np / input.c; // projections this rank back-projects
    let n_batches = received.div_ceil(batch);
    let h2d_rank_bw = m.pcie_bw * m.pcie_links_h2d as f64 / m.gpus_per_node as f64;
    let per_proj_kernel = input
        .kernel
        .seconds_per_projection(input.nx, input.ny, input.nz_local());

    // --- Event loop -------------------------------------------------------
    let mut trace = TimelineTrace::default();
    // Filter completions (time when the o-th local projection is ready).
    let per_proj_flt = 1.0 / flt_rate_rank + t_load_share;
    let flt_done = |o: usize| (o + 1) as f64 * per_proj_flt;
    if ops > 0 {
        trace.segments.push(ThreadSegment {
            thread: "filter".to_string(),
            label: format!("load+filter x{ops}"),
            t0: 0.0,
            t1: flt_done(ops - 1),
        });
    }

    // AllGather ops: serialized on the main thread, each needs the local
    // projection it contributes.
    let mut ag_done = vec![0.0f64; ops.max(1)];
    let mut prev = 0.0f64;
    for (o, slot) in ag_done.iter_mut().enumerate().take(ops) {
        let start = prev.max(flt_done(o));
        *slot = start + ag_op;
        trace.segments.push(ThreadSegment {
            thread: "main".to_string(),
            label: format!("allgather #{o}"),
            t0: start,
            t1: *slot,
        });
        prev = *slot;
    }
    let t_allgather_busy = ops as f64 * ag_op;

    // BP batches: batch b needs (b+1)*batch projections available; each
    // AllGather op delivers R projections.
    let mut bp_prev = 0.0f64;
    let mut bp_busy = 0.0f64;
    for b in 0..n_batches {
        let this_batch = batch.min(received - b * batch);
        let needed = b * batch + this_batch;
        let ops_needed = needed.div_ceil(input.r).min(ops.max(1));
        let avail_at = if ops == 0 {
            0.0
        } else {
            ag_done[ops_needed - 1]
        };
        let start = bp_prev.max(avail_at);
        let h2d = this_batch as f64 * input.projection_bytes() / h2d_rank_bw;
        let kernel = this_batch as f64 * per_proj_kernel * ov.bp_exchange;
        let end = start + h2d + kernel;
        trace.segments.push(ThreadSegment {
            thread: "bp".to_string(),
            label: format!("h2d+bp batch {b}"),
            t0: start,
            t1: end,
        });
        bp_busy += h2d + kernel;
        bp_prev = end;
    }
    let t_compute = bp_prev
        .max(prev)
        .max(if ops > 0 { flt_done(ops - 1) } else { 0.0 });

    // --- Post phase -------------------------------------------------------
    let t_d2h = model.t_d2h * ov.d2h_contention;
    let t_reduce = if input.c > 1 {
        (input.sub_volume_bytes() / m.th_reduce)
            * (ov.reduce_base + ov.reduce_per_log2c * (input.c as f64).log2())
    } else {
        0.0
    };
    let t_store = model.t_store * ov.store_misalignment;
    let mut t = t_compute;
    for (label, dur, thread) in [
        ("d2h", t_d2h, "bp"),
        ("reduce", t_reduce, "main"),
        ("store", t_store, "main"),
    ] {
        if dur > 0.0 {
            trace.segments.push(ThreadSegment {
                thread: thread.to_string(),
                label: label.to_string(),
                t0: t,
                t1: t + dur,
            });
        }
        t += dur;
    }
    let t_runtime = t;
    let updates = (input.nx as f64) * (input.ny as f64) * (input.nz as f64) * (input.np as f64);
    let gups = updates / (t_runtime * (1u64 << 30) as f64);
    let t_flt_busy = if ops > 0 { flt_done(ops - 1) } else { 0.0 };
    let delta = (t_flt_busy + t_allgather_busy + bp_busy) / t_compute.max(1e-12);

    PipelineSim {
        t_flt: t_flt_busy,
        t_allgather: t_allgather_busy,
        t_bp: bp_busy,
        t_compute,
        t_d2h,
        t_reduce,
        t_store,
        t_runtime,
        gups,
        delta,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol_frac: f64) -> bool {
        (a - b).abs() <= tol_frac * b.abs().max(1e-12)
    }

    #[test]
    fn fig5a_measured_compute_series() {
        // Paper Figure 5a measured T_compute: 32 -> 70.2, 64 -> 35.6,
        // 128 -> 18.9, 256 -> 10.2.
        let ov = Overheads::default();
        for (g, t) in [(32, 70.2), (64, 35.6), (128, 18.9), (256, 10.2)] {
            let s = simulate_pipeline(&ModelInput::paper_4k(g), &ov);
            assert!(
                close(s.t_compute, t, 0.2),
                "{g} GPUs: sim {} vs paper {t}",
                s.t_compute
            );
        }
    }

    #[test]
    fn fig5b_measured_compute_series() {
        // Paper Figure 5b measured: 256 -> 101.3, 512 -> 53.1,
        // 1024 -> 29.7, 2048 -> 17.2.
        let ov = Overheads::default();
        for (g, t) in [(256, 101.3), (512, 53.1), (1024, 29.7)] {
            let s = simulate_pipeline(&ModelInput::paper_8k(g), &ov);
            assert!(
                close(s.t_compute, t, 0.15),
                "{g} GPUs: sim {} vs paper {t}",
                s.t_compute
            );
        }
    }

    #[test]
    fn measured_post_times_match_paper() {
        let ov = Overheads::default();
        let s = simulate_pipeline(&ModelInput::paper_4k(128), &ov);
        // Paper: D2H 4.8, store 11.2, reduce ~2.8 measured.
        assert!(close(s.t_d2h, 4.8, 0.1), "{}", s.t_d2h);
        assert!(close(s.t_store, 11.2, 0.1), "{}", s.t_store);
        assert!(close(s.t_reduce, 2.8, 0.15), "{}", s.t_reduce);
    }

    #[test]
    fn delta_in_table5_band() {
        // Table 5: delta between 1.2 and 1.6 for the 4K strong scaling.
        let ov = Overheads::default();
        for g in [32, 64, 128, 256] {
            let s = simulate_pipeline(&ModelInput::paper_4k(g), &ov);
            assert!(
                s.delta > 1.1 && s.delta < 1.8,
                "{g} GPUs: delta {}",
                s.delta
            );
        }
    }

    #[test]
    fn sim_is_slower_than_model_but_not_wildly() {
        // The paper achieves ~76 % of model peak on average.
        let ov = Overheads::default();
        for g in [32, 128, 512] {
            let input = ModelInput::paper_4k(g);
            let model = ModelBreakdown::evaluate(&input);
            let sim = simulate_pipeline(&input, &ov);
            let eff = model.t_runtime / sim.t_runtime;
            assert!(eff > 0.55 && eff < 1.0, "{g} GPUs: efficiency {eff}");
        }
    }

    #[test]
    fn trace_is_consistent() {
        let ov = Overheads::default();
        let s = simulate_pipeline(&ModelInput::paper_4k(128), &ov);
        // Makespan equals runtime.
        assert!(close(s.trace.makespan(), s.t_runtime, 1e-9));
        // Threads are busy no longer than the makespan.
        for th in ["filter", "main", "bp"] {
            assert!(s.trace.busy(th) <= s.trace.makespan() + 1e-9, "{th}");
        }
        // Segments have positive duration and per-thread ordering.
        for seg in &s.trace.segments {
            assert!(seg.t1 >= seg.t0, "{seg:?}");
        }
    }

    #[test]
    fn fig4c_shape_bp_dominates_then_post() {
        // The Figure 4c example: 4K on 128 GPUs. BP busy ~15 s in a ~19 s
        // compute phase; post adds D2H + reduce + store.
        let ov = Overheads::default();
        let s = simulate_pipeline(&ModelInput::paper_4k(128), &ov);
        assert!(
            s.t_bp > 0.7 * s.t_compute,
            "bp {} compute {}",
            s.t_bp,
            s.t_compute
        );
        assert!(s.t_compute > s.t_bp, "overlap still leaves gaps");
        assert!(s.t_runtime > s.t_compute + s.t_d2h);
    }

    #[test]
    fn single_gpu_no_reduce() {
        let mut i = ModelInput::paper_4k(32);
        i.c = 1;
        let s = simulate_pipeline(&i, &Overheads::default());
        assert_eq!(s.t_reduce, 0.0);
    }
}
