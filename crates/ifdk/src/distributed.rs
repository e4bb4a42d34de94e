//! The distributed iFDK framework (paper Section 4).
//!
//! Every rank of the `R x C` grid runs the three-thread pipeline of
//! Figure 4:
//!
//! * the **Filtering thread** loads this rank's `Np/(C*R)` projections
//!   from the PFS and filters them on a worker pool (the OpenMP threads of
//!   Section 4.1.3), streaming results into a circular buffer;
//! * the **Main thread** performs one AllGather per projection across its
//!   *column* communicator — after `Np/(C*R)` operations every rank of the
//!   column holds the column's full `Np/C` filtered projections — and
//!   streams them into the back-projection buffer; at the end it reduces
//!   the partial sub-volume across its *row* communicator and, at the row
//!   root, stores the finished slices to the PFS;
//! * the **Back-projection thread** consumes fixed 32-projection batches
//!   and accumulates them into this row's symmetric slab pair with the
//!   proposed kernel (`L1-Tran` configuration).
//!
//! The thread bodies are the stage functions of the private `pipeline`
//! module, shared with the single-node pipelined entry points; this
//! module owns configuration, launch, telemetry set-up and reporting.
//!
//! The run is deterministic for a fixed configuration: batches are fixed
//! chunks of a deterministic stream and the reduction tree is fixed by
//! `(R, C)`.
//!
//! # Observability
//!
//! The whole pipeline is instrumented through [`ct_obs`]: each of the
//! three threads opens a track tagged `(rank, role)` and wraps its work in
//! spans named `load`, `filter`, `allgather`, `backprojection`, `reduce`
//! and `store` (PFS transfers nest as `pfs.read`/`pfs.write`; with the
//! tiled driver enabled, per-tile `bp.tile` spans tagged by tile index
//! nest under each `backprojection` batch and show tile-level load
//! balance).
//! Communication spans carry the exact payload bytes measured by the
//! communicator's per-rank traffic counters, and the circular buffers
//! report occupancy high-water marks and stall counts as gauges/counters
//! plus timed `ring.{gather,bp}.{push,pop}_wait` spans on the blocked
//! thread's own lane. Consumer spans are tagged with the producer spans
//! they depend on (`allgather` ← `filter`, `backprojection` ← the batch's
//! `allgather` op range), which the Chrome exporter turns into flow
//! arrows and [`ct_obs::analysis`] into a critical path;
//! [`DistReport::pipeline_analysis`] runs that analysis on a trace-mode
//! capture.
//! [`DistConfig::obs`] selects the mode: `Recorder::summary()` (the
//! default) keeps per-stage aggregates only, `Recorder::trace()`
//! additionally retains every span for Chrome-trace export
//! (`ct_obs::chrome::to_chrome_json`), and `Recorder::off()` makes every
//! recording call a no-op — no locks, no allocation, no clock reads on
//! the hot path. [`model_divergence`] compares a measured
//! [`DistReport`] against the paper's analytic model (Eqs. 8–19).

use crate::batch::BatchAccumulator;
use crate::grid::RankGrid;
use crate::pipeline::{self, Filtered};
use ct_bp::tiled::TileConfig;
use ct_bp::BpConfig;
use ct_comm::{Comm, Universe};
use ct_core::error::{CtError, Result};
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::problem::Dims3;
use ct_core::projection::ProjectionImage;
use ct_core::volume::{Volume, VolumeLayout};
use ct_filter::{FilterConfig, Filterer};
use ct_obs::clock;
use ct_obs::live::{FlightRecorder, LiveOptions, LiveOutcome, LiveRegistry, LiveSession};
use ct_obs::{DivergenceReport, PipelineAnalysis, Recorder, ThreadRole, TraceData, Track};
use ct_par::stats::{StageSummary, TimingReport};
use ct_par::Pool;
use ct_perfmodel::{KernelModel, MachineConfig, ModelBreakdown, ModelInput};
use ct_pfs::PfsStore;
use ct_sync::ring::{RingBuffer, RingMetrics};
use std::collections::BTreeMap;
use std::time::Duration;

/// Live-telemetry configuration for a distributed run
/// ([`DistConfig::live`]): while the run executes, a watchdog thread
/// checks every ring's in-flight stall waits against a deadline, and
/// the flight recorder keeps a bounded per-lane span window. The
/// outcome lands in [`DistReport::live`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Stall-watchdog deadline: a ring side blocked longer than this
    /// trips the watchdog (flight dump + `watchdog.trip` event). `None`
    /// disables the watchdog.
    pub stall_deadline: Option<Duration>,
    /// Flight-recorder window: most recent completed spans kept per
    /// `(rank, role)` lane.
    pub flight_capacity: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            stall_deadline: Some(Duration::from_secs(30)),
            flight_capacity: 512,
        }
    }
}

/// Distributed-run configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Acquisition geometry (defines `Np` and the volume).
    pub geo: CbctGeometry,
    /// The rank grid (`R` rows x `C` columns).
    pub grid: RankGrid,
    /// Filtering-stage configuration.
    pub filter: FilterConfig,
    /// Back-projection batch size (the paper uses 32).
    pub batch: usize,
    /// Tile shape for the back-projection driver. Output bits are
    /// identical for every shape; it changes scheduling and the
    /// per-tile `bp.tile` spans.
    pub tile: TileConfig,
    /// Worker threads per rank for filtering and the kernel.
    pub threads_per_rank: usize,
    /// Circular-buffer capacity (projections). The default, one
    /// back-projection batch, lets the gather stage assemble the next batch
    /// while the current one is back-projected; once filtering outpaces
    /// back-projection, a larger ring only keeps more projections resident.
    pub ring_capacity: usize,
    /// Apply the global FDK constant before storing.
    pub apply_scale: bool,
    /// Receive timeout for the communication fabric.
    pub timeout: Duration,
    /// Observation sink for the run. `Recorder::summary()` (the default)
    /// feeds the per-rank [`TimingReport`]s; `Recorder::trace()` also
    /// captures the span timeline in [`DistReport::trace`];
    /// `Recorder::off()` disables all recording at zero cost — the
    /// per-rank reports then come back empty.
    pub obs: Recorder,
    /// Live telemetry for the run: stall watchdog and flight recorder.
    /// `None` (the default) runs without a watchdog thread.
    pub live: Option<LiveConfig>,
    /// Artificially delay the back-projection thread before each batch.
    /// A fault-injection hook for exercising back-pressure and the
    /// stall watchdog (used by tests and
    /// `examples/distributed_reconstruction --throttle-bp-ms`); leave
    /// `None` for real runs.
    pub bp_throttle: Option<Duration>,
}

impl DistConfig {
    /// A reasonable configuration for a geometry and grid.
    pub fn new(geo: CbctGeometry, grid: RankGrid) -> Self {
        Self {
            geo,
            grid,
            filter: FilterConfig::default(),
            batch: 32,
            tile: TileConfig::AUTO,
            threads_per_rank: 1,
            ring_capacity: 32,
            apply_scale: true,
            timeout: Duration::from_secs(120),
            obs: Recorder::summary(),
            live: None,
            bp_throttle: None,
        }
    }

    fn validate(&self) -> Result<()> {
        pipeline::validate(&self.geo, &self.bp())?;
        let np = self.geo.num_projections;
        let n = self.grid.n_ranks();
        if !np.is_multiple_of(n) {
            return Err(CtError::InvalidConfig(format!(
                "Np = {np} must divide by Nranks = {n}"
            )));
        }
        if !self.geo.volume.nz.is_multiple_of(2 * self.grid.rows) {
            return Err(CtError::InvalidConfig(format!(
                "Nz = {} must divide into 2*R = {} half-slabs",
                self.geo.volume.nz,
                2 * self.grid.rows
            )));
        }
        Ok(())
    }

    /// The back-projection side of the configuration: the paper's
    /// `L1-Tran` kernel with this run's batch and tile shape.
    fn bp(&self) -> BpConfig {
        BpConfig {
            batch: self.batch,
            tile: self.tile,
            ..BpConfig::default()
        }
    }

    /// The analytic model's view of this run on `machine` x `kernel`.
    fn model_input(&self, machine: &MachineConfig, kernel: &KernelModel) -> Result<ModelInput> {
        let input = ModelInput {
            nu: self.geo.detector.nu,
            nv: self.geo.detector.nv,
            np: self.geo.num_projections,
            nx: self.geo.volume.nx,
            ny: self.geo.volume.ny,
            nz: self.geo.volume.nz,
            r: self.grid.rows,
            c: self.grid.cols,
            machine: machine.clone(),
            kernel: *kernel,
        };
        input.validate().map_err(CtError::InvalidConfig)?;
        Ok(input)
    }
}

/// Outcome of a distributed reconstruction.
#[derive(Debug)]
pub struct DistReport {
    /// Wall-clock end-to-end runtime (load -> store), seconds.
    pub runtime_secs: f64,
    /// End-to-end GUPS (Section 2.3 definition).
    pub gups: f64,
    /// Per-rank stage timing reports (rank order), rebuilt from the
    /// observation capture. Empty reports when the recorder was off.
    pub per_rank: Vec<TimingReport>,
    /// Fabric traffic totals.
    pub comm_messages: u64,
    /// Fabric traffic totals.
    pub comm_bytes: u64,
    /// The full observation capture: per-stage aggregates always (when
    /// the recorder is on), individual span events in trace mode. Export
    /// with `ct_obs::chrome::to_chrome_json`.
    pub trace: TraceData,
    /// Live-telemetry outcome when [`DistConfig::live`] was set:
    /// watchdog trips (with the flight dump captured at the first trip)
    /// and the end-of-run flight dump.
    pub live: Option<LiveOutcome>,
}

impl DistReport {
    /// Maximum over ranks of a stage's total seconds.
    pub fn max_stage_secs(&self, stage: &str) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.total_secs(stage))
            .fold(0.0, f64::max)
    }

    /// All per-rank reports folded into one cluster-wide report.
    pub fn merged_timing(&self) -> TimingReport {
        TimingReport::merged(self.per_rank.iter())
    }

    /// Critical-path and overlap analysis of the capture: per-lane
    /// busy/stall/idle accounting, ring-stall attribution and the
    /// Eq.-19 overlap-efficiency figure. Needs individual span events,
    /// so it returns `None` unless the run used `Recorder::trace()`.
    pub fn pipeline_analysis(&self) -> Option<PipelineAnalysis> {
        PipelineAnalysis::from_trace(&self.trace)
    }
}

/// Run the distributed reconstruction: read projections from `input`,
/// write the volume's `Nz` slices to `output`.
///
/// Projections must be stored as `PfsStore::projection_name(i)` objects of
/// `Nu * Nv` floats (row-major). Slices are written as
/// `PfsStore::slice_name(k)` objects of `Nx * Ny` floats.
pub fn reconstruct_distributed(
    cfg: &DistConfig,
    input: &PfsStore,
    output: &PfsStore,
) -> Result<DistReport> {
    cfg.validate()?;
    // One capture per run, even when a config (and its recorder) is
    // reused across runs.
    cfg.obs.reset();
    let n_ranks = cfg.grid.n_ranks();

    // Live telemetry: attach the registry + flight recorder *before*
    // any pipeline track opens (tracks bind the hooks at creation), and
    // start the watchdog so it covers the whole run.
    let mut session: Option<LiveSession> = None;
    let live_reg: Option<LiveRegistry> = match &cfg.live {
        Some(lc) => {
            let registry = LiveRegistry::new();
            let flight = FlightRecorder::new(lc.flight_capacity);
            cfg.obs.attach_live(&registry);
            cfg.obs.attach_flight(&flight);
            let opts = LiveOptions {
                stall_deadline: lc.stall_deadline,
            };
            session = Some(LiveSession::start(
                registry.clone(),
                Some(flight),
                &cfg.obs,
                opts,
            ));
            Some(registry)
        }
        None => {
            // A recorder reused from an earlier live run must not keep
            // feeding that run's registry.
            cfg.obs.detach_live();
            None
        }
    };

    let universe = Universe::with_timeout(cfg.timeout);
    let t0 = clock::now();

    let mats = cfg.geo.projection_matrices();
    let launched = universe
        .launch_with_stats(n_ranks, |comm| {
            run_rank(cfg, input, output, &mats, comm, live_reg.as_ref())
        })
        .map_err(|e| CtError::InvalidConfig(format!("distributed run failed: {e}")));

    let runtime = t0.elapsed().as_secs_f64();
    // Join the watchdog before surfacing any launch error: the thread
    // must never outlive the call, and its trips are wanted even
    // (especially) for failed runs.
    let live = session.map(LiveSession::stop);
    cfg.obs.detach_live();
    let (results, traffic) = launched?;
    for r in results {
        r?;
    }
    // Every rank's tracks have merged by now (launch joins all ranks).
    let trace = cfg.obs.collect();
    let per_rank = (0..n_ranks)
        .map(|r| timing_report_for_rank(&trace, r as u32))
        .collect();
    let (comm_messages, comm_bytes) = (traffic.messages_sent, traffic.bytes_sent);
    let updates = (cfg.geo.volume.len() as u128) * (cfg.geo.num_projections as u128);
    Ok(DistReport {
        runtime_secs: runtime,
        gups: ct_core::metrics::gups(updates, runtime),
        per_rank,
        comm_messages,
        comm_bytes,
        trace,
        live,
    })
}

/// Rebuild one rank's [`TimingReport`] from the capture, combining the
/// rank's roles per stage name (name-sorted, like `StageTimer` produced).
fn timing_report_for_rank(trace: &TraceData, rank: u32) -> TimingReport {
    let mut by_name: BTreeMap<&str, StageSummary> = BTreeMap::new();
    for s in trace.stages.iter().filter(|s| s.rank == rank) {
        let e = by_name.entry(s.name).or_insert_with(|| StageSummary {
            name: s.name.to_string(),
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        });
        e.count += s.count as usize;
        e.total += Duration::from_nanos(s.total_ns);
        e.max = e.max.max(Duration::from_nanos(s.max_ns));
    }
    TimingReport {
        stages: by_name.into_values().collect(),
    }
}

/// Compare a measured run against the paper's analytic performance model
/// (Eqs. 8–19): one row per pipeline stage plus the end-to-end runtime,
/// with predicted seconds from [`ModelBreakdown::evaluate`] and observed
/// seconds from the busiest rank of `report`.
///
/// The observed side uses `report.max_stage_secs`, matching the model's
/// per-rank convention. `DivergenceReport::to_table` renders the
/// predicted/observed/ratio table.
pub fn model_divergence(
    cfg: &DistConfig,
    report: &DistReport,
    machine: &MachineConfig,
    kernel: &KernelModel,
) -> Result<DivergenceReport> {
    let model = ModelBreakdown::evaluate(&cfg.model_input(machine, kernel)?);
    let mut div = DivergenceReport::new();
    for (stage, secs) in [
        ("load", model.t_load),
        ("filter", model.t_flt),
        ("allgather", model.t_allgather),
        ("backprojection", model.t_bp),
        ("reduce", model.t_reduce),
        ("store", model.t_store),
    ] {
        div.push(stage, secs, report.max_stage_secs(stage));
    }
    div.push("runtime", model.t_runtime, report.runtime_secs);
    Ok(div)
}

/// One rank of the grid: the four pipeline stages on the paper's three
/// threads (Figure 4a), PFS in, PFS out.
fn run_rank(
    cfg: &DistConfig,
    input: &PfsStore,
    output: &PfsStore,
    mats: &[ProjectionMatrix],
    comm: &Comm,
    live: Option<&LiveRegistry>,
) -> Result<()> {
    let rank = comm.rank();
    let (grid, geo) = (cfg.grid, &cfg.geo);
    let (row, col) = (grid.row_of(rank), grid.col_of(rank));
    let np = geo.num_projections;
    let pool = Pool::new(cfg.threads_per_rank);
    let track_of = |role| cfg.obs.track(rank as u32, role);
    let main_track = track_of(ThreadRole::Main);
    let _main_cur = ct_obs::current::set_current(&main_track);

    // Column communicator: color = col, ordered by row (Figure 3b left).
    let col_comm = comm.split(col as u64, row as u64);
    // Row communicator: color = row, ordered by col (Figure 3b right).
    let row_comm = comm.split(row as u64, col as u64);
    debug_assert_eq!(col_comm.rank(), row);
    debug_assert_eq!(row_comm.rank(), col);

    let my_range = grid.projections_of_rank(rank, np)?;
    let col_start = grid.projections_of_column(col, np)?.start;
    let pair = grid.slab_pair_of_row(row, geo.volume.nz)?;
    let filterer = Filterer::new(geo, cfg.filter);

    // Buffers: filtered (local) projections, then gathered (column-wide).
    // Named wait spans make every blocked push/pop visible on the
    // blocked thread's lane as `ring.<name>.{push,pop}_wait`.
    let to_gather: RingBuffer<Vec<f32>> = RingBuffer::with_wait_spans(
        cfg.ring_capacity,
        "ring.gather.push_wait",
        "ring.gather.pop_wait",
    );
    let to_bp: RingBuffer<Filtered> = RingBuffer::with_wait_spans(
        cfg.ring_capacity.max(2 * grid.rows),
        "ring.bp.push_wait",
        "ring.bp.pop_wait",
    );
    // Expose each ring's *in-flight* stall waits to the watchdog —
    // completed stalls only reach the trace after the waiter wakes, so
    // a lane that never wakes shows up only through these probes.
    if let Some(reg) = live {
        reg.watch_ring(to_gather.live_probe(format!("rank{rank}.ring.gather")));
        reg.watch_ring(to_bp.live_probe(format!("rank{rank}.ring.bp")));
    }

    let pair_volume = std::thread::scope(|s| -> Result<Volume> {
        let flt = s.spawn(|| {
            let track = track_of(ThreadRole::Filter);
            // Bind the track so PFS and ring-wait spans land on this lane.
            let _cur = ct_obs::current::set_current(&track);
            let load = |track: &_, i| pipeline::load_from_pfs(track, input, geo.detector, i);
            let sink = |_, q: ProjectionImage| q.into_vec();
            pipeline::filter_stage(&track, &filterer, my_range.clone(), &to_gather, load, sink)
        });
        let bp = s.spawn(|| {
            let track = track_of(ThreadRole::Backprojection);
            let _cur = ct_obs::current::set_current(&track);
            let acc = BatchAccumulator::new(geo, pair, cfg.bp());
            let throttle = cfg.bp_throttle;
            pipeline::backproject_stage(&track, &to_bp, acc, &pool, mats, "allgather", throttle)
        });
        let gathered = pipeline::gather_stage(
            &main_track,
            &col_comm,
            &to_gather,
            &to_bp,
            geo.detector,
            my_range.clone(),
            col_start,
        );
        // The gather stage closed both rings on its way out, so neither
        // thread can still be blocked on one.
        let filtered = pipeline::join_stage("filter", flt);
        let pair_volume = pipeline::join_stage("back-projection", bp);
        filtered.and(gathered).and(pair_volume)
    });

    // Recorded whether or not the pipeline succeeded.
    record_rank_totals(&main_track, grid, to_gather.metrics(), to_bp.metrics());
    pipeline::post_stage(
        &main_track,
        &row_comm,
        &pair_volume?,
        pair,
        geo,
        cfg.apply_scale,
        output,
    )
}

/// A rank's end-of-run totals on its main lane. Ring totals land as
/// counters/gauges (the individual waits were already captured as timed
/// spans on the blocked thread's lane); the grid shape lets the offline
/// analysis group AllGather spans by column and Reduce spans by row into
/// collective peer groups.
fn record_rank_totals(track: &Track, grid: RankGrid, gather: RingMetrics, bp: RingMetrics) {
    track.gauge_max("ring.gather.high_water", gather.high_water as u64);
    track.counter_add("ring.gather.push_stalls", gather.push_stalls);
    track.counter_add("ring.gather.pop_stalls", gather.pop_stalls);
    track.gauge_max("ring.bp.high_water", bp.high_water as u64);
    track.counter_add("ring.bp.push_stalls", bp.push_stalls);
    track.counter_add("ring.bp.pop_stalls", bp.pop_stalls);
    track.gauge_max("grid.rows", grid.rows as u64);
    track.gauge_max("grid.cols", grid.cols as u64);
}

/// Helper used by examples/tests: write a projection stack into a store
/// in the canonical layout.
pub fn upload_projections(
    store: &PfsStore,
    stack: &ct_core::projection::ProjectionStack,
) -> Result<()> {
    for (i, img) in stack.iter().enumerate() {
        store
            .write_f32(&PfsStore::projection_name(i), img.data())
            .map_err(|e| CtError::InvalidConfig(format!("uploading projection {i}: {e}")))?;
    }
    Ok(())
}

/// Helper: read the stored volume back as a single i-major volume.
pub fn download_volume(store: &PfsStore, dims: Dims3) -> Result<Volume> {
    let mut vol = Volume::zeros(dims, VolumeLayout::IMajor);
    for k in 0..dims.nz {
        let slice = store
            .read_f32(&PfsStore::slice_name(k))
            .map_err(|e| CtError::InvalidConfig(format!("reading slice {k}: {e}")))?;
        if slice.len() != dims.nx * dims.ny {
            return Err(CtError::ShapeMismatch {
                expected: format!("{} floats", dims.nx * dims.ny),
                actual: format!("{}", slice.len()),
            });
        }
        for j in 0..dims.ny {
            for i in 0..dims.nx {
                vol.set(i, j, k, slice[j * dims.nx + i]);
            }
        }
    }
    Ok(vol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{reconstruct, ReconOptions};
    use ct_core::forward::project_all_analytic;
    use ct_core::metrics::nrmse;
    use ct_core::phantom::Phantom;
    use ct_core::problem::Dims2;

    fn setup(n: usize, np: usize) -> (CbctGeometry, PfsStore) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let stack = project_all_analytic(&geo, &Phantom::shepp_logan(n as f64 * 0.45));
        let store = PfsStore::memory();
        upload_projections(&store, &stack).unwrap();
        (geo, store)
    }

    fn run(geo: &CbctGeometry, input: &PfsStore, r: usize, c: usize) -> (Volume, DistReport) {
        let grid = RankGrid::new(r, c).unwrap();
        let cfg = DistConfig::new(geo.clone(), grid);
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, input, &output).unwrap();
        let vol = download_volume(&output, geo.volume).unwrap();
        (vol, report)
    }

    #[test]
    fn distributed_matches_single_node() {
        let (geo, store) = setup(16, 32);
        let stack = {
            // Rebuild the stack from the store to reconstruct locally.
            let mut s = ct_core::projection::ProjectionStack::new(geo.detector);
            for i in 0..geo.num_projections {
                let d = store.read_f32(&PfsStore::projection_name(i)).unwrap();
                s.push(ProjectionImage::from_vec(geo.detector, d).unwrap())
                    .unwrap();
            }
            s
        };
        let single = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
        for (r, c) in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 2)] {
            let (vol, _) = run(&geo, &store, r, c);
            let e = nrmse(single.data(), vol.data()).unwrap();
            assert!(e < 1e-5, "grid {r}x{c}: nrmse {e}");
        }
    }

    #[test]
    fn paper_figure7_grid_4x4() {
        // Figure 7's configuration (R=4, C=4, 16 ranks), scaled down.
        let (geo, store) = setup(16, 32);
        let (vol, report) = run(&geo, &store, 4, 4);
        // The reconstruction must show the phantom: centre brighter than
        // the corner background.
        let c = vol.get(8, 8, 8);
        let bg = vol.get(0, 0, 8);
        assert!(c > bg, "centre {c} vs background {bg}");
        assert_eq!(report.per_rank.len(), 16);
        assert!(report.gups > 0.0);
        assert!(report.comm_messages > 0);
    }

    #[test]
    fn distributed_is_deterministic() {
        let (geo, store) = setup(8, 16);
        let (a, _) = run(&geo, &store, 2, 2);
        let (b, _) = run(&geo, &store, 2, 2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn report_contains_all_stages() {
        let (geo, store) = setup(8, 16);
        let (_, report) = run(&geo, &store, 2, 2);
        for stage in ["load", "filter", "allgather", "backprojection", "reduce"] {
            assert!(
                report.max_stage_secs(stage) > 0.0,
                "stage {stage} missing from report"
            );
        }
        // Only row roots store, but some rank must have.
        assert!(report.max_stage_secs("store") > 0.0);
    }

    #[test]
    fn trace_structure_is_deterministic() {
        // Two runs of the same DistConfig must capture the same span tree
        // — same (rank, role, name, index) rows — even though the
        // durations differ. Ring wait spans are excluded: a wait span
        // exists only when the thread actually blocked, which depends on
        // scheduling by design.
        let (geo, store) = setup(8, 16);
        let capture = || {
            let mut cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
            cfg.obs = Recorder::trace();
            let output = PfsStore::memory();
            let mut trace = reconstruct_distributed(&cfg, &store, &output)
                .unwrap()
                .trace;
            trace
                .events
                .retain(|e| !e.name.ends_with(".push_wait") && !e.name.ends_with(".pop_wait"));
            trace
        };
        let a = capture();
        let b = capture();
        assert!(!a.events.is_empty());
        assert_eq!(a.structure(), b.structure());
    }

    #[test]
    fn trace_carries_dependency_tags_and_analysis() {
        let (geo, store) = setup(8, 16);
        let mut cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        cfg.obs = Recorder::trace();
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        // Every AllGather op names the filter span it consumed; every
        // back-projection batch names its AllGather op range.
        let ag: Vec<_> = report
            .trace
            .events
            .iter()
            .filter(|e| e.name == "allgather")
            .collect();
        assert!(!ag.is_empty());
        for e in &ag {
            let d = e.deps.expect("allgather span missing deps");
            assert_eq!(d.stage, "filter");
            assert_eq!(d.lo, d.hi);
        }
        let bp: Vec<_> = report
            .trace
            .events
            .iter()
            .filter(|e| e.name == "backprojection")
            .collect();
        assert!(!bp.is_empty());
        for e in &bp {
            let d = e.deps.expect("backprojection span missing deps");
            assert_eq!(d.stage, "allgather");
            assert!(d.lo <= d.hi);
        }
        // The grid shape is recorded for collective peer grouping.
        assert_eq!(report.trace.gauge(0, "grid.rows"), Some(2));
        assert_eq!(report.trace.gauge(0, "grid.cols"), Some(2));
        // The exported trace pairs producers and consumers as flow events.
        let json = ct_obs::chrome::to_chrome_json(&report.trace);
        let check = ct_obs::chrome::validate(&json).unwrap();
        assert!(check.flow_events > 0, "no flow events in the export");
        // The offline analysis runs end-to-end on the real capture.
        let a = report.pipeline_analysis().expect("trace mode must analyze");
        assert!(a.wall_ns > 0);
        assert!(a.max_stage_ns <= a.critical_path_ns);
        assert!(a.critical_path_ns <= a.wall_ns);
        assert!(a.overlap_efficiency > 0.0 && a.overlap_efficiency <= 1.0);
        assert!(!a.critical_path.is_empty());
        assert!(a.report().contains("overlap efficiency"));
        // Summary-only captures have no events, so no analysis.
        let plain = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        let report = reconstruct_distributed(&plain, &store, &PfsStore::memory()).unwrap();
        assert!(report.pipeline_analysis().is_none());
    }

    #[test]
    fn trace_mode_exports_chrome_json_with_all_roles() {
        let (geo, store) = setup(8, 16);
        let mut cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        cfg.obs = Recorder::trace();
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        let json = ct_obs::chrome::to_chrome_json(&report.trace);
        let check = ct_obs::chrome::validate(&json).expect("export must be a valid trace");
        assert_eq!(check.ranks, vec![0, 1, 2, 3]);
        for role in ["filter", "main", "backprojection"] {
            assert!(check.has_thread(role), "missing thread lane {role}");
        }
        for name in [
            "load",
            "filter",
            "allgather",
            "backprojection",
            "reduce",
            "store",
            "pfs.read",
            "pfs.write",
        ] {
            assert!(check.has_span(name), "missing span {name}");
        }
    }

    #[test]
    fn comm_spans_carry_measured_bytes() {
        let (geo, store) = setup(8, 16);
        let cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        for rank in 0..4u32 {
            // Column size 2: each AllGather sends one block to the peer.
            let ag = report
                .trace
                .stage(rank, ThreadRole::Main, "allgather")
                .unwrap();
            assert!(ag.bytes > 0, "rank {rank} allgather moved no bytes");
            // Per-projection load bytes are exact: Nu * Nv * 4.
            let load = report
                .trace
                .stage(rank, ThreadRole::Filter, "load")
                .unwrap();
            assert_eq!(
                load.bytes,
                (load.count as usize * geo.detector.len() * 4) as u64
            );
        }
    }

    #[test]
    fn ring_metrics_surface_as_counters_and_gauges() {
        let (geo, store) = setup(8, 16);
        let cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        for rank in 0..4u32 {
            assert!(report.trace.gauge(rank, "ring.gather.high_water").unwrap() >= 1);
            assert!(report.trace.gauge(rank, "ring.bp.high_water").unwrap() >= 1);
            for name in [
                "ring.gather.push_stalls",
                "ring.gather.pop_stalls",
                "ring.bp.push_stalls",
                "ring.bp.pop_stalls",
            ] {
                assert!(
                    report.trace.counter(rank, name).is_some(),
                    "rank {rank} missing counter {name}"
                );
            }
        }
    }

    #[test]
    fn tiled_bp_matches_untiled_and_traces_tiles() {
        let (geo, store) = setup(8, 16);
        let run_with = |tile: TileConfig| {
            let mut cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
            cfg.tile = tile;
            cfg.obs = Recorder::trace();
            let output = PfsStore::memory();
            let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
            (download_volume(&output, geo.volume).unwrap(), report)
        };
        let (tiled, report) = run_with(TileConfig::AUTO);
        // One tile per batch: the whole slab pair, no blocking at all.
        let (untiled, plain) = run_with(TileConfig {
            i_block: geo.volume.nx,
            slab_pairs: 1,
        });
        // Tiling changes scheduling, not bits.
        assert_eq!(tiled.data(), untiled.data());
        // Every rank's back-projection thread attributed per-tile spans:
        // AUTO splits each batch, the one-tile shape records exactly one
        // tile per batch.
        for rank in 0..4u32 {
            let stage = |r: &DistReport, name| {
                r.trace
                    .stage(rank, ThreadRole::Backprojection, name)
                    .unwrap_or_else(|| panic!("rank {rank} recorded no {name} spans"))
                    .count
            };
            assert!(stage(&report, "bp.tile") > stage(&report, "backprojection"));
            assert_eq!(stage(&plain, "bp.tile"), stage(&plain, "backprojection"));
        }
    }

    #[test]
    fn off_recorder_still_reconstructs_correctly() {
        let (geo, store) = setup(8, 16);
        let mut cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        cfg.obs = Recorder::off();
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        assert!(report.trace.is_empty());
        assert_eq!(report.per_rank.len(), 4);
        assert!(report.per_rank.iter().all(|t| t.stages.is_empty()));
        // The reconstruction itself is unaffected.
        let vol = download_volume(&output, geo.volume).unwrap();
        let (reference, _) = run(&geo, &store, 2, 2);
        assert_eq!(vol.data(), reference.data());
    }

    #[test]
    fn model_divergence_reports_every_stage() {
        let (geo, store) = setup(8, 16);
        let cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        let div = model_divergence(
            &cfg,
            &report,
            &MachineConfig::abci(),
            &KernelModel::v100_proposed(),
        )
        .unwrap();
        for stage in [
            "load",
            "filter",
            "allgather",
            "backprojection",
            "reduce",
            "store",
            "runtime",
        ] {
            let d = div
                .stage(stage)
                .unwrap_or_else(|| panic!("missing {stage}"));
            assert!(d.predicted_secs >= 0.0);
            assert!(d.observed_secs >= 0.0);
            assert!(d.ratio() >= 0.0);
        }
        assert!(div.to_table().contains("runtime"));
    }

    #[test]
    fn merged_timing_combines_ranks() {
        let (geo, store) = setup(8, 16);
        let (_, report) = run(&geo, &store, 2, 2);
        let merged = report.merged_timing();
        let total: usize = report
            .per_rank
            .iter()
            .filter_map(|t| t.stage("load").map(|s| s.count))
            .sum();
        assert_eq!(merged.stage("load").unwrap().count, total);
        // Every rank loads Np / (R*C) projections.
        assert_eq!(total, geo.num_projections);
    }

    #[test]
    fn live_session_runs_clean_and_its_flight_dump_analyzes() {
        let (geo, store) = setup(8, 16);
        let mut cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        cfg.obs = Recorder::trace();
        cfg.live = Some(LiveConfig::default());
        let output = PfsStore::memory();
        let report = reconstruct_distributed(&cfg, &store, &output).unwrap();
        let live = report.live.expect("live outcome present");
        assert!(
            live.trips.is_empty(),
            "clean run must not trip the watchdog: {:?}",
            live.trips
        );
        // The always-on flight recorder dump is a normal capture: the
        // offline analysis runs on it unchanged.
        let dump = live.flight_dump.expect("flight recorder attached");
        let a = PipelineAnalysis::from_trace(&dump).expect("dump has span events");
        assert!(a.wall_ns > 0);
        assert!(!a.critical_path.is_empty());
    }

    #[test]
    fn config_validation() {
        let geo = CbctGeometry::standard(Dims2::new(16, 16), 10, Dims3::cube(8));
        // Np = 10 doesn't divide by 4 ranks.
        let cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
        let store = PfsStore::memory();
        assert!(reconstruct_distributed(&cfg, &store, &PfsStore::memory()).is_err());
        // Nz = 8 can't split into 2*8 half-slabs.
        let geo2 = CbctGeometry::standard(Dims2::new(16, 16), 16, Dims3::cube(8));
        let cfg = DistConfig::new(geo2, RankGrid::new(8, 2).unwrap());
        assert!(reconstruct_distributed(&cfg, &store, &PfsStore::memory()).is_err());
    }

    #[test]
    fn missing_projection_fails_cleanly() {
        let geo = CbctGeometry::standard(Dims2::new(16, 16), 8, Dims3::cube(8));
        let cfg = DistConfig::new(geo, RankGrid::new(2, 2).unwrap());
        let empty = PfsStore::memory();
        let err = reconstruct_distributed(&cfg, &empty, &PfsStore::memory());
        assert!(err.is_err());
    }

    #[test]
    fn store_failure_surfaces() {
        let (geo, store) = setup(8, 16);
        let cfg = DistConfig::new(geo, RankGrid::new(2, 2).unwrap());
        let output = PfsStore::new(
            ct_pfs::Backend::Memory,
            ct_pfs::PfsConfig {
                fail_after_bytes: Some(64),
                ..ct_pfs::PfsConfig::default()
            },
        )
        .unwrap();
        assert!(reconstruct_distributed(&cfg, &store, &output).is_err());
    }
}
