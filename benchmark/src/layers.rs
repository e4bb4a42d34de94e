//! The traced pass: per-crate probes on the workload's own inputs.
//!
//! Every probe is a call into one crate's public functions under a span
//! of [`crate::trace::Tracer`], with `Pool::new(1)`. The pass also times
//! the workload's entry point with and without tracing, back to back, to
//! report what tracing costs. A metric that does not apply to a workload
//! reads 0 there.

use crate::stats::median_of;
use crate::trace::Tracer;
use crate::workload::{
    dist_config, input_store, relative_rmse, run_distributed, single_opts, synthesize, volume_hash,
    Entry, Inputs, Staged, Workload,
};
use crate::Report;
use ct_bp::lanes::backproject_batch;
use ct_bp::{backproject, backproject_standard, fdk_scale, BpConfig};
use ct_comm::Universe;
use ct_core::metrics::gups;
use ct_core::projection::TransposedProjection;
use ct_core::{CtError, ProjectionStack, Volume, VolumeLayout};
use ct_fft::conv::RowConvolver;
use ct_filter::{ramp_kernel, FilterConfig, Filterer, RampKind};
use ct_obs::live::LiveRegistry;
use ct_obs::Recorder;
use ct_par::Pool;
use ct_pfs::PfsStore;
use ct_sync::ring::RingBuffer;
use ifdk::distributed::download_volume;
use std::time::Instant;

/// Fewest untraced/traced pairs, however short `--seconds` is.
const MIN_PAIRS: usize = 3;
/// Pipelined and distributed volumes must sit this close (relative RMSE)
/// to `ifdk::reconstruct` on the same inputs.
const REFERENCE_RMSE: f64 = 1e-4;
const MB: f64 = 1.0e6;

/// `ifdk::reconstruct` taken apart at its crate boundaries, one span per
/// layer. Bit-identical to the entry point with one thread.
fn staged_reconstruct(tr: &mut Tracer, inputs: &Inputs) -> Volume {
    let geo = &inputs.geo;
    tr.span("ifdk.reconstruct_staged", |tr| {
        let pool = Pool::new(1);
        let (filterer, _) = tr.span("ct_filter.plan", |_| {
            Filterer::new(geo, FilterConfig::default())
        });
        let (filtered, _) = tr.span("ct_filter.filter_stack", |tr| {
            let filtered = filterer.filter_stack(&pool, &inputs.projections);
            tr.count("rows", (filtered.len() * filtered.dims().nv) as f64);
            filtered
        });
        let mats = geo.projection_matrices();
        let (vol, _) = tr.span("ct_bp.backproject", |tr| {
            let vol = backproject(&pool, BpConfig::default(), &mats, &filtered, geo.volume);
            tr.count("updates", (vol.data().len() * mats.len()) as f64);
            vol
        });
        let (mut vol, _) = tr.span("ct_core.layout", |_| vol.into_layout(VolumeLayout::IMajor));
        vol.scale(fdk_scale(geo));
        vol
    })
    .0
}

/// One traced repetition of the workload's entry point. The single-node
/// entry point has no tracing of its own, so its traced form is the
/// staged replica; the pipelined one reports through a `LiveRegistry`,
/// the distributed one through `Recorder::trace()`.
fn traced_rep(
    tr: &mut Tracer,
    w: &Workload,
    inputs: &Inputs,
    dist_input: Option<&PfsStore>,
    stages: &mut Vec<DistStages>,
) -> (f64, Result<Volume, CtError>) {
    let geo = &inputs.geo;
    match w.entry {
        Entry::Single => {
            let t = Instant::now();
            let vol = staged_reconstruct(tr, inputs);
            (t.elapsed().as_secs_f64(), Ok(vol))
        }
        Entry::Pipelined => {
            let (vol, secs) = tr.span("ifdk.reconstruct_pipelined_live", |tr| {
                let live = LiveRegistry::new();
                let vol = ifdk::reconstruct_pipelined_live(
                    geo,
                    &inputs.projections,
                    &single_opts(),
                    &live,
                )?;
                for stage in ["filter", "backprojection"] {
                    tr.count(stage, live.stage(stage).busy_ns() as f64 * 1e-9);
                }
                Ok(vol)
            });
            (secs, vol)
        }
        Entry::Distributed => {
            let input = dist_input.expect("distributed workloads stage an input store");
            let cfg = dist_config(w, geo, Recorder::trace());
            // Store to store, like the untraced side: the download that
            // follows is not part of the repetition.
            let (out, secs) = tr.span("ifdk.reconstruct_distributed_traced", |tr| {
                let out = run_distributed(&cfg, input);
                if let Ok((_, report)) = &out {
                    tr.count("messages", report.comm_messages as f64);
                    tr.count("bytes", report.comm_bytes as f64);
                }
                out
            });
            let vol = out.and_then(|(output, report)| {
                let vol = download_volume(&output, geo.volume);
                stages.push(DistStages::of(&report, output));
                vol
            });
            (secs, vol)
        }
    }
}

/// What one traced distributed repetition reports about itself.
struct DistStages {
    /// Busiest rank's seconds in load, filter, allgather,
    /// backprojection, reduce, store.
    stage_secs: [f64; 6],
    critical_path_s: f64,
    eq19_overlap: f64,
    messages: u64,
    bytes: u64,
    output: PfsStore,
}

const DIST_STAGES: [&str; 6] = [
    "load",
    "filter",
    "allgather",
    "backprojection",
    "reduce",
    "store",
];

impl DistStages {
    fn of(report: &ifdk::DistReport, output: PfsStore) -> Self {
        let analysis = report.pipeline_analysis();
        Self {
            stage_secs: DIST_STAGES.map(|s| report.max_stage_secs(s)),
            critical_path_s: analysis.as_ref().map_or(0.0, |a| a.critical_path_secs()),
            eq19_overlap: analysis.as_ref().map_or(0.0, |a| a.overlap_efficiency),
            messages: report.comm_messages,
            bytes: report.comm_bytes,
            output,
        }
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool, report: &mut Report) -> Tracer {
    let mut tr = Tracer::new(w.name);
    let (inputs, inputs_s) = tr.span("ct_core.inputs", |_| synthesize(w, seed, quick));
    report.metric("ct_core.inputs_s", inputs_s);
    // A failed step has been counted by the time `probe` gives up; the
    // metrics it did not reach read 0 in the result line.
    let _ = probe(&mut tr, w, &inputs, seconds, quick, report);
    tr
}

fn probe(
    tr: &mut Tracer,
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    quick: bool,
    report: &mut Report,
) -> Option<()> {
    let geo = &inputs.geo;
    let pool = Pool::new(1);
    let mats = geo.projection_matrices();

    // The reference bits: the untraced entry point, once.
    let staged = report.attempt("staging inputs", Staged::new(w, inputs))?;
    let (_, reference, _) = report.attempt("reconstruction", staged.run())?;
    let reference_hash = volume_hash(&reference);

    // Untraced and traced repetitions of the entry point, alternating,
    // so that drift hits both sides alike, for half of `seconds`: the
    // probes below take about as long again.
    let (mut untraced, mut traced, mut dist) = (Vec::new(), Vec::new(), Vec::new());
    let mut input_bytes_read = 0;
    let min_pairs = if quick { 1 } else { MIN_PAIRS };
    let loop_start = Instant::now();
    while untraced.len() < min_pairs || loop_start.elapsed().as_secs_f64() < seconds / 2.0 {
        let (secs, vol, _) = report.attempt("reconstruction", staged.run())?;
        untraced.push(secs);
        report.check(volume_hash(&vol) == reference_hash, || {
            "untraced repetition differs in bits".into()
        });
        drop(vol);
        let read_before = staged.input().map_or(0, |s| s.stats().bytes_read);
        let (secs, vol) = traced_rep(tr, w, inputs, staged.input(), &mut dist);
        input_bytes_read = staged.input().map_or(0, |s| s.stats().bytes_read) - read_before;
        let vol = report.attempt("traced reconstruction", vol)?;
        traced.push(secs);
        report.check(volume_hash(&vol) == reference_hash, || {
            "traced repetition differs in bits from the untraced one".into()
        });
    }
    let recon_s = median_of(&untraced);
    eprintln!(
        "entry point: untraced median {recon_s:.4} s, traced {:.4} s, {} pairs",
        median_of(&traced),
        untraced.len()
    );
    report.metric(
        "ct_obs.trace_overhead_frac",
        median_of(&traced) / recon_s - 1.0,
    );

    // Layer times come from the staged replica. The single workloads
    // have run it as their traced repetition; the other two run it once
    // here, where its volume is also the `ifdk::reconstruct` their own
    // entry point must agree with.
    if w.entry != Entry::Single {
        let replica = staged_reconstruct(tr, inputs);
        let rel = report
            .attempt("reference rmse", relative_rmse(&replica, &reference))
            .unwrap_or(f64::NAN);
        report.check(rel <= REFERENCE_RMSE, || {
            format!("relative RMSE {rel:.3e} to ifdk::reconstruct above {REFERENCE_RMSE:e}")
        });
    }
    drop(reference);
    let layer = |name: &str| median_of(&tr.secs_of(name));
    let (filter_s, bp_s) = (layer("ct_filter.filter_stack"), layer("ct_bp.backproject"));
    let layout_s = layer("ct_core.layout");
    let rows = tr.last_count("ct_filter.filter_stack", "rows")?;
    let updates = tr.last_count("ct_bp.backproject", "updates")?;
    let bp_gups = gups(updates as u128, bp_s);
    report.check(updates == w.updates(quick) as f64, || {
        format!("back-projection made {updates} voxel updates, not Nx*Ny*Nz*Np")
    });
    report.metric("ct_filter.plan_s", layer("ct_filter.plan"));
    report.metric("ct_filter.rows", rows);
    report.metric("ct_filter.busy_s", filter_s);
    report.metric("ct_filter.rows_per_s", rows / filter_s);
    report.metric("ct_bp.updates", updates);
    report.metric("ct_bp.busy_s", bp_s);
    report.metric("ct_bp.gups", bp_gups);
    report.metric("ct_core.layout_s", layout_s);
    let on = |entry: Entry, value: f64| if w.entry == entry { value } else { 0.0 };
    let glue_s = recon_s - (filter_s + bp_s + layout_s);
    report.metric("ifdk.glue_s", on(Entry::Single, glue_s));
    report.metric(
        "ifdk.overlap_eff",
        on(Entry::Pipelined, filter_s.max(bp_s) / recon_s),
    );

    // Probes below the staged replica's resolution.
    tr.span("probes", |tr| {
        let filterer = Filterer::new(geo, FilterConfig::default());
        let filtered = filterer.filter_stack(&pool, &inputs.projections);

        let (transposed, transpose_s) = tr.span("ct_core.transpose", |_| {
            let t: Vec<TransposedProjection> = filtered.iter().map(|p| p.transposed()).collect();
            t
        });
        report.metric("ct_core.transpose_s", transpose_s);

        // ct-bp: the 32-projection batch call the pipelines issue.
        let cfg = BpConfig::default();
        let refs: Vec<&TransposedProjection> = transposed.iter().collect();
        let batch_secs: Vec<f64> = mats
            .chunks(cfg.batch)
            .zip(refs.chunks(cfg.batch))
            .take(3)
            .map(|(m, q)| {
                let nv = geo.detector.nv;
                tr.span("ct_bp.batch", |_| {
                    backproject_batch(&pool, cfg.kernel, m, q, nv, geo.volume, cfg.batch, cfg.tile)
                })
                .1
            })
            .collect();
        report.metric("ct_bp.batch_s", median_of(&batch_secs));
        drop(transposed);

        // ct-bp: Algorithm 2 on the first 8 projections, the "standard
        // FDK" side of the paper's 1.6x comparison, where back-projection
        // is the workload.
        let (mut standard_gups, mut speedup) = (0.0, 0.0);
        if w.compare_standard {
            let n_std = 8.min(filtered.len());
            let first: Vec<_> = filtered.iter().take(n_std).cloned().collect();
            let first = ProjectionStack::from_images(geo.detector, first)
                .expect("filtered images keep the detector shape");
            let (_, std_s) = tr.span("ct_bp.standard", |_| {
                backproject_standard(&pool, &mats[..n_std], &first, geo.volume)
            });
            standard_gups = gups((geo.volume.len() * n_std) as u128, std_s);
            speedup = bp_gups / standard_gups;
        }
        report.metric("ct_bp.standard_gups", standard_gups);
        report.metric("ct_bp.speedup_vs_standard", speedup);
        drop(filtered);

        // ct-fft: single-row convolutions at this detector width.
        let (nu, nv) = (geo.detector.nu, geo.detector.nv);
        let kernel = ramp_kernel(RampKind::RamLak, nu, geo.virtual_pitch_u());
        let conv = RowConvolver::new(nu, &kernel);
        let mut scratch = conv.make_scratch();
        let mut image = inputs.projections.get(0).clone();
        let fft_rows = 4 * nv;
        let (_, fft_s) = tr.span("ct_fft.rows", |tr| {
            tr.count("rows", fft_rows as f64);
            for r in 0..fft_rows {
                conv.convolve_row_f32(image.row_mut(r % nv), &mut scratch);
            }
        });
        std::hint::black_box(&image);
        report.metric("ct_fft.fft_len", conv.fft_len() as f64);
        report.metric("ct_fft.rows_per_s", fft_rows as f64 / fft_s);

        // ct-sync: only the pipelined entry point hands work over a ring.
        let handoff_ns = match w.entry {
            Entry::Pipelined => ring_handoff_ns(tr, report),
            _ => 0.0,
        };
        report.metric("ct_sync.ring_handoff_ns", handoff_ns);
    });

    // ct-comm and ct-pfs: only the distributed workload has them on its
    // path. The collectives run at the sizes the rank grid issues them: a
    // projection gathered within a column, a slab pair reduced within a
    // row.
    let (mut comm_mb_per_s, mut pfs_mb_per_s) = ([0.0; 2], [0.0; 2]);
    if let Some(last) = dist.last() {
        let (r, c) = w.grid;
        let projection = inputs.projections.get(0).data();
        let slab = vec![1.0f32; geo.volume.len() / r];
        let (rates, _) = tr.span("probes.distributed", |tr| {
            let comm = [
                collective_mb_per_s(tr, "ct_comm.allgather", r, 64, report, |comm| {
                    std::hint::black_box(comm.all_gather(projection));
                }),
                collective_mb_per_s(tr, "ct_comm.reduce", c, 8, report, |comm| {
                    std::hint::black_box(comm.reduce_sum_f32(0, &slab));
                }),
            ];
            let (store, write_s) = tr.span("ct_pfs.write", |_| input_store(&inputs.projections));
            let written = report.attempt("upload", store)?.stats().bytes_written;
            let read_before = last.output.stats().bytes_read;
            let (vol, read_s) =
                tr.span("ct_pfs.read", |_| download_volume(&last.output, geo.volume));
            report.attempt("download", vol)?;
            let read = last.output.stats().bytes_read - read_before;
            Some((
                comm,
                [written as f64 / MB / write_s, read as f64 / MB / read_s],
            ))
        });
        (comm_mb_per_s, pfs_mb_per_s) = rates?;
    }
    report.metric("ct_comm.allgather_mb_per_s", comm_mb_per_s[0]);
    report.metric("ct_comm.reduce_mb_per_s", comm_mb_per_s[1]);
    report.metric("ct_pfs.write_mb_per_s", pfs_mb_per_s[0]);
    report.metric("ct_pfs.read_mb_per_s", pfs_mb_per_s[1]);

    // Counts are exact: they must repeat, and match what was recorded
    // when the benchmark was defined. Stage times are medians.
    let traffic: Vec<(u64, u64)> = dist.iter().map(|d| (d.messages, d.bytes)).collect();
    let first = traffic.first().copied();
    report.check(traffic.iter().all(|t| Some(*t) == first), || {
        format!("fabric traffic differs between traced repetitions: {traffic:?}")
    });
    if !quick {
        report.check(first == w.comm, || {
            format!(
                "fabric moved {first:?} (messages, bytes), recorded {:?}",
                w.comm
            )
        });
    }
    let (messages, bytes) = first.unwrap_or((0, 0));
    let written = dist.first().map_or(0, |d| d.output.stats().bytes_written);
    report.metric("ct_comm.messages", messages as f64);
    report.metric("ct_comm.bytes", bytes as f64);
    report.metric("ct_pfs.bytes_read", input_bytes_read as f64);
    report.metric("ct_pfs.bytes_written", written as f64);
    let dist_median = |f: &dyn Fn(&DistStages) -> f64| match dist.is_empty() {
        true => 0.0,
        false => median_of(&dist.iter().map(f).collect::<Vec<_>>()),
    };
    for (i, stage) in DIST_STAGES.iter().enumerate() {
        let name = format!("ifdk.stage.{stage}_s");
        report.metric(&name, dist_median(&|d| d.stage_secs[i]));
    }
    report.metric("ifdk.critical_path_s", dist_median(&|d| d.critical_path_s));
    report.metric("ifdk.eq19_overlap", dist_median(&|d| d.eq19_overlap));
    Some(())
}

/// Seconds per item handed from a producer thread to a consumer thread
/// through a `RingBuffer`, in nanoseconds.
fn ring_handoff_ns(tr: &mut Tracer, report: &mut Report) -> f64 {
    const ITEMS: u64 = 100_000;
    let ring: RingBuffer<u64> = RingBuffer::new(64);
    let (sum, secs) = tr.span("ct_sync.ring", |tr| {
        tr.count("items", ITEMS as f64);
        std::thread::scope(|s| {
            let producer = ring.clone();
            let pushed = s.spawn(move || {
                let start = Instant::now();
                for i in 0..ITEMS {
                    if producer.push(i).is_err() {
                        break;
                    }
                }
                producer.close();
                (start, Instant::now())
            });
            let mut sum = 0u64;
            while let Some(i) = ring.pop() {
                sum += i;
            }
            let (start, end) = pushed.join().expect("producer thread panicked");
            tr.record_at("ct_sync.ring.producer", start, end);
            sum
        })
    });
    report.check(sum == ITEMS * (ITEMS - 1) / 2, || {
        "the ring lost or duplicated items".into()
    });
    secs * 1e9 / ITEMS as f64
}

/// Run `op` `iters` times on `ranks` otherwise idle ranks; MB/s is the
/// fabric's exact byte count over the wall time of the launch.
fn collective_mb_per_s(
    tr: &mut Tracer,
    name: &'static str,
    ranks: usize,
    iters: usize,
    report: &mut Report,
    op: impl Fn(&ct_comm::Comm) + Sync,
) -> f64 {
    let (sent, secs) = tr.span(name, |tr| {
        let launched = Universe::default().launch_with_stats(ranks, |comm| {
            for _ in 0..iters {
                op(comm);
            }
        });
        let (_, traffic) = report.attempt(name, launched)?;
        tr.count("bytes", traffic.bytes_sent as f64);
        Some(traffic.bytes_sent)
    });
    sent.map_or(0.0, |bytes| bytes as f64 / MB / secs)
}
