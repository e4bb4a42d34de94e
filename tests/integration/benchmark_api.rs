//! The surface `benchmark/src/{layers,workload}.rs` imports, called with
//! the same argument shapes on an 8^3 problem. `benchmark/` is a
//! standalone workspace `cargo test` never builds, so without this a
//! refactor could break the benchmark with every tier-1 test green.

use ct_bp::lanes::{backproject_batch, backproject_pair_batch_reporting};
use ct_bp::{backproject, backproject_standard, fdk_scale, BpConfig, SlabPair};
use ct_core::geometry::CbctGeometry;
use ct_core::metrics::nrmse;
use ct_core::phantom::Phantom;
use ct_core::problem::{Dims2, Dims3};
use ct_core::projection::{ProjectionStack, TransposedProjection};
use ct_core::volume::{Volume, VolumeLayout};
use ct_filter::{FilterConfig, Filterer};
use ct_obs::live::LiveRegistry;
use ct_obs::Recorder;
use ct_par::Pool;
use ct_pfs::PfsStore;
use ct_sync::ring::RingBuffer;
use ifdk::distributed::{download_volume, upload_projections};
use ifdk::{DistConfig, DistReport, RankGrid, ReconOptions};
use ifdk_integration_tests::scene;

#[test]
fn batch_calls_over_all_projections_equal_the_default_backproject() {
    let (geo, _, stack) = scene(8, 40);
    let pool = Pool::new(1);
    let mats = geo.projection_matrices();
    let whole = backproject(&pool, BpConfig::default(), &mats, &stack, geo.volume);

    let cfg = BpConfig::default();
    let transposed: Vec<TransposedProjection> = stack.iter().map(|p| p.transposed()).collect();
    let refs: Vec<&TransposedProjection> = transposed.iter().collect();
    let nv = geo.detector.nv;
    // layers.rs: the 32-projection batch call, into a fresh volume.
    let (m, q) = (&mats[..cfg.batch], &refs[..cfg.batch]);
    let first = backproject_batch(&pool, cfg.kernel, m, q, nv, geo.volume, cfg.batch, cfg.tile);
    // The pipelines' batch accumulator: every batch added into one volume.
    let pair = SlabPair::full(geo.volume.nz).unwrap();
    let mut sum = Volume::zeros(geo.volume, VolumeLayout::KMajor);
    for (b, (m, q)) in mats
        .chunks(cfg.batch)
        .zip(refs.chunks(cfg.batch))
        .enumerate()
    {
        let (batch, tile) = (cfg.batch, cfg.tile);
        backproject_pair_batch_reporting(
            &pool, cfg.kernel, m, q, nv, geo.volume, pair, batch, tile, &mut sum,
        );
        if b == 0 {
            assert_eq!(sum.data(), first.data(), "first batch into zeros");
        }
    }
    assert_eq!(sum.data(), whole.data());

    // layers.rs: the staged replica's tail and the Algorithm 2 probe.
    let mut staged = whole.into_layout(VolumeLayout::IMajor);
    staged.scale(fdk_scale(&geo));
    let first: Vec<_> = stack.iter().take(8).cloned().collect();
    let first = ProjectionStack::from_images(geo.detector, first).unwrap();
    let standard = backproject_standard(&pool, &mats[..8], &first, geo.volume);
    assert_eq!(standard.dims(), staged.dims());
}

/// The benchmark's correctness gate on its single-node workloads, kept in
/// tier-1: `ifdk::reconstruct` equals the staged replica of `layers.rs`
/// (`filter_stack` → `backproject` → i-major → scale) bit for bit, on a
/// full and a Parker short scan, with `Np` not a multiple of the batch,
/// for several batch sizes and pool widths.
#[test]
fn reconstruct_equals_the_staged_replica_bit_for_bit() {
    let (n, np) = (8, 40);
    let (det, dims) = (Dims2::new(2 * n, 2 * n), Dims3::cube(n));
    let phantom = Phantom::shepp_logan(0.45 * n as f64);
    let bits = |v: &Volume| v.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for geo in [
        CbctGeometry::standard(det, np, dims),
        CbctGeometry::standard_short_scan(det, np, dims),
    ] {
        let stack = ct_core::forward::project_all_analytic(&geo, &phantom);
        let mats = geo.projection_matrices();
        let filterer = Filterer::new(&geo, FilterConfig::default());
        for batch in [1, 7, 32] {
            let bp = BpConfig {
                batch,
                ..BpConfig::default()
            };
            for threads in [1, 2] {
                let pool = Pool::new(threads);
                let filtered = filterer.filter_stack(&pool, &stack);
                let mut staged = backproject(&pool, bp, &mats, &filtered, geo.volume)
                    .into_layout(VolumeLayout::IMajor);
                staged.scale(fdk_scale(&geo));
                let opts = ReconOptions {
                    threads,
                    bp,
                    ..ReconOptions::default()
                };
                let vol = ifdk::reconstruct(&geo, &stack, &opts).unwrap();
                let scan = if geo.is_full_scan() { "full" } else { "short" };
                let what = format!("{scan} scan, batch {batch}, {threads} threads");
                assert_eq!(bits(&vol), bits(&staged), "{what}");
            }
        }
    }
}

#[test]
fn entry_points_take_the_benchmarks_options() {
    let (geo, _, stack) = scene(8, 16);
    // workload.rs: single_opts().
    let opts = ReconOptions {
        threads: 1,
        ..ReconOptions::default()
    };
    let plain = ifdk::reconstruct(&geo, &stack, &opts).unwrap();
    let pipelined = ifdk::reconstruct_pipelined(&geo, &stack, &opts).unwrap();
    let live = LiveRegistry::new();
    let traced = ifdk::reconstruct_pipelined_live(&geo, &stack, &opts, &live).unwrap();
    assert_eq!(pipelined.data(), traced.data());
    assert!(live.stage("backprojection").busy_ns() > 0);
    assert!(nrmse(plain.data(), pipelined.data()).unwrap() < 1e-5);

    // workload.rs: dist_config(), input_store(), run_distributed().
    let grid = RankGrid::new(2, 2).expect("workload grids are nonempty");
    let mut cfg = DistConfig::new(geo.clone(), grid);
    cfg.threads_per_rank = 1;
    cfg.obs = Recorder::trace();
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let output = PfsStore::memory();
    let report: DistReport = ifdk::reconstruct_distributed(&cfg, &input, &output).unwrap();
    let vol = download_volume(&output, geo.volume).unwrap();
    assert!(nrmse(plain.data(), vol.data()).unwrap() < 1e-5);
    // layers.rs: DistStages::of().
    assert!(report.comm_messages > 0 && report.comm_bytes > 0);
    assert!(report.max_stage_secs("backprojection") > 0.0);
    let analysis = report.pipeline_analysis().expect("trace mode analyzes");
    assert!(analysis.critical_path_secs() > 0.0);
    assert!(analysis.overlap_efficiency > 0.0);

    // layers.rs: ring_handoff_ns().
    let ring: RingBuffer<u64> = RingBuffer::new(4);
    let producer = ring.clone();
    producer.push(7).unwrap();
    producer.close();
    assert_eq!(ring.pop(), Some(7));
    assert_eq!(ring.pop(), None);
}
