//! The surface `benchmark/src/{layers,workload}.rs` imports, called with
//! the same argument shapes on an 8^3 problem. `benchmark/` is a
//! standalone workspace `cargo test` never builds, so without this a
//! refactor could break the benchmark with every tier-1 test green.

use ct_bp::lanes::backproject_batch;
use ct_bp::{backproject, backproject_standard, fdk_scale, BpConfig};
use ct_core::metrics::nrmse;
use ct_core::projection::{ProjectionStack, TransposedProjection};
use ct_core::volume::VolumeLayout;
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

    // layers.rs: the 32-projection batch call the pipelines issue.
    let cfg = BpConfig::default();
    let transposed: Vec<TransposedProjection> = stack.iter().map(|p| p.transposed()).collect();
    let refs: Vec<&TransposedProjection> = transposed.iter().collect();
    let nv = geo.detector.nv;
    let mut batches = mats
        .chunks(cfg.batch)
        .zip(refs.chunks(cfg.batch))
        .map(|(m, q)| {
            backproject_batch(&pool, cfg.kernel, m, q, nv, geo.volume, cfg.batch, cfg.tile)
        });
    let mut sum = batches.next().expect("at least one batch");
    for part in batches {
        sum.accumulate(&part).unwrap();
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
