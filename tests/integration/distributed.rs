//! Distributed-framework integration tests: the 2D rank grid, collectives
//! and PFS I/O working together (paper Section 4 / Figure 7).

use ct_bp::BpConfig;
use ct_core::metrics::nrmse;
use ct_core::problem::Dims3;
use ct_filter::FilterConfig;
use ct_obs::live::LiveRegistry;
use ct_par::Pool;
use ct_pfs::{Backend, PfsConfig, PfsStore};
use ifdk::distributed::{download_volume, upload_projections};
use ifdk::{
    reconstruct, reconstruct_distributed, reconstruct_pipelined, reconstruct_pipelined_live,
    DistConfig, RankGrid, ReconOptions, StreamingReconstructor,
};
use ifdk_integration_tests::scene;

fn run_grid(
    geo: &ct_core::CbctGeometry,
    input: &PfsStore,
    rows: usize,
    cols: usize,
) -> (ct_core::volume::Volume, ifdk::DistReport) {
    let cfg = DistConfig::new(geo.clone(), RankGrid::new(rows, cols).unwrap());
    let output = PfsStore::memory();
    let report = reconstruct_distributed(&cfg, input, &output).unwrap();
    (download_volume(&output, geo.volume).unwrap(), report)
}

#[test]
fn grid_shape_sweep_all_match_single_node() {
    let (geo, _, stack) = scene(16, 32);
    let single = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    // Every viable R x C factorisation of up to 8 ranks.
    for (r, c) in [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (4, 1),
        (1, 4),
        (4, 2),
        (2, 4),
        (8, 1),
    ] {
        let (vol, report) = run_grid(&geo, &input, r, c);
        let e = nrmse(single.data(), vol.data()).unwrap();
        assert!(e < 1e-5, "{r}x{c}: NRMSE {e}");
        assert_eq!(report.per_rank.len(), r * c);
    }
}

#[test]
fn more_columns_means_more_reduce_traffic() {
    let (geo, _, stack) = scene(16, 32);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let (_, rep_c1) = run_grid(&geo, &input, 4, 1);
    let (_, rep_c4) = run_grid(&geo, &input, 4, 4);
    // C = 1 does no reduction at all; C = 4 must move strictly more bytes.
    assert!(
        rep_c4.comm_bytes > rep_c1.comm_bytes,
        "c4 {} vs c1 {}",
        rep_c4.comm_bytes,
        rep_c1.comm_bytes
    );
}

#[test]
fn figure7_16_ranks_4x4() {
    // The paper's Figure 7: R=4, C=4, 16 ranks, with MPI_Reduce within
    // each row producing the final sub-volumes.
    let (geo, phantom, stack) = scene(16, 32);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let (vol, report) = run_grid(&geo, &input, 4, 4);
    assert_eq!(report.per_rank.len(), 16);
    // Reduce happened on every rank (C > 1).
    assert!(report.max_stage_secs("reduce") > 0.0);
    // Structure present.
    let truth = phantom.voxelize(
        geo.volume,
        ct_core::volume::VolumeLayout::IMajor,
        |i, j, k| geo.voxel_position(i, j, k),
    );
    let e = nrmse(truth.data(), vol.data()).unwrap();
    assert!(e < 0.3, "NRMSE vs phantom {e}");
}

#[test]
fn disk_backed_pfs_round_trip() {
    let (geo, _, stack) = scene(8, 16);
    let dir = std::env::temp_dir().join(format!("ifdk_disk_test_{}", std::process::id()));
    let cfg = PfsConfig::default();
    let input = PfsStore::new(Backend::Disk(dir.join("in")), cfg.clone()).unwrap();
    let output = PfsStore::new(Backend::Disk(dir.join("out")), cfg).unwrap();
    upload_projections(&input, &stack).unwrap();

    let dist_cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
    reconstruct_distributed(&dist_cfg, &input, &output).unwrap();
    // All Nz slices exist on disk.
    assert_eq!(output.list().len(), geo.volume.nz);
    let vol = download_volume(&output, geo.volume).unwrap();
    let single = { reconstruct(&geo, &stack, &ReconOptions::default()).unwrap() };
    assert!(nrmse(single.data(), vol.data()).unwrap() < 1e-5);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn output_slices_cover_all_z() {
    let (geo, _, stack) = scene(16, 32);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let cfg = DistConfig::new(geo.clone(), RankGrid::new(4, 2).unwrap());
    let output = PfsStore::memory();
    reconstruct_distributed(&cfg, &input, &output).unwrap();
    let names = output.list();
    assert_eq!(names.len(), geo.volume.nz);
    for k in 0..geo.volume.nz {
        assert!(
            names.contains(&PfsStore::slice_name(k)),
            "slice {k} missing"
        );
    }
}

#[test]
fn io_accounting_matches_data_volumes() {
    let (geo, _, stack) = scene(16, 32);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let in_bytes_before = input.stats().bytes_read;
    let cfg = DistConfig::new(geo.clone(), RankGrid::new(2, 2).unwrap());
    let output = PfsStore::memory();
    reconstruct_distributed(&cfg, &input, &output).unwrap();
    // Each projection is read exactly once across all ranks.
    let expected_read = (geo.detector.len() * geo.num_projections * 4) as u64;
    assert_eq!(input.stats().bytes_read - in_bytes_before, expected_read);
    // The volume is written exactly once.
    let expected_written = (geo.volume.len() * 4) as u64;
    assert_eq!(output.stats().bytes_written, expected_written);
}

#[test]
fn rectangular_volume_distributes() {
    // Non-cubic output exercises the slab bookkeeping.
    let geo =
        ct_core::CbctGeometry::standard(ct_core::Dims2::new(48, 32), 24, Dims3::new(24, 20, 16));
    let phantom = ct_core::phantom::Phantom::uniform_sphere(5.0);
    let stack = ct_core::forward::project_all_analytic(&geo, &phantom);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let single = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
    let (vol, _) = run_grid(&geo, &input, 4, 2);
    assert!(nrmse(single.data(), vol.data()).unwrap() < 1e-5);
}

/// The five doors are one pipeline: on one pool thread they give the
/// same bits, and the 1x1 grid is that pipeline with collectives that
/// move nothing. (Grids with R > 1 or C > 1 interleave the projection
/// stream or split the sum; they are held to < 1e-5 above, not to bits.)
#[test]
fn every_door_gives_the_same_bits_on_one_rank() {
    let (geo, _, stack) = scene(16, 72);
    let opts = ReconOptions {
        threads: 1,
        ..ReconOptions::default()
    };
    let plain = reconstruct(&geo, &stack, &opts).unwrap();

    let pipelined = reconstruct_pipelined(&geo, &stack, &opts).unwrap();
    assert_eq!(plain.data(), pipelined.data(), "reconstruct_pipelined");

    let live = reconstruct_pipelined_live(&geo, &stack, &opts, &LiveRegistry::new()).unwrap();
    assert_eq!(plain.data(), live.data(), "reconstruct_pipelined_live");

    let (filter, bp) = (FilterConfig::default(), BpConfig::default());
    let mut streaming =
        StreamingReconstructor::new(geo.clone(), filter, bp, Pool::new(1), true).unwrap();
    for img in stack.iter() {
        streaming.feed(img).unwrap();
    }
    let streamed = streaming.finish().unwrap();
    assert_eq!(plain.data(), streamed.data(), "StreamingReconstructor");

    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let (dist, report) = run_grid(&geo, &input, 1, 1);
    assert_eq!(plain.data(), dist.data(), "reconstruct_distributed 1x1");
    assert_eq!((report.comm_messages, report.comm_bytes), (0, 0));
}

/// The small-scale twin of the benchmark's exact 218 messages /
/// 87 032 384 bytes check on `dist_2x2`: the collectives' traffic is a
/// function of the grid and the problem, so a refactor that changes it
/// shows up here first.
#[test]
fn traffic_of_the_2x2_grid_is_pinned() {
    let (geo, _, stack) = scene(16, 72);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).unwrap();
    let (_, report) = run_grid(&geo, &input, 2, 2);
    assert_eq!(
        (report.comm_messages, report.comm_bytes),
        (98, 311_872),
        "18 AllGather ops of one 32x32 projection on each of 4 ranks (72 x 4096 B), \
         two 4-rank communicator splits (24 x 24 B), one half-volume Reduce per row \
         (2 x 8192 B)"
    );
}
