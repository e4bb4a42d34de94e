//! Property-style checks of the tiled, thread-parallel back-projection
//! driver: on random geometries it must be bit-identical across pool
//! widths and tile shapes, bit-identical to the untiled reference loop
//! for both samplers, and must agree with the serial standard kernel
//! (Algorithm 2) at tight tolerance.
//!
//! Uses `rand` with a fixed seed rather than proptest so every run
//! exercises the same (still randomly shaped) cases deterministically.

use ct_bp::lanes::LaneSampler;
use ct_bp::pair::backproject_pair_with;
use ct_bp::tiled::{backproject_pair_tiled_reporting, backproject_tiled_with, TileConfig};
use ct_bp::{backproject_standard, SlabPair, WARP_BATCH};
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::metrics::nrmse;
use ct_core::problem::{Dims2, Dims3};
use ct_core::projection::{ProjectionImage, ProjectionStack};
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick(rng: &mut StdRng, choices: &[usize]) -> usize {
    choices[rng.gen::<u64>() as usize % choices.len()]
}

/// A random-but-valid problem: even-depth volume, detector sized to
/// cover it, random pixel content.
fn random_case(rng: &mut StdRng) -> (CbctGeometry, ProjectionStack) {
    let nx = pick(rng, &[10, 14, 16, 22]);
    let ny = pick(rng, &[10, 14, 16, 22]);
    let nz = pick(rng, &[8, 12, 16, 20]);
    let np = pick(rng, &[7, 16, 33, 40]);
    let side = 2 * nx.max(ny).max(nz);
    let geo = CbctGeometry::standard(Dims2::new(side, side), np, Dims3::new(nx, ny, nz));
    geo.validate().expect("generated geometry is valid");
    let mut stack = ProjectionStack::new(geo.detector);
    for _ in 0..np {
        let mut img = ProjectionImage::zeros(geo.detector);
        for p in img.data_mut() {
            *p = (rng.gen::<u64>() % 2048) as f32 / 1024.0 - 1.0;
        }
        stack.push(img).unwrap();
    }
    (geo, stack)
}

/// `L1-Tran` (transposed projections, full batches) through the driver.
fn backproject_tiled(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    stack: &ProjectionStack,
    dims: Dims3,
    cfg: TileConfig,
) -> Volume {
    let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
    let nv = stack.dims().nv;
    backproject_tiled_with(pool, mats, &transposed, nv, dims, WARP_BATCH, cfg)
}

/// The "tiling changes scheduling, not arithmetic" contract: for random
/// geometries and slab pairs away from `k0 = 0`, the driver reproduces
/// the untiled reference loop bit for bit — every batch size, tile shape
/// and thread count, for the scalar and the lane sampler.
#[test]
fn driver_is_bit_identical_to_the_reference_loop_for_both_samplers() {
    let mut rng = StdRng::seed_from_u64(0xD21E);
    for case in 0..4 {
        let (geo, stack) = random_case(&mut rng);
        let mats = geo.projection_matrices();
        let (dims, nv) = (geo.volume, geo.detector.nv);
        let half = dims.nz / 2;
        let k0 = 1 + rng.gen::<u64>() as usize % (half - 1);
        let len = 1 + rng.gen::<u64>() as usize % (half - k0);
        let pair = SlabPair::new(dims.nz, k0, len).unwrap();
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let lanes: Vec<LaneSampler> = transposed.iter().map(LaneSampler::new).collect();
        let shapes = [
            TileConfig::AUTO,
            TileConfig {
                i_block: dims.nx,
                slab_pairs: 1,
            },
            TileConfig {
                i_block: 1,
                slab_pairs: len,
            },
        ];
        for batch in [1usize, 7, WARP_BATCH] {
            let serial = Pool::new(1);
            let scalar_ref =
                backproject_pair_with(&serial, &mats, &transposed, nv, dims, pair, batch);
            let lanes_ref = backproject_pair_with(&serial, &mats, &lanes, nv, dims, pair, batch);
            assert_eq!(lanes_ref.data(), scalar_ref.data(), "case {case}: samplers");
            for cfg in shapes {
                for threads in [1usize, 2, 3] {
                    let pool = Pool::new(threads);
                    let what = format!("case {case}: {pair:?} batch {batch} {cfg:?} x{threads}");
                    let mut scalar = Volume::zeros(scalar_ref.dims(), VolumeLayout::KMajor);
                    backproject_pair_tiled_reporting(
                        &pool,
                        &mats,
                        &transposed,
                        nv,
                        dims,
                        pair,
                        batch,
                        cfg,
                        &mut scalar,
                    );
                    assert_eq!(scalar.data(), scalar_ref.data(), "{what}: scalar sampler");
                    let mut lane = Volume::zeros(lanes_ref.dims(), VolumeLayout::KMajor);
                    backproject_pair_tiled_reporting(
                        &pool, &mats, &lanes, nv, dims, pair, batch, cfg, &mut lane,
                    );
                    assert_eq!(lane.data(), lanes_ref.data(), "{what}: lane sampler");
                }
            }
        }
    }
}

/// The add-into contract the batch accumulators rely on: the driver run
/// into a filled pair volume gives, bit for bit, the filled volume plus
/// the driver's result from zero — for both samplers, on a pair away from
/// `k0 = 0`, whatever the tile shape and thread count.
#[test]
fn driver_adds_into_a_filled_volume_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xADD5);
    let (geo, stack) = random_case(&mut rng);
    let mats = geo.projection_matrices();
    let (dims, nv) = (geo.volume, geo.detector.nv);
    let pair = SlabPair::new(dims.nz, 1, dims.nz / 2 - 1).unwrap();
    let local = Dims3::new(dims.nx, dims.ny, pair.local_nz());
    let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
    let lanes: Vec<LaneSampler> = transposed.iter().map(LaneSampler::new).collect();
    // A running sum from earlier batches: mixed signs, magnitudes and -0.0.
    let mut filled = Volume::zeros(local, VolumeLayout::KMajor);
    for (n, x) in filled.data_mut().iter_mut().enumerate() {
        *x = match n % 5 {
            0 => -0.0,
            1 => 1.0e3,
            _ => (rng.gen::<u64>() % 4096) as f32 / 64.0 - 32.0,
        };
    }
    for cfg in [
        TileConfig::AUTO,
        TileConfig {
            i_block: 3,
            slab_pairs: 2,
        },
    ] {
        for threads in [1usize, 2] {
            let pool = Pool::new(threads);
            let run = |out: &mut Volume, lane: bool| {
                if lane {
                    backproject_pair_tiled_reporting(
                        &pool, &mats, &lanes, nv, dims, pair, WARP_BATCH, cfg, out,
                    )
                } else {
                    backproject_pair_tiled_reporting(
                        &pool,
                        &mats,
                        &transposed,
                        nv,
                        dims,
                        pair,
                        WARP_BATCH,
                        cfg,
                        out,
                    )
                }
            };
            for lane in [false, true] {
                let mut fresh = Volume::zeros(local, VolumeLayout::KMajor);
                run(&mut fresh, lane);
                let expected: Vec<u32> = filled
                    .data()
                    .iter()
                    .zip(fresh.data())
                    .map(|(a, b)| (a + b).to_bits())
                    .collect();
                let mut added = filled.clone();
                run(&mut added, lane);
                let got: Vec<u32> = added.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expected, "{cfg:?} x{threads} lanes={lane}");
            }
        }
    }
}

#[test]
fn tiled_bp_is_thread_invariant_and_matches_standard() {
    let mut rng = StdRng::seed_from_u64(0x1FDC);
    for case in 0..5 {
        let (geo, stack) = random_case(&mut rng);
        let mats = geo.projection_matrices();
        let dims = geo.volume;
        let label = format!(
            "case {case}: {}x{}x{} volume, {} projections",
            dims.nx,
            dims.ny,
            dims.nz,
            stack.len()
        );

        // Random explicit tile shape (clamped by the driver) alongside
        // the auto heuristic.
        let cfg = if rng.gen::<u64>() % 2 == 0 {
            TileConfig::AUTO
        } else {
            TileConfig {
                i_block: 1 + (rng.gen::<u64>() as usize % dims.nx),
                slab_pairs: 1 + (rng.gen::<u64>() as usize % (dims.nz / 2)),
            }
        };

        let serial = backproject_tiled(&Pool::new(1), &mats, &stack, dims, cfg);
        for threads in [2usize, 4] {
            let par = backproject_tiled(&Pool::new(threads), &mats, &stack, dims, cfg);
            assert_eq!(
                par.data(),
                serial.data(),
                "{label}: {threads}-thread tiled BP must be bit-identical to 1-thread ({cfg:?})"
            );
        }

        let reference = backproject_standard(&Pool::new(1), &mats, &stack, dims);
        let tiled = serial.into_layout(ct_core::volume::VolumeLayout::IMajor);
        let e = nrmse(reference.data(), tiled.data()).unwrap();
        assert!(e < 1e-5, "{label}: nrmse vs standard {e} ({cfg:?})");
    }
}

#[test]
fn tiled_bp_handles_degenerate_tile_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let (geo, stack) = random_case(&mut rng);
    let mats = geo.projection_matrices();
    let dims = geo.volume;
    let reference = backproject_tiled(&Pool::new(1), &mats, &stack, dims, TileConfig::AUTO);
    // One-column tiles, one big tile, and a deliberately oversized config.
    for cfg in [
        TileConfig {
            i_block: 1,
            slab_pairs: dims.nz / 2,
        },
        TileConfig {
            i_block: dims.nx,
            slab_pairs: 1,
        },
        TileConfig {
            i_block: 100 * dims.nx,
            slab_pairs: 100 * dims.nz,
        },
    ] {
        let v = backproject_tiled(&Pool::new(3), &mats, &stack, dims, cfg);
        assert_eq!(v.data(), reference.data(), "{cfg:?}");
    }
    // Batch granularity doesn't change the tiled result materially either.
    let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
    let full = backproject_tiled_with(
        &Pool::new(2),
        &mats,
        &transposed,
        geo.detector.nv,
        dims,
        WARP_BATCH,
        TileConfig::AUTO,
    );
    let small_batch = backproject_tiled_with(
        &Pool::new(2),
        &mats,
        &transposed,
        geo.detector.nv,
        dims,
        5,
        TileConfig::AUTO,
    );
    let e = nrmse(full.data(), small_batch.data()).unwrap();
    assert!(e < 1e-6, "batch granularity changed the result: {e}");
}
