//! Kernel equivalence gate: every back-projection variant must agree
//! with the serial `standard` kernel (Algorithm 2) on randomized
//! geometries, the driver must be bit-identical across thread counts
//! and tile shapes, the lane-array kernel must be bit-identical to
//! its scalar oracle, and the filter's row convolver must keep the
//! direct convolution's window.
//!
//! ```text
//! cargo run --release -p ifdk-bench --bin equivalence -- \
//!     [--trials 3] [--seed 42]
//! ```
//!
//! Each trial draws a random (even-`Nz`) volume shape and projection
//! count, back-projects a synthetic stack with all five Table 3 variants
//! at three tile shapes plus the driver at 1/2/4 threads, and requires
//! normalised RMSE against `standard` below 1e-5 plus exact equality of
//! the driver's outputs across pool widths. The lane-array checks then
//! run the lane kernel at 1/2/4 threads and every tile shape, requiring
//! bitwise equality with the scalar sampler in the untiled reference
//! loop. Each trial also draws a row length `N` in `1..=600`, a kernel of
//! `2N+1`, `2*(N/8)+1`, `1` or `2N+9` random taps and a row pair with
//! random spikes, and requires `RowConvolver::convolve_row_pair_f32` to
//! match the centre window of `convolve_direct` within
//! `1e-5 * sum|k| * max|x|` (these draws come from their own stream, so a
//! seed picks the same geometries as before they were added). The seed
//! is printed so any failure replays with `--seed`. Exit codes follow
//! `ifdk_bench::check`.

use ct_bp::lanes::{backproject_batch, KernelImpl};
use ct_bp::tiled::{backproject_tiled_with, TileConfig};
use ct_bp::warp::{backproject_warp_with, WARP_BATCH};
use ct_bp::{backproject, backproject_standard, BpConfig, KernelVariant};
use ct_core::metrics::nrmse;
use ct_core::volume::VolumeLayout;
use ct_fft::conv::RowConvolver;
use ct_fft::convolve_direct;
use ifdk_bench::check::Gate;
use ifdk_bench::{arg_usize, synthetic_stack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

const TOLERANCE: f64 = 1e-5;

fn pick(rng: &mut StdRng, choices: &[usize]) -> usize {
    choices[rng.gen::<u64>() as usize % choices.len()]
}

/// Pair-convolve two random spiky rows through `RowConvolver` and
/// compare with the direct convolution's "same" window; `Err` names the
/// row length and kernel length.
fn check_row_convolver(rng: &mut StdRng) -> Result<(), String> {
    let n = 1 + rng.gen::<usize>() % 600;
    let k = pick(rng, &[2 * n + 1, 2 * (n / 8) + 1, 1, 2 * n + 9]);
    let kernel: Vec<f64> = (0..k).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
    let spiky = |rng: &mut StdRng| -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen::<u32>() % 8 {
                0 => 1e3 * (2.0 * rng.gen::<f32>() - 1.0),
                _ => rng.gen::<f32>() - 0.5,
            })
            .collect()
    };
    let rows = [spiky(rng), spiky(rng)];
    let conv = RowConvolver::new(n, &kernel);
    let (mut a, mut b) = (rows[0].clone(), rows[1].clone());
    conv.convolve_row_pair_f32(&mut a, &mut b, &mut conv.make_scratch());
    let k_abs: f64 = kernel.iter().map(|v| v.abs()).sum();
    let x_max = rows.iter().flatten().fold(0.0f32, |m, v| m.max(v.abs()));
    let tol = 1e-5 * k_abs * x_max as f64;
    let c = k / 2;
    for (row, got) in rows.iter().zip([a, b]) {
        let x: Vec<f64> = row.iter().map(|&v| v as f64).collect();
        let want = &convolve_direct(&x, &kernel)[c..c + n];
        let err = want
            .iter()
            .zip(got.iter())
            .fold(0.0f64, |m, (&w, &g)| m.max((w - g as f64).abs()));
        if err > tol {
            return Err(format!(
                "row convolver N={n} K={k}: max error {err:.3e} > {tol:.3e}"
            ));
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Gate {
    let trials = arg_usize(args, "trials", 3);
    let seed = arg_usize(
        args,
        "seed",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as usize ^ d.as_secs() as usize)
            .unwrap_or(0x5EED),
    ) as u64;
    println!("equivalence: {trials} trials, seed {seed} (rerun with --seed {seed})");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv_rng = StdRng::seed_from_u64(seed ^ 0xF17E_2C0D);
    let mut failures: Vec<String> = Vec::new();

    for trial in 0..trials {
        let nx = pick(&mut rng, &[12, 16, 20, 24]);
        let ny = pick(&mut rng, &[12, 16, 20, 24]);
        let nz = pick(&mut rng, &[12, 16, 20, 24]);
        let np = pick(&mut rng, &[8, 16, 24, 40]);
        let side = 2 * nx.max(ny).max(nz);
        let geo = ct_core::geometry::CbctGeometry::standard(
            ct_core::problem::Dims2::new(side, side),
            np,
            ct_core::problem::Dims3::new(nx, ny, nz),
        );
        if let Err(e) = geo.validate() {
            return Gate::CheckFailed(format!("trial {trial}: invalid geometry: {e}"));
        }
        let stack = synthetic_stack(geo.detector, np);
        let mats = geo.projection_matrices();
        let dims = geo.volume;
        println!("  trial {trial}: {nx}x{ny}x{nz} volume, {np} projections");

        // AUTO, one whole-volume tile, and the finest split.
        let tile_shapes = [
            TileConfig::AUTO,
            TileConfig {
                i_block: nx,
                slab_pairs: 1,
            },
            TileConfig {
                i_block: 1,
                slab_pairs: nz / 2,
            },
        ];
        let serial = ct_par::Pool::new(1);
        let reference =
            backproject_standard(&serial, &mats, &stack, dims).into_layout(VolumeLayout::IMajor);

        // Every Table 3 variant at every tile shape vs the reference.
        for variant in KernelVariant::ALL {
            for tile in tile_shapes {
                let cfg = BpConfig {
                    variant,
                    batch: WARP_BATCH,
                    tile,
                    kernel: KernelImpl::Scalar,
                };
                let v = backproject(&serial, cfg, &mats, &stack, dims)
                    .into_layout(VolumeLayout::IMajor);
                let e = nrmse(reference.data(), v.data()).expect("same shape");
                if e >= TOLERANCE {
                    failures.push(format!(
                        "trial {trial}: {} ({tile:?}) vs standard: nrmse {e:.3e} >= {TOLERANCE:.0e}",
                        variant.name()
                    ));
                }
            }
        }

        // The driver must not depend on pool width: bit-identical at 1,
        // 2 and 4 threads.
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let nv = geo.detector.nv;
        let t1 = backproject_tiled_with(
            &serial,
            &mats,
            &transposed,
            nv,
            dims,
            WARP_BATCH,
            TileConfig::AUTO,
        );
        for threads in [2usize, 4] {
            let pool = ct_par::Pool::new(threads);
            let tn = backproject_tiled_with(
                &pool,
                &mats,
                &transposed,
                nv,
                dims,
                WARP_BATCH,
                TileConfig::AUTO,
            );
            if t1.data() != tn.data() {
                failures.push(format!(
                    "trial {trial}: tiled output differs between 1 and {threads} threads"
                ));
            }
        }

        // Lane-array kernel through the driver vs its scalar oracle in
        // the untiled reference loop: bit-identical at every tile shape
        // and thread count.
        let refs: Vec<&ct_core::projection::TransposedProjection> = transposed.iter().collect();
        let scalar = backproject_warp_with(&serial, &mats, &transposed, nv, dims, WARP_BATCH);
        for tile in tile_shapes {
            for threads in [1usize, 2, 4] {
                let pool = ct_par::Pool::new(threads);
                let lanes = backproject_batch(
                    &pool,
                    KernelImpl::Lanes,
                    &mats,
                    &refs,
                    nv,
                    dims,
                    WARP_BATCH,
                    tile,
                );
                if lanes.data() != scalar.data() {
                    failures.push(format!(
                        "trial {trial}: lanes ({tile:?}, {threads} threads) \
                         not bit-identical to the scalar reference loop"
                    ));
                }
            }
        }

        if let Err(e) = check_row_convolver(&mut conv_rng) {
            failures.push(format!("trial {trial}: {e} (seed {seed})"));
        }
    }

    if failures.is_empty() {
        println!(
            "OK: all variants agree with standard (nrmse < {TOLERANCE:.0e}); \
             lanes bit-identical to scalar; row convolver matches direct"
        );
        Gate::Ok
    } else {
        for f in &failures {
            eprintln!("equivalence: {f}");
        }
        Gate::CheckFailed(format!("{} mismatches", failures.len()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).exit()
}
