//! End-to-end single-node reconstruction tests spanning ct-core,
//! ct-filter, ct-bp and ifdk — the paper's Section 5.1 verification
//! methodology (Shepp-Logan projections in, reconstructed volume out,
//! compared against the reference).

use ct_bp::{backproject, fdk_scale, BpConfig, KernelVariant};
use ct_core::error::CtError;
use ct_core::metrics::{nrmse, rmse};
use ct_core::problem::{Dims2, Dims3};
use ct_core::projection::ProjectionStack;
use ct_core::volume::VolumeLayout;
use ct_core::CbctGeometry;
use ct_filter::{FilterConfig, Filterer, RampKind};
use ct_obs::live::LiveRegistry;
use ct_par::Pool;
use ct_pfs::PfsStore;
use ifdk::distributed::upload_projections;
use ifdk::{
    reconstruct, reconstruct_distributed, reconstruct_pipelined, reconstruct_pipelined_live,
    DistConfig, RankGrid, ReconOptions, StreamingReconstructor,
};
use ifdk_integration_tests::{scene, sphere_scene};

#[test]
fn shepp_logan_structure_recovered() {
    let (geo, phantom, stack) = scene(32, 96);
    let vol = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
    let truth = phantom.voxelize(geo.volume, VolumeLayout::IMajor, |i, j, k| {
        geo.voxel_position(i, j, k)
    });
    let e = nrmse(truth.data(), vol.data()).unwrap();
    assert!(e < 0.2, "NRMSE {e}");
    // Ventricle (low) vs skull (high) contrast is preserved.
    let skull = vol.get(16, 3, 16);
    let background = vol.get(0, 0, 0);
    assert!(
        skull > 1.0 && background < 0.3,
        "skull {skull}, bg {background}"
    );
}

#[test]
fn absolute_density_calibration() {
    // A unit-density sphere reconstructs to ~1.0 inside: the full chain of
    // cosine weighting, ramp normalisation, distance weighting and the
    // global FDK constant is correct in absolute terms.
    let (geo, _, stack) = sphere_scene(24, 48, 7.0);
    let vol = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
    for (i, j, k) in [(12, 12, 12), (10, 12, 12), (12, 14, 13)] {
        let v = vol.get(i, j, k);
        assert!((v - 1.0).abs() < 0.1, "voxel ({i},{j},{k}) = {v}");
    }
}

#[test]
fn all_kernel_variants_match_reference_at_paper_tolerance() {
    // Table 3/4's five kernels all compute the same integral; the paper
    // verifies RMSE < 1e-5 against the reference implementation. The
    // ablation variants run through `ct_bp::backproject` on the filtered
    // stack (the doors run L1-Tran only).
    let (geo, _, stack) = scene(16, 64);
    let reference = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
    let pool = Pool::auto();
    let filtered = Filterer::new(&geo, FilterConfig::default()).filter_stack(&pool, &stack);
    let mats = geo.projection_matrices();
    for variant in KernelVariant::ALL {
        let bp = BpConfig {
            variant,
            ..BpConfig::default()
        };
        let mut vol =
            backproject(&pool, bp, &mats, &filtered, geo.volume).into_layout(VolumeLayout::IMajor);
        vol.scale(fdk_scale(&geo));
        let e = nrmse(reference.data(), vol.data()).unwrap();
        assert!(e < 1e-5, "{}: NRMSE {e}", variant.name());
    }
}

#[test]
fn pipelined_equals_batch_reconstruction() {
    let (geo, _, stack) = scene(16, 48);
    let opts = ReconOptions::default();
    let plain = reconstruct(&geo, &stack, &opts).unwrap();
    let piped = reconstruct_pipelined(&geo, &stack, &opts).unwrap();
    let e = nrmse(plain.data(), piped.data()).unwrap();
    assert!(e < 1e-5, "NRMSE {e}");
}

#[test]
fn ramp_windows_trade_sharpness_for_noise() {
    // Softer windows lower the volume's total variation (smoother image)
    // while keeping the bulk density: the Section 2.2.2 statement that
    // the window shapes quality, made quantitative.
    let (geo, _, stack) = scene(24, 64);
    let tv = |ramp: RampKind| -> f64 {
        let opts = ReconOptions {
            filter: FilterConfig {
                ramp,
                kernel_half_width: None,
            },
            ..ReconOptions::default()
        };
        let vol = reconstruct(&geo, &stack, &opts).unwrap();
        let d = geo.volume;
        let mut acc = 0.0f64;
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 1..d.nx {
                    acc += (vol.get(i, j, k) - vol.get(i - 1, j, k)).abs() as f64;
                }
            }
        }
        acc
    };
    let sharp = tv(RampKind::RamLak);
    let soft = tv(RampKind::Hann);
    assert!(
        soft < sharp,
        "Hann TV {soft} should be below Ram-Lak TV {sharp}"
    );
}

#[test]
fn reconstruction_error_decreases_with_more_projections() {
    // Classic FBP behaviour: angular sampling controls quality.
    let mut errors = Vec::new();
    for np in [16usize, 48, 144] {
        let (geo, phantom, stack) = scene(24, np);
        let vol = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
        let truth = phantom.voxelize(geo.volume, VolumeLayout::IMajor, |i, j, k| {
            geo.voxel_position(i, j, k)
        });
        errors.push(nrmse(truth.data(), vol.data()).unwrap());
    }
    assert!(
        errors[0] > errors[1] && errors[1] > errors[2],
        "errors not decreasing: {errors:?}"
    );
}

#[test]
fn short_scan_with_parker_weights_reconstructs_absolute_density() {
    // A Parker short scan (pi + 2*delta) must reproduce absolute
    // densities like the full scan does — including off-centre, where a
    // wrong redundancy weighting (or a flipped fan-angle sign) shows up
    // immediately as local over/under-counting.
    use ct_core::math::Vec3;
    use ct_core::phantom::{Ellipsoid, Phantom};
    let n = 24;
    let geo = ct_core::CbctGeometry::standard_short_scan(
        ct_core::Dims2::new(2 * n, 2 * n),
        96,
        ct_core::Dims3::cube(n),
    );
    assert!(!geo.is_full_scan());
    let phantom = Phantom {
        ellipsoids: vec![Ellipsoid {
            density: 1.0,
            a: 4.0,
            b: 4.0,
            c: 4.0,
            center: Vec3::new(5.0, -3.0, 2.0), // deliberately off-centre
            phi: 0.0,
        }],
    };
    let stack = ct_core::forward::project_all_analytic(&geo, &phantom);
    let vol = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
    // Voxel indices of the sphere centre: i = cx + 5, j = cy + 3, k = cz - 2.
    let (ci, cj, ck) = (n / 2 + 5, n / 2 + 3, n / 2 - 2);
    let center = vol.get(ci, cj, ck);
    assert!(
        (center - 1.0).abs() < 0.15,
        "short-scan off-centre density {center}, expected ~1.0"
    );
    // Background stays near zero.
    let bg = vol.get(2, 2, n / 2);
    assert!(bg.abs() < 0.15, "background {bg}");

    // And the full-scan reconstruction of the same phantom agrees.
    let full_geo = ct_core::CbctGeometry::standard(
        ct_core::Dims2::new(2 * n, 2 * n),
        96,
        ct_core::Dims3::cube(n),
    );
    let full_stack = ct_core::forward::project_all_analytic(&full_geo, &phantom);
    let full = reconstruct(&full_geo, &full_stack, &ReconOptions::default()).unwrap();
    let diff = (full.get(ci, cj, ck) - center).abs();
    assert!(diff < 0.2, "short vs full scan centre differ by {diff}");
}

#[test]
fn thread_count_does_not_change_results() {
    let (geo, _, stack) = scene(16, 32);
    let a = reconstruct(
        &geo,
        &stack,
        &ReconOptions {
            threads: 1,
            ..ReconOptions::default()
        },
    )
    .unwrap();
    let b = reconstruct(
        &geo,
        &stack,
        &ReconOptions {
            threads: 7,
            ..ReconOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        rmse(a.data(), b.data()).unwrap(),
        0.0,
        "parallelism must be bit-exact"
    );
}

/// One answer to a bad back-projection config: batch 0, batch 33, an
/// odd `Nz` and a Table 3 ablation variant are `Err(InvalidConfig)` from
/// every entry point — no panic in a kernel, no silent clamp, no silent
/// L1-Tran in place of the variant asked for.
#[test]
fn bad_bp_config_is_an_error_at_every_entry_point() {
    let even = CbctGeometry::standard(Dims2::new(16, 16), 4, Dims3::cube(8));
    let odd = CbctGeometry::standard(Dims2::new(16, 16), 4, Dims3::new(8, 8, 7));
    let batch = |batch| BpConfig {
        batch,
        ..BpConfig::default()
    };
    let mut cases = vec![
        ("batch 0", &even, batch(0)),
        ("batch 33", &even, batch(33)),
        ("Nz = 7", &odd, batch(32)),
    ];
    for variant in KernelVariant::ALL {
        if variant != KernelVariant::L1Tran {
            let bp = BpConfig {
                variant,
                ..BpConfig::default()
            };
            cases.push((variant.name(), &even, bp));
        }
    }
    for (what, geo, bp) in cases {
        let stack = ProjectionStack::zeros(geo.detector, geo.num_projections);
        let opts = ReconOptions {
            threads: 1,
            bp,
            ..ReconOptions::default()
        };
        let filter = FilterConfig::default();
        let mut outcomes = vec![
            ("reconstruct", reconstruct(geo, &stack, &opts).err()),
            (
                "reconstruct_pipelined",
                reconstruct_pipelined(geo, &stack, &opts).err(),
            ),
            (
                "reconstruct_pipelined_live",
                reconstruct_pipelined_live(geo, &stack, &opts, &LiveRegistry::new()).err(),
            ),
            (
                "StreamingReconstructor::new",
                StreamingReconstructor::new(geo.clone(), filter, bp, Pool::serial(), true).err(),
            ),
        ];
        // DistConfig has no variant field (the grid door always runs
        // L1-Tran), so only the batch and Nz cases reach it.
        if bp.variant == KernelVariant::L1Tran {
            let store = PfsStore::memory();
            upload_projections(&store, &stack).unwrap();
            let mut dist = DistConfig::new(geo.clone(), RankGrid::new(1, 1).unwrap());
            dist.batch = bp.batch;
            let err = reconstruct_distributed(&dist, &store, &PfsStore::memory()).err();
            outcomes.push(("reconstruct_distributed", err));
        }
        for (entry, err) in outcomes {
            assert!(
                matches!(err, Some(CtError::InvalidConfig(_))),
                "{what}: {entry} gave {err:?}"
            );
        }
    }
}
