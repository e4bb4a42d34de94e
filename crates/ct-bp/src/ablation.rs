//! Ablation kernels: the proposed algorithm with individual optimisations
//! switched off, isolating where the 1/6 arithmetic saving and the
//! locality win actually come from.
//!
//! | Kernel | Inner products / voxel | z-range | Layouts |
//! |---|---|---|---|
//! | [`crate::standard::backproject_standard`] | 3 | full | i-major, row-major Q |
//! | [`backproject_full_recompute`] | 3 | full | k-major, transposed Q |
//! | [`backproject_no_symmetry`] | 1 (+2/column) | full | k-major, transposed Q |
//! | [`crate::proposed::backproject_proposed`] | 1 (+2/column) | half (mirror) | k-major, transposed Q |
//!
//! Comparing adjacent rows measures, respectively: the pure layout
//! effect, the Theorem 2/3 column-reuse effect, and the Theorem 1
//! symmetry effect. `bench/benches/ablation.rs` reports all four.

use ct_core::geometry::ProjectionMatrix;
use ct_core::problem::Dims3;
use ct_core::projection::ProjectionStack;
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// Proposed layouts (k-major volume, transposed projections) but the full
/// Algorithm 2 arithmetic: three inner products per voxel, full z-loop.
pub fn backproject_full_recompute(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    projs: &ProjectionStack,
    dims: Dims3,
) -> Volume {
    assert_eq!(mats.len(), projs.len(), "one matrix per projection");
    let (ny, nz) = (dims.ny, dims.nz);
    let (nu, nv) = (projs.dims().nu, projs.dims().nv);
    let rows: Vec<[[f32; 4]; 3]> = mats.iter().map(|m| m.rows_f32()).collect();
    let transposed: Vec<_> = projs.iter().map(|p| p.transposed()).collect();

    let mut vol = Volume::zeros(dims, VolumeLayout::KMajor);
    let chunk = ny * nz;
    pool.parallel_chunks_mut(vol.data_mut(), chunk, |start, slice| {
        let i = start / chunk;
        let ifl = i as f32;
        for (s, mat) in rows.iter().enumerate() {
            let q = &transposed[s];
            let qdata = q.data();
            for j in 0..ny {
                let jf = j as f32;
                let col = &mut slice[j * nz..(j + 1) * nz];
                for (k, out) in col.iter_mut().enumerate() {
                    let kf = k as f32;
                    // All three inner products, every voxel (Alg. 2 line 6).
                    let x = mat[0][0] * ifl + mat[0][1] * jf + mat[0][2] * kf + mat[0][3];
                    let y = mat[1][0] * ifl + mat[1][1] * jf + mat[1][2] * kf + mat[1][3];
                    let z = mat[2][0] * ifl + mat[2][1] * jf + mat[2][2] * kf + mat[2][3];
                    let f = 1.0 / z;
                    let wdis = f * f;
                    let u = x * f;
                    let v = y * f;
                    *out += wdis * ct_core::interp::interp2(qdata, nv, nu, v, u);
                }
            }
        }
    });
    vol
}

/// Theorem 2/3 column reuse (2 inner products per column, 1 per voxel)
/// but **no** Theorem 1 symmetry: the z-loop covers the full column.
pub fn backproject_no_symmetry(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    projs: &ProjectionStack,
    dims: Dims3,
) -> Volume {
    assert_eq!(mats.len(), projs.len(), "one matrix per projection");
    let (ny, nz) = (dims.ny, dims.nz);
    let (nu, nv) = (projs.dims().nu, projs.dims().nv);
    let rows: Vec<[[f32; 4]; 3]> = mats.iter().map(|m| m.rows_f32()).collect();
    let transposed: Vec<_> = projs.iter().map(|p| p.transposed()).collect();

    let mut vol = Volume::zeros(dims, VolumeLayout::KMajor);
    let chunk = ny * nz;
    pool.parallel_chunks_mut(vol.data_mut(), chunk, |start, slice| {
        let i = start / chunk;
        let ifl = i as f32;
        for (s, mat) in rows.iter().enumerate() {
            let q = &transposed[s];
            let qdata = q.data();
            for j in 0..ny {
                let jf = j as f32;
                let x = mat[0][0] * ifl + mat[0][1] * jf + mat[0][3];
                let z = mat[2][0] * ifl + mat[2][1] * jf + mat[2][3];
                let f = 1.0 / z;
                let u = x * f;
                let wdis = f * f;
                let y0 = mat[1][0] * ifl + mat[1][1] * jf + mat[1][3];
                let dy = mat[1][2];
                let col = &mut slice[j * nz..(j + 1) * nz];
                for (k, out) in col.iter_mut().enumerate() {
                    let v = (y0 + dy * k as f32) * f;
                    *out += wdis * ct_core::interp::interp2(qdata, nv, nu, v, u);
                }
            }
        }
    });
    vol
}

/// Double-precision reference back-projection (Algorithm 2 with every
/// coordinate, weight and interpolation in `f64`), for quantifying the
/// floating-point error of the production `f32` kernels.
///
/// The paper runs everything in single precision and argues quality is
/// preserved ("we do not sacrifice the quality by using lower precision",
/// Section 5.2); comparing any `f32` kernel against this reference
/// measures exactly the precision loss that claim is about.
pub fn backproject_standard_f64(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    projs: &ProjectionStack,
    dims: Dims3,
) -> Volume {
    assert_eq!(mats.len(), projs.len(), "one matrix per projection");
    let (nx, ny) = (dims.nx, dims.ny);
    let (nu, nv) = (projs.dims().nu, projs.dims().nv);
    let mut vol = Volume::zeros(dims, VolumeLayout::IMajor);
    let slice_len = nx * ny;
    pool.parallel_chunks_mut(vol.data_mut(), slice_len, |start, slice| {
        let k = (start / slice_len) as f64;
        // f64 accumulators for the whole slice.
        let mut acc = vec![0.0f64; slice.len()];
        for (s, m) in mats.iter().enumerate() {
            let img = projs.get(s);
            let data = img.data();
            let sample = |u: f64, v: f64| -> f64 {
                let (fu, fv) = (u.floor(), v.floor());
                let (du, dv) = (u - fu, v - fv);
                let (pu, pv) = (fu as isize, fv as isize);
                // Saturating: a coordinate at or past 2^63 (or +inf)
                // casts to `isize::MAX`; its neighbour reads the zero
                // border instead of overflowing.
                let (pu1, pv1) = (pu.saturating_add(1), pv.saturating_add(1));
                let fetch = |x: isize, y: isize| -> f64 {
                    if x < 0 || y < 0 || x >= nu as isize || y >= nv as isize {
                        0.0
                    } else {
                        data[y as usize * nu + x as usize] as f64
                    }
                };
                let t1 = fetch(pu, pv) * (1.0 - du) + fetch(pu1, pv) * du;
                let t2 = fetch(pu, pv1) * (1.0 - du) + fetch(pu1, pv1) * du;
                t1 * (1.0 - dv) + t2 * dv
            };
            let r = &m.mat.rows;
            for j in 0..ny {
                let jf = j as f64;
                for i in 0..nx {
                    let ifl = i as f64;
                    let x = r[0][0] * ifl + r[0][1] * jf + r[0][2] * k + r[0][3];
                    let y = r[1][0] * ifl + r[1][1] * jf + r[1][2] * k + r[1][3];
                    let z = r[2][0] * ifl + r[2][1] * jf + r[2][2] * k + r[2][3];
                    let f = 1.0 / z;
                    acc[j * nx + i] += f * f * sample(x * f, y * f);
                }
            }
        }
        for (out, &a) in slice.iter_mut().zip(acc.iter()) {
            *out = a as f32;
        }
    });
    vol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposed::backproject_proposed;
    use crate::standard::backproject_standard;
    use ct_core::geometry::CbctGeometry;
    use ct_core::metrics::nrmse;
    use ct_core::problem::Dims2;
    use ct_core::projection::ProjectionImage;

    fn setup(np: usize, n: usize) -> (CbctGeometry, Vec<ProjectionMatrix>, ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let mats = geo.projection_matrices();
        let mut stack = ProjectionStack::new(geo.detector);
        for s in 0..np {
            let mut img = ProjectionImage::zeros(geo.detector);
            for v in 0..geo.detector.nv {
                for u in 0..geo.detector.nu {
                    img.set(u, v, (((u * 7 + v * 3 + s * 11) % 13) as f32) - 6.0);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn ablation_kernels_match_standard() {
        let (geo, mats, stack) = setup(12, 16);
        let pool = Pool::serial();
        let reference = backproject_standard(&pool, &mats, &stack, geo.volume);
        for (name, vol) in [
            (
                "full_recompute",
                backproject_full_recompute(&pool, &mats, &stack, geo.volume),
            ),
            (
                "no_symmetry",
                backproject_no_symmetry(&pool, &mats, &stack, geo.volume),
            ),
            (
                "proposed",
                backproject_proposed(&pool, &mats, &stack, geo.volume),
            ),
        ] {
            let v = vol.into_layout(VolumeLayout::IMajor);
            let e = nrmse(reference.data(), v.data()).unwrap();
            assert!(e < 1e-5, "{name}: NRMSE {e}");
        }
    }

    #[test]
    fn ablation_kernels_are_parallel_deterministic() {
        let (geo, mats, stack) = setup(6, 8);
        for f in [
            backproject_full_recompute
                as fn(&Pool, &[ProjectionMatrix], &ProjectionStack, Dims3) -> Volume,
            backproject_no_symmetry,
        ] {
            let a = f(&Pool::serial(), &mats, &stack, geo.volume);
            let b = f(&Pool::new(4), &mats, &stack, geo.volume);
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn single_precision_error_is_below_paper_bar() {
        // The paper's precision claim (Section 5.2): 32-bit computation
        // does not sacrifice quality. Compare the f32 production kernels
        // against the f64 reference.
        let (geo, mats, stack) = setup(16, 16);
        let pool = Pool::new(2);
        let reference = backproject_standard_f64(&pool, &mats, &stack, geo.volume);
        for (name, vol) in [
            (
                "standard-f32",
                backproject_standard(&pool, &mats, &stack, geo.volume),
            ),
            (
                "proposed-f32",
                backproject_proposed(&pool, &mats, &stack, geo.volume)
                    .into_layout(VolumeLayout::IMajor),
            ),
        ] {
            let e = nrmse(reference.data(), vol.data()).unwrap();
            assert!(e < 1e-5, "{name}: f32-vs-f64 NRMSE {e}");
        }
    }

    #[test]
    fn no_symmetry_handles_odd_nz() {
        // Without the mirror pairing, odd Nz is fine — a capability the
        // symmetric kernel deliberately gives up.
        let geo = CbctGeometry::standard(Dims2::new(24, 24), 4, Dims3::new(8, 8, 7));
        let mats = geo.projection_matrices();
        let stack = ProjectionStack::zeros(geo.detector, 4);
        let v = backproject_no_symmetry(&Pool::serial(), &mats, &stack, geo.volume);
        assert_eq!(v.dims().nz, 7);
    }

    #[test]
    fn off_detector_and_infinite_coordinates_read_the_zero_border() {
        // Both manual-bilinear paths (the f64 oracle and RTK-32) floor a
        // coordinate and fetch its `+1` neighbour. A finite coordinate
        // past 2^63 casts to `isize::MAX`: the neighbour must read the
        // zero border, not overflow. A depth row of zero makes every
        // `1/z` infinite: the run must still finish, and the infinite
        // weight times the zero border is NaN.
        let (geo, _, stack) = setup(1, 4);
        let rtk32 = crate::BpConfig {
            variant: crate::KernelVariant::Rtk32,
            ..Default::default()
        };
        let run = |rows: [[f64; 4]; 3]| {
            let mats = vec![ProjectionMatrix {
                mat: ct_core::math::Mat3x4::from_rows(rows),
                beta: 0.0,
            }];
            let pool = Pool::serial();
            let f64_path = backproject_standard_f64(&pool, &mats, &stack, geo.volume);
            let rtk_path = crate::backproject(&pool, rtk32, &mats, &stack, geo.volume);
            [f64_path, rtk_path]
        };
        let far = [
            [0.0, 0.0, 0.0, 1e30],
            [0.0, 0.0, 0.0, 1e30],
            [0.0, 0.0, 0.0, 1.0],
        ];
        for vol in run(far) {
            assert!(vol.data().iter().all(|&x| x == 0.0));
        }
        let flat = [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.0; 4]];
        for vol in run(flat) {
            assert!(vol.data().iter().all(|x| x.is_nan()));
        }
    }
}
