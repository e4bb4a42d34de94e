//! The paper's Table 3 kernel matrix — five back-projection kernel
//! configurations differing in projection access path and data layouts.
//!
//! | Kernel   | Texture path | L1 path | Transposed proj | Transposed vol |
//! |----------|--------------|---------|-----------------|----------------|
//! | RTK-32   | yes (point)  | no      | no              | no             |
//! | Bp-Tex   | yes          | no      | no              | yes            |
//! | Tex-Tran | yes          | no      | yes             | yes            |
//! | Bp-L1    | no           | no      | no*             | yes            |
//! | L1-Tran  | no           | yes     | yes             | yes            |
//!
//! GPU-to-CPU mapping (see DESIGN.md): the "texture" path becomes the 8x8
//! blocked layout of [`ct_core::projection::BlockedProjection`] (2D-local
//! fetches stay within a tile in both directions); the "L1" path becomes
//! plain row-major/transposed array access. (*) The paper's `Bp-L1` is slow
//! because its global loads bypass the L1; the CPU analogue of that lost
//! locality is sampling the *untransposed* row-major buffer, whose inner
//! v-loop strides by `Nu` floats — so that is what `Bp-L1` does here.

use crate::lanes::{backproject_batch, KernelImpl};
use crate::pair::SlabPair;
use crate::tiled::{backproject_tiled_with, TileConfig};
use crate::warp::{Sampler, WARP_BATCH};
use ct_core::error::{CtError, Result};
use ct_core::geometry::ProjectionMatrix;
use ct_core::problem::Dims3;
use ct_core::projection::{BlockedProjection, ProjectionStack};
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// The five kernel configurations of the paper's Tables 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// RTK 1.4.0 baseline at 32-bit precision (standard Algorithm 2 with a
    /// 32-projection batch, point-fetch texture + manual bilinear).
    Rtk32,
    /// Proposed kernel, texture path, untransposed projections.
    BpTex,
    /// Proposed kernel, texture path, transposed projections.
    TexTran,
    /// Proposed kernel, direct access, untransposed projections.
    BpL1,
    /// Proposed kernel, direct access, transposed projections — the
    /// paper's winner.
    L1Tran,
}

impl KernelVariant {
    /// All variants in the paper's Table 4 column order.
    pub const ALL: [KernelVariant; 5] = [
        KernelVariant::Rtk32,
        KernelVariant::BpTex,
        KernelVariant::TexTran,
        KernelVariant::BpL1,
        KernelVariant::L1Tran,
    ];

    /// The paper's name for the variant.
    pub fn name(&self) -> &'static str {
        match self {
            KernelVariant::Rtk32 => "RTK-32",
            KernelVariant::BpTex => "Bp-Tex",
            KernelVariant::TexTran => "Tex-Tran",
            KernelVariant::BpL1 => "Bp-L1",
            KernelVariant::L1Tran => "L1-Tran",
        }
    }

    /// Table 3 characteristics:
    /// `(texture cache, l1 cache, transpose projection, transpose volume)`.
    pub fn characteristics(&self) -> (bool, bool, bool, bool) {
        match self {
            KernelVariant::Rtk32 => (true, false, false, false),
            KernelVariant::BpTex => (true, false, false, true),
            KernelVariant::TexTran => (true, false, true, true),
            KernelVariant::BpL1 => (false, false, true, true),
            KernelVariant::L1Tran => (false, true, true, true),
        }
    }

    /// Output volume layout this variant produces.
    pub fn output_layout(&self) -> VolumeLayout {
        match self {
            KernelVariant::Rtk32 => VolumeLayout::IMajor,
            _ => VolumeLayout::KMajor,
        }
    }
}

/// Back-projection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpConfig {
    /// Which Table 3 kernel to run.
    pub variant: KernelVariant,
    /// Projection batch per pass (Listing 1 uses 32).
    pub batch: usize,
    /// Tile shape for the driver. Ignored by `RTK-32`, whose i-major
    /// layout the driver does not produce. Every shape gives identical
    /// output bits — tiling changes scheduling, not arithmetic.
    pub tile: TileConfig,
    /// Which column-sweep implementation runs the hot loop (scalar
    /// oracle vs lane-array; see [`crate::lanes`]). Only `L1-Tran`
    /// dispatches on this — the other Table 3 variants are layout
    /// ablations and always run the scalar kernel. Lanes is
    /// bit-identical to scalar, so the default is safe everywhere.
    pub kernel: KernelImpl,
}

impl Default for BpConfig {
    fn default() -> Self {
        Self {
            variant: KernelVariant::L1Tran,
            batch: WARP_BATCH,
            tile: TileConfig::AUTO,
            kernel: KernelImpl::default(),
        }
    }
}

impl BpConfig {
    /// Check the configuration against the volume it will fill, so a bad
    /// one is an `Err` at every entry point instead of a kernel panic:
    /// the batch must be in `1..=WARP_BATCH`, and every variant except
    /// `RTK-32` runs the symmetric kernel, which needs the volume to be a
    /// slab pair (even `Nz`).
    pub fn validate(&self, dims: Dims3) -> Result<()> {
        if !(1..=WARP_BATCH).contains(&self.batch) {
            return Err(CtError::InvalidConfig(format!(
                "back-projection batch {} must be in 1..={WARP_BATCH}",
                self.batch
            )));
        }
        if self.variant != KernelVariant::Rtk32 {
            SlabPair::full(dims.nz)?;
        }
        Ok(())
    }
}

/// Blocked ("texture") sampler built from the *transposed* projection:
/// coordinates arrive as `(u, v)` and are swapped before the fetch, as the
/// Tex-Tran kernel does.
struct BlockedTransposed(BlockedProjection);

impl Sampler for BlockedTransposed {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        self.0.sample(v, u)
    }
}

/// Dispatch a full-volume back-projection for any Table 3 variant.
///
/// The output layout follows [`KernelVariant::output_layout`].
pub fn backproject(
    pool: &Pool,
    cfg: BpConfig,
    mats: &[ProjectionMatrix],
    projs: &ProjectionStack,
    dims: Dims3,
) -> Volume {
    let nv = projs.dims().nv;
    match cfg.variant {
        KernelVariant::Rtk32 => backproject_rtk32(pool, mats, projs, dims),
        KernelVariant::BpTex => {
            let samplers: Vec<BlockedProjection> = projs.iter().map(|p| p.blocked()).collect();
            backproject_tiled_with(pool, mats, &samplers, nv, dims, cfg.batch, cfg.tile)
        }
        KernelVariant::TexTran => {
            let samplers: Vec<BlockedTransposed> = projs
                .iter()
                .map(|p| BlockedTransposed(p.transposed().as_swapped_image().blocked()))
                .collect();
            backproject_tiled_with(pool, mats, &samplers, nv, dims, cfg.batch, cfg.tile)
        }
        KernelVariant::BpL1 => {
            let samplers: Vec<ct_core::projection::ProjectionImage> =
                projs.iter().cloned().collect();
            backproject_tiled_with(pool, mats, &samplers, nv, dims, cfg.batch, cfg.tile)
        }
        KernelVariant::L1Tran => {
            let transposed: Vec<ct_core::projection::TransposedProjection> =
                projs.iter().map(|p| p.transposed()).collect();
            let refs: Vec<&ct_core::projection::TransposedProjection> = transposed.iter().collect();
            backproject_batch(pool, cfg.kernel, mats, &refs, nv, dims, cfg.batch, cfg.tile)
        }
    }
}

/// The RTK-32 baseline: Algorithm 2 with a projection batch and blocked
/// ("2D-layered texture") point fetch + manual 32-bit bilinear
/// interpolation — the kernel the paper extends from 16 to 32 projections
/// per pass (Section 5.2).
fn backproject_rtk32(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    projs: &ProjectionStack,
    dims: Dims3,
) -> Volume {
    assert_eq!(mats.len(), projs.len(), "one matrix per projection");
    let (nx, ny) = (dims.nx, dims.ny);
    let rows: Vec<[[f32; 4]; 3]> = mats.iter().map(|m| m.rows_f32()).collect();
    let blocked: Vec<BlockedProjection> = projs.iter().map(|p| p.blocked()).collect();
    let np = mats.len();

    let mut vol = Volume::zeros(dims, VolumeLayout::IMajor);
    let slice_len = nx * ny;
    pool.parallel_chunks_mut(vol.data_mut(), slice_len, |start, slice| {
        let k = start / slice_len;
        let kf = k as f32;
        for s0 in (0..np).step_by(WARP_BATCH) {
            let s1 = (s0 + WARP_BATCH).min(np);
            for j in 0..ny {
                let jf = j as f32;
                for i in 0..nx {
                    let ifl = i as f32;
                    // In-register accumulation across the batch, as RTK's
                    // kernel_fdk_3Dgrid does.
                    let mut acc = 0.0f32;
                    for (mat, q) in rows[s0..s1].iter().zip(blocked[s0..s1].iter()) {
                        let x = mat[0][0] * ifl + mat[0][1] * jf + mat[0][2] * kf + mat[0][3];
                        let y = mat[1][0] * ifl + mat[1][1] * jf + mat[1][2] * kf + mat[1][3];
                        let z = mat[2][0] * ifl + mat[2][1] * jf + mat[2][2] * kf + mat[2][3];
                        let f = 1.0 / z;
                        let wdis = f * f;
                        let u = x * f;
                        let v = y * f;
                        // Manual bilinear interpolation from four point
                        // fetches (cudaFilterModePoint at 32-bit).
                        let fu = u.floor();
                        let fv = v.floor();
                        let du = u - fu;
                        let dv = v - fv;
                        let (pu, pv) = (fu as isize, fv as isize);
                        // Saturating, as in `ct_core::interp`: a coordinate
                        // at or past 2^63 (or +inf) casts to `isize::MAX`.
                        let (pu1, pv1) = (pu.saturating_add(1), pv.saturating_add(1));
                        let t1 = q.fetch(pu, pv) * (1.0 - du) + q.fetch(pu1, pv) * du;
                        let t2 = q.fetch(pu, pv1) * (1.0 - du) + q.fetch(pu1, pv1) * du;
                        acc += wdis * (t1 * (1.0 - dv) + t2 * dv);
                    }
                    slice[j * nx + i] += acc;
                }
            }
        }
    });
    vol
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    img.set(u, v, (((u * 3 + v * 13 + s * 5) % 19) as f32) - 9.0);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn all_variants_agree_with_standard() {
        let (geo, mats, stack) = setup(36, 8);
        let reference = backproject_standard(&Pool::serial(), &mats, &stack, geo.volume);
        for variant in KernelVariant::ALL {
            let cfg = BpConfig {
                variant,
                ..Default::default()
            };
            let v = backproject(&Pool::serial(), cfg, &mats, &stack, geo.volume)
                .into_layout(VolumeLayout::IMajor);
            let ne = nrmse(reference.data(), v.data()).unwrap();
            assert!(ne < 1e-5, "{}: nrmse {ne}", variant.name());
        }
    }

    #[test]
    fn variant_metadata_matches_paper_table3() {
        assert_eq!(
            KernelVariant::Rtk32.characteristics(),
            (true, false, false, false)
        );
        assert_eq!(
            KernelVariant::BpTex.characteristics(),
            (true, false, false, true)
        );
        assert_eq!(
            KernelVariant::TexTran.characteristics(),
            (true, false, true, true)
        );
        assert_eq!(
            KernelVariant::L1Tran.characteristics(),
            (false, true, true, true)
        );
        assert_eq!(KernelVariant::Rtk32.output_layout(), VolumeLayout::IMajor);
        assert_eq!(KernelVariant::L1Tran.output_layout(), VolumeLayout::KMajor);
        let names: Vec<_> = KernelVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["RTK-32", "Bp-Tex", "Tex-Tran", "Bp-L1", "L1-Tran"]);
    }

    #[test]
    fn rtk32_parallel_is_deterministic() {
        let (geo, mats, stack) = setup(8, 8);
        let cfg = BpConfig {
            variant: KernelVariant::Rtk32,
            ..Default::default()
        };
        let a = backproject(&Pool::serial(), cfg, &mats, &stack, geo.volume);
        let b = backproject(&Pool::new(4), cfg, &mats, &stack, geo.volume);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn default_config_is_paper_best() {
        let cfg = BpConfig::default();
        assert_eq!(cfg.variant, KernelVariant::L1Tran);
        assert_eq!(cfg.batch, 32);
        assert_eq!(cfg.tile, TileConfig::AUTO);
        assert_eq!(cfg.kernel, KernelImpl::Lanes);
    }

    #[test]
    fn validate_rejects_what_the_kernels_would_panic_on() {
        let even = Dims3::cube(8);
        let odd = Dims3::new(8, 8, 7);
        assert!(BpConfig::default().validate(even).is_ok());
        for batch in [0, WARP_BATCH + 1] {
            let cfg = BpConfig {
                batch,
                ..Default::default()
            };
            assert!(matches!(cfg.validate(even), Err(CtError::InvalidConfig(_))));
        }
        for variant in KernelVariant::ALL {
            let cfg = BpConfig {
                variant,
                ..Default::default()
            };
            // Only Algorithm 2 (RTK-32) has no mirror pairing.
            assert_eq!(
                cfg.validate(odd).is_ok(),
                variant == KernelVariant::Rtk32,
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn kernel_impls_are_bit_identical_through_dispatch() {
        let (geo, mats, stack) = setup(12, 8);
        let scalar = backproject(
            &Pool::serial(),
            BpConfig {
                kernel: KernelImpl::Scalar,
                ..Default::default()
            },
            &mats,
            &stack,
            geo.volume,
        );
        let lanes = backproject(
            &Pool::new(2),
            BpConfig {
                kernel: KernelImpl::Lanes,
                ..Default::default()
            },
            &mats,
            &stack,
            geo.volume,
        );
        assert_eq!(scalar.data(), lanes.data());
    }

    #[test]
    fn tiled_dispatch_is_bit_identical_to_untiled() {
        // The layout variants through the driver against the same
        // samplers through the untiled reference loop.
        use crate::warp::backproject_warp_with;
        let (geo, mats, stack) = setup(12, 8);
        let nv = stack.dims().nv;
        let untiled = |variant| -> Volume {
            let pool = Pool::serial();
            match variant {
                KernelVariant::BpTex => {
                    let q: Vec<_> = stack.iter().map(|p| p.blocked()).collect();
                    backproject_warp_with(&pool, &mats, &q, nv, geo.volume, WARP_BATCH)
                }
                KernelVariant::TexTran => {
                    let q: Vec<_> = stack
                        .iter()
                        .map(|p| BlockedTransposed(p.transposed().as_swapped_image().blocked()))
                        .collect();
                    backproject_warp_with(&pool, &mats, &q, nv, geo.volume, WARP_BATCH)
                }
                KernelVariant::BpL1 => {
                    let q: Vec<_> = stack.iter().cloned().collect();
                    backproject_warp_with(&pool, &mats, &q, nv, geo.volume, WARP_BATCH)
                }
                _ => crate::warp::backproject_warp(&pool, &mats, &stack, geo.volume),
            }
        };
        for variant in [
            KernelVariant::BpTex,
            KernelVariant::TexTran,
            KernelVariant::BpL1,
            KernelVariant::L1Tran,
        ] {
            let cfg = BpConfig {
                variant,
                ..Default::default()
            };
            let tiled = backproject(&Pool::new(3), cfg, &mats, &stack, geo.volume);
            assert_eq!(untiled(variant).data(), tiled.data(), "{}", variant.name());
        }
    }
}
