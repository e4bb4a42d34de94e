//! Single-node FDK reconstruction — the paper's pipeline on one machine.
//!
//! [`reconstruct`] runs the two stages back to back, a batch at a time; it
//! is the reference everything else is validated against.
//! [`reconstruct_pipelined`] overlaps them through a circular buffer like
//! one iFDK rank does (filtering thread feeding a back-projection thread):
//! the paper's Section 3.1 heterogeneity argument in miniature, the
//! filter latency hides behind the much heavier back-projection.

use crate::batch::{finish_volume, BatchAccumulator};
use crate::pipeline::{self, Filtered};
use ct_bp::warp::WARP_BATCH;
use ct_bp::BpConfig;
use ct_core::error::{CtError, Result};
use ct_core::geometry::CbctGeometry;
use ct_core::projection::ProjectionStack;
use ct_core::volume::Volume;
use ct_filter::{FilterConfig, Filterer};
use ct_obs::live::LiveRegistry;
use ct_obs::{Recorder, Track};
use ct_par::Pool;
use ct_sync::ring::RingBuffer;

/// Options for single-node reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct ReconOptions {
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Filtering-stage configuration.
    pub filter: FilterConfig,
    /// Back-projection kernel configuration (`L1-Tran` only).
    pub bp: BpConfig,
    /// Apply the global FDK constant (`delta_beta * d^2 / 2`) so voxels
    /// carry absolute attenuation values. Disable to get the raw
    /// accumulator the paper's kernels produce.
    pub apply_scale: bool,
    /// Circular-buffer capacity of [`reconstruct_pipelined`] (default: one batch).
    pub ring_capacity: usize,
}

impl Default for ReconOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            filter: FilterConfig::default(),
            bp: BpConfig::default(),
            apply_scale: true,
            ring_capacity: WARP_BATCH,
        }
    }
}

impl ReconOptions {
    fn pool(&self) -> Pool {
        if self.threads == 0 {
            Pool::auto()
        } else {
            Pool::new(self.threads)
        }
    }
}

fn check_inputs(geo: &CbctGeometry, projections: &ProjectionStack, bp: &BpConfig) -> Result<()> {
    pipeline::validate(geo, bp)?;
    if projections.dims() != geo.detector {
        return Err(CtError::ShapeMismatch {
            expected: format!("{}x{}", geo.detector.nu, geo.detector.nv),
            actual: format!("{}x{}", projections.dims().nu, projections.dims().nv),
        });
    }
    if projections.len() != geo.num_projections {
        return Err(CtError::ShapeMismatch {
            expected: format!("{} projections", geo.num_projections),
            actual: format!("{}", projections.len()),
        });
    }
    Ok(())
}

/// Full FDK reconstruction in i-major layout, one batch at a time: each
/// batch is filtered, transposed, added into the volume and dropped.
pub fn reconstruct(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
) -> Result<Volume> {
    check_inputs(geo, projections, &opts.bp)?;
    let pool = opts.pool();
    let filterer = Filterer::new(geo, opts.filter);
    let mats = geo.projection_matrices();
    let mut acc = BatchAccumulator::full(geo, opts.bp)?;
    // Transposed while still in cache; filter_indexed applies Parker
    // weights on short scans (full scans use the 1/2 in fdk_scale).
    let filter = |i| Some(filterer.filter_indexed(i, projections.get(i)).transposed());
    for start in (0..geo.num_projections).step_by(acc.batch()) {
        let indices = start..geo.num_projections.min(start + acc.batch());
        let batch = pool.parallel_map(indices.len(), 1, |b| filter(start + b));
        acc.add(&pool, &mats, indices.zip(batch.iter().flatten()));
    }
    Ok(finish_volume(acc.into_volume(), geo, opts.apply_scale))
}

/// Pipelined FDK: a filtering thread streams filtered projections through
/// a circular buffer to a back-projection thread that consumes them in
/// 32-projection batches — one iFDK rank without the communication.
pub fn reconstruct_pipelined(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
) -> Result<Volume> {
    check_inputs(geo, projections, &opts.bp)?;
    let ring = RingBuffer::new(opts.ring_capacity);
    pipelined(geo, projections, opts, &Recorder::off(), &ring)
}

/// [`reconstruct_pipelined`] on a recorder that mirrors its spans into
/// `live`: per-stage completion counts and busy time in the distributed
/// run's units (`filter` per projection, `backprojection` per batch)
/// and a `ring.single` probe, so a stall watchdog
/// ([`ct_obs::live::LiveSession`]) can watch the ring's in-flight waits
/// while it runs. Identical output to the plain call.
pub fn reconstruct_pipelined_live(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
    live: &LiveRegistry,
) -> Result<Volume> {
    check_inputs(geo, projections, &opts.bp)?;
    let ring = RingBuffer::new(opts.ring_capacity);
    live.watch_ring(ring.live_probe("ring.single"));
    let obs = Recorder::summary();
    obs.attach_live(live);
    pipelined(geo, projections, opts, &obs, &ring)
}

/// The single-node composition over the in-memory stack; the tracks of
/// `obs` decide what, if anything, is recorded.
fn pipelined(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
    obs: &Recorder,
    ring: &RingBuffer<Filtered>,
) -> Result<Volume> {
    let pool = opts.pool();
    let load = |_: &Track, i| Ok(projections.get(i));
    let vol = pipeline::filter_backproject(geo, opts.filter, opts.bp, &pool, obs, ring, load)?;
    Ok(finish_volume(vol, geo, opts.apply_scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::metrics::nrmse;
    use ct_core::phantom::Phantom;
    use ct_core::problem::{Dims2, Dims3};
    use ct_core::volume::VolumeLayout;

    fn geo(n: usize, np: usize) -> CbctGeometry {
        CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n))
    }

    /// Forward-project a phantom and reconstruct it, returning
    /// `(reconstruction, voxelised ground truth)` — the standard
    /// evaluation loop of Section 5.1 (RTK forward projector +
    /// reconstruction + compare).
    fn reconstruct_phantom(
        geo: &CbctGeometry,
        phantom: &Phantom,
        opts: &ReconOptions,
    ) -> Result<(Volume, Volume)> {
        let projections = ct_core::forward::project_all_analytic(geo, phantom);
        let recon = reconstruct(geo, &projections, opts)?;
        let truth = phantom.voxelize(geo.volume, VolumeLayout::IMajor, |i, j, k| {
            geo.voxel_position(i, j, k)
        });
        Ok((recon, truth))
    }

    #[test]
    fn input_validation() {
        let g = geo(16, 8);
        let wrong_shape = ProjectionStack::zeros(Dims2::new(8, 8), 8);
        assert!(reconstruct(&g, &wrong_shape, &ReconOptions::default()).is_err());
        let wrong_count = ProjectionStack::zeros(g.detector, 7);
        assert!(reconstruct(&g, &wrong_count, &ReconOptions::default()).is_err());
    }

    #[test]
    fn uniform_sphere_reconstructs_to_unit_density() {
        // The end-to-end scaling check: a density-1 sphere must come back
        // with interior voxels near 1.0 (this pins the cosine weighting,
        // ramp normalisation, 1/z^2 weighting and the global constant all
        // at once).
        let g = geo(32, 64);
        let ph = Phantom::uniform_sphere(10.0);
        let (recon, _) = reconstruct_phantom(&g, &ph, &ReconOptions::default()).unwrap();
        let c = recon.get(16, 16, 16);
        assert!((c - 1.0).abs() < 0.08, "centre density {c}, expected ~1.0");
        // Far outside the sphere: near zero.
        let edge = recon.get(1, 1, 16);
        assert!(edge.abs() < 0.1, "background {edge}");
    }

    #[test]
    fn shepp_logan_reconstruction_quality() {
        let g = geo(32, 64);
        let ph = Phantom::shepp_logan(14.0);
        let (recon, truth) = reconstruct_phantom(&g, &ph, &ReconOptions::default()).unwrap();
        // Global NRMSE on a coarse grid with few projections won't be
        // tiny, but structure must clearly come through.
        let e = nrmse(truth.data(), recon.data()).unwrap();
        assert!(e < 0.25, "nrmse {e}");
        // The bright skull shell must be brighter than the ventricles.
        let skull = recon.get(16, 3, 16);
        let inner = recon.get(16, 16, 16);
        assert!(skull > inner, "skull {skull} vs inner {inner}");
    }

    #[test]
    fn pipelined_matches_plain_reconstruction() {
        let g = geo(16, 40);
        let ph = Phantom::shepp_logan(7.0);
        let projections = ct_core::forward::project_all_analytic(&g, &ph);
        let opts = ReconOptions::default();
        let a = reconstruct(&g, &projections, &opts).unwrap();
        let b = reconstruct_pipelined(&g, &projections, &opts).unwrap();
        let e = nrmse(a.data(), b.data()).unwrap();
        assert!(e < 1e-5, "nrmse {e}");
    }

    #[test]
    fn pipelined_is_deterministic() {
        let g = geo(16, 24);
        let ph = Phantom::uniform_sphere(5.0);
        let projections = ct_core::forward::project_all_analytic(&g, &ph);
        let opts = ReconOptions::default();
        let a = reconstruct_pipelined(&g, &projections, &opts).unwrap();
        let b = reconstruct_pipelined(&g, &projections, &opts).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn pipelined_live_counts_progress_and_matches_plain() {
        let g = geo(16, 24);
        let ph = Phantom::uniform_sphere(5.0);
        let projections = ct_core::forward::project_all_analytic(&g, &ph);
        let opts = ReconOptions::default();
        let reg = LiveRegistry::new();
        let a = reconstruct_pipelined_live(&g, &projections, &opts, &reg).unwrap();
        let b = reconstruct_pipelined(&g, &projections, &opts).unwrap();
        assert_eq!(a.data(), b.data(), "telemetry must not change bits");
        // Both stages counted every item: Np filter spans and, with the
        // default batch of 32, one back-projection batch span.
        assert_eq!(reg.stage("filter").done(), 24);
        assert_eq!(reg.stage("backprojection").done(), 1);
        assert!(reg.stage("backprojection").busy_ns() > 0);
    }

    #[test]
    fn table3_ablation_variants_are_an_error() {
        use ct_bp::KernelVariant;
        let g = geo(16, 36);
        let projections = ProjectionStack::zeros(g.detector, g.num_projections);
        for variant in KernelVariant::ALL {
            let opts = ReconOptions {
                bp: BpConfig {
                    variant,
                    ..BpConfig::default()
                },
                ..ReconOptions::default()
            };
            let result = reconstruct(&g, &projections, &opts);
            match variant {
                KernelVariant::L1Tran => assert!(result.is_ok()),
                _ => assert!(
                    matches!(result, Err(CtError::InvalidConfig(_))),
                    "{}: {result:?}",
                    variant.name()
                ),
            }
        }
    }

    #[test]
    fn scale_flag_controls_absolute_values() {
        let g = geo(16, 24);
        let ph = Phantom::uniform_sphere(5.0);
        let projections = ct_core::forward::project_all_analytic(&g, &ph);
        let scaled = reconstruct(&g, &projections, &ReconOptions::default()).unwrap();
        let raw = reconstruct(
            &g,
            &projections,
            &ReconOptions {
                apply_scale: false,
                ..ReconOptions::default()
            },
        )
        .unwrap();
        let s = ct_bp::fdk_scale(&g);
        let a = scaled.get(8, 8, 8);
        let b = raw.get(8, 8, 8) * s;
        assert!((a - b).abs() < 1e-5 * a.abs().max(1.0));
    }
}
