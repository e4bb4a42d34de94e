//! Single-node FDK reconstruction — the paper's pipeline on one machine.
//!
//! [`reconstruct`] runs the two stages back to back; it is the reference
//! everything else is validated against. [`reconstruct_pipelined`]
//! overlaps them through a circular buffer exactly like one iFDK rank
//! does (filtering thread feeding a back-projection thread), which is the
//! paper's Section 3.1 heterogeneity argument in miniature: the filter
//! latency hides behind the much heavier back-projection.

use crate::batch::{finish_volume, BatchAccumulator};
use ct_bp::warp::WARP_BATCH;
use ct_bp::{backproject, BpConfig};
use ct_core::error::{CtError, Result};
use ct_core::geometry::CbctGeometry;
use ct_core::projection::{ProjectionStack, TransposedProjection};
use ct_core::volume::{Volume, VolumeLayout};
use ct_filter::{FilterConfig, Filterer};
use ct_obs::clock;
use ct_obs::live::LiveRegistry;
use ct_par::Pool;
use ct_sync::ring::RingBuffer;

/// Options for single-node reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct ReconOptions {
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Filtering-stage configuration.
    pub filter: FilterConfig,
    /// Back-projection kernel configuration.
    pub bp: BpConfig,
    /// Apply the global FDK constant (`delta_beta * d^2 / 2`) so voxels
    /// carry absolute attenuation values. Disable to get the raw
    /// accumulator the paper's kernels produce.
    pub apply_scale: bool,
    /// Circular-buffer capacity for [`reconstruct_pipelined`].
    pub ring_capacity: usize,
}

impl Default for ReconOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            filter: FilterConfig::default(),
            bp: BpConfig::default(),
            apply_scale: true,
            ring_capacity: 2 * WARP_BATCH,
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
    geo.validate()?;
    bp.validate(geo.volume)?;
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

/// Full FDK reconstruction: filter every projection, back-project with
/// the configured kernel, return the volume in i-major layout.
pub fn reconstruct(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
) -> Result<Volume> {
    check_inputs(geo, projections, &opts.bp)?;
    let pool = opts.pool();
    let filterer = Filterer::new(geo, opts.filter);
    // filter_stack applies Parker short-scan weights internally when the
    // geometry is a short scan (full scans use the global 1/2 in
    // fdk_scale).
    let filtered = filterer.filter_stack(&pool, projections);
    let mats = geo.projection_matrices();
    let vol = backproject(&pool, opts.bp, &mats, &filtered, geo.volume);
    Ok(finish_volume(vol, geo, opts.apply_scale))
}

/// Pipelined FDK: a filtering thread streams filtered projections through
/// a circular buffer to a back-projection thread that consumes them in
/// 32-projection batches — one iFDK rank without the communication.
pub fn reconstruct_pipelined(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
) -> Result<Volume> {
    reconstruct_pipelined_impl(geo, projections, opts, None)
}

/// [`reconstruct_pipelined`] with live telemetry: per-stage completion
/// counters (`filter`, `backprojection`, both planned at `Np`
/// projections) land in `live`, and the circular buffer registers a
/// `ring.single` probe so a sampler ([`ct_obs::live::LiveSession`]) can
/// watch occupancy, in-flight stalls and progress/ETA while the
/// reconstruction runs. Identical output to the plain call.
pub fn reconstruct_pipelined_live(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
    live: &LiveRegistry,
) -> Result<Volume> {
    reconstruct_pipelined_impl(geo, projections, opts, Some(live))
}

fn reconstruct_pipelined_impl(
    geo: &CbctGeometry,
    projections: &ProjectionStack,
    opts: &ReconOptions,
    live: Option<&LiveRegistry>,
) -> Result<Volume> {
    check_inputs(geo, projections, &opts.bp)?;
    let mut acc = BatchAccumulator::full(geo, opts.bp)?;
    let pool = opts.pool();
    let filterer = Filterer::new(geo, opts.filter);
    let mats = geo.projection_matrices();
    let ring: RingBuffer<(usize, TransposedProjection)> = RingBuffer::new(opts.ring_capacity);

    // Live telemetry: both stages process Np projections; the ring's
    // occupancy and in-flight stall waits go out through a named probe.
    if let Some(reg) = live {
        let np = projections.len() as u64;
        reg.plan_stage("filter", np, None);
        reg.plan_stage("backprojection", np, None);
        reg.watch_ring(ring.live_probe("ring.single"));
    }
    let filter_cell = live.map(|r| r.stage("filter"));
    let bp_cell = live.map(|r| r.stage("backprojection"));

    let vol = std::thread::scope(|s| -> Result<Volume> {
        // Filtering thread: filter + transpose, in projection order.
        let producer = ring.clone();
        let filterer = &filterer;
        let flt = s.spawn(move || {
            for (i, img) in projections.iter().enumerate() {
                let q = match &filter_cell {
                    Some(cell) => {
                        let t = clock::now();
                        let q = filterer.filter_indexed(i, img);
                        cell.record(t.elapsed().as_nanos() as u64);
                        q
                    }
                    None => filterer.filter_indexed(i, img),
                };
                if producer.push((i, q.transposed())).is_err() {
                    return; // consumer gone
                }
            }
            producer.close();
        });

        // Back-projection thread role (run on this thread): consume fixed
        // `batch`-sized groups so results are batch-deterministic.
        loop {
            let items = ring.pop_batch(opts.bp.batch);
            if items.is_empty() {
                break;
            }
            let started = bp_cell.as_ref().map(|_| clock::now());
            acc.add(&pool, &mats, items.iter().map(|(i, q)| (*i, q)))?;
            if let (Some(cell), Some(started)) = (&bp_cell, started) {
                cell.record_batch(items.len() as u64, started.elapsed().as_nanos() as u64);
            }
        }
        flt.join().expect("filter thread panicked");
        Ok(acc.into_volume())
    })?;
    Ok(finish_volume(vol, geo, opts.apply_scale))
}

/// Convenience: forward-project a phantom and reconstruct it, returning
/// `(reconstruction, voxelised ground truth)` — the standard evaluation
/// loop of Section 5.1 (RTK forward projector + reconstruction + compare).
pub fn reconstruct_phantom(
    geo: &CbctGeometry,
    phantom: &ct_core::phantom::Phantom,
    opts: &ReconOptions,
) -> Result<(Volume, Volume)> {
    let projections = ct_core::forward::project_all_analytic(geo, phantom);
    let recon = reconstruct(geo, &projections, opts)?;
    let truth = phantom.voxelize(geo.volume, VolumeLayout::IMajor, |i, j, k| {
        geo.voxel_position(i, j, k)
    });
    Ok((recon, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::metrics::nrmse;
    use ct_core::phantom::Phantom;
    use ct_core::problem::{Dims2, Dims3};

    fn geo(n: usize, np: usize) -> CbctGeometry {
        CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n))
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
        // Both stages completed all Np projections.
        assert_eq!(reg.stage("filter").done(), 24);
        assert_eq!(reg.stage("filter").planned(), 24);
        assert_eq!(reg.stage("backprojection").done(), 24);
        assert!(reg.stage("backprojection").busy_ns() > 0);
        // A snapshot taken now shows the finished run: full progress,
        // one registered ring.
        let snap = reg.snapshot();
        let progress = snap.progress.expect("planned stages yield progress");
        assert!((progress.frac - 1.0).abs() < 1e-9, "frac {}", progress.frac);
        assert_eq!(progress.eta_ns, 0);
        assert_eq!(snap.rings.len(), 1);
        assert_eq!(snap.rings[0].name, "ring.single");
    }

    #[test]
    fn kernel_variants_agree_end_to_end() {
        use ct_bp::KernelVariant;
        let g = geo(16, 36);
        let ph = Phantom::uniform_sphere(5.0);
        let projections = ct_core::forward::project_all_analytic(&g, &ph);
        let reference = reconstruct(&g, &projections, &ReconOptions::default()).unwrap();
        for variant in KernelVariant::ALL {
            let opts = ReconOptions {
                bp: BpConfig {
                    variant,
                    ..BpConfig::default()
                },
                ..ReconOptions::default()
            };
            let v = reconstruct(&g, &projections, &opts).unwrap();
            let e = nrmse(reference.data(), v.data()).unwrap();
            assert!(e < 1e-5, "{}: {e}", variant.name());
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
