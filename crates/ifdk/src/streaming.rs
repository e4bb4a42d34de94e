//! Online ("instant") reconstruction: feed projections as the scanner
//! produces them, get the volume the moment the last one lands.
//!
//! This is the API face of the paper's motivation — "generating a volume
//! moments after processing the scanned image projections" (Section 1).
//! Each projection is filtered on arrival; whenever a full batch (the
//! Listing 1 `Nbatch = 32`) accumulates, it is back-projected into the
//! running volume, so the work left at scan end is at most one partial
//! batch plus the final reshape.

use crate::batch::{finish_volume, BatchAccumulator};
use ct_bp::BpConfig;
use ct_core::error::{CtError, Result};
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::projection::{ProjectionImage, TransposedProjection};
use ct_core::volume::Volume;
use ct_filter::{FilterConfig, Filterer};
use ct_par::Pool;

/// Incremental FDK reconstructor.
pub struct StreamingReconstructor {
    geo: CbctGeometry,
    mats: Vec<ProjectionMatrix>,
    filterer: Filterer,
    pool: Pool,
    apply_scale: bool,
    pending: Vec<(usize, TransposedProjection)>,
    acc: BatchAccumulator,
    next_index: usize,
}

impl StreamingReconstructor {
    /// Create a reconstructor for a geometry.
    pub fn new(
        geo: CbctGeometry,
        filter: FilterConfig,
        bp: BpConfig,
        pool: Pool,
        apply_scale: bool,
    ) -> Result<Self> {
        crate::pipeline::validate(&geo, &bp)?;
        let mats = geo.projection_matrices();
        let filterer = Filterer::new(&geo, filter);
        let acc = BatchAccumulator::full(&geo, bp)?;
        Ok(Self {
            geo,
            mats,
            filterer,
            pool,
            apply_scale,
            pending: Vec::new(),
            acc,
            next_index: 0,
        })
    }

    /// Number of projections consumed so far.
    pub fn fed(&self) -> usize {
        self.next_index
    }

    /// Projections still buffered (not yet back-projected).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Feed the next projection (they must arrive in acquisition order).
    pub fn feed(&mut self, img: &ProjectionImage) -> Result<()> {
        if self.next_index >= self.geo.num_projections {
            return Err(CtError::OutOfBounds {
                what: "projection",
                index: self.next_index,
                bound: self.geo.num_projections,
            });
        }
        if img.dims() != self.geo.detector {
            return Err(CtError::ShapeMismatch {
                expected: format!("{}x{}", self.geo.detector.nu, self.geo.detector.nv),
                actual: format!("{}x{}", img.dims().nu, img.dims().nv),
            });
        }
        let q = self.filterer.filter_indexed(self.next_index, img);
        self.pending.push((self.next_index, q.transposed()));
        self.next_index += 1;
        if self.pending.len() >= self.acc.batch() {
            self.flush_pending();
        }
        Ok(())
    }

    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let items = self.pending.iter().map(|(i, q)| (*i, q));
        self.acc.add(&self.pool, &self.mats, items);
        self.pending.clear();
    }

    /// Finish the scan: back-project any partial batch and return the
    /// i-major volume. Fails if projections are missing.
    pub fn finish(mut self) -> Result<Volume> {
        if self.next_index != self.geo.num_projections {
            return Err(CtError::InvalidConfig(format!(
                "scan incomplete: fed {} of {} projections",
                self.next_index, self.geo.num_projections
            )));
        }
        self.flush_pending();
        let vol = self.acc.into_volume();
        Ok(finish_volume(vol, &self.geo, self.apply_scale))
    }

    /// Snapshot of the partial reconstruction from everything fed so far
    /// (pending projections included) — the "watch the volume appear"
    /// preview.
    pub fn preview(&mut self) -> Result<Volume> {
        self.flush_pending();
        let vol = self.acc.clone().into_volume();
        Ok(finish_volume(vol, &self.geo, self.apply_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{reconstruct, ReconOptions};
    use ct_core::forward::project_all_analytic;
    use ct_core::metrics::nrmse;
    use ct_core::phantom::Phantom;
    use ct_core::problem::{Dims2, Dims3};

    fn setup(n: usize, np: usize) -> (CbctGeometry, ct_core::projection::ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let stack = project_all_analytic(&geo, &Phantom::shepp_logan(0.45 * n as f64));
        (geo, stack)
    }

    fn streamer(geo: &CbctGeometry) -> StreamingReconstructor {
        StreamingReconstructor::new(
            geo.clone(),
            FilterConfig::default(),
            BpConfig::default(),
            Pool::new(2),
            true,
        )
        .unwrap()
    }

    #[test]
    fn streaming_matches_batch_reconstruction() {
        let (geo, stack) = setup(16, 40); // 40 = one full batch + a tail
        let mut s = streamer(&geo);
        for img in stack.iter() {
            s.feed(img).unwrap();
        }
        assert_eq!(s.fed(), 40);
        let streamed = s.finish().unwrap();
        let batch = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
        let e = nrmse(batch.data(), streamed.data()).unwrap();
        assert!(e < 1e-5, "NRMSE {e}");
    }

    #[test]
    fn pending_flushes_at_batch_boundary() {
        let (geo, stack) = setup(8, 40);
        let mut s = streamer(&geo);
        for (i, img) in stack.iter().enumerate().take(33) {
            s.feed(img).unwrap();
            if i < 31 {
                assert_eq!(s.pending(), i + 1);
            }
        }
        // Batch of 32 flushed; one projection pending.
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn overfeeding_and_wrong_shape_rejected() {
        let (geo, stack) = setup(8, 8);
        let mut s = streamer(&geo);
        for img in stack.iter() {
            s.feed(img).unwrap();
        }
        assert!(s.feed(stack.get(0)).is_err());

        let mut s = streamer(&geo);
        let wrong = ProjectionImage::zeros(Dims2::new(4, 4));
        assert!(s.feed(&wrong).is_err());
    }

    #[test]
    fn finish_requires_complete_scan() {
        let (geo, stack) = setup(8, 8);
        let mut s = streamer(&geo);
        s.feed(stack.get(0)).unwrap();
        assert!(s.finish().is_err());
    }

    #[test]
    fn preview_converges_to_final() {
        let (geo, stack) = setup(12, 24);
        let full = reconstruct(&geo, &stack, &ReconOptions::default()).unwrap();
        let mut s = streamer(&geo);
        let mut last_err = f64::INFINITY;
        for (i, img) in stack.iter().enumerate() {
            s.feed(img).unwrap();
            if (i + 1) % 8 == 0 {
                let p = s.preview().unwrap();
                let e = nrmse(full.data(), p.data()).unwrap();
                assert!(
                    e <= last_err * 1.01,
                    "preview error increased: {e} > {last_err}"
                );
                last_err = e;
            }
        }
        let fin = s.finish().unwrap();
        assert!(nrmse(full.data(), fin.data()).unwrap() < 1e-5);
    }

    #[test]
    fn odd_nz_rejected() {
        let geo = CbctGeometry::standard(Dims2::new(16, 16), 4, Dims3::new(8, 8, 7));
        assert!(StreamingReconstructor::new(
            geo,
            FilterConfig::default(),
            BpConfig::default(),
            Pool::serial(),
            true
        )
        .is_err());
    }
}
