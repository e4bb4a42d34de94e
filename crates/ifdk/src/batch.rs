//! The one batch step every pipeline shares: back-project a batch of
//! filtered projections through the driver, which adds it straight into
//! the running sub-volume of a slab pair. Single-node doors run it on the
//! pair that covers the whole volume; a distributed rank on its row's pair.

use ct_bp::lanes::backproject_pair_batch_reporting;
use ct_bp::{fdk_scale, BpConfig, SlabPair, TileReport};
use ct_core::error::Result;
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::problem::Dims3;
use ct_core::projection::TransposedProjection;
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// The running k-major sub-volume of one slab pair plus everything the
/// driver needs to add a batch to it.
#[derive(Clone)]
pub(crate) struct BatchAccumulator {
    acc: Volume,
    pair: SlabPair,
    dims: Dims3,
    nv: usize,
    bp: BpConfig,
}

impl BatchAccumulator {
    /// A zeroed accumulator for `pair` of the geometry's volume.
    pub(crate) fn new(geo: &CbctGeometry, pair: SlabPair, bp: BpConfig) -> Self {
        let dims = geo.volume;
        let local = Dims3::new(dims.nx, dims.ny, pair.local_nz());
        Self {
            acc: Volume::zeros(local, VolumeLayout::KMajor),
            pair,
            dims,
            nv: geo.detector.nv,
            bp,
        }
    }

    /// The single-node case: the pair covering the whole volume. `Err`
    /// for an odd `Nz`, which the symmetric kernel cannot pair up.
    pub(crate) fn full(geo: &CbctGeometry, bp: BpConfig) -> Result<Self> {
        Ok(Self::new(geo, SlabPair::full(geo.volume.nz)?, bp))
    }

    /// The configured batch size: the projections one [`Self::add`] takes.
    pub(crate) fn batch(&self) -> usize {
        self.bp.batch
    }

    /// Back-project one batch — `(projection index, filtered transposed
    /// projection)` in stream order, `mats` indexed by projection — into
    /// the accumulator. Returns the driver's tile reports for the caller's
    /// span attribution.
    pub(crate) fn add<'a>(
        &mut self,
        pool: &Pool,
        mats: &[ProjectionMatrix],
        items: impl Iterator<Item = (usize, &'a TransposedProjection)>,
    ) -> Vec<TileReport> {
        let (batch_mats, projs): (Vec<ProjectionMatrix>, Vec<&TransposedProjection>) =
            items.map(|(i, q)| (mats[i], q)).unzip();
        backproject_pair_batch_reporting(
            pool,
            self.bp.kernel,
            &batch_mats,
            &projs,
            self.nv,
            self.dims,
            self.pair,
            self.bp.batch,
            self.bp.tile,
            &mut self.acc,
        )
    }

    /// The accumulated k-major pair volume.
    pub(crate) fn into_volume(self) -> Volume {
        self.acc
    }
}

/// A finished k-major accumulator as the volume the entry points return:
/// i-major, scaled by the global FDK constant when asked.
pub(crate) fn finish_volume(vol: Volume, geo: &CbctGeometry, apply_scale: bool) -> Volume {
    let mut vol = vol.into_layout(VolumeLayout::IMajor);
    if apply_scale {
        vol.scale(fdk_scale(geo));
    }
    vol
}
