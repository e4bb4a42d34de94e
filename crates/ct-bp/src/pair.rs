//! Symmetric slab-pair back-projection — the distributed output unit.
//!
//! The proposed kernel's Theorem-1 symmetry pairs voxel `(i, j, k)` with
//! `(i, j, Nz-1-k)`, i.e. a z-slab with its mirror about the volume's XY
//! mid-plane. iFDK therefore decomposes the output volume into `R`
//! *slab pairs*: row `r` of the rank grid owns the slab
//! `[k0, k0+len)` **and** its mirror `[Nz-k0-len, Nz-k0)` — which is why
//! the paper's Figure 3 shows the output aggregated from `2*R`
//! sub-volumes. Each pair costs the same as a single slab of the standard
//! kernel, preserving the full 1/6 arithmetic saving at any scale.

use crate::warp::{ColumnBatch, Sampler, SweepBuffers, WARP_BATCH};
use ct_core::error::{CtError, Result};
use ct_core::geometry::ProjectionMatrix;
use ct_core::problem::Dims3;
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// A symmetric pair of z-slabs of a full volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabPair {
    /// Full-volume `Nz` (must be even).
    pub nz_full: usize,
    /// First z index of the upper (low-k) slab.
    pub k0: usize,
    /// Slab length; the pair covers `2*len` slices.
    pub len: usize,
}

impl SlabPair {
    /// Validate and construct.
    pub fn new(nz_full: usize, k0: usize, len: usize) -> Result<Self> {
        if nz_full == 0 || !nz_full.is_multiple_of(2) {
            return Err(CtError::InvalidConfig(format!(
                "nz_full = {nz_full} must be even and nonzero"
            )));
        }
        if len == 0 || k0 + len > nz_full / 2 {
            return Err(CtError::InvalidConfig(format!(
                "slab [{k0}, {}) must lie within the lower half [0, {})",
                k0 + len,
                nz_full / 2
            )));
        }
        Ok(Self { nz_full, k0, len })
    }

    /// The one pair covering a whole `nz_full`-deep volume: its
    /// pair-local layout is the full k-major volume.
    pub fn full(nz_full: usize) -> Result<Self> {
        Self::new(nz_full, 0, nz_full / 2)
    }

    /// Split the lower half of a volume into `r` equal slab pairs.
    /// `nz_full/2` must be divisible by `r`.
    pub fn decompose(nz_full: usize, r: usize) -> Result<Vec<SlabPair>> {
        if r == 0 {
            return Err(CtError::InvalidConfig("need at least one slab pair".into()));
        }
        if !nz_full.is_multiple_of(2) || !(nz_full / 2).is_multiple_of(r) {
            return Err(CtError::InvalidConfig(format!(
                "nz_full/2 = {} must divide evenly into {r} slabs",
                nz_full / 2
            )));
        }
        let len = nz_full / 2 / r;
        (0..r)
            .map(|s| SlabPair::new(nz_full, s * len, len))
            .collect()
    }

    /// Number of local z slices in the pair volume (`2 * len`).
    #[inline]
    pub fn local_nz(&self) -> usize {
        2 * self.len
    }

    /// Map a local pair-volume z index to the full-volume z index.
    ///
    /// Local `[0, len)` is the upper slab in ascending order; local
    /// `[len, 2*len)` is the mirror slab in ascending global order, so the
    /// Theorem-1 mirror of local `k` is local `2*len - 1 - k`.
    #[inline]
    pub fn global_k(&self, local: usize) -> usize {
        debug_assert!(local < self.local_nz());
        if local < self.len {
            self.k0 + local
        } else {
            self.nz_full - self.k0 - 2 * self.len + local
        }
    }
}

/// [`SlabPair::full`] at a full-volume kernel entry: odd `Nz` breaks the
/// caller contract, and a zero-depth volume has no pair (`None`; the
/// caller returns the empty volume).
pub(crate) fn full_pair(dims: Dims3) -> Option<SlabPair> {
    // analyze: allow(panic, reason = "caller-contract validation at the public kernel entry; fires before any work starts")
    assert!(dims.nz.is_multiple_of(2), "batched kernels need even Nz");
    SlabPair::full(dims.nz).ok()
}

/// Back-project one slab pair with the batched kernel of Listing 1 —
/// the **reference** loop: in place, one voxel plane `i` per parallel
/// work item, no private tiles and no assembly. The tiled driver
/// ([`crate::tiled::backproject_pair_tiled_reporting`]) is tested
/// bit-identical to this.
///
/// The output volume has dims `(nx, ny, 2*len)` in k-major layout; use
/// [`SlabPair::global_k`] to map its slices back into the full volume.
pub fn backproject_pair_with<S: Sampler>(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    samplers: &[S],
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    batch: usize,
) -> Volume {
    // analyze: allow(panic, reason = "caller-contract validation at the public kernel entry; fires before any work starts")
    assert_eq!(mats.len(), samplers.len(), "one matrix per projection");
    // analyze: allow(panic, reason = "caller-contract validation at the public kernel entry; fires before any work starts")
    assert_eq!(dims.nz, pair.nz_full, "pair must match volume Nz");
    // analyze: allow(panic, reason = "caller-contract validation at the public kernel entry; fires before any work starts")
    assert!((1..=WARP_BATCH).contains(&batch), "batch must be in 1..=32");
    let (nx, ny) = (dims.nx, dims.ny);
    let local_nz = pair.local_nz();
    let rows: Vec<[[f32; 4]; 3]> = mats.iter().map(|m| m.rows_f32()).collect();

    let vmax = nv as f32 - 1.0;
    let mut vol = Volume::zeros(Dims3::new(nx, ny, local_nz), VolumeLayout::KMajor);
    let chunk = ny * local_nz;
    pool.parallel_chunks_mut_indexed(vol.data_mut(), chunk, |i, _start, slice| {
        let ifl = i as f32;
        let mut buf = SweepBuffers::new(pair.len);
        for (rows_b, samplers_b) in rows.chunks(batch).zip(samplers.chunks(batch)) {
            for (j, col) in slice.chunks_exact_mut(local_nz).enumerate().take(ny) {
                // The local column is the upper slab followed by its
                // Theorem-1 mirror in ascending global order.
                ColumnBatch::update_column(
                    rows_b, samplers_b, ifl, j as f32, pair.k0, vmax, &mut buf, col,
                );
            }
        }
    });
    vol
}

/// Reassemble a full k-major volume from per-pair volumes (one per slab
/// pair, in the order produced by [`SlabPair::decompose`]).
pub fn stitch_pairs(dims: Dims3, pairs: &[(SlabPair, Volume)]) -> Result<Volume> {
    let mut out = Volume::zeros(dims, VolumeLayout::KMajor);
    let mut covered = vec![false; dims.nz];
    for (pair, vol) in pairs {
        if pair.nz_full != dims.nz {
            return Err(CtError::ShapeMismatch {
                expected: format!("nz_full {}", dims.nz),
                actual: format!("{}", pair.nz_full),
            });
        }
        let vd = vol.dims();
        if vd.nx != dims.nx || vd.ny != dims.ny || vd.nz != pair.local_nz() {
            return Err(CtError::ShapeMismatch {
                expected: format!("{}x{}x{}", dims.nx, dims.ny, pair.local_nz()),
                actual: format!("{}x{}x{}", vd.nx, vd.ny, vd.nz),
            });
        }
        for local in 0..pair.local_nz() {
            let g = pair.global_k(local);
            if covered[g] {
                return Err(CtError::InvalidConfig(format!(
                    "slice {g} covered by more than one slab pair"
                )));
            }
            covered[g] = true;
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    out.set(i, j, g, vol.get(i, j, local));
                }
            }
        }
    }
    if let Some(missing) = covered.iter().position(|&c| !c) {
        return Err(CtError::InvalidConfig(format!(
            "slice {missing} not covered by any slab pair"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::backproject_warp;
    use ct_core::geometry::CbctGeometry;
    use ct_core::problem::Dims2;
    use ct_core::projection::{ProjectionImage, ProjectionStack, TransposedProjection};

    /// The reference loop over transposed projections, full batches.
    fn backproject_pair(
        pool: &Pool,
        mats: &[ProjectionMatrix],
        projs: &ProjectionStack,
        dims: Dims3,
        pair: SlabPair,
    ) -> Volume {
        let transposed: Vec<TransposedProjection> = projs.iter().map(|p| p.transposed()).collect();
        let nv = projs.dims().nv;
        backproject_pair_with(pool, mats, &transposed, nv, dims, pair, WARP_BATCH)
    }

    fn setup(np: usize, n: usize) -> (CbctGeometry, Vec<ProjectionMatrix>, ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let mats = geo.projection_matrices();
        let mut stack = ProjectionStack::new(geo.detector);
        for s in 0..np {
            let mut img = ProjectionImage::zeros(geo.detector);
            for v in 0..geo.detector.nv {
                for u in 0..geo.detector.nu {
                    img.set(u, v, (((u + 2 * v + 3 * s) % 29) as f32) * 0.3);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn slab_pair_validation() {
        assert!(SlabPair::new(16, 0, 8).is_ok());
        assert!(SlabPair::new(16, 4, 4).is_ok());
        assert!(SlabPair::new(16, 5, 4).is_err()); // crosses the mid-plane
        assert!(SlabPair::new(15, 0, 4).is_err()); // odd nz
        assert!(SlabPair::new(16, 0, 0).is_err()); // empty
        assert_eq!(SlabPair::full(16), SlabPair::new(16, 0, 8));
        assert!(SlabPair::full(15).is_err());
        assert!(SlabPair::full(0).is_err());
    }

    #[test]
    fn decompose_covers_lower_half() {
        let pairs = SlabPair::decompose(32, 4).unwrap();
        assert_eq!(pairs.len(), 4);
        let mut seen = [false; 32];
        for p in &pairs {
            for local in 0..p.local_nz() {
                let g = p.global_k(local);
                assert!(!seen[g], "slice {g} double-covered");
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(SlabPair::decompose(32, 5).is_err());
        assert!(SlabPair::decompose(32, 0).is_err());
    }

    #[test]
    fn global_k_mapping_is_mirror_consistent() {
        let p = SlabPair::new(64, 8, 4).unwrap();
        assert_eq!(p.local_nz(), 8);
        // Upper slab: 8, 9, 10, 11.
        assert_eq!(p.global_k(0), 8);
        assert_eq!(p.global_k(3), 11);
        // Mirror slab ascending: 52, 53, 54, 55.
        assert_eq!(p.global_k(4), 52);
        assert_eq!(p.global_k(7), 55);
        // Theorem-1 mirror of local k is local 2*len-1-k.
        for k in 0..4 {
            assert_eq!(p.global_k(2 * 4 - 1 - k), 64 - 1 - p.global_k(k));
        }
    }

    #[test]
    fn single_pair_covering_everything_matches_warp_kernel() {
        let (geo, mats, stack) = setup(8, 8);
        let full = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        let pair = SlabPair::new(8, 0, 4).unwrap();
        let pv = backproject_pair(&Pool::serial(), &mats, &stack, geo.volume, pair);
        // With k0 = 0 and len = nz/2 the pair volume IS the full volume.
        assert_eq!(pv.data(), full.data());
    }

    #[test]
    fn stitched_decomposition_matches_full_volume() {
        let (geo, mats, stack) = setup(12, 16);
        let full = backproject_warp(&Pool::new(2), &mats, &stack, geo.volume);
        let pairs = SlabPair::decompose(16, 4).unwrap();
        let pieces: Vec<(SlabPair, Volume)> = pairs
            .iter()
            .map(|&p| {
                (
                    p,
                    backproject_pair(&Pool::new(2), &mats, &stack, geo.volume, p),
                )
            })
            .collect();
        let stitched = stitch_pairs(geo.volume, &pieces).unwrap();
        assert_eq!(stitched.data(), full.data());
    }

    #[test]
    fn stitch_detects_gaps_and_overlaps() {
        let (geo, mats, stack) = setup(4, 8);
        let pairs = SlabPair::decompose(8, 2).unwrap();
        let v0 = backproject_pair(&Pool::serial(), &mats, &stack, geo.volume, pairs[0]);
        // Missing pair 1 -> gap.
        assert!(stitch_pairs(geo.volume, &[(pairs[0], v0.clone())]).is_err());
        // Duplicated pair 0 -> overlap.
        assert!(stitch_pairs(
            geo.volume,
            &[(pairs[0], v0.clone()), (pairs[0], v0.clone())]
        )
        .is_err());
    }
}
