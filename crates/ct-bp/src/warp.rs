//! The `shflBP` kernel structure — paper Listing 1 on CPU.
//!
//! The CUDA kernel assigns one projection of a 32-wide batch to each warp
//! lane: lane `s` computes `U = u` and `Z = 1/z` for its projection once,
//! and every lane reads all 32 values back through `__shfl_sync` while
//! accumulating its voxel. On the CPU the warp becomes two small stack
//! arrays (`u_batch`, `f_batch`) computed once per voxel *column* and
//! reused across the whole column — the same op-count saving, plus the
//! Theorem 2/3 column reuse of Algorithm 4.
//!
//! Batching also means each voxel is read-modified-written **once per
//! 32 projections** instead of once per projection ("decreasing the access
//! count of the volume data which is stored in the global memory",
//! Section 3.3.1).

use crate::pair::{backproject_pair_with, full_pair};
use ct_core::geometry::ProjectionMatrix;
use ct_core::problem::Dims3;
use ct_core::projection::{ProjectionStack, TransposedProjection};
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// The paper's projection batch size (`Nbatch = 32`, Listing 1).
pub const WARP_BATCH: usize = 32;

/// Fixed SIMD-friendly chunk width of the batched inner loop. Every
/// batch is processed as `ceil(width / 8)` chunks of exactly 8 lanes;
/// the trailing chunk is padded with zero-weight lanes so the compiler
/// sees loops of constant trip count over fixed-size arrays and can
/// auto-vectorize them (no `unsafe`, no explicit SIMD).
pub const LANE_WIDTH: usize = 8;

/// Abstraction over the projection fetch path, letting the same kernel
/// body run against the Table 3 access variants (row-major "L1",
/// transposed, blocked "texture", nearest-fetch RTK).
pub trait Sampler: Sync {
    /// Bilinear (or variant-defined) sample at detector coordinates
    /// `(u, v)` of the *original* projection orientation.
    fn sample(&self, u: f32, v: f32) -> f32;

    /// Fixed-`u` column sweep: `out[k] += w * sample(u, vs[k])` for every
    /// `k`. Theorem 2 makes `u` invariant along a voxel column, so layouts
    /// with contiguous `v` can resolve the `u` interpolation once per
    /// sweep instead of once per voxel; this default is the reference the
    /// specialisations must match bit for bit.
    #[inline]
    fn accumulate_column(&self, u: f32, vs: &[f32], w: f32, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(vs) {
            *o += w * self.sample(u, v);
        }
    }
}

impl<S: Sampler> Sampler for &S {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        (**self).sample(u, v)
    }

    #[inline]
    fn accumulate_column(&self, u: f32, vs: &[f32], w: f32, out: &mut [f32]) {
        (**self).accumulate_column(u, vs, w, out)
    }
}

impl Sampler for ct_core::projection::ProjectionImage {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        ct_core::projection::ProjectionImage::sample(self, u, v)
    }
}

impl Sampler for TransposedProjection {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        TransposedProjection::sample(self, u, v)
    }

    /// The "L1" fast path: resolve `u` once (floor, fraction, border) and
    /// sweep `v` down two contiguous rows of the transposed buffer. The
    /// arithmetic is `interp2` with its operations reordered per axis, so
    /// the results are bit-identical to the default path.
    fn accumulate_column(&self, u: f32, vs: &[f32], w: f32, out: &mut [f32]) {
        let dims = self.dims();
        let (nu, nv) = (dims.nu, dims.nv);
        let fu = u.floor();
        let du = u - fu;
        let iu = fu as isize;
        // Columns touching the u border still need the zero-border blend
        // on both axes: leave them to the reference path.
        if iu < 0 || iu + 1 >= nu as isize {
            for (o, &v) in out.iter_mut().zip(vs) {
                *o += w * self.sample(u, v);
            }
            return;
        }
        let iu = iu as usize;
        let data = self.data();
        let Some(rows) = data.get(iu * nv..(iu + 2) * nv) else {
            // `iu + 1 < nu` was just checked, so the rows always exist;
            // fall back to the reference path rather than trusting that.
            for (o, &v) in out.iter_mut().zip(vs) {
                *o += w * self.sample(u, v);
            }
            return;
        };
        let (row0, row1) = rows.split_at(nv);
        for (o, &v) in out.iter_mut().zip(vs) {
            let fv = v.floor();
            let d = v - fv;
            let iv = fv as isize;
            let fast = usize::try_from(iv)
                .ok()
                .and_then(|i| Some((row0.get(i..i + 2)?, row1.get(i..i + 2)?)));
            let (a0, a1, b0, b1) = match fast {
                Some((&[a0, a1], &[b0, b1])) => (a0, a1, b0, b1),
                _ => {
                    let s = |r: &[f32], x: isize| {
                        usize::try_from(x)
                            .ok()
                            .and_then(|i| r.get(i))
                            .copied()
                            .unwrap_or(0.0)
                    };
                    // +inf floors to isize::MAX: border, not overflow.
                    let iv1 = iv.saturating_add(1);
                    (s(row0, iv), s(row0, iv1), s(row1, iv), s(row1, iv1))
                }
            };
            let t1 = a0 * (1.0 - d) + a1 * d;
            let t2 = b0 * (1.0 - d) + b1 * d;
            *o += w * (t1 * (1.0 - du) + t2 * du);
        }
    }
}

/// Reusable per-column sweep state for [`ColumnBatch::accumulate_into`]:
/// the voxel accumulators (`up`, `down`), the per-lane detector-row
/// scratch and the depth ramp, allocated once per worker instead of
/// once per column.
#[derive(Debug, Clone)]
pub struct SweepBuffers {
    /// Accumulated batch contribution of the upper-slab voxels.
    pub up: Vec<f32>,
    /// Accumulated batch contribution of the Theorem-1 mirror voxels.
    pub down: Vec<f32>,
    vs: Vec<f32>,
    vs_m: Vec<f32>,
    /// `(k0 + k) as f32`, rewritten by every `accumulate_into` call and
    /// shared by the projections of its batch.
    kf: Vec<f32>,
}

impl SweepBuffers {
    /// Buffers for a depth sweep of `len` voxel pairs.
    pub fn new(len: usize) -> Self {
        Self {
            up: Self::column(len),
            down: Self::column(len),
            vs: Self::column(len),
            vs_m: Self::column(len),
            kf: Self::column(len),
        }
    }

    /// One zeroed sweep column.
    fn column(len: usize) -> Vec<f32> {
        // analyze: allow(alloc, reason = "constructor: sweep buffers are allocated once per worker/tile and reused across every column")
        vec![0.0; len]
    }

    /// Zero the accumulators for the next column.
    #[inline]
    pub fn reset(&mut self) {
        self.up.fill(0.0);
        self.down.fill(0.0);
    }
}

impl Sampler for ct_core::projection::BlockedProjection {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        ct_core::projection::BlockedProjection::sample(self, u, v)
    }
}

/// Per-column lane constants for one projection batch — the CPU image of
/// the warp registers of Listing 1, restructured into fixed-width
/// [`LANE_WIDTH`]-lane chunks.
///
/// [`ColumnBatch::compute`] evaluates, once per voxel column `(i, j)`,
/// the per-projection values `u`, `1/z`, `1/z^2` and the affine
/// coefficients of `y(k)` (Theorems 2-3 hoisting). The driver and the
/// reference loop then run `update_column`, whose depth sweep
/// ([`ColumnBatch::accumulate_into`]) hands each projection of the batch
/// to [`Sampler::accumulate_column`] with `u` already resolved.
/// [`ColumnBatch::accumulate`] is the per-voxel oracle of that sweep: 8
/// lanes per chunk in fixed `[f32; 8]` arrays, lanes past the batch width
/// carrying zero weight.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    u: [f32; WARP_BATCH],
    f: [f32; WARP_BATCH],
    w: [f32; WARP_BATCH],
    y0: [f32; WARP_BATCH],
    yk: [f32; WARP_BATCH],
    chunks: usize,
    width: usize,
}

impl ColumnBatch {
    /// Lane setup for the column `(i, j)` (Listing 1 lines 11-14):
    /// `rows` holds the matrix rows of the projections of this batch
    /// (at most [`WARP_BATCH`] of them).
    #[inline]
    pub fn compute(rows: &[[[f32; 4]; 3]], ifl: f32, jf: f32) -> Self {
        debug_assert!(
            (1..=WARP_BATCH).contains(&rows.len()),
            "batch must be in 1..=32"
        );
        let width = rows.len();
        let mut cb = ColumnBatch {
            u: [0.0; WARP_BATCH],
            f: [0.0; WARP_BATCH],
            w: [0.0; WARP_BATCH],
            y0: [0.0; WARP_BATCH],
            yk: [0.0; WARP_BATCH],
            chunks: width.div_ceil(LANE_WIDTH),
            width,
        };
        let lanes =
            cb.u.iter_mut()
                .zip(cb.f.iter_mut())
                .zip(cb.w.iter_mut())
                .zip(cb.y0.iter_mut().zip(cb.yk.iter_mut()));
        for ((((u, f_), w), (y0, yk)), mat) in lanes.zip(rows) {
            let [[xx, xy, _, xc], [yx, yy, ydz, yc], [zx, zy, _, zc]] = *mat;
            let x = xx * ifl + xy * jf + xc;
            let z = zx * ifl + zy * jf + zc;
            let f = 1.0 / z;
            *u = x * f;
            *f_ = f;
            *w = f * f;
            // y(k) is affine in k: y0 + k * dy (the "1 inner product" of
            // Algorithm 4 line 12, hoisted).
            *y0 = yx * ifl + yy * jf + yc;
            *yk = ydz;
        }
        cb
    }

    /// Accumulate the voxel at depth `kf` and its Theorem-1 mirror over
    /// the whole batch, returning `(sum, mirror_sum)`. `vmax` is
    /// `Nv - 1` as f32 (the mirrored detector row is `vmax - v`).
    ///
    /// `samplers` must be the projection samplers of this batch, in lane
    /// order. The reduction over lanes uses a fixed tree, so the result
    /// depends only on the batch content — not on thread count or batch
    /// chunking of the caller.
    #[inline]
    pub fn accumulate<S: Sampler>(&self, samplers: &[S], kf: f32, vmax: f32) -> (f32, f32) {
        debug_assert_eq!(samplers.len(), self.width, "one sampler per lane");
        let mut acc = [0.0f32; LANE_WIDTH];
        let mut acc_m = [0.0f32; LANE_WIDTH];
        let chunks = self
            .y0
            .chunks_exact(LANE_WIDTH)
            .zip(self.yk.chunks_exact(LANE_WIDTH))
            .zip(self.f.chunks_exact(LANE_WIDTH))
            .zip(self.u.chunks_exact(LANE_WIDTH))
            .zip(self.w.chunks_exact(LANE_WIDTH))
            .take(self.chunks);
        for (c, ((((y0c, ykc), fc), uc), wc)) in chunks.enumerate() {
            let base = c * LANE_WIDTH;
            // Detector-row arithmetic for 8 lanes at once — constant trip
            // count over fixed arrays, the auto-vectorization target.
            let mut v = [0.0f32; LANE_WIDTH];
            for (vl, ((&y0, &yk), &f)) in v.iter_mut().zip(y0c.iter().zip(ykc).zip(fc)) {
                *vl = (y0 + yk * kf) * f;
            }
            let lanes = v.iter().zip(uc).zip(wc).zip(acc.iter_mut().zip(&mut acc_m));
            for (l, (((&vl, &u), &w), (a, am))) in lanes.enumerate() {
                // Padded lanes clamp to the last real sampler; their
                // weight is exactly 0.0 so they contribute nothing.
                let Some(q) = samplers
                    .get((base + l).min(self.width - 1))
                    .or_else(|| samplers.last())
                else {
                    continue;
                };
                *a += w * q.sample(u, vl);
                *am += w * q.sample(u, vmax - vl);
            }
        }
        (tree8(&acc), tree8(&acc_m))
    }

    /// Sweep the whole depth range of the column at once: for step `k`
    /// (global depth `k0 + k`), add the batch contribution of the voxel
    /// to `buf.up[k]` and of its Theorem-1 mirror to `buf.down[k]`.
    ///
    /// The detector rows of a lane (`(y0 + yk*kf) * f` and its mirror) are
    /// evaluated with exactly the per-voxel path's expressions into the
    /// scratch arrays, then each lane becomes one
    /// [`Sampler::accumulate_column`] sweep with the `u` interpolation
    /// hoisted out of the depth loop — the dominant cost of the per-voxel
    /// path. Lanes accumulate in batch order, so results depend only on
    /// the batch content and `k0`, never on the calling driver's tiling
    /// or thread count.
    #[inline]
    pub fn accumulate_into<S: Sampler>(
        &self,
        samplers: &[S],
        k0: usize,
        vmax: f32,
        buf: &mut SweepBuffers,
    ) {
        debug_assert_eq!(samplers.len(), self.width, "one sampler per lane");
        // The integer-to-float depth conversion, once per column batch
        // instead of once per projection: the loop below is then a pure
        // f32 stream.
        for (k, kf) in buf.kf.iter_mut().enumerate() {
            *kf = (k0 + k) as f32;
        }
        let lanes = samplers
            .iter()
            .zip(self.f.iter().zip(&self.w).zip(&self.u))
            .zip(self.y0.iter().zip(&self.yk));
        for ((q, ((&f, &w), &u)), (&y0, &yk)) in lanes {
            let rows = buf.vs.iter_mut().zip(buf.vs_m.iter_mut()).zip(&buf.kf);
            for ((vs, vs_m), &kf) in rows {
                let vl = (y0 + yk * kf) * f;
                *vs = vl;
                *vs_m = vmax - vl;
            }
            q.accumulate_column(u, &buf.vs, w, &mut buf.up);
            q.accumulate_column(u, &buf.vs_m, w, &mut buf.down);
        }
    }

    /// The whole per-column update of one projection batch (Listing 1
    /// lines 11-30): lane setup for the column `(i, j)`, the depth sweep
    /// from global depth `k0`, then one volume update per voxel and per
    /// Theorem-1 mirror. `col` is the pair-local column — the upper slab
    /// followed by its mirror in ascending global order — and `buf` was
    /// built for `col.len() / 2` voxel pairs. The driver and the
    /// reference loop both run exactly this, which is what makes them
    /// bit-identical.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the column's coordinates, not options
    pub(crate) fn update_column<S: Sampler>(
        rows: &[[[f32; 4]; 3]],
        samplers: &[S],
        ifl: f32,
        jf: f32,
        k0: usize,
        vmax: f32,
        buf: &mut SweepBuffers,
        col: &mut [f32],
    ) {
        let cb = Self::compute(rows, ifl, jf);
        buf.reset();
        cb.accumulate_into(samplers, k0, vmax, buf);
        let (col_up, col_down) = col.split_at_mut(buf.up.len());
        for (dst, src) in col_up.iter_mut().zip(&buf.up) {
            *dst += *src;
        }
        for (dst, src) in col_down.iter_mut().rev().zip(&buf.down) {
            *dst += *src;
        }
    }
}

/// Fixed-shape pairwise reduction of 8 lanes (order never depends on
/// runtime state, keeping every kernel bit-deterministic).
#[inline]
fn tree8(a: &[f32; LANE_WIDTH]) -> f32 {
    let [a0, a1, a2, a3, a4, a5, a6, a7] = *a;
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
}

/// Full-volume batched kernel over any projection access path:
/// the reference loop [`backproject_pair_with`] on
/// [`crate::SlabPair::full`].
///
/// Output is k-major; `dims.nz` must be even.
pub fn backproject_warp_with<S: Sampler>(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    samplers: &[S],
    nv: usize,
    dims: Dims3,
    batch: usize,
) -> Volume {
    let Some(pair) = full_pair(dims) else {
        return Volume::zeros(dims, VolumeLayout::KMajor);
    };
    backproject_pair_with(pool, mats, samplers, nv, dims, pair, batch)
}

/// The paper's best configuration (`L1-Tran`): transposed projections,
/// k-major volume, 32-projection batches.
pub fn backproject_warp(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    projs: &ProjectionStack,
    dims: Dims3,
) -> Volume {
    let transposed: Vec<TransposedProjection> = projs.iter().map(|p| p.transposed()).collect();
    backproject_warp_with(pool, mats, &transposed, projs.dims().nv, dims, WARP_BATCH)
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
                    img.set(u, v, (((u * 5 + v * 11 + s) % 23) as f32) * 0.5 - 3.0);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn warp_matches_standard_at_paper_tolerance() {
        // More projections than one batch, and not a multiple of 32,
        // so the tail-batch path is exercised too.
        let (geo, mats, stack) = setup(40, 16);
        let reference = backproject_standard(&Pool::serial(), &mats, &stack, geo.volume);
        let warp = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume)
            .into_layout(VolumeLayout::IMajor);
        let ne = nrmse(reference.data(), warp.data()).unwrap();
        assert!(ne < 1e-5, "normalised RMSE {ne}");
    }

    #[test]
    fn batch_size_does_not_change_result_materially() {
        let (geo, mats, stack) = setup(33, 8);
        let full = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        for b in [1usize, 4, 32] {
            let v = backproject_warp_with(
                &Pool::serial(),
                &mats,
                &transposed,
                stack.dims().nv,
                geo.volume,
                b,
            );
            let ne = nrmse(full.data(), v.data()).unwrap();
            assert!(ne < 1e-6, "batch {b}: {ne}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let (geo, mats, stack) = setup(16, 8);
        let a = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        let b = backproject_warp(&Pool::new(3), &mats, &stack, geo.volume);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn different_samplers_agree() {
        let (geo, mats, stack) = setup(8, 8);
        let nv = stack.dims().nv;
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let blocked: Vec<_> = stack.iter().map(|p| p.blocked()).collect();
        let rowmajor: Vec<_> = stack.iter().cloned().collect();
        let a = backproject_warp_with(&Pool::serial(), &mats, &transposed, nv, geo.volume, 32);
        let b = backproject_warp_with(&Pool::serial(), &mats, &blocked, nv, geo.volume, 32);
        let c = backproject_warp_with(&Pool::serial(), &mats, &rowmajor, nv, geo.volume, 32);
        assert!(nrmse(a.data(), b.data()).unwrap() < 1e-6);
        assert!(nrmse(a.data(), c.data()).unwrap() < 1e-6);
    }

    #[test]
    fn transposed_fast_path_is_bit_identical_to_reference() {
        // Force the default (per-sample) accumulate_column through a
        // wrapper that only implements `sample`.
        struct Generic<'a>(&'a TransposedProjection);
        impl Sampler for Generic<'_> {
            fn sample(&self, u: f32, v: f32) -> f32 {
                self.0.sample(u, v)
            }
        }
        let (geo, _, stack) = setup(1, 8);
        let q = stack.iter().next().unwrap().transposed();
        let nv = geo.detector.nv;
        // Sweep several u positions including the borders, and v series
        // that run in and out of range in both directions.
        for ui in [-1.5f32, -0.2, 0.0, 3.3, 7.9, nv as f32 - 1.0, 40.0] {
            for (v0, dv) in [(-2.0f32, 0.7f32), (0.1, 1.3), (14.0, -0.9)] {
                let vs: Vec<f32> = (0..12).map(|k| v0 + k as f32 * dv).collect();
                let mut fast = vec![0.0f32; 12];
                let mut reference = vec![0.0f32; 12];
                q.accumulate_column(ui, &vs, 0.37, &mut fast);
                Generic(&q).accumulate_column(ui, &vs, 0.37, &mut reference);
                assert_eq!(fast, reference, "u = {ui}, v0 = {v0}, dv = {dv}");
            }
        }
    }

    #[test]
    fn sweep_agrees_with_per_voxel_accumulate() {
        // The depth sweep reorders the lane reduction (sequential instead
        // of tree8), so agreement is at floating-point tolerance.
        let (geo, mats, stack) = setup(32, 8);
        let rows: Vec<_> = mats.iter().map(|m| m.rows_f32()).collect();
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let vmax = geo.detector.nv as f32 - 1.0;
        let half = geo.volume.nz / 2;
        let cb = ColumnBatch::compute(&rows, 3.0, 5.0);
        let mut buf = SweepBuffers::new(half);
        cb.accumulate_into(&transposed, 0, vmax, &mut buf);
        for k in 0..half {
            let (sum, sum_m) = cb.accumulate(&transposed, k as f32, vmax);
            assert!((sum - buf.up[k]).abs() < 1e-4 * sum.abs().max(1.0), "k {k}");
            assert!(
                (sum_m - buf.down[k]).abs() < 1e-4 * sum_m.abs().max(1.0),
                "mirror k {k}"
            );
        }
    }

    #[test]
    fn reused_sweep_buffers_never_carry_a_stale_depth_ramp() {
        // pair.rs and the tiled sub-pairs keep one SweepBuffers per
        // worker and call in with whatever k0 their slab starts at.
        let (geo, mats, stack) = setup(5, 8);
        let rows: Vec<_> = mats.iter().map(|m| m.rows_f32()).collect();
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let vmax = geo.detector.nv as f32 - 1.0;
        let cb = ColumnBatch::compute(&rows, 2.0, 6.0);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut reused = SweepBuffers::new(3);
        for k0 in [0usize, 1, 0, 5, 2] {
            reused.reset();
            cb.accumulate_into(&transposed, k0, vmax, &mut reused);
            let mut fresh = SweepBuffers::new(3);
            cb.accumulate_into(&transposed, k0, vmax, &mut fresh);
            assert_eq!(bits(&reused.up), bits(&fresh.up), "up, k0 = {k0}");
            assert_eq!(bits(&reused.down), bits(&fresh.down), "down, k0 = {k0}");
        }
    }

    #[test]
    #[should_panic(expected = "batch must be in 1..=32")]
    fn oversized_batch_rejected() {
        let (geo, mats, stack) = setup(4, 8);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        backproject_warp_with(
            &Pool::serial(),
            &mats,
            &transposed,
            stack.dims().nv,
            geo.volume,
            64,
        );
    }
}
