//! Lane-array back-projection: the hot `accumulate_column` sweep
//! restructured around fixed-width `[f32; 8]` chunks.
//!
//! The warp kernel's transposed fast path (see
//! `<TransposedProjection as Sampler>::accumulate_column`) already
//! hoists the `u` interpolation out of the depth loop, but its
//! per-voxel body still runs `floor` (a libm call below SSE4.1), an
//! `isize` conversion, and an `Option`/slice-pattern bounds dance per
//! element — none of which the autovectorizer can lift into SIMD. This
//! module is the CPU performance-portability scheme of
//! "Performance Portable Back-projection Algorithms on CPUs"
//! (arXiv:2104.13248, same first author as iFDK): per-column
//! interpolation weights are resolved once per `(u, projection)` pair
//! ([`ct_core::interp::AxisWeight`]), and the depth sweep is processed
//! in [`LANE_WIDTH`]-wide chunks whose index, gather and blend loops
//! all have constant trip counts over fixed arrays.
//!
//! **What the shipped build makes of it** (default SSE2 release and
//! `-C target-cpu=x86-64-v3` alike): packed predicate, fraction and
//! blend, and one unconditional 8-byte load per lane and row. That
//! rests on three things: the chunk body holds no mode dispatch; the
//! gather index is clamped to `nv - 2` after both rows were checked to
//! be `nv` long, so every `.get()` fallback is dead code (the
//! predicate makes the clamp a no-op: same bits); and the depth ramp
//! `(k0 + k) as f32` is precomputed per column batch ([`crate::warp::SweepBuffers`]).
//! Check it in the **linked** binary (`objdump` recipe in the README):
//! `cargo rustc -- --emit asm` shows ThinLTO pre-link code, unpacked.
//!
//! **Bit-identity discipline.** Every per-element value is produced by
//! *exactly* the reference expressions: in-range lanes replace
//! `v.floor()` with an integer truncation that provably equals it for
//! `v >= 0` (plus a `+ 0.0` canonicalisation so `v = -0.0` yields the
//! same `+0.0` fraction the reference computes), and the blend is the
//! same `a*(1-d) + b*d` association. Scalar IEEE arithmetic in
//! identical order gives identical bits, so the lane kernel is
//! bit-identical to the warp kernel for any chunking, tiling, or
//! thread count — the equivalence suite asserts exactly that.

use crate::pair::{full_pair, SlabPair};
use crate::tiled::{backproject_pair_tiled_reporting, TileConfig, TileReport};
use crate::warp::{Sampler, LANE_WIDTH};
use ct_core::geometry::ProjectionMatrix;
use ct_core::interp::AxisWeight;
use ct_core::problem::Dims3;
use ct_core::projection::TransposedProjection;
use ct_core::volume::{Volume, VolumeLayout};
use ct_par::Pool;

/// Which column-sweep implementation the driver runs — the
/// kernel-generation selector layered on top of the Table 3
/// [`crate::KernelVariant`] axis (which picks *data layout*, not
/// implementation). The pipelines run the default; tests and the
/// `equivalence` bin pick the scalar oracle through
/// [`crate::BpConfig::kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelImpl {
    /// The original per-element kernels (`ct_bp::warp`), kept as the
    /// oracle the lane kernel is verified against.
    Scalar,
    /// The lane-array kernel of this module: bit-identical to
    /// [`KernelImpl::Scalar`] and faster, so it is the default.
    #[default]
    Lanes,
}

impl KernelImpl {
    /// Parse a kernel name: exactly `scalar` or `lanes`.
    pub fn parse(name: &str) -> Option<Self> {
        [KernelImpl::Scalar, KernelImpl::Lanes]
            .into_iter()
            .find(|kernel| kernel.name() == name)
    }

    /// Stable name for reports and bench cell keys.
    pub fn name(&self) -> &'static str {
        match self {
            KernelImpl::Scalar => "scalar",
            KernelImpl::Lanes => "lanes",
        }
    }
}

/// Blend one element exactly as the reference does.
#[inline]
fn blend(a0: f32, a1: f32, b0: f32, b1: f32, d: f32, du: f32, w: f32) -> f32 {
    let t1 = a0 * (1.0 - d) + a1 * d;
    let t2 = b0 * (1.0 - d) + b1 * d;
    w * (t1 * (1.0 - du) + t2 * du)
}

/// Per-column state of the `u` axis, resolved once per
/// `(u, projection)` pair instead of once per voxel: the `u` fraction
/// plus the two transposed detector rows it blends.
struct UColumn<'a> {
    row0: &'a [f32],
    row1: &'a [f32],
    du: f32,
}

impl<'a> UColumn<'a> {
    /// Resolve the column weights against a transposed projection.
    /// `None` when either `u` sample falls outside the detector — those
    /// columns take the reference zero-border path.
    #[inline]
    fn resolve(proj: &'a TransposedProjection, u: f32) -> Option<Self> {
        let dims = proj.dims();
        let (nu, nv) = (dims.nu, dims.nv);
        let uw = AxisWeight::resolve(u);
        if !uw.interior(nu) {
            return None;
        }
        let iu = usize::try_from(uw.i).ok()?;
        let rows = proj.data().get(iu * nv..(iu + 2) * nv)?;
        let (row0, row1) = rows.split_at(nv);
        Some(Self {
            row0,
            row1,
            du: uw.frac,
        })
    }

    /// Reference per-element v handling for lanes the fast predicate
    /// rejects: the exact expressions of the warp fast path's border
    /// branch (floor-based index, zero-border fetch).
    #[inline]
    fn border_element(&self, v: f32, w: f32, o: &mut f32) {
        let vw = AxisWeight::resolve(v);
        let s = |r: &[f32], x: isize| {
            usize::try_from(x)
                .ok()
                .and_then(|i| r.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        // +inf floors to isize::MAX: border, not overflow.
        let i1 = vw.i.saturating_add(1);
        let (a0, a1) = (s(self.row0, vw.i), s(self.row0, i1));
        let (b0, b1) = (s(self.row1, vw.i), s(self.row1, i1));
        *o += blend(a0, a1, b0, b1, vw.frac, self.du, w);
    }

    /// The last gather base `nv - 2` when both rows are `nv >= 2` long:
    /// checked once per sweep, it lets the compiler see every clamped
    /// gather in bounds. `None` for a one-row detector or unequal rows.
    #[inline]
    fn last_base(&self) -> Option<usize> {
        let last = self.row0.len().checked_sub(2)?;
        (self.row1.len() == self.row0.len()).then_some(last)
    }

    /// The depth sweep down this column: `out[k] += w * sample(u, vs[k])`
    /// in [`LANE_WIDTH`]-wide chunks of fixed-size array arithmetic.
    fn sweep(&self, vs: &[f32], w: f32, out: &mut [f32]) {
        let (row0, row1) = (self.row0, self.row1);
        let Some(last) = self.last_base() else {
            // No fast lane exists: the whole column is border.
            for (o, &v) in out.iter_mut().zip(vs) {
                self.border_element(v, w, o);
            }
            return;
        };
        // In-range predicate: `0 <= v < nv-1` makes `trunc(v)` equal
        // `floor(v)` and keeps both v samples inside the row; NaN fails
        // it. `-0.0` passes (trunc also gives 0 there); its fraction
        // sign is fixed by the `+ 0.0` below, as in `v - floor(v)`.
        let vhi = (last + 1) as f32;
        // Index + fraction of an in-range v: trunc, not floor. The
        // predicate already gives `i <= nv-2`; the clamp only makes that
        // provable, and the fallback of the checked fetch dead code.
        let split = |v: f32| {
            let t = v as i32;
            ((t as usize).min(last), (v - t as f32) + 0.0)
        };
        let fetch = |r: &[f32], i: usize| r.get(i).copied().unwrap_or(0.0);

        let mut chunks_v = vs.chunks_exact(LANE_WIDTH);
        let mut chunks_o = out.chunks_exact_mut(LANE_WIDTH);
        for (vc, oc) in (&mut chunks_v).zip(&mut chunks_o) {
            let mut in_range = true;
            for &v in vc {
                in_range &= (0.0..vhi).contains(&v);
            }
            if !in_range {
                for (o, &v) in oc.iter_mut().zip(vc) {
                    self.border_element(v, w, o);
                }
                continue;
            }
            let mut iv = [0usize; LANE_WIDTH];
            let mut d = [0.0f32; LANE_WIDTH];
            for ((i, dl), &v) in iv.iter_mut().zip(d.iter_mut()).zip(vc) {
                (*i, *dl) = split(v);
            }
            let mut a0 = [0.0f32; LANE_WIDTH];
            let mut a1 = [0.0f32; LANE_WIDTH];
            let mut b0 = [0.0f32; LANE_WIDTH];
            let mut b1 = [0.0f32; LANE_WIDTH];
            for ((((pa0, pa1), pb0), pb1), &i) in a0
                .iter_mut()
                .zip(a1.iter_mut())
                .zip(b0.iter_mut())
                .zip(b1.iter_mut())
                .zip(&iv)
            {
                *pa0 = fetch(row0, i);
                *pa1 = fetch(row0, i + 1);
                *pb0 = fetch(row1, i);
                *pb1 = fetch(row1, i + 1);
            }
            // Blend lanes: constant trip count over fixed arrays.
            for (o, ((((&la0, &la1), &lb0), &lb1), &ld)) in oc.iter_mut().zip(
                a0.iter()
                    .zip(a1.iter())
                    .zip(b0.iter())
                    .zip(b1.iter())
                    .zip(d.iter()),
            ) {
                *o += blend(la0, la1, lb0, lb1, ld, self.du, w);
            }
        }
        // Tail: same expressions, scalar.
        for (o, &v) in chunks_o
            .into_remainder()
            .iter_mut()
            .zip(chunks_v.remainder())
        {
            if (0.0..vhi).contains(&v) {
                let (i, d) = split(v);
                let (a0, a1) = (fetch(row0, i), fetch(row0, i + 1));
                let (b0, b1) = (fetch(row1, i), fetch(row1, i + 1));
                *o += blend(a0, a1, b0, b1, d, self.du, w);
            } else {
                self.border_element(v, w, o);
            }
        }
    }
}

/// A [`Sampler`] running the lane-array sweep over a transposed
/// projection. Borrowing wrapper, so the generic driver and reference
/// loop take the lane path with no signature changes.
#[derive(Debug, Clone, Copy)]
pub struct LaneSampler<'a> {
    proj: &'a TransposedProjection,
}

impl<'a> LaneSampler<'a> {
    /// Wrap one projection.
    #[inline]
    pub fn new(proj: &'a TransposedProjection) -> Self {
        Self { proj }
    }

    /// Wrap a whole batch of projections.
    pub fn wrap(projs: &'a [&TransposedProjection]) -> Vec<LaneSampler<'a>> {
        // analyze: allow(alloc, reason = "batch setup: one sampler table per projection batch, built before the per-column sweep starts")
        let mut out = Vec::with_capacity(projs.len());
        // analyze: allow(alloc, reason = "bounded: capacity reserved above at projs.len(); extend fills exactly that many slots")
        out.extend(projs.iter().map(|p| Self::new(p)));
        out
    }
}

impl Sampler for LaneSampler<'_> {
    #[inline]
    fn sample(&self, u: f32, v: f32) -> f32 {
        self.proj.sample(u, v)
    }

    /// `u` weights once per column, then the chunked depth sweep.
    /// Bit-identical to the warp fast path (and so to `interp2`).
    fn accumulate_column(&self, u: f32, vs: &[f32], w: f32, out: &mut [f32]) {
        match UColumn::resolve(self.proj, u) {
            Some(col) => col.sweep(vs, w, out),
            // u border: both axes need the zero-border blend — the
            // reference path, as in the warp kernel.
            None => {
                for (o, &v) in out.iter_mut().zip(vs) {
                    *o += w * self.sample(u, v);
                }
            }
        }
    }
}

/// Full-volume batched back-projection over transposed projections into
/// a fresh volume: [`backproject_pair_batch_reporting`] on
/// [`SlabPair::full`], reports dropped. `dims.nz` must be even.
#[allow(clippy::too_many_arguments)] // backproject_pair_batch_reporting less the pair and out
pub fn backproject_batch(
    pool: &Pool,
    kernel: KernelImpl,
    mats: &[ProjectionMatrix],
    projs: &[&TransposedProjection],
    nv: usize,
    dims: Dims3,
    batch: usize,
    tile: TileConfig,
) -> Volume {
    let mut out = Volume::zeros(dims, VolumeLayout::KMajor);
    if let Some(pair) = full_pair(dims) {
        backproject_pair_batch_reporting(
            pool, kernel, mats, projs, nv, dims, pair, batch, tile, &mut out,
        );
    }
    out
}

/// Slab-pair back-projection through the driver, added into `out` (the
/// k-major pair volume), with its tile reports for span attribution. Both
/// kernels share the driver — [`KernelImpl`] only picks the sampler the
/// column sweep runs — and are bit-identical.
#[allow(clippy::too_many_arguments)] // mirrors backproject_pair_tiled_reporting + kernel
pub fn backproject_pair_batch_reporting(
    pool: &Pool,
    kernel: KernelImpl,
    mats: &[ProjectionMatrix],
    projs: &[&TransposedProjection],
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    batch: usize,
    tile: TileConfig,
    out: &mut Volume,
) -> Vec<TileReport> {
    match kernel {
        KernelImpl::Scalar => {
            backproject_pair_tiled_reporting(pool, mats, projs, nv, dims, pair, batch, tile, out)
        }
        KernelImpl::Lanes => {
            let lanes = LaneSampler::wrap(projs);
            backproject_pair_tiled_reporting(pool, mats, &lanes, nv, dims, pair, batch, tile, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::backproject_pair_with;
    use crate::warp::{backproject_warp, backproject_warp_with, WARP_BATCH};
    use ct_core::geometry::CbctGeometry;
    use ct_core::problem::Dims2;
    use ct_core::projection::{ProjectionImage, ProjectionStack};

    fn image(dims: Dims2, s: usize) -> ProjectionImage {
        let mut img = ProjectionImage::zeros(dims);
        for v in 0..dims.nv {
            for u in 0..dims.nu {
                img.set(u, v, (((u * 7 + v * 5 + s * 3) % 29) as f32) * 0.5 - 7.0);
            }
        }
        img
    }

    fn setup(np: usize, n: usize) -> (CbctGeometry, Vec<ProjectionMatrix>, ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let mats = geo.projection_matrices();
        let mut stack = ProjectionStack::new(geo.detector);
        for s in 0..np {
            stack.push(image(geo.detector, s)).unwrap();
        }
        (geo, mats, stack)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// One lane sweep and one scalar-oracle sweep over the same `vs`,
    /// each into fresh zeroed output, compared bit for bit.
    fn assert_column_matches_oracle(q: &TransposedProjection, u: f32, vs: &[f32], what: &str) {
        let mut fast = vec![0.0f32; vs.len()];
        let mut reference = vec![0.0f32; vs.len()];
        LaneSampler::new(q).accumulate_column(u, vs, 0.37, &mut fast);
        q.accumulate_column(u, vs, 0.37, &mut reference);
        assert_eq!(
            bits(&fast),
            bits(&reference),
            "{what}: u = {u}, vs = {vs:?}"
        );
    }

    #[test]
    fn strict_lane_column_is_bit_identical_to_warp_fast_path() {
        let (geo, _, stack) = setup(1, 8);
        let q = stack.iter().next().unwrap().transposed();
        let nv = geo.detector.nv as f32;
        // u positions across interior and borders; v series crossing in
        // and out of range, lengths exercising chunk tails.
        for ui in [-1.5f32, -0.2, 0.0, 3.3, 7.9, nv - 1.0, 40.0] {
            for (v0, dv) in [(-2.0f32, 0.7f32), (0.1, 1.3), (14.0, -0.9), (-0.0, 0.0)] {
                for len in [1usize, 7, 8, 9, 16, 23] {
                    let vs: Vec<f32> = (0..len).map(|k| v0 + k as f32 * dv).collect();
                    assert_column_matches_oracle(&q, ui, &vs, "ramp");
                }
            }
        }
    }

    #[test]
    fn hostile_lanes_are_bit_identical_to_the_scalar_oracle() {
        let (geo, _, stack) = setup(1, 8);
        let q = stack.iter().next().unwrap().transposed();
        let edge = (geo.detector.nv - 1) as f32;
        let below_edge = f32::from_bits(edge.to_bits() - 1);
        let hostile = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            edge,
            below_edge,
            -f32::MIN_POSITIVE,
            i32::MAX as f32,
            1e30,
        ];
        for len in [7usize, 8, 9, 23] {
            // Every hostile value in every lane position of an
            // otherwise in-range column, then all of them at once.
            let clean: Vec<f32> = (0..len).map(|k| 0.25 + k as f32 * 0.6).collect();
            for &h in &hostile {
                for at in 0..len {
                    let mut vs = clean.clone();
                    vs[at] = h;
                    assert_column_matches_oracle(&q, 3.3, &vs, "one hostile lane");
                }
            }
            let vs: Vec<f32> = (0..len).map(|k| hostile[k % hostile.len()]).collect();
            assert_column_matches_oracle(&q, 3.3, &vs, "all hostile");
        }
    }

    #[test]
    fn short_detectors_take_the_reference_path_for_the_whole_column() {
        // nv = 1 has no interior v sample at all and nv = 2 exactly one
        // cell: whichever side of the once-per-sweep guard they land
        // on, every element must still be accumulated.
        for nv in [1usize, 2] {
            let q = image(Dims2::new(6, nv), 1).transposed();
            for len in [1usize, 8, 9, 23] {
                let vs: Vec<f32> = (0..len).map(|k| -0.75 + k as f32 * 0.25).collect();
                for u in [-0.5f32, 0.0, 2.4, 4.999, 5.0] {
                    assert_column_matches_oracle(&q, u, &vs, "short detector");
                }
                let mut out = vec![0.0f32; len];
                LaneSampler::new(&q).accumulate_column(2.4, &vs, 1.0, &mut out);
                assert!(out.iter().any(|&x| x != 0.0), "nv = {nv}: column dropped");
            }
        }
    }

    #[test]
    fn disagreeing_rows_fall_back_without_dropping_work() {
        // `UColumn::resolve` cannot produce this; the sweep's guard must
        // still answer it with the reference path, not an early return.
        let (row0, row1) = ([1.0f32, 2.0, 3.0, 4.0], [5.0f32, 6.0, 7.0]);
        let col = UColumn {
            row0: &row0,
            row1: &row1,
            du: 0.25,
        };
        assert!(col.last_base().is_none());
        let vs: Vec<f32> = (0..11).map(|k| -0.5 + k as f32 * 0.4).collect();
        let mut swept = vec![0.0f32; vs.len()];
        col.sweep(&vs, 0.37, &mut swept);
        let mut reference = vec![0.0f32; vs.len()];
        for (o, &v) in reference.iter_mut().zip(&vs) {
            col.border_element(v, 0.37, o);
        }
        assert_eq!(bits(&swept), bits(&reference));
        assert!(swept.iter().all(|&x| x != 0.0));
    }

    #[test]
    fn strict_full_volume_is_bit_identical_to_warp() {
        let (geo, mats, stack) = setup(40, 16);
        let reference = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let refs: Vec<&TransposedProjection> = transposed.iter().collect();
        let nv = stack.dims().nv;
        // A slab pair that starts away from k = 0: its depth ramp is
        // offset, and its slices must still be the full volume's.
        let pair = SlabPair::new(geo.volume.nz, 3, 4).unwrap();
        let assert_is_slab_of_reference = |slab: &Volume, what: &str| {
            for i in 0..geo.volume.nx {
                for j in 0..geo.volume.ny {
                    for local in 0..pair.local_nz() {
                        assert_eq!(
                            slab.get(i, j, local).to_bits(),
                            reference.get(i, j, pair.global_k(local)).to_bits(),
                            "{what}: ({i}, {j}, local {local})"
                        );
                    }
                }
            }
        };
        for threads in [1usize, 3] {
            let pool = Pool::new(threads);
            // The lane sampler through the untiled reference loop ...
            let samplers = LaneSampler::wrap(&refs);
            let v = backproject_warp_with(&pool, &mats, &samplers, nv, geo.volume, WARP_BATCH);
            assert_eq!(v.data(), reference.data(), "untiled x{threads}");
            let slab =
                backproject_pair_with(&pool, &mats, &samplers, nv, geo.volume, pair, WARP_BATCH);
            assert_is_slab_of_reference(&slab, &format!("untiled x{threads}"));
            // ... and through the driver the pipelines call.
            let v = backproject_batch(
                &pool,
                KernelImpl::Lanes,
                &mats,
                &refs,
                nv,
                geo.volume,
                WARP_BATCH,
                TileConfig::AUTO,
            );
            assert_eq!(v.data(), reference.data(), "driver x{threads}");
            let local = Dims3::new(geo.volume.nx, geo.volume.ny, pair.local_nz());
            let mut slab = Volume::zeros(local, VolumeLayout::KMajor);
            backproject_pair_batch_reporting(
                &pool,
                KernelImpl::Lanes,
                &mats,
                &refs,
                nv,
                geo.volume,
                pair,
                WARP_BATCH,
                TileConfig::AUTO,
                &mut slab,
            );
            assert_is_slab_of_reference(&slab, &format!("driver x{threads}"));
        }
    }

    #[test]
    fn kernel_impl_names_and_default() {
        assert_eq!(KernelImpl::default(), KernelImpl::Lanes);
        assert_eq!(KernelImpl::Scalar.name(), "scalar");
        assert_eq!(KernelImpl::Lanes.name(), "lanes");
    }

    #[test]
    fn kernel_impl_parses_exactly_its_two_names() {
        for kernel in [KernelImpl::Scalar, KernelImpl::Lanes] {
            assert_eq!(KernelImpl::parse(kernel.name()), Some(kernel));
        }
        for rejected in ["lanes-fma", "", "Lanes", "scalar ", "warp"] {
            assert_eq!(KernelImpl::parse(rejected), None, "{rejected:?}");
        }
    }

    #[test]
    fn pair_dispatch_matches_scalar_pair() {
        let (geo, mats, stack) = setup(9, 16);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let refs: Vec<&TransposedProjection> = transposed.iter().collect();
        let nv = stack.dims().nv;
        let pair = SlabPair::new(16, 2, 5).unwrap();
        let run = |pool: &Pool, kernel| {
            let (tile, local) = (TileConfig::AUTO, Dims3::new(16, 16, pair.local_nz()));
            let mut out = Volume::zeros(local, VolumeLayout::KMajor);
            backproject_pair_batch_reporting(
                pool, kernel, &mats, &refs, nv, geo.volume, pair, WARP_BATCH, tile, &mut out,
            );
            out
        };
        let scalar = run(&Pool::serial(), KernelImpl::Scalar);
        let lanes = run(&Pool::new(2), KernelImpl::Lanes);
        assert_eq!(lanes.data(), scalar.data());
    }
}
