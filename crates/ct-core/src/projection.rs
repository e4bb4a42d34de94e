//! Projection (X-ray image) containers and the three storage layouts the
//! paper's Table 3 kernel matrix exercises.
//!
//! * [`ProjectionImage`] — row-major (`v`-major): the natural layout coming
//!   off the detector, used by the standard kernel.
//! * [`TransposedProjection`] — `u`-major, the transpose of Algorithm 4
//!   line 3 (`Q~ <- Q^T`). The proposed kernels walk `v` in the inner loop,
//!   so the transpose makes those accesses contiguous ("L1" path).
//! * [`BlockedProjection`] — an 8x8-tiled layout emulating the 2D spatial
//!   locality of CUDA's texture cache ("Texture" path): 2D-neighbouring
//!   texels live in the same 256-byte tile regardless of direction.

use crate::error::{CtError, Result};
use crate::interp::interp2;
use crate::problem::Dims2;

/// A single 2D projection in row-major (`v`-major) order:
/// `idx = v * Nu + u`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionImage {
    dims: Dims2,
    data: Vec<f32>,
}

impl ProjectionImage {
    /// Allocate a zero projection.
    pub fn zeros(dims: Dims2) -> Self {
        Self {
            dims,
            data: vec![0.0; dims.len()],
        }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(dims: Dims2, data: Vec<f32>) -> Result<Self> {
        if data.len() != dims.len() {
            return Err(CtError::ShapeMismatch {
                expected: format!("{} pixels", dims.len()),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Self { dims, data })
    }

    /// Detector dimensions.
    #[inline]
    pub fn dims(&self) -> Dims2 {
        self.dims
    }

    /// Raw row-major pixels.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major pixels.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Pixel at column `u`, row `v`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> f32 {
        debug_assert!(u < self.dims.nu && v < self.dims.nv);
        self.data[v * self.dims.nu + u]
    }

    /// Set pixel at column `u`, row `v`.
    #[inline]
    pub fn set(&mut self, u: usize, v: usize, x: f32) {
        debug_assert!(u < self.dims.nu && v < self.dims.nv);
        self.data[v * self.dims.nu + u] = x;
    }

    /// Row `v` as a contiguous slice (the unit the ramp filter convolves).
    #[inline]
    pub fn row(&self, v: usize) -> &[f32] {
        let nu = self.dims.nu;
        &self.data[v * nu..(v + 1) * nu]
    }

    /// Mutable row `v`.
    #[inline]
    pub fn row_mut(&mut self, v: usize) -> &mut [f32] {
        let nu = self.dims.nu;
        &mut self.data[v * nu..(v + 1) * nu]
    }

    /// Bilinear sample at sub-pixel `(u, v)` (Algorithm 3).
    #[inline]
    pub fn sample(&self, u: f32, v: f32) -> f32 {
        interp2(&self.data, self.dims.nu, self.dims.nv, u, v)
    }

    /// Transpose into a [`TransposedProjection`] (Algorithm 4 line 3).
    pub fn transposed(&self) -> TransposedProjection {
        TransposedProjection::transpose(self.dims, &self.data)
    }

    /// Re-tile into a [`BlockedProjection`] ("texture" layout).
    pub fn blocked(&self) -> BlockedProjection {
        BlockedProjection::from_image(self)
    }
}

/// A projection stored `u`-major: `idx = u * Nv + v`.
///
/// `sample(v, u)` argument order follows the paper's Algorithm 4 line 14
/// (`interp2(Q~, v, u)`): the first coordinate varies fastest in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TransposedProjection {
    dims: Dims2, // dims of the ORIGINAL image (nu columns, nv rows)
    data: Vec<f32>,
}

impl TransposedProjection {
    /// The one transpose loop, over 32x32 tiles taken band by band: for
    /// each band of 32 source rows and each `u`, the tile column is
    /// written as one contiguous destination run (the inner loop is over
    /// `v`), while its reads touch one cache line in each of the band's
    /// 32 rows. The paper notes the transpose cost is a small fraction of
    /// the filtering stage (Section 3.2.3); the tiling is what keeps it
    /// that way.
    fn transpose(dims: Dims2, src: &[f32]) -> Self {
        const TILE: usize = 32;
        let (nu, nv) = (dims.nu, dims.nv);
        let mut data = vec![0.0f32; nu * nv];
        if data.is_empty() {
            return Self { dims, data };
        }
        for (t, rows) in src.chunks(TILE * nu).enumerate() {
            for (u, run) in data.chunks_exact_mut(nv).enumerate() {
                if let Some(run) = run.get_mut(t * TILE..) {
                    for (d, row) in run.iter_mut().zip(rows.chunks_exact(nu)) {
                        if let Some(&x) = row.get(u) {
                            *d = x;
                        }
                    }
                }
            }
        }
        Self { dims, data }
    }

    /// Dimensions of the original (untransposed) projection.
    #[inline]
    pub fn dims(&self) -> Dims2 {
        self.dims
    }

    /// Raw `u`-major pixels.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Pixel at original coordinates (column `u`, row `v`).
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> f32 {
        debug_assert!(u < self.dims.nu && v < self.dims.nv);
        self.data[u * self.dims.nv + v]
    }

    /// Bilinear sample at original sub-pixel coordinates `(u, v)`.
    ///
    /// Internally samples the transposed buffer at `(v, u)`, so the fast
    /// interpolation axis is the contiguous one.
    #[inline]
    pub fn sample(&self, u: f32, v: f32) -> f32 {
        // In the transposed buffer, "width" is nv (v is the fast axis).
        interp2(&self.data, self.dims.nv, self.dims.nu, v, u)
    }

    /// Reinterpret the transposed buffer as a row-major image with swapped
    /// dimensions (zero copy): pixel `(u, v)` of the original appears at
    /// `(v, u)` of the returned image. Used to build the blocked
    /// ("texture") layout of the *transposed* projection for the Tex-Tran
    /// kernel variant.
    pub fn as_swapped_image(&self) -> ProjectionImage {
        ProjectionImage {
            dims: self.dims.transposed(),
            data: self.data.clone(),
        }
    }

    /// Transpose back to a row-major [`ProjectionImage`]: the same loop,
    /// reading this buffer as a row-major image with swapped dimensions.
    pub fn untransposed(&self) -> ProjectionImage {
        ProjectionImage {
            dims: self.dims,
            data: Self::transpose(self.dims.transposed(), &self.data).data,
        }
    }
}

/// Tile side of the blocked ("texture-like") layout.
pub const TEXTURE_TILE: usize = 8;

/// A projection stored in 8x8 tiles, emulating the space-filling layout a
/// GPU texture unit uses so that 2D-local fetches hit the same cache line
/// in *both* directions.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedProjection {
    dims: Dims2,
    tiles_u: usize,
    tiles_v: usize,
    data: Vec<f32>,
}

impl BlockedProjection {
    /// Build from a row-major image.
    pub fn from_image(img: &ProjectionImage) -> Self {
        let dims = img.dims();
        let tiles_u = dims.nu.div_ceil(TEXTURE_TILE);
        let tiles_v = dims.nv.div_ceil(TEXTURE_TILE);
        let mut data = vec![0.0f32; tiles_u * tiles_v * TEXTURE_TILE * TEXTURE_TILE];
        for v in 0..dims.nv {
            for u in 0..dims.nu {
                let idx = Self::index_for(tiles_u, u, v);
                data[idx] = img.get(u, v);
            }
        }
        Self {
            dims,
            tiles_u,
            tiles_v,
            data,
        }
    }

    #[inline]
    fn index_for(tiles_u: usize, u: usize, v: usize) -> usize {
        let (tu, iu) = (u / TEXTURE_TILE, u % TEXTURE_TILE);
        let (tv, iv) = (v / TEXTURE_TILE, v % TEXTURE_TILE);
        ((tv * tiles_u + tu) * TEXTURE_TILE + iv) * TEXTURE_TILE + iu
    }

    /// Dimensions of the original projection.
    #[inline]
    pub fn dims(&self) -> Dims2 {
        self.dims
    }

    /// Texel fetch with border handling (zero outside).
    #[inline]
    pub fn fetch(&self, u: isize, v: isize) -> f32 {
        if u < 0 || v < 0 || u >= self.dims.nu as isize || v >= self.dims.nv as isize {
            return 0.0;
        }
        self.data
            .get(Self::index_for(self.tiles_u, u as usize, v as usize))
            .copied()
            .unwrap_or(0.0)
    }

    /// Bilinear sample at sub-pixel `(u, v)` — the texture-unit fetch of
    /// the paper's Listing 1 (`cudaFilterModeLinear` behaviour).
    #[inline]
    pub fn sample(&self, u: f32, v: f32) -> f32 {
        let nu = u.floor();
        let nv = v.floor();
        let du = u - nu;
        let dv = v - nv;
        let (nu, nv) = (nu as isize, nv as isize);
        let (nu1, nv1) = (nu.saturating_add(1), nv.saturating_add(1));
        let t1 = self.fetch(nu, nv) * (1.0 - du) + self.fetch(nu1, nv) * du;
        let t2 = self.fetch(nu, nv1) * (1.0 - du) + self.fetch(nu1, nv1) * du;
        t1 * (1.0 - dv) + t2 * dv
    }

    /// Nearest-neighbour fetch (`cudaFilterModePoint`), used by the RTK-32
    /// baseline variant.
    #[inline]
    pub fn sample_nearest(&self, u: f32, v: f32) -> f32 {
        self.fetch((u + 0.5).floor() as isize, (v + 0.5).floor() as isize)
    }
}

/// An ordered stack of projections sharing one detector shape — the input
/// `E` (raw) or `Q` (filtered) of the paper's algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionStack {
    dims: Dims2,
    images: Vec<ProjectionImage>,
}

impl ProjectionStack {
    /// Create an empty stack for projections of shape `dims`.
    pub fn new(dims: Dims2) -> Self {
        Self {
            dims,
            images: Vec::new(),
        }
    }

    /// Create a stack of `n` zero projections.
    pub fn zeros(dims: Dims2, n: usize) -> Self {
        Self {
            dims,
            images: (0..n).map(|_| ProjectionImage::zeros(dims)).collect(),
        }
    }

    /// Build from existing images; all must share `dims`.
    pub fn from_images(dims: Dims2, images: Vec<ProjectionImage>) -> Result<Self> {
        for img in &images {
            if img.dims() != dims {
                return Err(CtError::ShapeMismatch {
                    expected: format!("{}x{}", dims.nu, dims.nv),
                    actual: format!("{}x{}", img.dims().nu, img.dims().nv),
                });
            }
        }
        Ok(Self { dims, images })
    }

    /// Detector dimensions.
    #[inline]
    pub fn dims(&self) -> Dims2 {
        self.dims
    }

    /// Number of projections currently in the stack.
    #[inline]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when the stack holds no projections.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Append a projection.
    pub fn push(&mut self, img: ProjectionImage) -> Result<()> {
        if img.dims() != self.dims {
            return Err(CtError::ShapeMismatch {
                expected: format!("{}x{}", self.dims.nu, self.dims.nv),
                actual: format!("{}x{}", img.dims().nu, img.dims().nv),
            });
        }
        self.images.push(img);
        Ok(())
    }

    /// Projection `i`. Panics if `i` is out of range, matching `Vec`
    /// indexing semantics.
    #[inline]
    pub fn get(&self, i: usize) -> &ProjectionImage {
        // analyze: allow(panic, reason = "std-slice-style accessor: an out-of-range index is a caller bug and panics like Vec indexing")
        &self.images[i]
    }

    /// Mutable projection `i`. Panics if `i` is out of range, matching
    /// `Vec` indexing semantics.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut ProjectionImage {
        // analyze: allow(panic, reason = "std-slice-style accessor: an out-of-range index is a caller bug and panics like Vec indexing")
        &mut self.images[i]
    }

    /// Iterate over the projections.
    pub fn iter(&self) -> impl Iterator<Item = &ProjectionImage> {
        self.images.iter()
    }

    /// Mutable iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ProjectionImage> {
        self.images.iter_mut()
    }

    /// Consume into the image vector.
    pub fn into_images(self) -> Vec<ProjectionImage> {
        self.images
    }

    /// Flatten to one contiguous buffer (projection-major), the wire format
    /// used by the AllGather step.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len() * self.dims.len());
        for img in &self.images {
            out.extend_from_slice(img.data());
        }
        out
    }

    /// Rebuild from the wire format produced by [`Self::to_flat`].
    pub fn from_flat(dims: Dims2, flat: &[f32]) -> Result<Self> {
        let per = dims.len();
        if per == 0 || !flat.len().is_multiple_of(per) {
            return Err(CtError::ShapeMismatch {
                expected: format!("multiple of {per}"),
                actual: format!("{}", flat.len()),
            });
        }
        let images = flat
            .chunks_exact(per)
            .map(|c| ProjectionImage::from_vec(dims, c.to_vec()).expect("chunk is sized"))
            .collect();
        Ok(Self { dims, images })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_image(nu: usize, nv: usize) -> ProjectionImage {
        let mut img = ProjectionImage::zeros(Dims2::new(nu, nv));
        for v in 0..nv {
            for u in 0..nu {
                img.set(u, v, (v * nu + u) as f32);
            }
        }
        img
    }

    #[test]
    fn row_major_indexing() {
        let img = ramp_image(5, 3);
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(4, 0), 4.0);
        assert_eq!(img.get(0, 1), 5.0);
        assert_eq!(img.row(2), &[10.0, 11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn from_vec_validates() {
        assert!(ProjectionImage::from_vec(Dims2::new(2, 2), vec![0.0; 3]).is_err());
        assert!(ProjectionImage::from_vec(Dims2::new(2, 2), vec![0.0; 4]).is_ok());
    }

    #[test]
    fn transpose_round_trip() {
        // Use a non-square, non-tile-multiple shape to stress the tiling.
        let img = ramp_image(37, 53);
        let t = img.transposed();
        for v in 0..53 {
            for u in 0..37 {
                assert_eq!(t.get(u, v), img.get(u, v));
            }
        }
        let back = t.untransposed();
        assert_eq!(back, img);
    }

    #[test]
    fn transposed_matches_the_index_definition() {
        // Single pixels, single rows and columns, shapes off the 32-pixel
        // tile grid, and the benchmark's detector widths.
        for (nu, nv) in [(1, 1), (1, 33), (33, 1), (31, 65), (320, 320), (512, 512)] {
            let img = ramp_image(nu, nv);
            let t = img.transposed();
            assert_eq!(t.dims(), img.dims());
            for u in 0..nu {
                for v in 0..nv {
                    assert_eq!(
                        t.data()[u * nv + v],
                        img.data()[v * nu + u],
                        "{nu}x{nv} ({u},{v})"
                    );
                }
            }
            assert_eq!(t.untransposed(), img);
        }
        let empty = ProjectionImage::zeros(Dims2::new(0, 4)).transposed();
        assert!(empty.data().is_empty());
    }

    #[test]
    fn blocked_sampling_at_huge_and_non_finite_coordinates_does_not_overflow() {
        let b = ramp_image(4, 4).blocked();
        for (u, v) in [(f32::MAX, 1.0), (1.0, f32::MAX), (f32::INFINITY, f32::NAN)] {
            let got = b.sample(u, v);
            assert!(got == 0.0 || got.is_nan(), "({u}, {v}) -> {got}");
        }
    }

    #[test]
    fn transposed_sampling_matches_row_major() {
        let img = ramp_image(16, 12);
        let t = img.transposed();
        for &(u, v) in &[(0.5f32, 0.5f32), (3.25, 7.75), (15.0, 11.0), (0.0, 0.0)] {
            let a = img.sample(u, v);
            let b = t.sample(u, v);
            assert!((a - b).abs() < 1e-5, "({u},{v}): {a} vs {b}");
        }
    }

    #[test]
    fn blocked_round_trip_and_sampling() {
        let img = ramp_image(19, 11); // not a tile multiple
        let b = img.blocked();
        for v in 0..11 {
            for u in 0..19 {
                assert_eq!(b.fetch(u as isize, v as isize), img.get(u, v));
            }
        }
        assert_eq!(b.fetch(-1, 0), 0.0);
        assert_eq!(b.fetch(0, 100), 0.0);
        for &(u, v) in &[(0.5f32, 0.5f32), (10.3, 7.9), (18.0, 10.0)] {
            let a = img.sample(u, v);
            let c = b.sample(u, v);
            assert!((a - c).abs() < 1e-5, "({u},{v}): {a} vs {c}");
        }
    }

    #[test]
    fn blocked_nearest_matches_reference() {
        let img = ramp_image(9, 9);
        let b = img.blocked();
        assert_eq!(b.sample_nearest(3.4, 2.6), img.get(3, 3));
        assert_eq!(b.sample_nearest(3.6, 2.4), img.get(4, 2));
    }

    #[test]
    fn stack_push_and_shape_check() {
        let dims = Dims2::new(4, 4);
        let mut s = ProjectionStack::new(dims);
        assert!(s.is_empty());
        s.push(ProjectionImage::zeros(dims)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.push(ProjectionImage::zeros(Dims2::new(3, 3))).is_err());
    }

    #[test]
    fn stack_flat_round_trip() {
        let dims = Dims2::new(3, 2);
        let imgs = vec![ramp_image(3, 2), ramp_image(3, 2)];
        let s = ProjectionStack::from_images(dims, imgs).unwrap();
        let flat = s.to_flat();
        assert_eq!(flat.len(), 12);
        let s2 = ProjectionStack::from_flat(dims, &flat).unwrap();
        assert_eq!(s, s2);
        assert!(ProjectionStack::from_flat(dims, &flat[..7]).is_err());
    }

    #[test]
    fn from_images_rejects_mixed_shapes() {
        let dims = Dims2::new(3, 2);
        let imgs = vec![ramp_image(3, 2), ramp_image(2, 3)];
        assert!(ProjectionStack::from_images(dims, imgs).is_err());
    }
}
