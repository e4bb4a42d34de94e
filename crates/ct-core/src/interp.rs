//! Bilinear sub-pixel interpolation — the paper's Algorithm 3 (`interp2`).
//!
//! Most FDK implementations (RTK, RabbitCT, OSCaR) fetch the filtered
//! projection value at a non-integer detector coordinate through bilinear
//! interpolation; GPUs often get it "for free" from the texture unit. Our
//! CPU kernels call the functions here. Two access paths are provided to
//! mirror the paper's Table 3 kernel matrix:
//!
//! * a direct path over a row-major slice (the "L1 cache" path), and
//! * a path over an arbitrary stride (used by transposed projections).
//!
//! Out-of-bounds samples are clamped-to-zero, matching the
//! `cudaAddressModeBorder` behaviour RTK configures for its textures.

/// Bilinear interpolation of `img` (row-major, `width` columns x `height`
/// rows) at the sub-pixel coordinate `(u, v)` where `u` indexes columns and
/// `v` rows. Samples outside the image contribute zero.
///
/// This is the paper's Algorithm 3 verbatim, with border handling made
/// explicit.
#[inline]
pub fn interp2(img: &[f32], width: usize, height: usize, u: f32, v: f32) -> f32 {
    interp2_strided(img, width, height, width, u, v)
}

/// Bilinear interpolation with an explicit row stride (`row_stride >=
/// width`), enabling sampling of sub-views and transposed buffers without
/// copying.
#[inline]
pub fn interp2_strided(
    img: &[f32],
    width: usize,
    height: usize,
    row_stride: usize,
    u: f32,
    v: f32,
) -> f32 {
    debug_assert!(row_stride >= width);
    // Algorithm 3 line 2: integer parts. `floor` rather than `int` cast so
    // coordinates in (-1, 0) interpolate against the border correctly.
    let nu = u.floor();
    let nv = v.floor();
    // Algorithm 3 line 3: distances to the left sample.
    let du = u - nu;
    let dv = v - nv;
    let nu = nu as isize;
    let nv = nv as isize;
    // Saturating: a coordinate at or past 2^63 (or +inf) casts to
    // `isize::MAX`, and its right neighbour must land on the zero border,
    // not overflow.
    let (nu1, nv1) = (nu.saturating_add(1), nv.saturating_add(1));

    let sample = |x: isize, y: isize| -> f32 {
        if x < 0 || y < 0 || x >= width as isize || y >= height as isize {
            0.0
        } else {
            img.get(y as usize * row_stride + x as usize)
                .copied()
                .unwrap_or(0.0)
        }
    };

    // Algorithm 3 lines 4-6.
    let t1 = sample(nu, nv) * (1.0 - du) + sample(nu1, nv) * du;
    let t2 = sample(nu, nv1) * (1.0 - du) + sample(nu1, nv1) * du;
    t1 * (1.0 - dv) + t2 * dv
}

/// Precomputed bilinear interpolation weight for **one axis** of one
/// sub-pixel coordinate: the left sample index and the fractional blend
/// weight toward the right sample.
///
/// The batched kernels resolve the slow axis (`u`) once per *column
/// sweep* — once per `(u, projection)` pair instead of once per voxel —
/// which is the weight-precomputation scheme of the performance-portable
/// CPU back-projection literature (arXiv:2104.13248 §4). The arithmetic
/// (`floor`, subtract, `as isize`) is exactly what [`interp2`] performs
/// inline, so paths built on `AxisWeight` stay bit-identical to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisWeight {
    /// Index of the left (floor) sample; may be out of range.
    pub i: isize,
    /// Fractional distance past the left sample, in `[0, 1)`.
    pub frac: f32,
}

impl AxisWeight {
    /// Resolve the weight for coordinate `x` (the per-axis half of
    /// Algorithm 3 lines 2-3).
    #[inline]
    pub fn resolve(x: f32) -> Self {
        let fx = x.floor();
        Self {
            i: fx as isize,
            frac: x - fx,
        }
    }

    /// True when both samples (`i` and `i + 1`) lie inside an axis of
    /// length `n` — i.e. no zero-border blending is needed on this axis.
    #[inline]
    pub fn interior(&self, n: usize) -> bool {
        self.i >= 0 && self.i.saturating_add(1) < n as isize
    }

    /// Blend the two already-fetched axis samples exactly as [`interp2`]
    /// does: `a * (1 - frac) + b * frac`.
    #[inline]
    pub fn blend(&self, a: f32, b: f32) -> f32 {
        a * (1.0 - self.frac) + b * self.frac
    }

    /// Fetch-and-blend against a zero border: samples outside `[0, len)`
    /// of `row` contribute `0.0`, matching [`interp2`]'s
    /// `cudaAddressModeBorder` behaviour.
    #[inline]
    pub fn blend_bordered(&self, row: &[f32]) -> f32 {
        let s = |x: isize| {
            usize::try_from(x)
                .ok()
                .and_then(|i| row.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        self.blend(s(self.i), s(self.i.saturating_add(1)))
    }
}

/// Nearest-neighbour fetch, the `cudaFilterModePoint` configuration the
/// paper uses for the 32-bit RTK texture kernel (Section 5.2).
#[inline]
pub fn fetch_nearest(img: &[f32], width: usize, height: usize, u: f32, v: f32) -> f32 {
    let x = (u + 0.5).floor() as isize;
    let y = (v + 0.5).floor() as isize;
    if x < 0 || y < 0 || x >= width as isize || y >= height as isize {
        0.0
    } else {
        img[y as usize * width + x as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img2x2() -> Vec<f32> {
        // row 0: 1 2
        // row 1: 3 4
        vec![1.0, 2.0, 3.0, 4.0]
    }

    #[test]
    fn exact_on_lattice_points() {
        let img = img2x2();
        assert_eq!(interp2(&img, 2, 2, 0.0, 0.0), 1.0);
        assert_eq!(interp2(&img, 2, 2, 1.0, 0.0), 2.0);
        assert_eq!(interp2(&img, 2, 2, 0.0, 1.0), 3.0);
        assert_eq!(interp2(&img, 2, 2, 1.0, 1.0), 4.0);
    }

    #[test]
    fn midpoint_is_average() {
        let img = img2x2();
        assert!((interp2(&img, 2, 2, 0.5, 0.5) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn separable_weights() {
        let img = img2x2();
        // 0.25 along u at v=0: 1*(0.75) + 2*(0.25) = 1.25
        assert!((interp2(&img, 2, 2, 0.25, 0.0) - 1.25).abs() < 1e-6);
        // 0.25 along v at u=0: 1*(0.75) + 3*(0.25) = 1.5
        assert!((interp2(&img, 2, 2, 0.0, 0.25) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn outside_is_zero() {
        let img = img2x2();
        assert_eq!(interp2(&img, 2, 2, -2.0, 0.0), 0.0);
        assert_eq!(interp2(&img, 2, 2, 0.0, 5.0), 0.0);
        assert_eq!(interp2(&img, 2, 2, 100.0, 100.0), 0.0);
    }

    #[test]
    fn border_fades_to_zero() {
        let img = img2x2();
        // Half a pixel outside the left edge blends with the zero border.
        let v = interp2(&img, 2, 2, -0.5, 0.0);
        assert!((v - 0.5).abs() < 1e-6);
        // Half a pixel below the bottom edge.
        let v = interp2(&img, 2, 2, 0.0, 1.5);
        assert!((v - 1.5).abs() < 1e-6);
    }

    #[test]
    fn strided_matches_contiguous() {
        // Embed the 2x2 image in a 4-wide buffer.
        let mut buf = vec![0.0f32; 8];
        buf[0] = 1.0;
        buf[1] = 2.0;
        buf[4] = 3.0;
        buf[5] = 4.0;
        let img = img2x2();
        for &(u, v) in &[(0.3f32, 0.7f32), (0.9, 0.1), (0.5, 0.5)] {
            let a = interp2(&img, 2, 2, u, v);
            let b = interp2_strided(&buf, 2, 2, 4, u, v);
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn nearest_rounds_to_closest() {
        let img = img2x2();
        assert_eq!(fetch_nearest(&img, 2, 2, 0.4, 0.4), 1.0);
        assert_eq!(fetch_nearest(&img, 2, 2, 0.6, 0.4), 2.0);
        assert_eq!(fetch_nearest(&img, 2, 2, 0.4, 0.6), 3.0);
        assert_eq!(fetch_nearest(&img, 2, 2, -1.0, 0.0), 0.0);
    }

    #[test]
    fn huge_and_non_finite_coordinates_read_the_zero_border() {
        // `+inf` and `f32::MAX` floor to `isize::MAX` once cast, NaN to 0:
        // the right neighbour must not overflow. A finite coordinate past
        // the image reads 0; an infinite or NaN one has a NaN weight, so
        // its blend is NaN.
        let img = img2x2();
        let odd = [f32::INFINITY, f32::MAX, f32::NAN];
        let pairs = odd
            .iter()
            .flat_map(|&a| [(a, 0.5), (0.5, a), (a, a)])
            .chain([(f32::MAX, f32::NAN), (f32::NAN, f32::INFINITY)]);
        for (u, v) in pairs {
            let got = interp2_strided(&img, 2, 2, 2, u, v);
            if u.is_finite() && v.is_finite() {
                assert_eq!(got, 0.0, "({u}, {v})");
            } else {
                assert!(got.is_nan(), "({u}, {v}) -> {got}");
            }
        }
        for x in odd {
            // NaN resolves to index 0, which is interior.
            let w = AxisWeight::resolve(x);
            assert_eq!(w.interior(2), x.is_nan(), "{x}");
            let got = w.blend_bordered(&[1.0, 2.0]);
            assert!(got == 0.0 || got.is_nan(), "{x} -> {got}");
        }
    }

    #[test]
    fn interpolation_is_convex_combination() {
        let img = img2x2();
        for ui in 0..10 {
            for vi in 0..10 {
                let u = ui as f32 * 0.1;
                let v = vi as f32 * 0.1;
                let x = interp2(&img, 2, 2, u, v);
                assert!((1.0..=4.0).contains(&x), "({u},{v}) -> {x}");
            }
        }
    }
}
