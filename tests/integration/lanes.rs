//! Property tests for the lane-array back-projection sampler
//! (`ct_bp::lanes`): the per-column weight precomputation must agree
//! with scalar bilinear sampling for arbitrary coordinates including
//! the border clamps. (The sampler through the driver, against the
//! untiled reference loop, is `tiled_bp.rs`.)

use ct_bp::lanes::LaneSampler;
use ct_bp::warp::Sampler;
use ct_core::interp::{interp2, AxisWeight};
use ct_core::problem::Dims2;
use ct_core::projection::ProjectionImage;
use proptest::prelude::*;

/// Deterministic pseudo-random pixel fill (splitmix-style) so proptest
/// only has to shrink a seed, not a pixel vector.
fn filled_image(dims: Dims2, seed: u64) -> ProjectionImage {
    let mut img = ProjectionImage::zeros(dims);
    let mut state = seed | 1;
    for v in 0..dims.nv {
        for u in 0..dims.nu {
            state = state
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            // Signed values in [-8, 8) with quarter-step granularity.
            let q = (state >> 40) as i64 % 64 - 32;
            img.set(u, v, q as f32 * 0.25);
        }
    }
    img
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The composition the lane kernel uses: `u` and `v` weights resolved
/// once via [`AxisWeight`], rows fetched with the zero border, blended
/// in [`interp2`]'s association.
fn axis_weight_sample(img: &[f32], w: usize, h: usize, u: f32, v: f32) -> f32 {
    let uw = AxisWeight::resolve(u);
    let vw = AxisWeight::resolve(v);
    let t = |y: isize| -> f32 {
        match usize::try_from(y).ok().filter(|&y| y < h) {
            Some(y) => uw.blend_bordered(&img[y * w..(y + 1) * w]),
            None => uw.blend(0.0, 0.0),
        }
    };
    vw.blend(t(vw.i), t(vw.i + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Precomputed per-axis weights compose to exactly Algorithm 3:
    /// bit-identical to `interp2` for any coordinate, in or out of
    /// range.
    #[test]
    fn axis_weight_composition_is_bit_identical_to_interp2(
        w in 2usize..10,
        h in 2usize..10,
        seed in any::<u64>(),
        u in -3.0f32..12.0,
        v in -3.0f32..12.0,
    ) {
        let img = filled_image(Dims2::new(w, h), seed);
        let got = axis_weight_sample(img.data(), w, h, u, v);
        let want = interp2(img.data(), w, h, u, v);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "({u}, {v})");
    }

    /// The lane-array column sweep agrees bitwise with the naive
    /// per-element `w * sample(u, v)` loop — the scalar bilinear oracle
    /// — for arbitrary `u`, arbitrary `v` series (crossing in and out
    /// of the detector), and lengths that exercise both the 8-wide
    /// chunks and the scalar tail.
    #[test]
    fn lane_column_is_bit_identical_to_scalar_sample_loop(
        nu in 3usize..12,
        nv in 3usize..12,
        seed in any::<u64>(),
        u in -2.0f32..14.0,
        v0 in -2.0f32..14.0,
        dv in -1.5f32..1.5,
        len in 1usize..40,
    ) {
        let q = filled_image(Dims2::new(nu, nv), seed).transposed();
        let lane = LaneSampler::new(&q);
        let vs: Vec<f32> = (0..len).map(|k| v0 + k as f32 * dv).collect();
        let weight = 0.37f32;
        let mut got = vec![0.0f32; len];
        lane.accumulate_column(u, &vs, weight, &mut got);
        let mut want = vec![0.0f32; len];
        for (o, &v) in want.iter_mut().zip(&vs) {
            *o += weight * q.sample(u, v);
        }
        prop_assert_eq!(bits(&got), bits(&want), "u = {u}, len = {len}");
    }
}

/// The border clamps proptest's uniform floats almost never hit:
/// exact lattice points, the last interior column, both signed zeros,
/// and coordinates exactly on / just past each edge.
#[test]
fn lane_column_matches_scalar_on_edge_clamps() {
    let dims = Dims2::new(7, 9);
    let q = filled_image(dims, 0xC0FFEE).transposed();
    let lane = LaneSampler::new(&q);
    let edge = |n: usize| {
        vec![
            -1.5f32,
            -1.0,
            -0.5,
            -0.0,
            0.0,
            0.5,
            1.0,
            (n - 2) as f32,
            (n - 1) as f32 - 0.5,
            (n - 1) as f32,
            n as f32,
            n as f32 + 0.5,
        ]
    };
    for &u in &edge(dims.nu) {
        let vs = edge(dims.nv);
        let mut got = vec![0.0f32; vs.len()];
        lane.accumulate_column(u, &vs, 1.25, &mut got);
        let mut want = vec![0.0f32; vs.len()];
        for (o, &v) in want.iter_mut().zip(&vs) {
            *o += 1.25 * q.sample(u, v);
        }
        assert_eq!(bits(&got), bits(&want), "u = {u}");
    }
}
