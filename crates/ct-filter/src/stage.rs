//! The filtering stage driver (paper Algorithm 1) — cosine weighting plus
//! per-row ramp convolution, parallelised over projections.

use crate::cosine::CosineTable;
use crate::parker::ParkerWeights;
use crate::ramp::{ramp_kernel, RampKind};
use ct_core::geometry::CbctGeometry;
use ct_core::projection::{ProjectionImage, ProjectionStack};
use ct_fft::conv::RowConvolver;
use ct_par::Pool;

/// Configuration of the filtering stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterConfig {
    /// Ramp window (Section 2.2.2: shape affects quality, not cost).
    pub ramp: RampKind,
    /// Half-width of the spatial ramp kernel in taps; `None` uses the full
    /// `Nu` taps (exact band-limited filter for the detector width).
    pub kernel_half_width: Option<usize>,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            ramp: RampKind::RamLak,
            kernel_half_width: None,
        }
    }
}

/// A ready-to-run filtering stage: the cosine table, the ramp kernel's
/// spectrum, and the FFT plan, all built once per geometry.
#[derive(Debug, Clone)]
pub struct Filterer {
    cosine: CosineTable,
    parker: Option<ParkerWeights>,
    convolver: RowConvolver,
    nu: usize,
    nv: usize,
    /// Physical tap spacing used (virtual-detector pitch).
    tau: f64,
}

impl Filterer {
    /// Build the stage for a geometry. For short-scan geometries the
    /// Parker redundancy weights are built in and applied between the
    /// cosine weighting and the ramp convolution (pre-weighting order) by
    /// [`Filterer::filter_indexed`].
    pub fn new(geo: &CbctGeometry, cfg: FilterConfig) -> Self {
        let nu = geo.detector.nu;
        let nv = geo.detector.nv;
        let tau = geo.virtual_pitch_u();
        let half = cfg.kernel_half_width.unwrap_or(nu);
        let mut kernel = ramp_kernel(cfg.ramp, half, tau);
        // Fold the Riemann-sum factor `tau` of the convolution integral
        // into the kernel so the per-row work is a pure convolution.
        for k in &mut kernel {
            *k *= tau;
        }
        let parker = if geo.is_full_scan() {
            None
        } else {
            Some(ParkerWeights::new(geo).expect("validated short-scan geometry"))
        };
        Self {
            cosine: CosineTable::new(geo),
            parker,
            convolver: RowConvolver::new(nu, &kernel),
            nu,
            nv,
            tau,
        }
    }

    /// True when this filterer carries short-scan Parker weights.
    pub fn is_short_scan(&self) -> bool {
        self.parker.is_some()
    }

    /// Detector tap spacing (virtual-detector pitch) in use.
    #[inline]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Filter a single projection in place (Algorithm 1 body for one
    /// `i`), without short-scan weighting — use
    /// [`Filterer::filter_indexed`] on short-scan geometries.
    pub fn filter_in_place(&self, img: &mut ProjectionImage) {
        self.filter_in_place_indexed(None, img);
    }

    fn filter_in_place_indexed(&self, index: Option<usize>, img: &mut ProjectionImage) {
        assert_eq!(img.dims().nu, self.nu, "detector width mismatch");
        assert_eq!(img.dims().nv, self.nv, "detector height mismatch");
        // Line 2: point-wise cosine weighting.
        self.cosine.apply(img.data_mut());
        // Short-scan redundancy weighting belongs BEFORE the ramp: it
        // modulates the measured data, not the filtered result.
        if let Some(p) = &self.parker {
            let i = index.expect("short-scan filtering needs the projection index");
            p.apply(i, img);
        }
        // Lines 3-5: ramp-convolve every row — adjacent rows in pairs
        // through one complex FFT (the two-for-one trick; exact because
        // the kernel is real).
        let mut scratch = self.convolver.make_scratch();
        let mut v = 0;
        while v + 1 < self.nv {
            let (top, bottom) = img.data_mut().split_at_mut((v + 1) * self.nu);
            let row_a = &mut top[v * self.nu..];
            let row_b = &mut bottom[..self.nu];
            self.convolver
                .convolve_row_pair_f32(row_a, row_b, &mut scratch);
            v += 2;
        }
        if v < self.nv {
            self.convolver
                .convolve_row_f32(img.row_mut(v), &mut scratch);
        }
    }

    /// Filter one projection, returning the filtered copy `Q_i`
    /// (full-scan path; panics on short-scan filterers, which need the
    /// index).
    pub fn filter(&self, img: &ProjectionImage) -> ProjectionImage {
        assert!(
            self.parker.is_none(),
            "short-scan geometry: use filter_indexed(i, img)"
        );
        let mut out = img.clone();
        self.filter_in_place(&mut out);
        out
    }

    /// Filter projection `i` (applies Parker weights on short scans).
    pub fn filter_indexed(&self, i: usize, img: &ProjectionImage) -> ProjectionImage {
        let mut out = img.clone();
        self.filter_in_place_indexed(Some(i), &mut out);
        out
    }

    /// Filter an entire stack in parallel, one projection per task — the
    /// per-rank CPU workload of iFDK's Filtering thread (Section 4.1.3).
    pub fn filter_stack(&self, pool: &Pool, stack: &ProjectionStack) -> ProjectionStack {
        let n = stack.len();
        let images: Vec<ProjectionImage> = pool
            .parallel_map(n, 1, |i| Some(self.filter_indexed(i, stack.get(i))))
            .into_iter()
            .map(|img| img.expect("every index produced an image"))
            .collect();
        ProjectionStack::from_images(stack.dims(), images).expect("filtered images preserve shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::problem::{Dims2, Dims3};

    fn geo() -> CbctGeometry {
        CbctGeometry::standard(Dims2::new(64, 32), 8, Dims3::cube(32))
    }

    fn impulse_image(g: &CbctGeometry) -> ProjectionImage {
        let mut img = ProjectionImage::zeros(g.detector);
        img.set(32, 16, 1.0);
        img
    }

    #[test]
    fn filter_preserves_shape() {
        let g = geo();
        let f = Filterer::new(&g, FilterConfig::default());
        let q = f.filter(&impulse_image(&g));
        assert_eq!(q.dims(), g.detector);
    }

    #[test]
    fn impulse_response_matches_kernel_shape() {
        // Filtering an impulse reproduces the (cosine-weighted, tau-scaled)
        // ramp kernel along the row through the impulse.
        let g = geo();
        let f = Filterer::new(&g, FilterConfig::default());
        let q = f.filter(&impulse_image(&g));
        let tau = g.virtual_pitch_u();
        let w = CosineTable::new(&g).get(32, 16);
        // Centre tap: w * tau * 1/(4 tau^2) = w / (4 tau).
        let expect_center = w as f64 * tau * (1.0 / (4.0 * tau * tau));
        assert!(
            (q.get(32, 16) as f64 - expect_center).abs() < 1e-3 * expect_center.abs(),
            "{} vs {}",
            q.get(32, 16),
            expect_center
        );
        // Immediate neighbours are negative (ramp side lobes).
        assert!(q.get(31, 16) < 0.0);
        assert!(q.get(33, 16) < 0.0);
        // Rows away from the impulse stay zero (row-separable filter).
        for u in 0..64 {
            assert_eq!(q.get(u, 10), 0.0);
        }
    }

    #[test]
    fn constant_rows_are_suppressed() {
        // The ramp filter strongly suppresses DC: a constant projection
        // filters to (near) zero away from the row ends.
        let g = geo();
        let f = Filterer::new(&g, FilterConfig::default());
        let mut img = ProjectionImage::zeros(g.detector);
        img.data_mut().iter_mut().for_each(|p| *p = 1.0);
        let q = f.filter(&img);
        let tau = g.virtual_pitch_u();
        let peak = 1.0 / (4.0 * tau); // scale of the filtered impulse
                                      // Interior samples must be tiny relative to the impulse peak.
        let mid = q.get(32, 16).abs() as f64;
        assert!(mid < 0.02 * peak, "mid {mid} vs peak {peak}");
    }

    #[test]
    fn parallel_matches_serial() {
        let g = geo();
        let f = Filterer::new(&g, FilterConfig::default());
        let mut stack = ProjectionStack::new(g.detector);
        for i in 0..6 {
            let mut img = ProjectionImage::zeros(g.detector);
            for v in 0..32 {
                for u in 0..64 {
                    img.set(u, v, ((u * 7 + v * 3 + i) % 13) as f32);
                }
            }
            stack.push(img).unwrap();
        }
        let serial = f.filter_stack(&Pool::serial(), &stack);
        let parallel = f.filter_stack(&Pool::new(4), &stack);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn window_choice_changes_output() {
        let g = geo();
        let ramlak = Filterer::new(&g, FilterConfig::default());
        let hann = Filterer::new(
            &g,
            FilterConfig {
                ramp: RampKind::Hann,
                kernel_half_width: None,
            },
        );
        let img = impulse_image(&g);
        let a = ramlak.filter(&img);
        let b = hann.filter(&img);
        // Hann softens the peak.
        assert!(b.get(32, 16) < a.get(32, 16));
    }

    #[test]
    fn truncated_kernel_approximates_full() {
        let g = geo();
        let full = Filterer::new(&g, FilterConfig::default());
        let trunc = Filterer::new(
            &g,
            FilterConfig {
                ramp: RampKind::RamLak,
                kernel_half_width: Some(32),
            },
        );
        let img = impulse_image(&g);
        let a = full.filter(&img);
        let b = trunc.filter(&img);
        // Near the impulse the truncation is invisible.
        for u in 28..37 {
            let x = a.get(u, 16);
            let y = b.get(u, 16);
            assert!(
                (x - y).abs() <= 1e-4 * x.abs().max(1.0),
                "u={u}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn full_width_ramp_transforms_are_two_rows_long() {
        // The benchmark's detector widths: 2*nu points, rounded up to a
        // power of two, hold the kept window of the 2*nu+1-tap ramp.
        for (nu, fft_len) in [(512, 1024), (256, 512), (320, 1024)] {
            let kernel = ramp_kernel(RampKind::RamLak, nu, 0.75);
            assert_eq!(RowConvolver::new(nu, &kernel).fft_len(), fft_len, "nu={nu}");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_shape() {
        let g = geo();
        let f = Filterer::new(&g, FilterConfig::default());
        let mut img = ProjectionImage::zeros(Dims2::new(32, 32));
        f.filter_in_place(&mut img);
    }
}
