//! Convolution through the frequency domain (the paper's Section 2.2.3).
//!
//! The ramp filtering of Algorithm 1 convolves each detector row with a
//! fixed 1-D kernel. We provide:
//!
//! * [`convolve_direct`] — the O(N*M) time-domain oracle,
//! * [`convolve_fft`] — full linear convolution via zero-padded FFT,
//! * [`convolve_same_fft`] — the "same-size centre" slice used by the
//!   filtering stage, and a [`RowConvolver`] that amortises the kernel
//!   spectrum and plan across the thousands of rows in a projection stack.

use crate::complex::Complex;
use crate::plan::{FftPlan, ScrambledPlan};

/// Direct (time-domain) linear convolution: output length `a + b - 1`.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Linear convolution via zero-padded FFT: output length `a + b - 1`.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let m = out_len.next_power_of_two();
    let plan = FftPlan::new(m);
    let mut fa = vec![Complex::ZERO; m];
    for (i, &x) in a.iter().enumerate() {
        fa[i] = Complex::from_real(x);
    }
    let mut fb = vec![Complex::ZERO; m];
    for (i, &x) in b.iter().enumerate() {
        fb[i] = Complex::from_real(x);
    }
    plan.forward(&mut fa);
    plan.forward(&mut fb);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    plan.inverse(&mut fa);
    fa.truncate(out_len);
    fa.into_iter().map(|c| c.re).collect()
}

/// "Same" convolution: the centre `a.len()` samples of the linear
/// convolution, aligned so that a symmetric kernel centred at index
/// `b.len()/2` leaves a delta unchanged.
pub fn convolve_same_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    let full = convolve_fft(a, b);
    let offset = b.len() / 2;
    full[offset..offset + a.len()].to_vec()
}

/// A reusable convolver: FFT plan + kernel spectrum computed once, then
/// applied to many equal-length rows. This is the exact usage pattern of
/// the filtering stage (one ramp kernel, `Nv * Np` rows).
#[derive(Debug, Clone)]
pub struct RowConvolver {
    row_len: usize,
    /// Kernel centre `K / 2`: where the kept window starts.
    offset: usize,
    plan: ScrambledPlan,
    /// Spectrum of the kernel folded modulo the FFT length, times `1/M`,
    /// in the bit-reversed order `ScrambledPlan::forward` leaves.
    kernel_spectrum: Vec<Complex>,
}

impl RowConvolver {
    /// Prepare for convolving rows of length `row_len` (`N`) with
    /// `kernel` (`K` taps, centre `c = K / 2`).
    ///
    /// A row's "same" output is the window `[c, c + N)` of the linear
    /// convolution. The FFT length is
    /// `M = max(N + c, N + K - 1 - c).next_power_of_two()`, and the kernel
    /// is folded into it modulo `M` (tap `i` adds to bin `i % M`), so the
    /// transform computes the linear convolution wrapped modulo `M`. That
    /// wrap lands only on outputs outside the kept window: `c + N <= M`
    /// keeps the window inside the buffer, and `N + K - 1 - c <= M` puts
    /// every output past `M` below `c` once wrapped. The second bound
    /// never exceeds the first (`K - 1 - c <= c`), so
    /// `M = (N + c).next_power_of_two()`; for the full-width ramp
    /// (`K = 2N + 1`) that is `2N` rounded up, where the unfolded linear
    /// convolution would need `3N`.
    ///
    /// The kernel spectrum is multiplied by `1/M` here, once; `M` is a
    /// power of two, so that product is exact and the per-row inverse
    /// transform runs unscaled with the same result as a scaled one.
    ///
    /// Rows and kernel go through the scrambled-order pair
    /// (`ScrambledPlan`): both spectra come out in the same
    /// bit-reversed order, their pointwise product is taken there, and
    /// the inverse returns natural order, so no permutation pass runs.
    /// When `2N <= M` (the full-width ramp) the row's upper half is zero
    /// and the forward's first stage never reads it, so only `[N, M/2)`
    /// is zeroed per row.
    pub fn new(row_len: usize, kernel: &[f64]) -> Self {
        assert!(row_len > 0, "row length must be nonzero");
        assert!(!kernel.is_empty(), "kernel must be nonempty");
        let offset = kernel.len() / 2;
        let m = (row_len + offset).next_power_of_two();
        let plan = ScrambledPlan::new(m);
        let mut spec = vec![Complex::ZERO; m];
        for (i, &x) in kernel.iter().enumerate() {
            spec[i % m].re += x;
        }
        plan.forward(&mut spec);
        let s = 1.0 / m as f64;
        for c in spec.iter_mut() {
            *c = c.scale(s);
        }
        Self {
            row_len,
            offset,
            plan,
            kernel_spectrum: spec,
        }
    }

    /// Length of rows this convolver accepts.
    #[inline]
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// FFT size in use (diagnostics).
    #[inline]
    pub fn fft_len(&self) -> usize {
        self.plan.len()
    }

    /// Convolve one `f32` row in "same" mode, writing the result back into
    /// `row`. `scratch` must have length [`Self::fft_len`]; it is supplied
    /// by the caller so per-row processing allocates nothing.
    pub fn convolve_row_f32(&self, row: &mut [f32], scratch: &mut [Complex]) {
        assert_eq!(row.len(), self.row_len, "row length mismatch");
        let window = self.convolve(scratch, |head| {
            for (c, &x) in head.iter_mut().zip(row.iter()) {
                *c = Complex::from_real(x as f64);
            }
        });
        for (r, c) in row.iter_mut().zip(window) {
            *r = c.re as f32;
        }
    }

    /// Convolve two rows with ONE complex FFT (the two-for-one trick):
    /// with a real kernel the whole transform chain is C-linear, so
    /// `conv(a + i*b) = conv(a) + i*conv(b)` exactly — the filtering
    /// stage pairs adjacent detector rows to halve its FFT count.
    pub fn convolve_row_pair_f32(
        &self,
        row_a: &mut [f32],
        row_b: &mut [f32],
        scratch: &mut [Complex],
    ) {
        assert_eq!(row_a.len(), self.row_len, "row length mismatch");
        assert_eq!(row_b.len(), self.row_len, "row length mismatch");
        let window = self.convolve(scratch, |head| {
            for ((c, &a), &b) in head.iter_mut().zip(row_a.iter()).zip(row_b.iter()) {
                *c = Complex::new(a as f64, b as f64);
            }
        });
        for ((a, b), c) in row_a.iter_mut().zip(row_b.iter_mut()).zip(window) {
            *a = c.re as f32;
            *b = c.im as f32;
        }
    }

    /// The per-row transform chain: `load` fills the first `row_len`
    /// entries of `scratch`, the tail is zeroed (only up to `M/2` when
    /// the forward can skip the upper half), and the returned slice is
    /// the kept "same" window of the circular convolution.
    fn convolve<'s>(
        &self,
        scratch: &'s mut [Complex],
        load: impl FnOnce(&mut [Complex]),
    ) -> &'s [Complex] {
        let m = self.plan.len();
        assert_eq!(scratch.len(), m, "scratch length mismatch");
        let (head, tail) = scratch.split_at_mut(self.row_len);
        load(head);
        if 2 * self.row_len <= m {
            tail[..m / 2 - self.row_len].fill(Complex::ZERO);
            self.plan.forward_lower_half(scratch);
        } else {
            tail.fill(Complex::ZERO);
            self.plan.forward(scratch);
        }
        for (x, &y) in scratch.iter_mut().zip(self.kernel_spectrum.iter()) {
            *x *= y;
        }
        self.plan.inverse(scratch);
        &scratch[self.offset..self.offset + self.row_len]
    }

    /// Allocate a scratch buffer of the right size for
    /// [`Self::convolve_row_f32`].
    pub fn make_scratch(&self) -> Vec<Complex> {
        vec![Complex::ZERO; self.plan.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn direct_known_example() {
        // [1,2,3] * [1,1] = [1,3,5,3]
        let c = convolve_direct(&[1.0, 2.0, 3.0], &[1.0, 1.0]);
        assert_close(&c, &[1.0, 3.0, 5.0, 3.0], 1e-12);
    }

    #[test]
    fn fft_matches_direct() {
        let a: Vec<f64> = (0..57).map(|i| (i as f64 * 0.4).sin()).collect();
        let b: Vec<f64> = (0..13).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_close(&convolve_fft(&a, &b), &convolve_direct(&a, &b), 1e-9);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = vec![1.0, -2.0, 0.5, 3.0];
        let b = vec![0.25, 4.0, -1.0];
        assert_close(&convolve_fft(&a, &b), &convolve_fft(&b, &a), 1e-10);
    }

    #[test]
    fn empty_inputs() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
    }

    #[test]
    fn same_mode_identity_kernel() {
        // Odd-length delta kernel centred at len/2 must be the identity.
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut delta = vec![0.0; 7];
        delta[3] = 1.0;
        assert_close(&convolve_same_fft(&a, &delta), &a, 1e-9);
    }

    #[test]
    fn same_mode_shift_kernel() {
        // A delta shifted one right of centre delays the signal by one.
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut k = vec![0.0; 5];
        k[3] = 1.0; // centre is index 2
        let c = convolve_same_fft(&a, &k);
        assert_close(&c, &[0.0, 1.0, 2.0, 3.0, 4.0], 1e-9);
    }

    #[test]
    fn row_convolver_matches_same_mode() {
        let kernel: Vec<f64> = (0..9)
            .map(|i| ((i as f64) - 4.0).abs() * -0.1 + 0.5)
            .collect();
        let conv = RowConvolver::new(33, &kernel);
        let row_f64: Vec<f64> = (0..33).map(|i| (i as f64 * 0.77).cos()).collect();
        let want = convolve_same_fft(&row_f64, &kernel);
        let mut row: Vec<f32> = row_f64.iter().map(|&x| x as f32).collect();
        let mut scratch = conv.make_scratch();
        conv.convolve_row_f32(&mut row, &mut scratch);
        for (i, (&got, &w)) in row.iter().zip(want.iter()).enumerate() {
            assert!((got as f64 - w).abs() < 1e-4, "index {i}: {got} vs {w}");
        }
    }

    #[test]
    fn row_convolver_is_reusable() {
        let conv = RowConvolver::new(16, &[0.0, 1.0, 0.0]);
        let mut scratch = conv.make_scratch();
        for trial in 0..3 {
            let mut row: Vec<f32> = (0..16).map(|i| (i * (trial + 1)) as f32).collect();
            let orig = row.clone();
            conv.convolve_row_f32(&mut row, &mut scratch);
            for (a, b) in row.iter().zip(orig.iter()) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn row_pair_matches_single_rows() {
        let kernel: Vec<f64> = (0..15).map(|i| ((i as f64) - 7.0) * 0.1).collect();
        let conv = RowConvolver::new(40, &kernel);
        let mut scratch = conv.make_scratch();
        let base_a: Vec<f32> = (0..40).map(|i| (i as f32 * 0.3).sin()).collect();
        let base_b: Vec<f32> = (0..40).map(|i| (i as f32 * 0.9).cos() * 2.0).collect();

        let mut single_a = base_a.clone();
        let mut single_b = base_b.clone();
        conv.convolve_row_f32(&mut single_a, &mut scratch);
        conv.convolve_row_f32(&mut single_b, &mut scratch);

        let mut pair_a = base_a;
        let mut pair_b = base_b;
        conv.convolve_row_pair_f32(&mut pair_a, &mut pair_b, &mut scratch);
        for i in 0..40 {
            assert!((single_a[i] - pair_a[i]).abs() < 1e-4, "a[{i}]");
            assert!((single_b[i] - pair_b[i]).abs() < 1e-4, "b[{i}]");
        }
    }

    const ROW_LENS: [usize; 10] = [1, 2, 3, 7, 33, 64, 255, 256, 320, 512];

    /// Kernel lengths per row length: even lengths put the centre
    /// off-centre, and the longer ones exceed the FFT length (folded).
    fn kernel_lens(n: usize) -> [usize; 7] {
        [1, 2, 3, 2 * (n / 8) + 1, 2 * n - 1, 2 * n + 1, 2 * n + 9]
    }

    /// A `k`-tap kernel with no zero tap, so any wrap shows.
    fn dense_kernel(k: usize) -> Vec<f64> {
        (0..k)
            .map(|i| ((i * 7919) % 97) as f64 / 50.0 - 0.97)
            .collect()
    }

    /// Impulses at both ends, alternating +-1e3, a constant and a ramp.
    fn adversarial_rows(n: usize) -> Vec<Vec<f32>> {
        let mut first = vec![0.0; n];
        first[0] = 1.0;
        let mut last = vec![0.0; n];
        last[n - 1] = 1.0;
        let alternating = (0..n)
            .map(|i| if i % 2 == 0 { 1e3 } else { -1e3 })
            .collect();
        vec![
            first,
            last,
            alternating,
            vec![0.75; n],
            (0..n).map(|i| i as f32).collect(),
        ]
    }

    /// The "same" window of the direct convolution and the tolerance
    /// `1e-5 * sum|k| * max|x|` a convolver output must meet against it.
    fn direct_window(row: &[f32], k: &[f64]) -> (Vec<f64>, f64) {
        let x: Vec<f64> = row.iter().map(|&v| v as f64).collect();
        let c = k.len() / 2;
        let window = convolve_direct(&x, k)[c..c + row.len()].to_vec();
        let k_abs: f64 = k.iter().map(|v| v.abs()).sum();
        let x_max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        (window, 1e-5 * k_abs * x_max)
    }

    #[test]
    fn row_convolver_keeps_the_direct_window_at_the_minimal_length() {
        for n in ROW_LENS {
            for k in kernel_lens(n) {
                let kernel = dense_kernel(k);
                let conv = RowConvolver::new(n, &kernel);
                let c = k / 2;
                let rule = (n + c).max(n + k - 1 - c).next_power_of_two();
                assert_eq!(conv.fft_len(), rule, "N={n} K={k}");
                let rows = adversarial_rows(n);
                let mut scratch = conv.make_scratch();
                for (r, row) in rows.iter().enumerate() {
                    let (want, tol) = direct_window(row, &kernel);
                    let mut single = row.clone();
                    conv.convolve_row_f32(&mut single, &mut scratch);
                    // Pair each row with the next, so both lanes see
                    // every adversarial row.
                    let mut pair_a = row.clone();
                    let mut pair_b = rows[(r + 1) % rows.len()].clone();
                    let (want_b, tol_b) = direct_window(&pair_b, &kernel);
                    // One transform carries both rows, so its rounding
                    // scales with the larger of the two.
                    let tol_pair = tol.max(tol_b);
                    conv.convolve_row_pair_f32(&mut pair_a, &mut pair_b, &mut scratch);
                    for i in 0..n {
                        for (got, w, t) in [
                            (single[i], want[i], tol),
                            (pair_a[i], want[i], tol_pair),
                            (pair_b[i], want_b[i], tol_pair),
                        ] {
                            assert!(
                                (got as f64 - w).abs() <= t,
                                "N={n} K={k} row {r} index {i}: {got} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn half_the_length_aliases_an_edge_impulse() {
        // Negative control: the same fold-and-convolve at M/2 points wraps
        // part of the linear convolution into the kept window, so the bound
        // is tight.
        for n in ROW_LENS {
            for k in kernel_lens(n) {
                let kernel = dense_kernel(k);
                let m = RowConvolver::new(n, &kernel).fft_len() / 2;
                if m == 0 {
                    continue;
                }
                let plan = FftPlan::new(m);
                let c = k / 2;
                let aliased = adversarial_rows(n)[..2].iter().any(|row| {
                    let mut x = vec![Complex::ZERO; m];
                    for (i, &v) in row.iter().enumerate() {
                        x[i % m].re += v as f64;
                    }
                    let mut h = vec![Complex::ZERO; m];
                    for (i, &v) in kernel.iter().enumerate() {
                        h[i % m].re += v;
                    }
                    plan.forward(&mut x);
                    plan.forward(&mut h);
                    for (a, &b) in x.iter_mut().zip(h.iter()) {
                        *a *= b;
                    }
                    plan.inverse(&mut x);
                    let (want, tol) = direct_window(row, &kernel);
                    (0..n).any(|i| (x[(c + i) % m].re - want[i]).abs() > tol)
                });
                assert!(aliased, "N={n} K={k}: no alias at {m} points");
            }
        }
    }

    #[test]
    fn pair_is_within_one_ulp_of_the_old_length_rule() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The full-width Ram-Lak ramp for 512-wide rows: 1025 taps, now
        // 1024 points where the old rule `(N + K - 1).next_power_of_two()`
        // with an unfolded kernel used 2048.
        let n = 512;
        let kernel: Vec<f64> = (-(n as i64)..=n as i64)
            .map(|t| match t {
                0 => 0.25,
                t if t % 2 == 0 => 0.0,
                t => -1.0 / (std::f64::consts::PI * std::f64::consts::PI * (t * t) as f64),
            })
            .collect();
        let conv = RowConvolver::new(n, &kernel);
        assert_eq!(conv.fft_len(), 1024);
        let old = FftPlan::new(2048);
        let mut old_spec = vec![Complex::ZERO; 2048];
        for (s, &v) in old_spec.iter_mut().zip(kernel.iter()) {
            *s = Complex::from_real(v);
        }
        old.forward(&mut old_spec);

        // Ordered-integer image of an f32, so ulp distance is a difference.
        let ordered = |x: f32| {
            let b = x.to_bits() as i32 as i64;
            if b < 0 {
                i32::MIN as i64 - b
            } else {
                b
            }
        };
        let mut rng = StdRng::seed_from_u64(26);
        let mut scratch = conv.make_scratch();
        for _ in 0..16 {
            let mut a: Vec<f32> = (0..n).map(|_| 100.0 * rng.gen::<f32>() - 50.0).collect();
            let mut b: Vec<f32> = (0..n).map(|_| 100.0 * rng.gen::<f32>() - 50.0).collect();
            let mut buf: Vec<Complex> = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| Complex::new(x as f64, y as f64))
                .chain(std::iter::repeat(Complex::ZERO))
                .take(2048)
                .collect();
            old.forward(&mut buf);
            for (x, &y) in buf.iter_mut().zip(old_spec.iter()) {
                *x *= y;
            }
            old.inverse(&mut buf);
            conv.convolve_row_pair_f32(&mut a, &mut b, &mut scratch);
            for (i, w) in buf[n..2 * n].iter().enumerate() {
                for (got, want) in [(a[i], w.re as f32), (b[i], w.im as f32)] {
                    assert!(
                        (ordered(got) - ordered(want)).abs() <= 1,
                        "index {i}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_convolver_keeps_the_window_at_the_smallest_lengths_on_both_paths() {
        // (N, K) -> M = (N + K/2).next_power_of_two(); the forward skips
        // the upper half exactly when 2N <= M.
        for (n, k, m, pruned) in [
            (1, 1, 1, false),
            (1, 3, 2, true),
            (2, 1, 2, false),
            (2, 3, 4, true),
            (1, 5, 4, true),
            (3, 1, 4, false),
            (3, 3, 4, false),
        ] {
            let kernel = dense_kernel(k);
            let conv = RowConvolver::new(n, &kernel);
            assert_eq!(conv.fft_len(), m, "N={n} K={k}");
            assert_eq!(2 * n <= m, pruned, "N={n} K={k}");
            let mut scratch = conv.make_scratch();
            for row in adversarial_rows(n) {
                let (want, tol) = direct_window(&row, &kernel);
                let mut single = row.clone();
                conv.convolve_row_f32(&mut single, &mut scratch);
                let mut pair_a = row.clone();
                let mut pair_b: Vec<f32> = row.iter().map(|x| -0.5 * x).collect();
                conv.convolve_row_pair_f32(&mut pair_a, &mut pair_b, &mut scratch);
                for i in 0..n {
                    for (got, w) in [
                        (single[i], want[i]),
                        (pair_a[i], want[i]),
                        (pair_b[i], -0.5 * want[i]),
                    ] {
                        assert!(
                            (got as f64 - w).abs() <= tol,
                            "N={n} K={k} index {i}: {got} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn row_pair_rejects_bad_rows() {
        let conv = RowConvolver::new(8, &[1.0]);
        let mut scratch = conv.make_scratch();
        conv.convolve_row_pair_f32(&mut [0.0; 8], &mut [0.0; 4], &mut scratch);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn row_convolver_rejects_bad_row() {
        let conv = RowConvolver::new(8, &[1.0]);
        let mut scratch = conv.make_scratch();
        conv.convolve_row_f32(&mut [0.0; 4], &mut scratch);
    }
}
