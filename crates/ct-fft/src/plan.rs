//! FFT plans: radix-2 for power-of-two lengths, Bluestein for the rest.

use crate::complex::Complex;

/// A reusable power-of-two FFT plan (precomputed twiddles and bit-reversal
/// permutation), mirroring how IPP/cuFFT amortise setup cost across the
/// thousands of rows the filtering stage transforms.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    // Twiddles for the forward transform, one per butterfly span level,
    // flattened: level with span s contributes s entries.
    twiddles: Vec<Complex>,
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Build a plan for length `n`, which must be a power of two.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FftPlan requires a power of two, got {n}"
        );
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        let mut bitrev = vec![0u32; n];
        for (i, r) in bitrev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        // Twiddles: for span s in {1, 2, 4, ..., n/2}, store w_s^j = exp(-i*pi*j/s).
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut span = 1;
        while span < n {
            for j in 0..span {
                let ang = -std::f64::consts::PI * j as f64 / span as f64;
                twiddles.push(Complex::from_polar(1.0, ang));
            }
            span *= 2;
        }
        Self {
            n,
            twiddles,
            bitrev,
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan (never constructed; a plan is
    /// always at least length 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward FFT (no normalisation).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.transform::<false>(data);
    }

    /// In-place inverse FFT, scaled by `1/N` so `inverse(forward(x)) == x`.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.transform::<true>(data);
        let s = 1.0 / self.n as f64;
        for c in data.iter_mut() {
            *c = c.scale(s);
        }
    }

    /// The twiddles `exp(-i*pi*j/span)`, `j < span`, of the level with
    /// butterfly span `span` (levels are stored back to back, so the one
    /// with span `s` starts at `1 + 2 + ... + s/2 = s - 1`).
    fn level(&self, span: usize) -> &[Complex] {
        &self.twiddles[span - 1..2 * span - 1]
    }

    /// Bit-reversal permutation, then the radix-2 decimation-in-time
    /// butterflies, two levels (spans `s` and `2s`) per sweep over each
    /// `4s` block and one plain level last when `log2 N` is odd. Every
    /// butterfly, twiddle and per-butterfly operation order is that of
    /// the level-by-level loop, so the result is the same.
    ///
    /// `INVERSE` conjugates the twiddles as it applies them. Since
    /// `conj(a*b) = conj(a)*conj(b)` holds in floating point up to the
    /// sign of an exact zero, this equals `conj(forward(conj(x)))` in
    /// value without the two conjugation passes.
    fn transform<const INVERSE: bool>(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        let n = self.n;
        if n <= 1 {
            return;
        }
        for (i, &r) in self.bitrev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut span = 1;
        while 4 * span <= n {
            let inner = self.level(span);
            let (outer_lo, outer_hi) = self.level(2 * span).split_at(span);
            for block in data.chunks_exact_mut(4 * span) {
                let (q0, rest) = block.split_at_mut(span);
                let (q1, rest) = rest.split_at_mut(span);
                let (q2, q3) = rest.split_at_mut(span);
                let quarters = q0.iter_mut().zip(q1).zip(q2).zip(q3);
                let twiddles = inner.iter().zip(outer_lo).zip(outer_hi);
                for ((((x0, x1), x2), x3), ((&w, &w_lo), &w_hi)) in quarters.zip(twiddles) {
                    // Level `span`: pairs (x0, x1) and (x2, x3).
                    let (a0, a1) = butterfly::<INVERSE>(*x0, *x1, w);
                    let (a2, a3) = butterfly::<INVERSE>(*x2, *x3, w);
                    // Level `2 * span`: pairs (x0, x2) and (x1, x3).
                    (*x0, *x2) = butterfly::<INVERSE>(a0, a2, w_lo);
                    (*x1, *x3) = butterfly::<INVERSE>(a1, a3, w_hi);
                }
            }
            span *= 4;
        }
        if span < n {
            let (lo, hi) = data.split_at_mut(span);
            for ((x0, x1), &w) in lo.iter_mut().zip(hi).zip(self.level(span)) {
                (*x0, *x1) = butterfly::<INVERSE>(*x0, *x1, w);
            }
        }
    }
}

/// One radix-2 butterfly: `(a + b*w, a - b*w)`, with `w` conjugated for
/// the inverse transform.
#[inline(always)]
fn butterfly<const INVERSE: bool>(a: Complex, b: Complex, w: Complex) -> (Complex, Complex) {
    let b = b * if INVERSE { w.conj() } else { w };
    (a + b, a - b)
}

/// The scrambled-order transform pair behind
/// [`crate::conv::RowConvolver`]: a radix-4 decimation-in-frequency
/// forward that takes natural order and leaves the spectrum in
/// bit-reversed order, and the matching unscaled decimation-in-time
/// inverse that takes bit-reversed order back to natural order. A
/// pointwise product between the two (with a kernel spectrum computed by
/// the same forward) needs no permutation, so neither transform runs a
/// bit-reversal pass.
///
/// Each radix-4 butterfly stores its outputs in the order `0, 2, 1, 3`,
/// which is what two radix-2 levels would leave: the whole forward is
/// then a plain bit reversal away from [`FftPlan::forward`]. When
/// `log2 N` is odd one twiddle-free radix-2 level closes the forward and
/// opens the inverse.
#[derive(Debug, Clone)]
pub(crate) struct ScrambledPlan {
    n: usize,
    /// Per radix-4 stage, largest block first: `[W^j, W^2j, W^3j]` for
    /// `j < len / 4`, `W = exp(-2*pi*i/len)`, where `len` is the stage's
    /// block length (`n`, `n/4`, ... down to 4 or 8).
    twiddles: Vec<[Complex; 3]>,
}

impl ScrambledPlan {
    /// Build the pair for length `n`, which must be a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "ScrambledPlan requires a power of two, got {n}"
        );
        let mut twiddles = Vec::new();
        let mut len = n;
        while len >= 4 {
            let step = -2.0 * std::f64::consts::PI / len as f64;
            for j in 0..len / 4 {
                let w = |k: usize| Complex::from_polar(1.0, step * (k * j) as f64);
                twiddles.push([w(1), w(2), w(3)]);
            }
            len /= 4;
        }
        Self { n, twiddles }
    }

    /// Transform length.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place forward DFT, natural order in, bit-reversed order out,
    /// no scaling.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub(crate) fn forward(&self, data: &mut [Complex]) {
        self.forward_impl::<false>(data);
    }

    /// [`Self::forward`] of a buffer whose upper half is zero, without
    /// reading that half: the first stage takes its inputs from the lower
    /// half only (and overwrites the upper one). For `n == 1` there is
    /// no upper half, so this is [`Self::forward`].
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub(crate) fn forward_lower_half(&self, data: &mut [Complex]) {
        self.forward_impl::<true>(data);
    }

    fn forward_impl<const PRUNED: bool>(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        let mut len = self.n;
        let mut twiddles = &self.twiddles[..];
        while len >= 4 {
            let (stage, rest) = twiddles.split_at(len / 4);
            if PRUNED && len == self.n {
                dif4_stage::<true>(data, len, stage);
            } else {
                dif4_stage::<false>(data, len, stage);
            }
            twiddles = rest;
            len /= 4;
        }
        if len == 2 {
            if PRUNED && self.n == 2 {
                // The one butterfly, with a zero second input.
                data[1] = data[0];
            } else {
                radix2_level(data);
            }
        }
    }

    /// In-place inverse DFT without the `1/N` factor: bit-reversed order
    /// in (as [`Self::forward`] leaves it), natural order out, so
    /// `inverse(forward(x)) == N * x` up to rounding.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub(crate) fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length mismatch");
        let mut len = if self.n.trailing_zeros() % 2 == 1 {
            radix2_level(data);
            8
        } else {
            4
        };
        let mut end = self.twiddles.len();
        while len <= self.n {
            let start = end - len / 4;
            dit4_stage(data, len, &self.twiddles[start..end]);
            end = start;
            len *= 4;
        }
    }
}

/// `-i * z`: a swap and a negation, no multiply.
#[inline(always)]
fn mul_neg_i(z: Complex) -> Complex {
    Complex::new(z.im, -z.re)
}

/// `i * z`.
#[inline(always)]
fn mul_i(z: Complex) -> Complex {
    Complex::new(-z.im, z.re)
}

/// `z * conj(w)`.
#[inline(always)]
fn mul_conj(z: Complex, w: Complex) -> Complex {
    Complex::new(z.re * w.re + z.im * w.im, z.im * w.re - z.re * w.im)
}

/// The twiddle-free radix-2 level on adjacent pairs (its own inverse up
/// to a factor of 2).
fn radix2_level(data: &mut [Complex]) {
    for pair in data.chunks_exact_mut(2) {
        let (a, b) = (pair[0], pair[1]);
        (pair[0], pair[1]) = (a + b, a - b);
    }
}

/// The four quarters `(x0, x1, x2, x3)` of one block, zipped element by
/// element.
fn quarters(
    block: &mut [Complex],
) -> impl Iterator<Item = (&mut Complex, &mut Complex, &mut Complex, &mut Complex)> {
    let q = block.len() / 4;
    let (q0, rest) = block.split_at_mut(q);
    let (q1, rest) = rest.split_at_mut(q);
    let (q2, q3) = rest.split_at_mut(q);
    q0.iter_mut()
        .zip(q1)
        .zip(q2)
        .zip(q3)
        .map(|(((x0, x1), x2), x3)| (x0, x1, x2, x3))
}

/// The radix-4 decimation-in-frequency butterfly before its twiddles:
/// `x0 + x1 + x2 + x3`, `x0 - x1 + x2 - x3`, `x0 - i x1 - x2 + i x3` and
/// `x0 + i x1 - x2 - i x3`, in that (bit-reversed) order. `PRUNED` takes
/// `x2 = x3 = 0` without reading them.
#[inline(always)]
fn dif4<const PRUNED: bool>(x0: Complex, x1: Complex, x2: &Complex, x3: &Complex) -> [Complex; 4] {
    let (t0, t1, t2, t3) = if PRUNED {
        (x0, x0, x1, mul_neg_i(x1))
    } else {
        (x0 + *x2, x0 - *x2, x1 + *x3, mul_neg_i(x1 - *x3))
    };
    [t0 + t2, t0 - t2, t1 + t3, t1 - t3]
}

/// One radix-4 decimation-in-frequency stage over every `len`-point
/// block of `data`: [`dif4`], then the twiddles `W^2j`, `W^j`, `W^3j` on
/// the last three outputs. The `len == 4` stage has only `j = 0` and
/// multiplies by nothing.
fn dif4_stage<const PRUNED: bool>(data: &mut [Complex], len: usize, twiddles: &[[Complex; 3]]) {
    if len == 4 {
        for block in data.chunks_exact_mut(4) {
            if let [x0, x1, x2, x3] = block {
                [*x0, *x1, *x2, *x3] = dif4::<PRUNED>(*x0, *x1, x2, x3);
            }
        }
        return;
    }
    for block in data.chunks_exact_mut(len) {
        for ((x0, x1, x2, x3), w) in quarters(block).zip(twiddles) {
            let [y0, y2, y1, y3] = dif4::<PRUNED>(*x0, *x1, x2, x3);
            (*x0, *x1, *x2, *x3) = (y0, y2 * w[1], y1 * w[0], y3 * w[2]);
        }
    }
}

/// The inverse of [`dif4`] times 4: `+i` for `-i`, natural order out.
#[inline(always)]
fn dit4(z0: Complex, z2: Complex, z1: Complex, z3: Complex) -> [Complex; 4] {
    let (s, d) = (z0 + z2, z0 - z2);
    let (e, f) = (z1 + z3, mul_i(z1 - z3));
    [s + e, d + f, s - e, d - f]
}

/// One radix-4 decimation-in-time stage, the inverse of [`dif4_stage`]
/// times 4: conjugated twiddles first, then [`dit4`].
fn dit4_stage(data: &mut [Complex], len: usize, twiddles: &[[Complex; 3]]) {
    if len == 4 {
        for block in data.chunks_exact_mut(4) {
            if let [x0, x1, x2, x3] = block {
                [*x0, *x1, *x2, *x3] = dit4(*x0, *x1, *x2, *x3);
            }
        }
        return;
    }
    for block in data.chunks_exact_mut(len) {
        for ((x0, x1, x2, x3), w) in quarters(block).zip(twiddles) {
            let (z2, z1, z3) = (
                mul_conj(*x1, w[1]),
                mul_conj(*x2, w[0]),
                mul_conj(*x3, w[2]),
            );
            [*x0, *x1, *x2, *x3] = dit4(*x0, z2, z1, z3);
        }
    }
}

/// Forward FFT of arbitrary length. Power-of-two inputs use the radix-2
/// plan directly; other lengths go through Bluestein's chirp-z transform.
pub fn fft_any(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut buf = input.to_vec();
        FftPlan::new(n).forward(&mut buf);
        return buf;
    }
    bluestein(input, false)
}

/// Inverse FFT of arbitrary length (scaled by `1/N`).
pub fn ifft_any(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut buf = input.to_vec();
        FftPlan::new(n).inverse(&mut buf);
        return buf;
    }
    bluestein(input, true)
}

/// Bluestein's algorithm: express the length-N DFT as a circular
/// convolution of chirp-modulated sequences, evaluated with a
/// power-of-two FFT of length >= 2N-1.
fn bluestein(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    let m = (2 * n - 1).next_power_of_two();
    let sign = if inverse { 1.0 } else { -1.0 };

    // Chirp c[k] = exp(sign * i * pi * k^2 / n). Use k^2 mod 2n to keep the
    // angle argument small and exact.
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            Complex::from_polar(1.0, sign * std::f64::consts::PI * k2 as f64 / n as f64)
        })
        .collect();

    let mut a = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = input[k] * chirp[k];
    }
    let mut b = vec![Complex::ZERO; m];
    b[0] = chirp[0].conj();
    for k in 1..n {
        let c = chirp[k].conj();
        b[k] = c;
        b[m - k] = c;
    }

    let plan = FftPlan::new(m);
    plan.forward(&mut a);
    plan.forward(&mut b);
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= *y;
    }
    plan.inverse(&mut a);

    let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
    (0..n).map(|k| (a[k] * chirp[k]).scale(scale)).collect()
}

/// Transform a real signal: convenience wrapper packing into complex.
pub fn fft_real(input: &[f64]) -> Vec<Complex> {
    let buf: Vec<Complex> = input.iter().map(|&x| Complex::from_real(x)).collect();
    fft_any(&buf)
}

/// Two real transforms for the price of one complex transform: pack
/// `a + i*b`, transform once, and split the spectra with the Hermitian
/// symmetry of real inputs — the classic "two-for-one" trick the
/// filtering stage can use to halve its per-row FFT cost.
///
/// # Panics
/// Panics if the inputs differ in length.
pub fn fft_real_pair(a: &[f64], b: &[f64]) -> (Vec<Complex>, Vec<Complex>) {
    assert_eq!(a.len(), b.len(), "paired signals must share a length");
    let n = a.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let packed: Vec<Complex> = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| Complex::new(x, y))
        .collect();
    let z = fft_any(&packed);
    let mut fa = Vec::with_capacity(n);
    let mut fb = Vec::with_capacity(n);
    for k in 0..n {
        let zk = z[k];
        let zmk = z[(n - k) % n].conj();
        // A[k] = (Z[k] + conj(Z[-k])) / 2
        fa.push((zk + zmk).scale(0.5));
        // B[k] = (Z[k] - conj(Z[-k])) / (2i) = -i/2 * (Z[k] - conj(Z[-k]))
        let d = zk - zmk;
        fb.push(Complex::new(d.im * 0.5, -d.re * 0.5));
    }
    (fa, fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dft_naive, idft_naive};

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.7).sin() + 0.2 * i as f64,
                    (i as f64 * 1.3).cos(),
                )
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x = signal(n);
            let mut got = x.clone();
            FftPlan::new(n).forward(&mut got);
            let want = dft_naive(&x);
            assert_close(&got, &want, 1e-9);
        }
    }

    #[test]
    fn radix2_round_trip() {
        for n in [2usize, 16, 256, 1024] {
            let x = signal(n);
            let plan = FftPlan::new(n);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            assert_close(&buf, &x, 1e-9);
        }
    }

    /// The level-by-level radix-2 loop `forward` replaced, verbatim.
    fn oracle_forward(plan: &FftPlan, data: &mut [Complex]) {
        let n = plan.n;
        if n <= 1 {
            return;
        }
        for i in 0..n {
            let j = plan.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut span = 1;
        let mut tw_base = 0;
        while span < n {
            let step = span * 2;
            for start in (0..n).step_by(step) {
                for j in 0..span {
                    let w = plan.twiddles[tw_base + j];
                    let a = data[start + j];
                    let b = data[start + j + span] * w;
                    data[start + j] = a + b;
                    data[start + j + span] = a - b;
                }
            }
            tw_base += span;
            span = step;
        }
    }

    /// The conjugate-pass inverse `inverse` replaced, verbatim.
    fn oracle_inverse(plan: &FftPlan, data: &mut [Complex]) {
        for c in data.iter_mut() {
            *c = c.conj();
        }
        oracle_forward(plan, data);
        let s = 1.0 / plan.n as f64;
        for c in data.iter_mut() {
            *c = c.conj().scale(s);
        }
    }

    #[test]
    fn forward_and_inverse_equal_the_level_by_level_oracles() {
        // `==` per component, so the only licensed difference (the sign
        // of an exact zero) compares equal and nothing else does. Real
        // inputs and impulses put exact zeros through the butterflies.
        for k in 0..=12 {
            let n = 1usize << k;
            let plan = FftPlan::new(n);
            let mut impulse = vec![Complex::ZERO; n];
            impulse[n / 3] = Complex::new(-1.5, 0.0);
            let real: Vec<Complex> = signal(n).iter().map(|c| Complex::from_real(c.re)).collect();
            for x in [signal(n), real, impulse] {
                for inverse in [false, true] {
                    let (mut got, mut want) = (x.clone(), x.clone());
                    if inverse {
                        plan.inverse(&mut got);
                        oracle_inverse(&plan, &mut want);
                    } else {
                        plan.forward(&mut got);
                        oracle_forward(&plan, &mut want);
                    }
                    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                        assert!(
                            g.re == w.re && g.im == w.im,
                            "n={n} inverse={inverse} bin {i}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    /// Largest component gap between `got` and `want`, over the largest
    /// component of `want`.
    fn relative_gap(got: &[Complex], want: &[Complex]) -> f64 {
        assert_eq!(got.len(), want.len());
        let gap = got.iter().zip(want).fold(0.0f64, |m, (g, w)| {
            m.max((g.re - w.re).abs()).max((g.im - w.im).abs())
        });
        let scale = want
            .iter()
            .fold(0.0f64, |m, w| m.max(w.re.abs()).max(w.im.abs()));
        gap / scale
    }

    #[test]
    fn scrambled_inverse_of_forward_is_m_times_the_input() {
        for k in 0..=12 {
            let m = 1usize << k;
            let plan = ScrambledPlan::new(m);
            let x = signal(m);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            let want: Vec<Complex> = x.iter().map(|c| c.scale(m as f64)).collect();
            let gap = relative_gap(&buf, &want);
            assert!(gap <= 1e-12, "M={m}: relative gap {gap:e}");
        }
    }

    #[test]
    fn scrambled_forward_is_a_bit_reversal_of_the_plan_forward() {
        for k in 0..=12 {
            let m = 1usize << k;
            let plan = FftPlan::new(m);
            let x = signal(m);
            let mut scrambled = x.clone();
            ScrambledPlan::new(m).forward(&mut scrambled);
            let mut got = vec![Complex::ZERO; m];
            for (i, &r) in plan.bitrev.iter().enumerate() {
                got[r as usize] = scrambled[i];
            }
            let mut want = x;
            plan.forward(&mut want);
            let gap = relative_gap(&got, &want);
            assert!(gap <= 1e-12, "M={m}: relative gap {gap:e}");
        }
    }

    #[test]
    fn pruned_forward_equals_the_unpruned_forward_on_half_zero_input() {
        // `==` per component: reading the zero half only adds or
        // subtracts exact zeros, which change at most the sign of a zero.
        for k in 1..=12 {
            let m = 1usize << k;
            let plan = ScrambledPlan::new(m);
            let mut impulse = vec![Complex::ZERO; m];
            impulse[m / 2 - 1] = Complex::new(-1.5, 0.25);
            for mut x in [signal(m), impulse] {
                x[m / 2..].fill(Complex::ZERO);
                let mut want = x.clone();
                plan.forward(&mut want);
                // The pruned forward must not read the upper half.
                x[m / 2..].fill(Complex::new(f64::NAN, f64::NAN));
                plan.forward_lower_half(&mut x);
                for (i, (g, w)) in x.iter().zip(want.iter()).enumerate() {
                    assert!(
                        g.re == w.re && g.im == w.im,
                        "M={m} bin {i}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn radix2_rejects_non_pow2() {
        FftPlan::new(6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn radix2_rejects_wrong_buffer() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.forward(&mut buf);
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for n in [3usize, 5, 6, 7, 12, 100, 129] {
            let x = signal(n);
            let got = fft_any(&x);
            let want = dft_naive(&x);
            assert_close(&got, &want, 1e-8);
        }
    }

    #[test]
    fn bluestein_round_trip() {
        for n in [3usize, 10, 37, 250] {
            let x = signal(n);
            let back = ifft_any(&fft_any(&x));
            assert_close(&back, &x, 1e-8);
        }
    }

    #[test]
    fn ifft_any_matches_naive_idft() {
        for n in [5usize, 8, 27] {
            let x = signal(n);
            let got = ifft_any(&x);
            let want = idft_naive(&x);
            assert_close(&got, &want, 1e-8);
        }
    }

    #[test]
    fn fft_is_linear() {
        let n = 64;
        let a = signal(n);
        let b: Vec<Complex> = signal(n).iter().map(|c| c.conj() * 0.5).collect();
        let sum: Vec<Complex> = a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect();
        let fa = fft_any(&a);
        let fb = fft_any(&b);
        let fsum = fft_any(&sum);
        let fab: Vec<Complex> = fa.iter().zip(fb.iter()).map(|(&x, &y)| x + y).collect();
        assert_close(&fsum, &fab, 1e-9);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let x = signal(n);
        let y = fft_any(&x);
        let ex: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let ey: f64 = y.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-6 * ex.max(1.0));
    }

    #[test]
    fn empty_input() {
        assert!(fft_any(&[]).is_empty());
        assert!(ifft_any(&[]).is_empty());
    }

    #[test]
    fn fft_real_matches_complex_path() {
        let xs: Vec<f64> = (0..48).map(|i| (i as f64 * 0.31).sin()).collect();
        let a = fft_real(&xs);
        let b = fft_any(
            &xs.iter()
                .map(|&x| Complex::from_real(x))
                .collect::<Vec<_>>(),
        );
        assert_close(&a, &b, 1e-12);
    }

    #[test]
    fn real_pair_matches_individual_transforms() {
        for n in [1usize, 2, 15, 64] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.9).cos() - 0.3).collect();
            let (fa, fb) = fft_real_pair(&a, &b);
            assert_close(&fa, &fft_real(&a), 1e-8);
            assert_close(&fb, &fft_real(&b), 1e-8);
        }
        let (fa, fb) = fft_real_pair(&[], &[]);
        assert!(fa.is_empty() && fb.is_empty());
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn real_pair_rejects_mismatched() {
        fft_real_pair(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let xs: Vec<f64> = (0..32).map(|i| (i as f64).cos()).collect();
        let y = fft_real(&xs);
        let n = y.len();
        for k in 1..n {
            let a = y[k];
            let b = y[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }
}
