//! # ct-fft — from-scratch FFT and convolution substrate
//!
//! The FDK filtering stage performs one 1-D convolution per detector row
//! (paper Algorithm 1 line 4), and "for large problem sizes, FFT is
//! typically the choice for the convolution computation" (Section 2.2.3).
//! The paper uses Intel IPP on the CPU; this crate is our in-tree
//! replacement:
//!
//! * [`FftPlan`] — iterative radix-2 decimation-in-time FFT with
//!   precomputed twiddle factors and bit-reversal permutation. Each sweep
//!   over the data does two butterfly levels (radix-2²), and the inverse
//!   conjugates the twiddles as it applies them instead of conjugating
//!   the data before and after a forward transform. Both are the same
//!   butterflies in the same order as the level-by-level loop with
//!   conjugation passes, so results equal that loop's in value (the sign
//!   of an exact zero may differ).
//! * [`fft_any`]/[`ifft_any`] — arbitrary-length transforms via
//!   Bluestein's chirp-z algorithm layered on the radix-2 plan.
//! * [`conv`] — linear and circular convolution through the frequency
//!   domain (the Convolution Theorem route of Section 2.2.3), with a
//!   direct time-domain oracle for testing.
//! * [`dft_naive`] — an O(N^2) reference transform used by the test suite.
//!
//! The filtering stage's per-row work is [`conv::RowConvolver`]. For rows
//! of `N` samples and a `K`-tap kernel centred at `c = K / 2` it uses
//! `M = max(N + c, N + K - 1 - c).next_power_of_two()` points, which is
//! `(N + c).next_power_of_two()`, and folds the kernel modulo `M`: the
//! circular wrap then lands only outside the kept window `[c, c + N)`, so
//! the full-width ramp (`K = 2N + 1`) runs at `2N` points rounded up, not
//! `3N`. The `1/M` factor folded into the kernel spectrum is exact
//! because `M` is a power of two.
//!
//! The convolver does not run [`FftPlan`]. It runs a private
//! scrambled-order pair: a radix-4 decimation-in-frequency forward
//! (natural order in, bit-reversed order out, `±i` rotations as
//! swap-and-negate, one radix-2 level when `log2 M` is odd) and the
//! matching unscaled decimation-in-time inverse (bit-reversed in,
//! natural out). The kernel spectrum is computed by the same forward, so
//! the pointwise product needs no permutation and no bit-reversal pass
//! runs per row. When `2N <= M` the row's upper half is zero and the
//! forward's first stage never reads it, so only `[N, M/2)` is zeroed.
//! The pair rounds differently from [`FftPlan`]: outputs agree with it to
//! about 1e-15 relative in `f64`, within one `f32` ulp after the cast.
//!
//! Numerics are `f64` internally; the filtering stage feeds `f32` detector
//! rows in and casts back after the inverse transform, which keeps the
//! pipeline single-precision end-to-end (as the paper's is) while the
//! transform itself adds no measurable rounding noise.
//!
//! ```
//! use ct_fft::{convolve_fft, convolve_direct};
//!
//! let signal = vec![1.0, 2.0, 3.0];
//! let kernel = vec![1.0, 1.0];
//! let fast = convolve_fft(&signal, &kernel);
//! let slow = convolve_direct(&signal, &kernel);
//! for (a, b) in fast.iter().zip(slow.iter()) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
pub mod conv;
pub mod plan;

pub use complex::Complex;
pub use conv::{convolve_direct, convolve_fft, convolve_same_fft};
pub use plan::{fft_any, ifft_any, FftPlan};

/// Naive O(N^2) discrete Fourier transform — the test oracle.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += x * Complex::from_polar(1.0, ang);
        }
        *o = acc;
    }
    out
}

/// Naive inverse DFT (unitary pairing with [`dft_naive`]: scales by 1/N).
pub fn idft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let ang = 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += x * Complex::from_polar(1.0, ang);
        }
        *o = acc * (1.0 / n as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_dft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::new(1.0, 0.0);
        let y = dft_naive(&x);
        for c in y {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn naive_dft_round_trip() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let y = idft_naive(&dft_naive(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a.re - b.re).abs() < 1e-10);
            assert!((a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn naive_dft_of_single_tone() {
        // x[t] = exp(2*pi*i*3t/8) concentrates all energy in bin 3.
        let n = 8;
        let x: Vec<Complex> = (0..n)
            .map(|t| {
                Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64)
            })
            .collect();
        let y = dft_naive(&x);
        for (k, c) in y.iter().enumerate() {
            let mag = c.abs();
            if k == 3 {
                assert!((mag - n as f64).abs() < 1e-9);
            } else {
                assert!(mag < 1e-9, "bin {k} has magnitude {mag}");
            }
        }
    }
}
