//! Criterion benchmarks of the FFT substrate: plan reuse (the filtering
//! stage's hot path), arbitrary-size Bluestein overhead, FFT-vs-direct
//! convolution crossover, and the projection transpose that follows the
//! filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ct_core::problem::Dims2;
use ct_core::projection::ProjectionImage;
use ct_fft::conv::RowConvolver;
use ct_fft::{convolve_direct, convolve_fft, Complex, FftPlan};
use ct_filter::{ramp_kernel, RampKind};
use std::time::Duration;

fn bench_fft_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_pow2");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &n in &[256usize, 1024, 4096] {
        let plan = FftPlan::new(n);
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), 0.0))
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &plan, |b, plan| {
            b.iter(|| {
                let mut buf = data.clone();
                plan.forward(&mut buf);
                buf
            });
        });
    }
    group.finish();
}

fn bench_bluestein(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_bluestein");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(20);
    for &n in &[255usize, 1000] {
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).cos(), 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, d| {
            b.iter(|| ct_fft::fft_any(d));
        });
    }
    group.finish();
}

fn bench_convolution_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("convolution");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(20);
    for &n in &[64usize, 512] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let k: Vec<f64> = (0..2 * n + 1).map(|i| 1.0 / (1.0 + i as f64)).collect();
        group.bench_with_input(BenchmarkId::new("direct", n), &(), |b, _| {
            b.iter(|| convolve_direct(&a, &k));
        });
        group.bench_with_input(BenchmarkId::new("fft", n), &(), |b, _| {
            b.iter(|| convolve_fft(&a, &k));
        });
    }
    group.finish();
}

fn bench_row_convolver(c: &mut Criterion) {
    // The filtering stage's hot loop: two detector rows per transform
    // against the full-width Ram-Lak kernel, at the benchmark's detector
    // widths (256 runs M = 512, an odd power of two, so it times the
    // radix-2 level too). One element is one row, so the rate reads
    // Mrows/s.
    let mut group = c.benchmark_group("row_convolver");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(2));
    for nu in [256usize, 320, 512] {
        let conv = RowConvolver::new(nu, &ramp_kernel(RampKind::RamLak, nu, 0.5));
        let mut scratch = conv.make_scratch();
        let row: Vec<f32> = (0..nu).map(|i| (i as f32).sin()).collect();
        let (mut a, mut b) = (row.clone(), row.clone());
        group.bench_with_input(BenchmarkId::new("ramp_pair", nu), &(), |bench, _| {
            bench.iter(|| {
                // Fresh rows each time: the ramp amplifies high
                // frequencies, so re-filtering would run into inf/NaN.
                a.copy_from_slice(&row);
                b.copy_from_slice(&row);
                conv.convolve_row_pair_f32(&mut a, &mut b, &mut scratch);
                a[0]
            });
        });
    }
    group.finish();
}

fn bench_transpose(c: &mut Criterion) {
    // The filtered projection's transpose into the back-projection
    // layout, once per Nu x Nu projection at the benchmark's widths.
    let mut group = c.benchmark_group("transpose");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for nu in [256usize, 320, 512] {
        let dims = Dims2::new(nu, nu);
        let data = (0..dims.len()).map(|i| i as f32).collect();
        let img = ProjectionImage::from_vec(dims, data).expect("sized");
        group.throughput(Throughput::Bytes(4 * dims.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nu), &img, |b, img| {
            b.iter(|| img.transposed());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fft_sizes,
    bench_bluestein,
    bench_convolution_crossover,
    bench_row_convolver,
    bench_transpose
);
criterion_main!(benches);
