//! Criterion bench for the parallel tensor kernels backing real training:
//! matmul (dense layers) and conv1d (the CANDLE/PtychoNN stacks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use viper_tensor::{ops, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let a = Tensor::full(&[n, n], 0.5);
        let b = Tensor::full(&[n, n], 0.25);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| black_box(a.matmul(&b).unwrap()))
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv");
    group.sample_size(10);

    let x1 = Tensor::full(&[16, 256, 8], 0.5);
    let k1 = Tensor::full(&[5, 8, 16], 0.1);
    group.bench_function("conv1d_16x256x8_k5", |b| {
        b.iter(|| black_box(ops::conv::conv1d(&x1, &k1, 1).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv);
criterion_main!(benches);
