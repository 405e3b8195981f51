//! Criterion benchmarks of the sparse-format substrate: CSR/BSR
//! construction, and dense x sparse kernels at the `host-open` benchmark's
//! layer shapes (the 512-1024-512 chain at 75% tile-wise sparsity with
//! G = 32, batches of 1 and 8 rows).  BSR is the family `auto` binds there;
//! it runs each 32x32 block through the shared GEMM microkernel.
//!
//! GFLOP/s = dense-equivalent flop (`2 * batch * k * n`) / time; the flop
//! count is in each id.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tilewise::InferenceSession;
use tw_sparse::{spmm, BsrMatrix, CsrMatrix};
use tw_tensor::Matrix;

/// The `host-open` chain, its sparsity, granularity and pruning seed.
const DIMS: [usize; 3] = [512, 1024, 512];
const SPARSITY: f64 = 0.75;
const GRANULARITY: usize = 32;
const MODEL_SEED: u64 = 42;

fn bench_format_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("format_construction");
    let tiles = InferenceSession::synthetic_tiles(&DIMS[..2], SPARSITY, GRANULARITY, MODEL_SEED);
    let dense = tiles[0].to_dense();
    group.bench_function("csr_from_dense", |b| b.iter(|| black_box(CsrMatrix::from_dense(&dense))));
    group.bench_function("bsr32_from_dense", |b| {
        b.iter(|| black_box(BsrMatrix::from_dense(&dense, GRANULARITY)))
    });
    group.finish();
}

fn bench_host_open_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_open_layers");
    let tiles = InferenceSession::synthetic_tiles(&DIMS, SPARSITY, GRANULARITY, MODEL_SEED);
    for (layer, tile) in tiles.iter().enumerate() {
        let dense = tile.to_dense();
        let bsr = BsrMatrix::from_dense(&dense, GRANULARITY);
        let csr = CsrMatrix::from_dense(&dense);
        for batch in [1usize, 8] {
            let a = Matrix::random_uniform(batch, tile.k(), 1.0, 7);
            let flop = 2 * batch * tile.k() * tile.n();
            let id = format!("l{layer}/b{batch}/{flop}flop");
            group.bench_with_input(BenchmarkId::new("bsr", &id), &batch, |b, _| {
                b.iter(|| black_box(spmm::dense_bsr_matmul(&a, &bsr)))
            });
            group.bench_with_input(BenchmarkId::new("csr", &id), &batch, |b, _| {
                b.iter(|| black_box(spmm::dense_csr_matmul(&a, &csr)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_format_construction, bench_host_open_layers);
criterion_main!(benches);
