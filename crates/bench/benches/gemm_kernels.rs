//! Criterion benchmarks of the shared GEMM microkernel as the dense and
//! tile-wise families run it, at the `host-open` benchmark's layer shapes:
//! the 512-1024-512 chain at 75% tile-wise sparsity with G = 32, batches of
//! 1 and 8 rows.  The block-sparse family's runs are in `sparse_kernels`.
//!
//! GFLOP/s = dense-equivalent flop (`2 * batch * k * n`) / time; the flop
//! count is in each id.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tilewise::InferenceSession;
use tw_tensor::{gemm, Matrix};

/// The `host-open` chain, its sparsity, granularity and pruning seed.
const DIMS: [usize; 3] = [512, 1024, 512];
const SPARSITY: f64 = 0.75;
const GRANULARITY: usize = 32;
const MODEL_SEED: u64 = 42;

fn bench_host_open_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_open_layers");
    let tiles = InferenceSession::synthetic_tiles(&DIMS, SPARSITY, GRANULARITY, MODEL_SEED);
    for (layer, tile) in tiles.iter().enumerate() {
        let masked_dense = tile.to_dense();
        for batch in [1usize, 8] {
            let a = Matrix::random_uniform(batch, tile.k(), 1.0, 7);
            let flop = 2 * batch * tile.k() * tile.n();
            let id = format!("l{layer}/b{batch}/{flop}flop");
            group.bench_with_input(BenchmarkId::new("dense", &id), &batch, |bench, _| {
                bench.iter(|| black_box(gemm(&a, &masked_dense)))
            });
            group.bench_with_input(BenchmarkId::new("tile-wise", &id), &batch, |bench, _| {
                bench.iter(|| black_box(tile.matmul(&a)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_host_open_layers);
criterion_main!(benches);
