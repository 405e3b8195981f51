//! Quickstart: prune one weight matrix with the tile-wise pattern, check
//! that the sparse multiplication is exact, and estimate the GPU speedup.
//!
//! Run with: `cargo run --release --example quickstart`

use tile_wise_repro::prelude::*;
use tile_wise_repro::pruning::{tw, SparsityTarget, TileWiseConfig};
use tile_wise_repro::tensor::Matrix;

fn main() {
    // A 768x768 weight matrix (one BERT attention projection) and a batch of
    // 256 token activations.
    let weights = Matrix::random_normal(768, 768, 0.02, 42);
    let activations = Matrix::random_uniform(256, 768, 1.0, 7);

    // 1. Score and prune to 75% sparsity with tile granularity G = 128.
    let scores = ImportanceScores::magnitude(&weights);
    let mask =
        tw::prune(&scores, &TileWiseConfig::with_granularity(128), SparsityTarget::new(0.75));
    println!("achieved sparsity: {:.1}%", mask.sparsity() * 100.0);
    println!("tiles: {} (kept rows per tile: {:?})", mask.tiles().len(), mask.tile_kept_rows());

    // 2. Build the executable tile-wise matrix and verify functional
    //    equivalence with the masked dense GEMM.
    let tw_matrix = TileWiseMatrix::from_mask(&weights, &mask);
    let sparse_out = tw_matrix.matmul(&activations);
    let dense_out = gemm(&activations, &mask.to_pattern_mask().apply(&weights));
    assert!(sparse_out.approx_eq(&dense_out, 1e-3));
    println!("tile-wise matmul matches masked dense GEMM ✓");

    // 3. Estimate the GPU latency of this GEMM, dense vs tile-wise.
    let cost = tile_wise_repro::gpu_sim::CostModel::v100();
    let shape = tile_wise_repro::tensor::GemmShape::new(256, 768, 768);
    let dense_time = cost
        .dense_gemm(shape, CoreKind::TensorCore, tile_wise_repro::gpu_sim::Precision::Fp16)
        .time_s;
    let tw_time = cost
        .tw_gemm(
            256,
            768,
            768,
            &tw_matrix.tile_shapes(),
            &ExecutionConfig::optimized(CoreKind::TensorCore),
        )
        .time_s;
    println!(
        "modelled V100 tensor-core latency: dense {:.1} us, tile-wise {:.1} us ({:.2}x speedup)",
        dense_time * 1e6,
        tw_time * 1e6,
        dense_time / tw_time
    );
}
