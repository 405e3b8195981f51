//! Explore the V100 cost model directly: sweep sparsity and print the
//! modelled latency of dense, cuSparse-CSR, BlockSparse-BSR and tile-wise
//! execution of one BERT-sized GEMM on both execution units.
//!
//! Run with: `cargo run --release --example gpu_cost_explorer`

use tile_wise_repro::gpu_sim::{cost::uniform_tiles, CostModel, Precision};
use tile_wise_repro::prelude::*;
use tile_wise_repro::tensor::GemmShape;

fn main() {
    let cost = CostModel::v100();
    let shape = GemmShape::new(1024, 768, 768);
    let dense_t = cost.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
    let dense_c = cost.dense_gemm(shape, CoreKind::CudaCore, Precision::Fp32).time_s;
    let tensor = ExecutionConfig::optimized(CoreKind::TensorCore);
    let cuda = ExecutionConfig::optimized(CoreKind::CudaCore);
    println!("BERT GEMM 1024x768x768 on a modelled V100");
    println!(
        "dense tensor-core: {:.1} us   dense CUDA-core: {:.1} us\n",
        dense_t * 1e6,
        dense_c * 1e6
    );

    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>14}",
        "sparsity", "csr (us)", "bsr32 (us)", "tw128-T (us)", "tw128-C (us)"
    );
    for sparsity in [0.0, 0.25, 0.4, 0.5, 0.75, 0.9, 0.95, 0.99] {
        let csr = cost.csr_spmm(shape, sparsity).time_s;
        let bsr = cost.bsr_gemm(shape, 32, sparsity).time_s;
        let tiles = uniform_tiles(768, 768, 128, sparsity);
        let tw_t = cost.tw_gemm(1024, 768, 768, &tiles, &tensor).time_s;
        let tw_c = cost.tw_gemm(1024, 768, 768, &tiles, &cuda).time_s;
        println!(
            "{:>8.0}% {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            sparsity * 100.0,
            csr * 1e6,
            bsr * 1e6,
            tw_t * 1e6,
            tw_c * 1e6
        );
    }
    println!();
    println!("Speedup of TW-128 over dense tensor-core at 75%: {:.2}x", {
        let tiles = uniform_tiles(768, 768, 128, 0.75);
        dense_t / cost.tw_gemm(1024, 768, 768, &tiles, &tensor).time_s
    });
}
