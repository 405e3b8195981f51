//! Sparse matrix formats and kernels.
//!
//! This crate is the reproduction's stand-in for cuSparse / BlockSparse: the
//! formats and kernels the paper's *baseline* sparse models execute with.
//!
//! * [`CsrMatrix`] — compressed sparse row, used by the element-wise (EW)
//!   and vector-wise (VW) baselines (cuSparse SpMM path).
//! * [`CscMatrix`] — compressed sparse column, used by the TEW pattern's
//!   element-wise overlay (Sec. IV-A: "each tile stores the EW pattern with
//!   the compressed sparse column (CSC) format").
//! * [`BsrMatrix`] — block sparse row with square blocks, the block-wise
//!   (BW) baseline (BlockSparse library path).
//! * [`spmm`] — dense x sparse multiplication kernels, functionally exact
//!   and checked against dense GEMM; the BSR kernel runs each stored block
//!   through `tw-tensor`'s shared GEMM microkernel.

pub mod bsr;
pub mod csc;
pub mod csr;
pub mod mask;
pub mod spmm;

pub use bsr::BsrMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use mask::RowColMask;
