//! Dense matrix substrate for the tile-wise sparsity reproduction.
//!
//! This crate provides the dense linear-algebra foundation that every other
//! crate builds on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the small set of operations
//!   the paper's workloads need (GEMM, transpose, masking, norms).
//! * [`mod@gemm`] — the register-blocked GEMM microkernel ([`gemm_strided`])
//!   that dense, block-sparse and tile-wise execution all run, and dense
//!   [`gemm()`] on top of it.
//! * [`mod@im2col`] — the convolution-to-GEMM lowering used for VGG-16, exactly
//!   as the paper does ("the convolutional layer can be converted to GEMM
//!   through the img2col transformation").
//! * [`batch`] — the stacking convention serving batchers use to fuse
//!   per-request payloads into one activation matrix and back.
//!
//! Everything is deterministic and CPU-only; GPU behaviour is *modelled* by
//! the `tw-gpu-sim` crate, not executed here.

pub mod batch;
pub mod gemm;
pub mod im2col;
pub mod matrix;

pub use batch::{stack_payloads, stack_rows, unstack_rows};
pub use gemm::{gemm, gemm_strided, GemmShape, Strided};
pub use im2col::{im2col, ConvShape};
pub use matrix::Matrix;

/// Tolerance used throughout the workspace when comparing f32 matrices that
/// were produced by different (but mathematically equivalent) kernels.
pub const DEFAULT_TOL: f32 = 1e-3;

/// Returns true when `a` and `b` agree within `tol` both absolutely and
/// relative to the magnitude of the values involved.
#[inline]
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0005, 1e-3));
        assert!(!approx_eq(1.0, 1.01, 1e-3));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(10_000.0, 10_005.0, 1e-3));
        assert!(!approx_eq(10_000.0, 10_200.0, 1e-3));
    }

    #[test]
    fn approx_eq_handles_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-6));
        assert!(approx_eq(0.0, 1e-7, 1e-6));
        assert!(!approx_eq(0.0, 0.5, 1e-3));
    }
}
