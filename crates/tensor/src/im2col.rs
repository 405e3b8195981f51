//! Convolution-to-GEMM lowering (im2col).
//!
//! VGG-16's convolutional layers are pruned and executed as GEMMs after the
//! im2col transformation, as described in Sec. VII-A of the paper: "We prune
//! its weight matrix after applying the im2col method, which flattens the
//! filters in the same channel to a column".

use crate::matrix::Matrix;

/// Shape of a 2-D convolution in NCHW layout (single image).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters, `M` in the paper's Fig. 1).
    pub out_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Filter height (`R`).
    pub kernel_h: usize,
    /// Filter width (`S`).
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl ConvShape {
    /// A square convolution, the common case for VGG (3x3, stride 1, pad 1).
    pub fn square(in_channels: usize, out_channels: usize, size: usize, kernel: usize) -> Self {
        Self {
            in_channels,
            out_channels,
            in_h: size,
            in_w: size,
            kernel_h: kernel,
            kernel_w: kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Output height after the convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// The GEMM `M` dimension after lowering: number of output pixels (`E*F`).
    pub fn gemm_m(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// The GEMM `K` dimension after lowering: `C*R*S`.
    pub fn gemm_k(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// The GEMM `N` dimension after lowering: the number of filters.
    pub fn gemm_n(&self) -> usize {
        self.out_channels
    }
}

/// Lowers an input feature map (shape `in_channels x in_h x in_w`, stored as
/// a `in_channels x (in_h*in_w)` matrix) into the im2col matrix of shape
/// `(out_h*out_w) x (in_channels*kernel_h*kernel_w)`.
///
/// The produced matrix left-multiplies the flattened weight matrix
/// (`gemm_k x gemm_n`) to yield the output feature map
/// (`gemm_m x out_channels`), matching the orientation in the paper's Fig. 4
/// where the weight matrix is the right-hand operand `B`.
pub fn im2col(input: &Matrix, shape: &ConvShape) -> Matrix {
    assert_eq!(
        input.shape(),
        (shape.in_channels, shape.in_h * shape.in_w),
        "input must be channels x (H*W)"
    );
    let out_h = shape.out_h();
    let out_w = shape.out_w();
    let mut out = Matrix::zeros(out_h * out_w, shape.gemm_k());
    for oy in 0..out_h {
        for ox in 0..out_w {
            let out_row = oy * out_w + ox;
            let mut col = 0;
            for c in 0..shape.in_channels {
                for ky in 0..shape.kernel_h {
                    for kx in 0..shape.kernel_w {
                        let iy = (oy * shape.stride + ky) as isize - shape.padding as isize;
                        let ix = (ox * shape.stride + kx) as isize - shape.padding as isize;
                        let v = if iy >= 0
                            && ix >= 0
                            && (iy as usize) < shape.in_h
                            && (ix as usize) < shape.in_w
                        {
                            input.get(c, iy as usize * shape.in_w + ix as usize)
                        } else {
                            0.0
                        };
                        out.set(out_row, col, v);
                        col += 1;
                    }
                }
            }
        }
    }
    out
}

/// Direct (non-lowered) convolution used as the correctness reference for
/// [`im2col`] in tests.  Weights are `out_channels x (in_channels*kh*kw)`.
pub fn conv2d_direct(input: &Matrix, weights: &Matrix, shape: &ConvShape) -> Matrix {
    assert_eq!(weights.shape(), (shape.out_channels, shape.gemm_k()));
    let out_h = shape.out_h();
    let out_w = shape.out_w();
    let mut out = Matrix::zeros(shape.out_channels, out_h * out_w);
    for oc in 0..shape.out_channels {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0;
                let mut widx = 0;
                for c in 0..shape.in_channels {
                    for ky in 0..shape.kernel_h {
                        for kx in 0..shape.kernel_w {
                            let iy = (oy * shape.stride + ky) as isize - shape.padding as isize;
                            let ix = (ox * shape.stride + kx) as isize - shape.padding as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.in_h
                                && (ix as usize) < shape.in_w
                            {
                                acc += input.get(c, iy as usize * shape.in_w + ix as usize)
                                    * weights.get(oc, widx);
                            }
                            widx += 1;
                        }
                    }
                }
                out.set(oc, oy * out_w + ox, acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::DEFAULT_TOL;

    #[test]
    fn conv_shape_dimensions() {
        let s = ConvShape::square(64, 128, 56, 3);
        assert_eq!(s.out_h(), 56);
        assert_eq!(s.out_w(), 56);
        assert_eq!(s.gemm_m(), 56 * 56);
        assert_eq!(s.gemm_k(), 64 * 9);
        assert_eq!(s.gemm_n(), 128);
    }

    #[test]
    fn conv_shape_with_stride() {
        let s = ConvShape {
            in_channels: 3,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(s.out_h(), 4);
        assert_eq!(s.out_w(), 4);
    }

    #[test]
    fn im2col_shape() {
        let s = ConvShape::square(3, 4, 5, 3);
        let input = Matrix::random_uniform(3, 25, 1.0, 1);
        let lowered = im2col(&input, &s);
        assert_eq!(lowered.shape(), (25, 27));
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        let s = ConvShape {
            in_channels: 2,
            out_channels: 3,
            in_h: 4,
            in_w: 4,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
        };
        let input = Matrix::random_uniform(2, 16, 1.0, 2);
        let lowered = im2col(&input, &s);
        assert_eq!(lowered.shape(), (16, 2));
        for pixel in 0..16 {
            for c in 0..2 {
                assert_eq!(lowered.get(pixel, c), input.get(c, pixel));
            }
        }
    }

    #[test]
    fn im2col_gemm_matches_direct_convolution() {
        let s = ConvShape::square(3, 5, 7, 3);
        let input = Matrix::random_uniform(3, 49, 1.0, 3);
        // weights: out_channels x K
        let weights = Matrix::random_uniform(5, s.gemm_k(), 1.0, 4);
        let direct = conv2d_direct(&input, &weights, &s);
        // Lowered: (M x K) * (K x N) = M x N, then compare against direct
        // which is out_channels x (out_h*out_w) = N x M.
        let lowered = im2col(&input, &s);
        let out = gemm(&lowered, &weights.transpose());
        assert!(out.transpose().approx_eq(&direct, DEFAULT_TOL));
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let s = ConvShape::square(1, 1, 3, 3);
        let input = Matrix::filled(1, 9, 1.0);
        let lowered = im2col(&input, &s);
        // Top-left output pixel: the first row/col of the 3x3 patch falls in
        // the padding region and must be zero.
        let first_patch = lowered.row(0);
        assert_eq!(first_patch[0], 0.0);
        assert_eq!(first_patch[4], 1.0);
    }
}
