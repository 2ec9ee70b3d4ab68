// im2col / col2im for NCHW convolution lowering.
//
// Conv2d forward is lowered to a GEMM: each input image is unfolded into
// OH*OW columns of a [C*KH*KW, n] column matrix, which the [OC, C*KH*KW]
// weight matrix multiplies. The row stride `ld` of the column matrix is an
// argument so that several samples can be unfolded side by side into one
// shared matrix (sample j at column offset j*OH*OW, ld = samples*OH*OW) and
// served by a single GEMM; ld = OH*OW is the one-sample layout. col2im is the
// adjoint used by the backward pass. Depthwise convolutions (one input
// channel per output channel) skip the lowering and use the direct
// per-plane kernels below.
#pragma once

#include <cstdint>

namespace fca {

struct ConvGeom {
  int64_t channels, height, width;
  int64_t kernel_h, kernel_w;
  int64_t stride_h, stride_w;
  int64_t pad_h, pad_w;

  int64_t out_h() const {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w() const {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the column matrix: channels * kernel_h * kernel_w.
  int64_t col_rows() const { return channels * kernel_h * kernel_w; }
  /// Columns of the column matrix: out_h * out_w.
  int64_t col_cols() const { return out_h() * out_w(); }
};

/// Unfolds one CHW image `im` into the [col_rows, col_cols] block at `col`,
/// whose rows lie `ld` floats apart (ld >= col_cols; the floats between
/// col_cols and ld are left untouched). Out-of-image taps read zero
/// (implicit padding). A padded geometry is first staged into a
/// zero-bordered [channels, height + 2*pad_h, width + 2*pad_w] plane taken
/// from the calling thread's workspace arena; an unpadded one is read in
/// place. Every tap then lies inside the plane, so each column row is a
/// bounds-free copy of out_w floats (stride 1) or a strided gather, and a
/// stride-1 tap as wide as the plane (1x1) is one contiguous copy.
/// Byte-equal to im2col_reference.
void im2col(const float* im, const ConvGeom& g, float* col, int64_t ld);

/// Scalar per-element-bounds-checked im2col kept as the byte-equality
/// oracle for the staged version (tests/test_im2col.cpp).
void im2col_reference(const float* im, const ConvGeom& g, float* col,
                      int64_t ld);

/// Adjoint of im2col: accumulates the [col_rows, col_cols] block at `col`
/// (row stride `ld`) back into `im` (im must be zero-initialized by the
/// caller if accumulation from scratch is wanted). A padded geometry copies
/// `im` into a zero-bordered workspace plane, accumulates bounds-free rows
/// into it and copies the interior back; an unpadded one accumulates into
/// `im` directly. Byte-equal to col2im_reference because every image
/// element receives the same contributions in the same (c, kh, kw, y, x)
/// order.
void col2im(const float* col, int64_t ld, const ConvGeom& g, float* im);

/// Scalar per-element-bounds-checked col2im kept as the byte-equality oracle
/// for the staged version (tests/test_im2col.cpp).
void col2im_reference(const float* col, int64_t ld, const ConvGeom& g,
                      float* im);

/// Direct depthwise kernels: each of the g.channels planes is convolved with
/// its own filter, w [g.channels, kernel_h * kernel_w] (no im2col, no GEMM).
/// Every output, input-gradient and weight-gradient element accumulates its
/// taps in ascending (kh, kw) order, so results are a pure function of the
/// operands.
///
/// depthwise_forward: out [channels, out_h, out_w] of one image = sum of the
/// taps, starting from zero, then + bias[c] when bias is non-null.
void depthwise_forward(const float* im, const float* w, const float* bias,
                       const ConvGeom& g, float* out);
/// depthwise_dgrad: accumulates the input gradient of one image's
/// grad_out [channels, out_h, out_w] into grad_im [channels, height, width].
void depthwise_dgrad(const float* grad_out, const float* w, const ConvGeom& g,
                     float* grad_im);
/// depthwise_wgrad: adds to dw[c, tap] the sum of grad_out * input over
/// `samples` consecutive images (NCHW) for that channel and tap. The terms
/// are summed into eight column-interleaved float partials (over samples,
/// rows and columns in ascending order), which are then added in order.
void depthwise_wgrad(const float* grad_out, const float* im, int64_t samples,
                     const ConvGeom& g, float* dw);

/// Direct (non-lowered) convolution of one image; correctness oracle for
/// tests and baseline for the conv ablation bench. weight layout
/// [oc, c, kh, kw]; out layout [oc, out_h, out_w].
void conv2d_direct(const float* im, const float* weight, int64_t out_channels,
                   const ConvGeom& g, float* out);

}  // namespace fca
