// 2-D convolution (NCHW) lowered to GEMM via im2col, with grouped /
// depthwise support (groups == in_channels == out_channels).
//
// Both passes walk the batch in fixed 8-sample chunks (the parallel_for
// unit, and in backward the unit of dW/db partials). Within a chunk, runs of
// samples are unfolded side by side into one shared column matrix (im2col's
// row-stride argument) and each group issues one forward, one wgrad and one
// dgrad GEMM over n = samples * out_h * out_w. Samples per GEMM come from a
// compile-time column budget divided by the per-sample column size, so they
// depend on layer shape and batch only and results are bit-identical across
// pool sizes. Depthwise layers bypass the lowering for direct per-tap loops
// (depthwise_forward/_dgrad/_wgrad). DESIGN.md §9 gives the accumulation
// orders.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace fca {
class Rng;
}

namespace fca::nn {

class Conv2d : public Module {
 public:
  /// Square kernel/stride/padding. `groups` splits channels into
  /// independent convolution groups (in_channels and out_channels must both
  /// be divisible by it); groups == in_channels == out_channels is a
  /// depthwise convolution.
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng& rng, bool bias = true,
         int64_t groups = 1);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "Conv2d"; }

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t groups() const { return groups_; }
  Param& weight() { return weight_; }

 private:
  /// Geometry of one group's convolution.
  ConvGeom group_geom(int64_t h, int64_t w) const;

  int64_t in_c_, out_c_, kernel_, stride_, padding_, groups_;
  bool has_bias_;
  Param weight_;  // [out_c, (in_c / groups) * k * k]
  Param bias_;    // [out_c]
  Tensor cached_input_;
};

}  // namespace fca::nn
