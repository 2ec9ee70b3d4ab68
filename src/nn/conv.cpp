#include "nn/conv.hpp"

#include <algorithm>

#include "nn/init.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "utils/error.hpp"
#include "utils/threadpool.hpp"

namespace fca::nn {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng& rng, bool bias,
               int64_t groups)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      groups_(groups),
      has_bias_(bias) {
  FCA_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
            padding >= 0 && groups > 0);
  FCA_CHECK_MSG(in_channels % groups == 0 && out_channels % groups == 0,
                "channels (" << in_channels << ", " << out_channels
                             << ") not divisible by groups " << groups);
  const int64_t fan_in = (in_c_ / groups_) * kernel_ * kernel_;
  weight_ = Param("weight", kaiming_uniform({out_c_, fan_in}, fan_in, rng));
  if (has_bias_) bias_ = Param("bias", Tensor({out_c_}));
}

ConvGeom Conv2d::group_geom(int64_t h, int64_t w) const {
  return ConvGeom{in_c_ / groups_, h,       w,        kernel_, kernel_,
                  stride_,         stride_, padding_, padding_};
}

namespace {

/// Samples per parallel task in both passes and per dW/db partial in
/// backward. A constant, so chunk boundaries — and with them every
/// accumulation order — depend on the batch only, never on the pool size.
constexpr int64_t kChunk = 8;

/// Floats of shared im2col column matrix one lowered GEMM may span (128 KiB).
/// Sized by peak RSS on the model zoo: the forward GEMM packs its B panel
/// from the columns, so a lane's working set is about twice this, which
/// still fits the workspace arena's first 256 KiB chunk. Wider matrices
/// were only marginally faster and grew every lane's resident arena.
constexpr int64_t kColumnBudget = 32 * 1024;

/// Everything both passes derive from the layer and input shape.
struct Lowering {
  Lowering(const ConvGeom& geom, int64_t batch, int64_t in_c, int64_t out_c,
           int64_t groups)
      : g(geom),
        b(batch),
        icg(in_c / groups),
        ocg(out_c / groups),
        ohow(geom.col_cols()),
        col_rows(geom.col_rows()),
        in_grp(icg * geom.height * geom.width),
        out_grp(ocg * ohow),
        in_img(in_grp * groups),
        out_img(out_grp * groups),
        depthwise(icg == 1 && ocg == 1),
        planes{groups,       geom.height,   geom.width,
               geom.kernel_h, geom.kernel_w, geom.stride_h,
               geom.stride_w, geom.pad_h,    geom.pad_w},
        chunks((batch + kChunk - 1) / kChunk) {
    // Samples per GEMM: the largest power of two whose column matrix fits
    // the budget (at least one, at most a chunk). Powers of two divide
    // kChunk, so the runs tile every chunk the same way in both passes.
    while (per < kChunk && 2 * per * col_rows * ohow <= kColumnBudget) {
      per *= 2;
    }
  }

  /// Samples [chunk * kChunk, chunk_end(chunk)).
  int64_t chunk_end(int64_t chunk) const {
    return std::min(b, (chunk + 1) * kChunk);
  }

  /// im2col of samples [i0, i0 + ns), group grp, side by side into one
  /// [col_rows, ns * ohow] matrix.
  void unfold(const float* x, int64_t i0, int64_t ns, int64_t grp,
              float* col) const {
    for (int64_t j = 0; j < ns; ++j) {
      im2col(x + (i0 + j) * in_img + grp * in_grp, g, col + j * ohow,
             ns * ohow);
    }
  }

  /// Copies between group grp of samples [i0, i0 + ns) in NCHW layout and a
  /// [ocg, ns * ohow] matrix with the samples side by side.
  void gather(const float* nchw, int64_t i0, int64_t ns, int64_t grp,
              float* mat) const {
    for (int64_t j = 0; j < ns; ++j) {
      for (int64_t r = 0; r < ocg; ++r) {
        std::copy_n(nchw + (i0 + j) * out_img + grp * out_grp + r * ohow,
                    ohow, mat + r * ns * ohow + j * ohow);
      }
    }
  }
  void scatter(const float* mat, int64_t i0, int64_t ns, int64_t grp,
               float* nchw) const {
    for (int64_t j = 0; j < ns; ++j) {
      for (int64_t r = 0; r < ocg; ++r) {
        std::copy_n(mat + r * ns * ohow + j * ohow, ohow,
                    nchw + (i0 + j) * out_img + grp * out_grp + r * ohow);
      }
    }
  }

  ConvGeom g;  // one group's geometry
  int64_t b, icg, ocg, ohow, col_rows;
  int64_t in_grp, out_grp;  // floats of one group of one sample
  int64_t in_img, out_img;  // floats of one sample
  bool depthwise;
  ConvGeom planes;  // the whole layer as `groups` single-channel planes
  int64_t chunks;
  int64_t per = 1;  // samples per lowered GEMM
};

}  // namespace

Tensor Conv2d::forward(const Tensor& x, bool train) {
  FCA_CHECK_MSG(x.ndim() == 4 && x.dim(1) == in_c_,
                "Conv2d expects [B, " << in_c_ << ", H, W], got "
                                      << shape_to_string(x.shape()));
  const int64_t b = x.dim(0);
  const ConvGeom g = group_geom(x.dim(2), x.dim(3));
  const int64_t oh = g.out_h(), ow = g.out_w();
  FCA_CHECK_MSG(oh > 0 && ow > 0, "Conv2d output would be empty for input "
                                      << shape_to_string(x.shape()));
  obs::ProfileSpan span("kernel", "conv2d.fwd", b * out_c_ * oh * ow);
  if (train) cached_input_ = x;

  const Lowering l(g, b, in_c_, out_c_, groups_);
  const float* w = weight_.value.data();
  const float* bias = has_bias_ ? bias_.value.data() : nullptr;
  Tensor out = Tensor::uninit({b, out_c_, oh, ow});
  parallel_for_range(
      0, l.chunks,
      [&](int64_t chunk_lo, int64_t chunk_hi) {
        const int64_t i_begin = chunk_lo * kChunk;
        const int64_t i_end = l.chunk_end(chunk_hi - 1);
        if (l.depthwise) {
          for (int64_t i = i_begin; i < i_end; ++i) {
            depthwise_forward(x.data() + i * l.in_img, w, bias, l.planes,
                              out.data() + i * l.out_img);
          }
          return;
        }
        // Column and staging buffers come from the lane's workspace arena:
        // pool workers are long-lived, so after warm-up this allocates
        // nothing.
        Workspace::Frame frame(Workspace::tls());
        float* col = frame.alloc(l.col_rows * l.per * l.ohow);
        float* staged = l.per > 1 ? frame.alloc(l.out_grp * l.per) : nullptr;
        for (int64_t i0 = i_begin; i0 < i_end; i0 += l.per) {
          const int64_t ns = std::min(l.per, i_end - i0);
          const int64_t n = ns * l.ohow;
          for (int64_t grp = 0; grp < groups_; ++grp) {
            l.unfold(x.data(), i0, ns, grp, col);
            // out_group = W_group [ocg, col_rows] * col [col_rows, n], with
            // the per-channel bias fused into the GEMM write-back. A single
            // sample's result is already in NCHW order; a run of samples
            // lands side by side and is scattered back.
            GemmEpilogue epi;
            if (bias != nullptr) {
              epi.bias = bias + grp * l.ocg;
              epi.bias_kind = GemmEpilogue::Bias::kPerRow;
            }
            float* dst = ns == 1
                             ? out.data() + i0 * l.out_img + grp * l.out_grp
                             : staged;
            sgemm_ex(false, false, l.ocg, n, l.col_rows, 1.0f,
                     w + grp * l.ocg * l.col_rows, l.col_rows, col, n, 0.0f,
                     dst, n, epi);
            if (ns > 1) l.scatter(staged, i0, ns, grp, out.data());
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FCA_CHECK_MSG(!cached_input_.empty(),
                "Conv2d::backward without a training forward");
  obs::ProfileSpan span("kernel", "conv2d.bwd", grad_out.numel());
  const Tensor& x = cached_input_;
  const int64_t b = x.dim(0);
  const ConvGeom g = group_geom(x.dim(2), x.dim(3));
  const int64_t oh = g.out_h(), ow = g.out_w();
  FCA_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == b &&
            grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
            grad_out.dim(3) == ow);

  const Lowering l(g, b, in_c_, out_c_, groups_);
  const float* w = weight_.value.data();
  const float* go = grad_out.data();
  Tensor grad_in(x.shape());
  // dW/db are shared accumulators, so each kChunk-sample chunk accumulates
  // its weight/bias partials into its own arena slot while writing its
  // disjoint grad_in slice directly; the partials are then reduced in
  // ascending chunk order on the calling thread. Within a chunk the runs
  // are visited in ascending sample order. Any pool size — including
  // serial — produces bit-identical gradients, and peak memory stays
  // O(chunks * weights + one run's columns) rather than O(batch).
  const int64_t w_numel = weight_.grad.numel();
  Workspace::Frame frame(Workspace::tls());
  float* dw_parts = frame.alloc(l.chunks * w_numel);
  float* db_parts = has_bias_ ? frame.alloc(l.chunks * out_c_) : nullptr;
  std::fill_n(dw_parts, l.chunks * w_numel, 0.0f);
  if (has_bias_) std::fill_n(db_parts, l.chunks * out_c_, 0.0f);
  parallel_for_range(
      0, l.chunks,
      [&](int64_t chunk_lo, int64_t chunk_hi) {
        Workspace::Frame lane_frame(Workspace::tls());
        const int64_t n_max = l.per * l.ohow;
        float* col = nullptr;
        float* staged = nullptr;
        if (!l.depthwise) {
          col = lane_frame.alloc(l.col_rows * n_max);
          if (l.per > 1) staged = lane_frame.alloc(l.out_grp * l.per);
        }
        for (int64_t ci = chunk_lo; ci < chunk_hi; ++ci) {
          float* dw = dw_parts + ci * w_numel;
          const int64_t i_begin = ci * kChunk;
          const int64_t i_end = l.chunk_end(ci);
          if (l.depthwise) {
            depthwise_wgrad(go + i_begin * l.out_img,
                            x.data() + i_begin * l.in_img, i_end - i_begin,
                            l.planes, dw);
            for (int64_t i = i_begin; i < i_end; ++i) {
              depthwise_dgrad(go + i * l.out_img, w, l.planes,
                              grad_in.data() + i * l.in_img);
            }
          } else {
            for (int64_t i0 = i_begin; i0 < i_end; i0 += l.per) {
              const int64_t ns = std::min(l.per, i_end - i0);
              const int64_t n = ns * l.ohow;
              for (int64_t grp = 0; grp < groups_; ++grp) {
                l.unfold(x.data(), i0, ns, grp, col);
                const float* g_out = go + i0 * l.out_img + grp * l.out_grp;
                if (ns > 1) {
                  l.gather(go, i0, ns, grp, staged);
                  g_out = staged;
                }
                // dW_group += g_out [ocg, n] * col^T [n, col_rows]
                sgemm(false, true, l.ocg, l.col_rows, n, 1.0f, g_out, n, col, n,
                      1.0f, dw + grp * l.ocg * l.col_rows, l.col_rows);
                // dcol = W_group^T [col_rows, ocg] * g_out [ocg, n],
                // written over the columns, which wgrad is done with.
                sgemm(true, false, l.col_rows, n, l.ocg, 1.0f,
                      w + grp * l.ocg * l.col_rows, l.col_rows, g_out, n, 0.0f,
                      col, n);
                for (int64_t j = 0; j < ns; ++j) {
                  col2im(col + j * l.ohow, n, g,
                         grad_in.data() + (i0 + j) * l.in_img +
                             grp * l.in_grp);
                }
              }
            }
          }
          if (has_bias_) {
            float* db = db_parts + ci * out_c_;
            for (int64_t i = i_begin; i < i_end; ++i) {
              const float* gi = go + i * l.out_img;
              for (int64_t oc = 0; oc < out_c_; ++oc) {
                double s = 0.0;
                for (int64_t p = 0; p < l.ohow; ++p) s += gi[oc * l.ohow + p];
                db[oc] += static_cast<float>(s);
              }
            }
          }
        }
      },
      /*grain=*/1);
  float* wg = weight_.grad.data();
  for (int64_t ci = 0; ci < l.chunks; ++ci) {
    const float* dw = dw_parts + ci * w_numel;
#pragma omp simd
    for (int64_t j = 0; j < w_numel; ++j) wg[j] += dw[j];
  }
  if (has_bias_) {
    float* bg = bias_.grad.data();
    for (int64_t ci = 0; ci < l.chunks; ++ci) {
      const float* db = db_parts + ci * out_c_;
      for (int64_t j = 0; j < out_c_; ++j) bg[j] += db[j];
    }
  }
  return grad_in;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace fca::nn
