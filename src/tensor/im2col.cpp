#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace fca {

namespace {

/// [x0, x1): output columns whose input tap ix = x*stride - pad + kw lands
/// inside [0, width). Everything outside is implicit zero padding.
inline void valid_x_range(int64_t ow, int64_t width, int64_t stride,
                          int64_t pad, int64_t kw, int64_t* x0, int64_t* x1) {
  // First x with ix >= 0: ceil((pad - kw) / stride), clamped into [0, ow].
  int64_t lo = pad - kw;
  lo = lo <= 0 ? 0 : (lo + stride - 1) / stride;
  // Last x with ix <= width - 1 is floor((width - 1 + pad - kw) / stride).
  const int64_t hi_num = width - 1 + pad - kw;
  int64_t hi = hi_num < 0 ? 0 : hi_num / stride + 1;  // exclusive
  *x0 = std::min(lo, ow);
  *x1 = std::max(std::min(hi, ow), *x0);
}

}  // namespace

void im2col(const float* im, const ConvGeom& g, float* col, int64_t ld) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    const float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * ld;
        // The in-image x span is the same for every output row; computing
        // it once hoists all horizontal bounds checks out of the copy loop,
        // which becomes a memcpy at stride 1 and a branch-free strided
        // gather otherwise.
        int64_t x0, x1;
        valid_x_range(ow, g.width, g.stride_w, g.pad_w, kw, &x0, &x1);
        for (int64_t y = 0; y < oh; ++y) {
          float* out = dst + y * ow;
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.height) {
            std::memset(out, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          if (x0 > 0) {
            std::memset(out, 0, static_cast<size_t>(x0) * sizeof(float));
          }
          const float* src = imc + iy * g.width;
          if (g.stride_w == 1) {
            const int64_t off = x0 * g.stride_w - g.pad_w + kw;
            std::memcpy(out + x0, src + off,
                        static_cast<size_t>(x1 - x0) * sizeof(float));
          } else {
            int64_t ix = x0 * g.stride_w - g.pad_w + kw;
            for (int64_t x = x0; x < x1; ++x, ix += g.stride_w) {
              out[x] = src[ix];
            }
          }
          if (x1 < ow) {
            std::memset(out + x1, 0,
                        static_cast<size_t>(ow - x1) * sizeof(float));
          }
        }
      }
    }
  }
}

void col2im(const float* col, int64_t ld, const ConvGeom& g, float* im) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src_row = col + row * ld;
        // Same hoisting as im2col: the valid x span is y-invariant, so the
        // horizontal bounds checks leave the inner loop entirely. Within one
        // (c, kh, kw, y) row the map x -> ix is a bijection, so the per-image-
        // element accumulation order matches the scalar reference exactly and
        // the result stays byte-equal (overlapping windows only meet across
        // kh/kw iterations, whose order is unchanged).
        int64_t x0, x1;
        valid_x_range(ow, g.width, g.stride_w, g.pad_w, kw, &x0, &x1);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.height) continue;
          const float* src = src_row + y * ow;
          float* dst_row = imc + iy * g.width;
          if (g.stride_w == 1) {
            float* dst = dst_row + (x0 - g.pad_w + kw);
            const float* s = src + x0;
            const int64_t n = x1 - x0;
#pragma omp simd
            for (int64_t i = 0; i < n; ++i) dst[i] += s[i];
          } else {
            int64_t ix = x0 * g.stride_w - g.pad_w + kw;
            for (int64_t x = x0; x < x1; ++x, ix += g.stride_w) {
              dst_row[ix] += src[x];
            }
          }
        }
      }
    }
  }
}

void col2im_reference(const float* col, int64_t ld, const ConvGeom& g,
                      float* im) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * ld;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.height) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride_w - g.pad_w + kw;
            if (ix >= 0 && ix < g.width) {
              imc[iy * g.width + ix] += src[y * ow + x];
            }
          }
        }
      }
    }
  }
}

namespace {

/// Output rows [y0, y1) and columns [x0, x1) whose tap (kh, kw) reads inside
/// the image; the rest of the output only sees implicit padding there.
struct TapSpan {
  int64_t y0, y1, x0, x1;
  bool empty() const { return y0 == y1 || x0 == x1; }
};

TapSpan tap_span(const ConvGeom& g, int64_t kh, int64_t kw) {
  TapSpan t;
  // valid_x_range is axis-agnostic: the first call applies it to rows.
  valid_x_range(g.out_h(), g.height, g.stride_h, g.pad_h, kh, &t.y0, &t.y1);
  valid_x_range(g.out_w(), g.width, g.stride_w, g.pad_w, kw, &t.x0, &t.x1);
  return t;
}

/// Offset of the input element that output (y, x) reads through tap
/// (kh, kw), within one channel plane.
int64_t tap_offset(const ConvGeom& g, int64_t y, int64_t x, int64_t kh,
                   int64_t kw) {
  return (y * g.stride_h - g.pad_h + kh) * g.width + x * g.stride_w -
         g.pad_w + kw;
}

}  // namespace

void depthwise_forward(const float* im, const float* w, const float* bias,
                       const ConvGeom& g, float* out) {
  const int64_t ow = g.out_w();
  const int64_t taps = g.kernel_h * g.kernel_w;
  const int64_t in_plane = g.height * g.width;
  const int64_t out_plane = g.out_h() * ow;
  std::fill_n(out, g.channels * out_plane, 0.0f);
  for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
      const TapSpan t = tap_span(g, kh, kw);
      if (t.empty()) continue;
      const int64_t n = t.x1 - t.x0;
      for (int64_t c = 0; c < g.channels; ++c) {
        const float wv = w[c * taps + kh * g.kernel_w + kw];
        for (int64_t y = t.y0; y < t.y1; ++y) {
          const float* src =
              im + c * in_plane + tap_offset(g, y, t.x0, kh, kw);
          float* dst = out + c * out_plane + y * ow + t.x0;
          for (int64_t x = 0; x < n; ++x) dst[x] += wv * src[x * g.stride_w];
        }
      }
    }
  }
  if (bias == nullptr) return;
  for (int64_t c = 0; c < g.channels; ++c) {
    float* dst = out + c * out_plane;
    for (int64_t p = 0; p < out_plane; ++p) dst[p] += bias[c];
  }
}

void depthwise_dgrad(const float* grad_out, const float* w, const ConvGeom& g,
                     float* grad_im) {
  const int64_t ow = g.out_w();
  const int64_t taps = g.kernel_h * g.kernel_w;
  const int64_t in_plane = g.height * g.width;
  const int64_t out_plane = g.out_h() * ow;
  for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
      const TapSpan t = tap_span(g, kh, kw);
      if (t.empty()) continue;
      const int64_t n = t.x1 - t.x0;
      for (int64_t c = 0; c < g.channels; ++c) {
        const float wv = w[c * taps + kh * g.kernel_w + kw];
        for (int64_t y = t.y0; y < t.y1; ++y) {
          const float* src = grad_out + c * out_plane + y * ow + t.x0;
          float* dst = grad_im + c * in_plane + tap_offset(g, y, t.x0, kh, kw);
          for (int64_t x = 0; x < n; ++x) dst[x * g.stride_w] += wv * src[x];
        }
      }
    }
  }
}

void depthwise_wgrad(const float* grad_out, const float* im, int64_t samples,
                     const ConvGeom& g, float* dw) {
  // Eight interleaved partial sums (column x feeds lane x % 8) break the
  // add-latency chain of a single accumulator; the lane pattern depends on
  // the geometry only, so the result is still a pure function of the
  // operands.
  constexpr int64_t kLanes = 8;
  const int64_t ow = g.out_w();
  const int64_t taps = g.kernel_h * g.kernel_w;
  const int64_t in_plane = g.height * g.width;
  const int64_t out_plane = g.out_h() * ow;
  for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
      const TapSpan t = tap_span(g, kh, kw);
      if (t.empty()) continue;
      const int64_t n = t.x1 - t.x0;
      for (int64_t c = 0; c < g.channels; ++c) {
        float lanes[kLanes] = {};
        for (int64_t s = 0; s < samples; ++s) {
          const int64_t plane = s * g.channels + c;
          for (int64_t y = t.y0; y < t.y1; ++y) {
            const float* go = grad_out + plane * out_plane + y * ow + t.x0;
            const float* src =
                im + plane * in_plane + tap_offset(g, y, t.x0, kh, kw);
            for (int64_t x0 = 0; x0 < n; x0 += kLanes) {
              const int64_t m = std::min(kLanes, n - x0);
              for (int64_t l = 0; l < m; ++l) {
                lanes[l] += go[x0 + l] * src[(x0 + l) * g.stride_w];
              }
            }
          }
        }
        float sum = 0.0f;
        for (const float v : lanes) sum += v;
        dw[c * taps + kh * g.kernel_w + kw] += sum;
      }
    }
  }
}

void conv2d_direct(const float* im, const float* weight, int64_t out_channels,
                   const ConvGeom& g, float* out) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  for (int64_t oc = 0; oc < out_channels; ++oc) {
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        double acc = 0.0;
        for (int64_t c = 0; c < g.channels; ++c) {
          for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const int64_t iy = y * g.stride_h - g.pad_h + kh;
            if (iy < 0 || iy >= g.height) continue;
            for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
              const int64_t ix = x * g.stride_w - g.pad_w + kw;
              if (ix < 0 || ix >= g.width) continue;
              acc += static_cast<double>(
                         im[(c * g.height + iy) * g.width + ix]) *
                     weight[((oc * g.channels + c) * g.kernel_h + kh) *
                                g.kernel_w +
                            kw];
            }
          }
        }
        out[(oc * oh + y) * ow + x] = static_cast<float>(acc);
      }
    }
  }
}

}  // namespace fca
