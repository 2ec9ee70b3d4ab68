#include "tensor/im2col.hpp"

#include <algorithm>
#include <type_traits>

#include "tensor/workspace.hpp"

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

/// Widest row given a compile-time length (see with_width).
constexpr int64_t kStaticWidths = 16;

/// Calls fn(std::integral_constant<int64_t, n>) when 0 < n <=
/// kStaticWidths and fn(std::integral_constant<int64_t, 0>) otherwise
/// (0: use the runtime width). A row loop over n floats then has a fixed
/// trip count and unrolls completely on the narrow maps of small images,
/// where a vectorized loop's set-up costs more than moving 3-12 floats.
template <int64_t W = kStaticWidths, typename Fn>
void with_width(int64_t n, Fn&& fn) {
  if constexpr (W == 0) {
    fn(std::integral_constant<int64_t, 0>{});
  } else if (n == W) {
    fn(std::integral_constant<int64_t, W>{});
  } else {
    with_width<W - 1>(n, fn);
  }
}

/// Copies the CHW image into the interior of a zero-bordered
/// [C, H + 2*pad_h, W + 2*pad_w] plane allocated from `frame`. Every tap of
/// the geometry reads inside that plane, so the im2col/col2im row loops
/// need no bounds tests.
float* stage(const float* im, const ConvGeom& g, Workspace::Frame& frame) {
  const int64_t ph = g.height + 2 * g.pad_h, pw = g.width + 2 * g.pad_w;
  float* plane = frame.alloc(g.channels * ph * pw);
  std::fill_n(plane, g.channels * ph * pw, 0.0f);
  with_width(g.width, [&](auto width) {
    const int64_t w = width.value > 0 ? width.value : g.width;
    const float* src = im;
    for (int64_t c = 0; c < g.channels; ++c) {
      float* dst = plane + (c * ph + g.pad_h) * pw + g.pad_w;
      for (int64_t y = 0; y < g.height; ++y, src += w, dst += pw) {
        for (int64_t x = 0; x < w; ++x) dst[x] = src[x];
      }
    }
  });
  return plane;
}

bool padded(const ConvGeom& g) { return g.pad_h != 0 || g.pad_w != 0; }

}  // namespace

void im2col(const float* im, const ConvGeom& g, float* col, int64_t ld) {
  const int64_t oh = g.out_h();
  const int64_t sh = g.stride_h, sw = g.stride_w;
  const int64_t ph = g.height + 2 * g.pad_h, pw = g.width + 2 * g.pad_w;
  Workspace::Frame frame(Workspace::tls());
  const float* planes = padded(g) ? stage(im, g, frame) : im;
  with_width(g.out_w(), [&](auto width) {
    const int64_t ow = width.value > 0 ? width.value : g.out_w();
    // Stride-1 taps as wide as the plane (1xk kernels, 1x1 included) read
    // their whole block as one contiguous run.
    const bool contiguous = sh == 1 && sw == 1 && ow == pw;
    int64_t row = 0;
    for (int64_t c = 0; c < g.channels; ++c) {
      const float* plane = planes + c * ph * pw;
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
          float* dst = col + row * ld;
          const float* src = plane + kh * pw + kw;
          if (contiguous) {
            std::copy_n(src, oh * ow, dst);
          } else if (sw == 1) {
            for (int64_t y = 0; y < oh; ++y, dst += ow, src += sh * pw) {
#pragma omp simd
              for (int64_t x = 0; x < ow; ++x) dst[x] = src[x];
            }
          } else {
            for (int64_t y = 0; y < oh; ++y, dst += ow, src += sh * pw) {
              for (int64_t x = 0; x < ow; ++x) dst[x] = src[x * sw];
            }
          }
        }
      }
    }
  });
}

void im2col_reference(const float* im, const ConvGeom& g, float* col,
                      int64_t ld) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.channels; ++c) {
    const float* imc = im + c * g.height * g.width;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* dst = col + row * ld;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride_h - g.pad_h + kh;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride_w - g.pad_w + kw;
            const bool inside =
                iy >= 0 && iy < g.height && ix >= 0 && ix < g.width;
            dst[y * ow + x] = inside ? imc[iy * g.width + ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, int64_t ld, const ConvGeom& g, float* im) {
  const int64_t oh = g.out_h();
  const int64_t sh = g.stride_h, sw = g.stride_w;
  const int64_t ph = g.height + 2 * g.pad_h, pw = g.width + 2 * g.pad_w;
  Workspace::Frame frame(Workspace::tls());
  // Accumulating into a staged copy of `im` adds exactly the in-image
  // contributions the reference adds, to the same starting values and in
  // the same (c, kh, kw, y, x) order; padding taps land on the border,
  // which is dropped when the interior is copied back. Within one
  // (c, kh, kw, y) row x -> ix is injective, so the row loop carries no
  // dependence and the result stays byte-equal to col2im_reference.
  float* planes = padded(g) ? stage(im, g, frame) : im;
  with_width(g.out_w(), [&](auto width) {
    const int64_t ow = width.value > 0 ? width.value : g.out_w();
    int64_t row = 0;
    for (int64_t c = 0; c < g.channels; ++c) {
      float* plane = planes + c * ph * pw;
      for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
          const float* src = col + row * ld;
          float* dst = plane + kh * pw + kw;
          if (sw == 1) {
            for (int64_t y = 0; y < oh; ++y, src += ow, dst += sh * pw) {
#pragma omp simd
              for (int64_t x = 0; x < ow; ++x) dst[x] += src[x];
            }
          } else {
            for (int64_t y = 0; y < oh; ++y, src += ow, dst += sh * pw) {
              for (int64_t x = 0; x < ow; ++x) dst[x * sw] += src[x];
            }
          }
        }
      }
    }
  });
  if (planes == im) return;
  with_width(g.width, [&](auto width) {
    const int64_t w = width.value > 0 ? width.value : g.width;
    float* dst = im;
    for (int64_t c = 0; c < g.channels; ++c) {
      const float* src = planes + (c * ph + g.pad_h) * pw + g.pad_w;
      for (int64_t y = 0; y < g.height; ++y, src += pw, dst += w) {
        for (int64_t x = 0; x < w; ++x) dst[x] = src[x];
      }
    }
  });
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
