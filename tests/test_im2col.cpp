#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "utils/rng.hpp"

namespace fca {
namespace {

std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST(ConvGeom, OutputDimensions) {
  ConvGeom g{3, 16, 16, 3, 3, 1, 1, 1, 1};
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 256);
  ConvGeom s{3, 16, 16, 3, 3, 2, 2, 1, 1};
  EXPECT_EQ(s.out_h(), 8);
  ConvGeom nopad{1, 5, 5, 3, 3, 1, 1, 0, 0};
  EXPECT_EQ(nopad.out_h(), 3);
}

TEST(Im2col, IdentityKernelCopiesImage) {
  // 1x1 kernel, stride 1, no padding: col matrix equals the image.
  ConvGeom g{2, 3, 3, 1, 1, 1, 1, 0, 0};
  Rng rng(1);
  std::vector<float> im = random_vec(2 * 9, rng);
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(im.data(), g, col.data(), g.col_cols());
  for (size_t i = 0; i < im.size(); ++i) EXPECT_EQ(col[i], im[i]);
}

TEST(Im2col, PaddingReadsZero) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1, 1, 1};
  std::vector<float> im{1, 2, 3, 4};
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(im.data(), g, col.data(), g.col_cols());
  // First row of the col matrix corresponds to kernel tap (0,0); at output
  // (0,0) this tap reads input (-1,-1) = padding = 0.
  EXPECT_EQ(col[0], 0.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the transpose, which is exactly what backward relies on.
  ConvGeom g{3, 7, 6, 3, 3, 2, 2, 1, 1};
  Rng rng(2);
  const size_t im_size = static_cast<size_t>(3 * 7 * 6);
  const size_t col_size = static_cast<size_t>(g.col_rows() * g.col_cols());
  std::vector<float> x = random_vec(im_size, rng);
  std::vector<float> y = random_vec(col_size, rng);
  std::vector<float> col(col_size, 0.0f);
  im2col(x.data(), g, col.data(), g.col_cols());
  double lhs = 0.0;
  for (size_t i = 0; i < col_size; ++i) lhs += static_cast<double>(col[i]) * y[i];
  std::vector<float> back(im_size, 0.0f);
  col2im(y.data(), g.col_cols(), g, back.data());
  double rhs = 0.0;
  for (size_t i = 0; i < im_size; ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ---------------------------------------------------------------------------
// im2col / col2im: the staged implementations (zero-bordered plane,
// bounds-free row copies and accumulates) must be byte-equal to the
// retained scalar references. For col2im the per-element accumulation order
// is part of the determinism contract, so even a benign reassociation is a
// failure; for im2col every column float is a copy or the +0.0 of padding.

struct Col2imCase {
  int64_t c, h, w, k, stride, pad;
};

const Col2imCase kEdgeCases[] = {
    // 1x1 kernel: pure copy-accumulate, no overlap.
    Col2imCase{2, 5, 5, 1, 1, 0},
    // Overlapping windows (stride < kernel): every interior image
    // element accumulates k*k column entries across kh/kw iterations.
    Col2imCase{3, 8, 8, 3, 1, 1},
    Col2imCase{2, 9, 7, 5, 1, 2},
    // Strided gather / scatter-add (stride > 1).
    Col2imCase{3, 8, 8, 3, 2, 1},
    Col2imCase{1, 11, 11, 5, 3, 2},
    // Padding wider than the live span on one side; tiny images where
    // some kernel taps read only padding.
    Col2imCase{1, 2, 2, 3, 1, 1},
    Col2imCase{1, 4, 2, 3, 1, 2},
    // Non-square, stride 2, 5x5 (the cnn2/alexnet backward geometry).
    Col2imCase{2, 12, 10, 5, 2, 2},
    // Single-pixel output column.
    Col2imCase{2, 3, 3, 3, 1, 0},
};

// The per-group geometries the model zoo lowers (12x12 inputs, width 8).
const Col2imCase kZooCases[] = {
    Col2imCase{8, 12, 12, 3, 1, 1},   // 3x3 body at 12x12
    Col2imCase{32, 3, 3, 3, 1, 1},    // 3x3 body at 3x3
    Col2imCase{16, 6, 6, 3, 2, 1},    // strided 3x3 downsample
    Col2imCase{3, 12, 12, 5, 1, 2},   // 5x5 stem
    Col2imCase{16, 6, 6, 1, 1, 0},    // 1x1 pointwise
    Col2imCase{8, 12, 12, 1, 2, 0},   // 1x1 strided shortcut
};

std::string describe(const Col2imCase& p, int64_t ld) {
  std::ostringstream os;
  os << "c=" << p.c << " h=" << p.h << " w=" << p.w << " k=" << p.k
     << " stride=" << p.stride << " pad=" << p.pad << " ld=" << ld;
  return os.str();
}

class Im2colParityTest : public ::testing::TestWithParam<Col2imCase> {};

TEST_P(Im2colParityTest, StagedByteEqualToScalarReference) {
  const Col2imCase p = GetParam();
  ConvGeom g{p.c, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  Rng rng(37);
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  std::vector<float> im =
      random_vec(static_cast<size_t>(p.c * p.h * p.w), rng);
  im.front() = -0.0f;  // copied with its sign; padding reads +0.0
  constexpr float kSentinel = -12345.0f;
  // ld == cols is the one-sample layout; ld == 3 * cols + 5 writes this
  // sample as the middle block of a shared multi-sample column matrix
  // (plus a ragged tail), as Conv2d's chunk-batched lowering does. Every
  // float outside the block must keep its sentinel.
  for (const int64_t ld : {cols, 3 * cols + 5}) {
    const int64_t offset = ld == cols ? 0 : cols;
    const size_t size = static_cast<size_t>(rows * ld);
    std::vector<float> staged(size, kSentinel);
    std::vector<float> ref(size, kSentinel);
    im2col(im.data(), g, staged.data() + offset, ld);
    im2col_reference(im.data(), g, ref.data() + offset, ld);
    ASSERT_EQ(0, std::memcmp(staged.data(), ref.data(), size * sizeof(float)))
        << describe(p, ld);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < ld; ++j) {
        if (j >= offset && j < offset + cols) continue;
        ASSERT_EQ(staged[static_cast<size_t>(r * ld + j)], kSentinel)
            << "im2col wrote outside its block, " << describe(p, ld);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeGeometries, Im2colParityTest,
                         ::testing::ValuesIn(kEdgeCases));
INSTANTIATE_TEST_SUITE_P(ZooGeometries, Im2colParityTest,
                         ::testing::ValuesIn(kZooCases));

class Col2imParityTest : public ::testing::TestWithParam<Col2imCase> {};

TEST_P(Col2imParityTest, VectorizedByteEqualToScalarReference) {
  const Col2imCase p = GetParam();
  ConvGeom g{p.c, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  ASSERT_GT(g.out_h(), 0);
  ASSERT_GT(g.out_w(), 0);
  Rng rng(31);
  const int64_t cols = g.col_cols();
  const size_t im_size = static_cast<size_t>(p.c * p.h * p.w);
  // ld == cols is the one-sample layout; ld == 3 * cols + 5 reads this
  // sample as the middle block of a shared multi-sample column matrix
  // (plus a ragged tail), as Conv2d's chunk-batched backward does.
  for (const int64_t ld : {cols, 3 * cols + 5}) {
    const std::vector<float> col =
        random_vec(static_cast<size_t>(g.col_rows() * ld), rng);
    const float* block = ld == cols ? col.data() : col.data() + cols;
    // Accumulate into a non-zero image: col2im adds, and the starting bytes
    // must flow through both implementations identically.
    const std::vector<float> start = random_vec(im_size, rng);
    std::vector<float> vec_im = start;
    std::vector<float> ref_im = start;
    col2im(block, ld, g, vec_im.data());
    col2im_reference(block, ld, g, ref_im.data());
    ASSERT_EQ(0, std::memcmp(vec_im.data(), ref_im.data(),
                             im_size * sizeof(float)))
        << describe(p, ld);
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeGeometries, Col2imParityTest,
                         ::testing::ValuesIn(kEdgeCases));
INSTANTIATE_TEST_SUITE_P(ZooGeometries, Col2imParityTest,
                         ::testing::ValuesIn(kZooCases));

TEST(Col2im, OverlappingAccumulationOrderIsAscendingKernelTap) {
  // One channel, 2x2 image, 2x2 kernel, stride 1, pad 1 -> 3x3 outputs; the
  // center image pixel receives one contribution per kernel tap. With col
  // filled so tap (kh, kw) contributes 10^(kh*2+kw), the result separates
  // the taps in decimal — and both implementations must agree exactly.
  ConvGeom g{1, 2, 2, 2, 2, 1, 1, 1, 1};
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  ASSERT_EQ(rows, 4);
  ASSERT_EQ(cols, 9);
  std::vector<float> col(static_cast<size_t>(rows * cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t x = 0; x < cols; ++x) {
      col[static_cast<size_t>(r * cols + x)] = std::pow(10.0f, r);
    }
  }
  std::vector<float> vec_im(4, 0.0f);
  std::vector<float> ref_im(4, 0.0f);
  col2im(col.data(), g.col_cols(), g, vec_im.data());
  col2im_reference(col.data(), g.col_cols(), g, ref_im.data());
  EXPECT_EQ(0, std::memcmp(vec_im.data(), ref_im.data(), 4 * sizeof(float)));
  // Image (0,0) is read by all four taps exactly once: 1 + 10 + 100 + 1000.
  EXPECT_EQ(vec_im[0], 1111.0f);
}

TEST(Col2im, AdjointHoldsForStridedAndPaddedGeometries) {
  // <im2col(x), y> == <x, col2im(y)> on the scatter-add tail geometry too,
  // both in the one-sample layout and as one block of a wider shared column
  // matrix (row stride ld > out_h * out_w), whose other columns im2col must
  // leave untouched.
  ConvGeom g{2, 9, 7, 5, 5, 3, 3, 2, 2};
  Rng rng(8);
  const size_t im_size = static_cast<size_t>(2 * 9 * 7);
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  for (const int64_t ld : {cols, 2 * cols + 3}) {
    const int64_t offset = ld - cols;  // the block sits at the row end
    std::vector<float> x = random_vec(im_size, rng);
    std::vector<float> y = random_vec(static_cast<size_t>(rows * ld), rng);
    constexpr float kSentinel = -12345.0f;
    std::vector<float> col(static_cast<size_t>(rows * ld), kSentinel);
    im2col(x.data(), g, col.data() + offset, ld);
    double lhs = 0.0;
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < ld; ++j) {
        const size_t at = static_cast<size_t>(r * ld + j);
        if (j < offset) {
          ASSERT_EQ(col[at], kSentinel) << "im2col wrote outside its block";
          continue;
        }
        lhs += static_cast<double>(col[at]) * y[at];
      }
    }
    std::vector<float> back(im_size, 0.0f);
    col2im(y.data() + offset, ld, g, back.data());
    double rhs = 0.0;
    for (size_t i = 0; i < im_size; ++i)
      rhs += static_cast<double>(x[i]) * back[i];
    EXPECT_NEAR(lhs, rhs, 1e-3) << "ld=" << ld;
  }
}

struct ConvCase {
  int64_t c, h, w, oc, k, stride, pad;
};

class ConvLoweringTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvLoweringTest, GemmLoweringMatchesDirectConvolution) {
  const ConvCase p = GetParam();
  ConvGeom g{p.c, p.h, p.w, p.k, p.k, p.stride, p.stride, p.pad, p.pad};
  Rng rng(99);
  std::vector<float> im = random_vec(static_cast<size_t>(p.c * p.h * p.w), rng);
  std::vector<float> weight =
      random_vec(static_cast<size_t>(p.oc * g.col_rows()), rng);

  std::vector<float> direct(
      static_cast<size_t>(p.oc * g.out_h() * g.out_w()), 0.0f);
  conv2d_direct(im.data(), weight.data(), p.oc, g, direct.data());

  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(im.data(), g, col.data(), g.col_cols());
  std::vector<float> lowered(direct.size(), 0.0f);
  sgemm(false, false, p.oc, g.col_cols(), g.col_rows(), 1.0f, weight.data(),
        g.col_rows(), col.data(), g.col_cols(), 0.0f, lowered.data(),
        g.col_cols());

  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(lowered[i], direct[i], 1e-4f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvLoweringTest,
    ::testing::Values(ConvCase{1, 5, 5, 2, 3, 1, 1},
                      ConvCase{3, 8, 8, 4, 3, 1, 1},
                      ConvCase{3, 8, 8, 4, 3, 2, 1},
                      ConvCase{2, 9, 7, 3, 5, 1, 2},
                      ConvCase{4, 6, 6, 8, 1, 1, 0},
                      ConvCase{1, 4, 4, 1, 3, 2, 0},
                      ConvCase{2, 12, 12, 6, 3, 2, 1}));

}  // namespace
}  // namespace fca
