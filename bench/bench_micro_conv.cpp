// Micro ablation: convolution lowering (DESIGN.md §4, §9).
// Direct convolution vs im2col+GEMM at the layer geometries the model zoo
// uses, the production im2col/col2im alone at the zoo's lowered geometries,
// plus the full Conv2d module forward/backward — for one layer at several
// batch sizes and for every zoo layer geometry at batch 16.
#include <benchmark/benchmark.h>

#include <vector>

#include "nn/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "utils/rng.hpp"
#include "utils/threadpool.hpp"

namespace {

using fca::ConvGeom;
using fca::Rng;
using fca::Tensor;

void BM_ConvDirect(benchmark::State& state) {
  const int64_t c = state.range(0), hw = state.range(1), oc = state.range(2);
  ConvGeom g{c, hw, hw, 3, 3, 1, 1, 1, 1};
  Rng rng(1);
  Tensor im = Tensor::randn({c, hw, hw}, rng);
  Tensor w = Tensor::randn({oc, g.col_rows()}, rng);
  std::vector<float> out(static_cast<size_t>(oc * g.col_cols()));
  for (auto _ : state) {
    fca::conv2d_direct(im.data(), w.data(), oc, g, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvDirect)->Args({8, 12, 16})->Args({16, 6, 32});

void BM_ConvLowered(benchmark::State& state) {
  const int64_t c = state.range(0), hw = state.range(1), oc = state.range(2);
  ConvGeom g{c, hw, hw, 3, 3, 1, 1, 1, 1};
  Rng rng(1);
  Tensor im = Tensor::randn({c, hw, hw}, rng);
  Tensor w = Tensor::randn({oc, g.col_rows()}, rng);
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  std::vector<float> out(static_cast<size_t>(oc * g.col_cols()));
  for (auto _ : state) {
    fca::im2col(im.data(), g, col.data(), g.col_cols());
    fca::sgemm(false, false, oc, g.col_cols(), g.col_rows(), 1.0f, w.data(),
               g.col_rows(), col.data(), g.col_cols(), 0.0f, out.data(),
               g.col_cols());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvLowered)->Args({8, 12, 16})->Args({16, 6, 32});

// Production im2col / col2im over one run of the zoo's lowered (not
// depthwise) geometries: `per` samples unfolded side by side into one
// shared column matrix with ld = per * out_h * out_w, exactly as
// nn::Conv2d lowers a run. `per` is the run width Conv2d picks for the
// geometry (the largest power of two <= 8 whose column matrix fits its
// 32 K-float column budget). Args: channels, input height/width, kernel,
// stride, padding, per.
struct LoweredRun {
  ConvGeom g;
  int64_t per, in_img, ohow, ld;

  explicit LoweredRun(const benchmark::State& state)
      : g{state.range(0), state.range(1), state.range(1),
          state.range(2), state.range(2), state.range(3),
          state.range(3), state.range(4), state.range(4)},
        per(state.range(5)),
        in_img(g.channels * g.height * g.width),
        ohow(g.col_cols()),
        ld(per * ohow) {}
};

void BM_Im2col(benchmark::State& state) {
  const LoweredRun r(state);
  Rng rng(5);
  const Tensor x =
      Tensor::randn({r.per, r.g.channels, r.g.height, r.g.width}, rng);
  std::vector<float> col(static_cast<size_t>(r.g.col_rows() * r.ld));
  for (auto _ : state) {
    for (int64_t j = 0; j < r.per; ++j) {
      fca::im2col(x.data() + j * r.in_img, r.g, col.data() + j * r.ohow,
                  r.ld);
    }
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() * r.per);
}

void BM_Col2im(benchmark::State& state) {
  const LoweredRun r(state);
  Rng rng(6);
  const Tensor col = Tensor::randn({r.g.col_rows(), r.ld}, rng);
  std::vector<float> grad_in(static_cast<size_t>(r.per * r.in_img), 0.0f);
  for (auto _ : state) {
    for (int64_t j = 0; j < r.per; ++j) {
      fca::col2im(col.data() + j * r.ohow, r.ld, r.g,
                  grad_in.data() + j * r.in_img);
    }
    benchmark::DoNotOptimize(grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * r.per);
}

void ZooLoweredGeometries(benchmark::internal::Benchmark* b) {
  b->ArgNames({"c", "hw", "k", "s", "p", "per"})
      // RGB stems: 3x3 and the 5x5 of cnn2/alexnet.
      ->Args({3, 12, 3, 1, 1, 8})
      ->Args({3, 12, 5, 1, 2, 2})
      // 3x3 bodies at each stage, and the strided downsample.
      ->Args({8, 12, 3, 1, 1, 2})
      ->Args({16, 6, 3, 1, 1, 4})
      ->Args({32, 3, 3, 1, 1, 8})
      ->Args({16, 6, 3, 2, 1, 8})
      // 1x1 pointwise and the strided 1x1 shortcut.
      ->Args({8, 6, 1, 1, 0, 8})
      ->Args({16, 3, 1, 1, 0, 8})
      ->Args({8, 12, 1, 2, 0, 8});
}
BENCHMARK(BM_Im2col)->Apply(ZooLoweredGeometries);
BENCHMARK(BM_Col2im)->Apply(ZooLoweredGeometries);

void BM_Conv2dForward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(2);
  fca::nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  Tensor x = Tensor::randn({batch, 8, 12, 12}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, /*train=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(16)->Arg(32);

void BM_Conv2dForwardBackward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  fca::nn::Conv2d conv(8, 16, 3, 1, 1, rng);
  Tensor x = Tensor::randn({batch, 8, 12, 12}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, /*train=*/true);
    Tensor gx = conv.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2dForwardBackward)->Arg(16);

// Production Conv2d forward + backward at batch 16 for the layer geometries
// of the model zoo (width 8, 12x12 inputs), so per-layer before/after
// numbers can be taken outside the federated loop. The layer runs inside a
// ThreadPool::SerialRegion, as it does on a client lane of a federated
// round. Args: in_c, out_c, kernel, stride, padding, groups, input
// height/width.
void BM_Conv2dZooLayer(benchmark::State& state) {
  const int64_t in_c = state.range(0), out_c = state.range(1);
  const int64_t k = state.range(2), stride = state.range(3);
  const int64_t pad = state.range(4), groups = state.range(5);
  const int64_t hw = state.range(6);
  constexpr int64_t kBatch = 16;
  Rng rng(4);
  fca::nn::Conv2d conv(in_c, out_c, k, stride, pad, rng, /*bias=*/false,
                       groups);
  Tensor x = Tensor::randn({kBatch, in_c, hw, hw}, rng);
  fca::ThreadPool::SerialRegion client_lane;
  for (auto _ : state) {
    Tensor y = conv.forward(x, /*train=*/true);
    Tensor gx = conv.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_Conv2dZooLayer)
    ->ArgNames({"in", "out", "k", "s", "p", "g", "hw"})
    // First layer of every backbone (RGB stem).
    ->Args({3, 8, 3, 1, 1, 1, 12})
    // ResNet / GoogLeNet 3x3 bodies at each stage.
    ->Args({8, 8, 3, 1, 1, 1, 12})
    ->Args({16, 16, 3, 1, 1, 1, 6})
    ->Args({32, 32, 3, 1, 1, 1, 3})
    // 1x1 pointwise (ShuffleNet branches, GoogLeNet reduces, shortcuts).
    ->Args({8, 8, 1, 1, 0, 1, 6})
    ->Args({16, 16, 1, 1, 0, 1, 3})
    ->Args({8, 2, 1, 1, 0, 1, 12})
    // ShuffleNet depthwise, stride 1 and stride 2.
    ->Args({8, 8, 3, 1, 1, 8, 6})
    ->Args({16, 16, 3, 1, 1, 16, 3})
    ->Args({8, 8, 3, 2, 1, 8, 12})
    ->Args({16, 16, 3, 2, 1, 16, 6});

}  // namespace

BENCHMARK_MAIN();
