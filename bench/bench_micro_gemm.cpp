// Micro ablation: GEMM kernel design (DESIGN.md §4).
// Compares the naive triple loop against the sgemm dispatcher (the packed
// kernel by default) across square sizes and the matrix shape the conv
// lowering actually produces.
#include <benchmark/benchmark.h>

#include <vector>

#include "tensor/gemm.hpp"
#include "utils/rng.hpp"

namespace {

using fca::Rng;

std::vector<float> random_matrix(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void BM_GemmNaive(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto a = random_matrix(n * n, 1);
  const auto b = random_matrix(n * n, 2);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    fca::sgemm_naive(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n,
                     0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmDispatch(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto a = random_matrix(n * n, 1);
  const auto b = random_matrix(n * n, 2);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    fca::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
               c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmDispatch)->Arg(64)->Arg(128)->Arg(256);

// The conv-lowering shape: tall-skinny weight x wide col matrix.
void BM_GemmConvShape(benchmark::State& state) {
  const int64_t oc = 16, ckk = 72, ohow = 144;
  const auto a = random_matrix(oc * ckk, 1);
  const auto b = random_matrix(ckk * ohow, 2);
  std::vector<float> c(static_cast<size_t>(oc * ohow), 0.0f);
  for (auto _ : state) {
    fca::sgemm(false, false, oc, ohow, ckk, 1.0f, a.data(), ckk, b.data(),
               ohow, 0.0f, c.data(), ohow);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmConvShape);

}  // namespace

BENCHMARK_MAIN();
