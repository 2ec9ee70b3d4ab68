#include "models/serialize.hpp"

#include <gtest/gtest.h>

#include "models/factory.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::models {
namespace {

ModelConfig tiny_config() {
  ModelConfig mc;
  mc.arch = Arch::kMiniAlexNet;
  mc.in_channels = 1;
  mc.image_size = 8;
  mc.feature_dim = 8;
  mc.num_classes = 3;
  mc.width = 4;
  return mc;
}

TEST(Serialize, ParamsRoundTrip) {
  Rng rng(1);
  auto src = build_model(tiny_config(), rng);
  auto dst = build_model(tiny_config(), rng);  // different init
  const auto bytes = serialize_params(src->parameters());
  EXPECT_EQ(bytes.size(), serialized_params_size(src->parameters()));
  deserialize_params(bytes, dst->parameters());
  const auto sp = src->parameters();
  const auto dp = dst->parameters();
  for (size_t i = 0; i < sp.size(); ++i) {
    EXPECT_TRUE(allclose(sp[i]->value, dp[i]->value, 0.0f, 0.0f));
  }
}

TEST(Serialize, StateIncludesBuffers) {
  ModelConfig mc = tiny_config();
  mc.arch = Arch::kMiniResNet;  // has BatchNorm buffers
  mc.width = 4;
  Rng rng(2);
  auto src = build_model(mc, rng);
  // Perturb running stats so the round trip is observable.
  for (auto& buf : src->buffers()) buf.tensor->fill(0.33f);
  auto dst = build_model(mc, rng);
  deserialize_state(serialize_state(*src), *dst);
  for (auto& buf : dst->buffers()) {
    for (int64_t i = 0; i < buf.tensor->numel(); ++i) {
      EXPECT_FLOAT_EQ((*buf.tensor)[i], 0.33f);
    }
  }
  EXPECT_GT(serialized_state_size(*src),
            serialized_params_size(src->parameters()));
}

TEST(Serialize, TensorsRoundTrip) {
  Rng rng(3);
  std::vector<Tensor> tensors;
  tensors.push_back(Tensor::randn({3, 4}, rng));
  tensors.push_back(Tensor::randn({7}, rng));
  tensors.push_back(Tensor({2, 2, 2}, 1.5f));
  const auto bytes = serialize_tensors(tensors);
  const auto back = deserialize_tensors(bytes);
  ASSERT_EQ(back.size(), 3u);
  for (size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_EQ(back[i].shape(), tensors[i].shape());
    EXPECT_TRUE(allclose(back[i], tensors[i], 0.0f, 0.0f));
  }
}

TEST(Serialize, EmptyTensorList) {
  const auto bytes = serialize_tensors({});
  EXPECT_TRUE(deserialize_tensors(bytes).empty());
}

TEST(Serialize, RejectsTruncatedBuffer) {
  Rng rng(4);
  std::vector<Tensor> tensors{Tensor::randn({4}, rng)};
  auto bytes = serialize_tensors(tensors);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(deserialize_tensors(bytes), Error);
}

/// Little-endian bytes of `v`, for hand-built payloads.
template <typename T>
void put_le(std::vector<std::byte>& out, T v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

TEST(Serialize, HugeTensorCountRejectedBeforeAllocating) {
  // 4 bytes claiming 2^32 - 1 tensors: once reached reserve(4294967295).
  std::vector<std::byte> bytes;
  put_le<uint32_t>(bytes, 0xFFFFFFFFu);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_THROW(deserialize_tensors(bytes), Error);
}

TEST(Serialize, HugeTensorShapeRejectedBeforeAllocating) {
  // 36 bytes claiming a 2^20 x 2^12 tensor: once zero-filled 16 GB.
  std::vector<std::byte> bytes;
  put_le<uint32_t>(bytes, 1);  // count
  put_le<uint32_t>(bytes, 0);  // empty name
  put_le<uint32_t>(bytes, 2);  // ndim
  put_le<int64_t>(bytes, int64_t{1} << 20);
  put_le<int64_t>(bytes, int64_t{1} << 12);
  put_le<float>(bytes, 1.0f);
  put_le<float>(bytes, 2.0f);
  ASSERT_EQ(bytes.size(), 36u);
  EXPECT_THROW(deserialize_tensors(bytes), Error);
}

TEST(Serialize, MalformedShapesRejected) {
  const auto payload = [](std::vector<int64_t> dims) {
    std::vector<std::byte> bytes;
    put_le<uint32_t>(bytes, 1);
    put_le<uint32_t>(bytes, 0);
    put_le<uint32_t>(bytes, static_cast<uint32_t>(dims.size()));
    for (int64_t d : dims) put_le<int64_t>(bytes, d);
    put_le<float>(bytes, 0.5f);
    return bytes;
  };
  EXPECT_EQ(deserialize_tensors(payload({1, 1})).at(0).numel(), 1);
  EXPECT_THROW(deserialize_tensors(payload({-1, -1})), Error);
  // A numel whose byte count overflows 64 bits.
  EXPECT_THROW(deserialize_tensors(payload({int64_t{1} << 40,
                                            int64_t{1} << 40})),
               Error);
  // A rank whose dims alone overrun the buffer.
  std::vector<std::byte> rank;
  put_le<uint32_t>(rank, 1);
  put_le<uint32_t>(rank, 0);
  put_le<uint32_t>(rank, 0xFFFFFFFFu);
  EXPECT_THROW(deserialize_tensors(rank), Error);
  // A name length past the end.
  std::vector<std::byte> name;
  put_le<uint32_t>(name, 1);
  put_le<uint32_t>(name, 0xFFFFFFF0u);
  put_le<uint32_t>(name, 0);
  EXPECT_THROW(deserialize_tensors(name), Error);
}

TEST(Serialize, EncodersAllocateExactly) {
  Rng rng(8);
  std::vector<Tensor> tensors{Tensor::randn({5, 3}, rng), Tensor({2}, 1.0f)};
  const auto bytes = serialize_tensors(tensors);
  EXPECT_EQ(bytes.capacity(), bytes.size());
  ModelConfig mc = tiny_config();
  mc.arch = Arch::kMiniResNet;
  auto model = build_model(mc, rng);
  const auto state = serialize_state(*model);
  EXPECT_EQ(state.size(), serialized_state_size(*model));
  EXPECT_EQ(state.capacity(), state.size());
  std::vector<std::byte> appended;
  append_state(*model, appended);
  EXPECT_EQ(appended, state);
}

TEST(Serialize, TensorsIntoLiveTargetsAllOrNothing) {
  Rng rng(9);
  std::vector<Tensor> src{Tensor::randn({3, 2}, rng), Tensor::randn({4}, rng)};
  const auto bytes = serialize_tensors(src);
  std::vector<Tensor*> ptrs{&src[0], &src[1]};
  EXPECT_EQ(serialized_tensors_size(ptrs), bytes.size());
  std::vector<std::byte> appended;
  append_tensors(ptrs, appended);
  EXPECT_EQ(appended, bytes);

  Tensor a({3, 2}, 0.0f);
  Tensor b({4}, 0.0f);
  deserialize_tensors_into(bytes, {&a, &b});
  EXPECT_TRUE(allclose(a, src[0], 0.0f, 0.0f));
  EXPECT_TRUE(allclose(b, src[1], 0.0f, 0.0f));

  // A shape mismatch on the second target leaves the first untouched.
  Tensor c({3, 2}, 7.0f);
  Tensor wrong({5}, 7.0f);
  EXPECT_THROW(deserialize_tensors_into(bytes, {&c, &wrong}), Error);
  EXPECT_TRUE(allclose(c, Tensor({3, 2}, 7.0f), 0.0f, 0.0f));
  EXPECT_THROW(deserialize_tensors_into(bytes, {&c}), Error);
}

TEST(Serialize, RejectsShapeMismatchOnParams) {
  Rng rng(5);
  auto a = build_model(tiny_config(), rng);
  ModelConfig other = tiny_config();
  other.feature_dim = 16;
  auto b = build_model(other, rng);
  const auto bytes = serialize_params(a->parameters());
  EXPECT_THROW(deserialize_params(bytes, b->parameters()), Error);
}

TEST(Serialize, ClassifierPayloadIsSmall) {
  // The headline communication claim: classifier-only payloads are orders
  // of magnitude smaller than the full model.
  Rng rng(6);
  ModelConfig mc = tiny_config();
  mc.arch = Arch::kMiniResNet;
  mc.width = 8;
  auto model = build_model(mc, rng);
  const size_t full = serialized_params_size(model->parameters());
  const size_t clf = serialized_params_size(model->classifier_parameters());
  EXPECT_LT(clf * 10, full);
}

TEST(Serialize, CopySnapshotRestore) {
  Rng rng(7);
  auto a = build_model(tiny_config(), rng);
  auto b = build_model(tiny_config(), rng);
  copy_param_values(a->parameters(), b->parameters());
  EXPECT_TRUE(allclose(a->classifier().weight().value,
                       b->classifier().weight().value, 0.0f, 0.0f));

  const auto snapshot = snapshot_values(a->parameters());
  a->classifier().weight().value.fill(9.0f);
  restore_values(snapshot, a->parameters());
  EXPECT_TRUE(allclose(a->classifier().weight().value,
                       b->classifier().weight().value, 0.0f, 0.0f));
}

TEST(Serialize, RestoreRejectsCountMismatch) {
  Rng rng(8);
  auto a = build_model(tiny_config(), rng);
  std::vector<Tensor> wrong{Tensor({2})};
  EXPECT_THROW(restore_values(wrong, a->parameters()), Error);
}

}  // namespace
}  // namespace fca::models
