#include "fl/client_state.hpp"

#include <string>

#include "ckpt/format.hpp"
#include "models/serialize.hpp"
#include "utils/error.hpp"

namespace fca::fl {

// Layout: blob(model state) | u32 n + n × i64 optimizer scalars |
// blob(optimizer slot tensors) | u64 RNG state, where blob is a u64 length
// + bytes. The encoder sizes the buffer exactly and writes each tensor once,
// straight from the live model and optimizer; the decoder reads the blobs as
// views and writes straight into the live tensors.
std::vector<std::byte> encode_client_state(Client& client) {
  models::SplitModel& model = client.model();
  const std::vector<int64_t> scalars = client.optimizer().scalar_state();
  const std::vector<Tensor*> slots = client.optimizer().state_tensors();
  const size_t state_size = models::serialized_state_size(model);
  const size_t slots_size = models::serialized_tensors_size(slots);
  ckpt::ByteWriter w(sizeof(uint64_t) + state_size + sizeof(uint32_t) +
                     scalars.size() * sizeof(int64_t) + sizeof(uint64_t) +
                     slots_size + sizeof(uint64_t));
  w.blob(state_size, [&](std::vector<std::byte>& out) {
    models::append_state(model, out);
  });
  // Optimizer: scalar state (e.g. Adam's step count) + slot tensors.
  w.u32(static_cast<uint32_t>(scalars.size()));
  for (int64_t s : scalars) w.i64(s);
  w.blob(slots_size, [&](std::vector<std::byte>& out) {
    models::append_tensors(slots, out);
  });
  w.u64(client.rng().state());
  return w.take();
}

void decode_client_state(std::span<const std::byte> bytes, Client& client) {
  ckpt::ByteReader r(bytes);
  models::deserialize_state(r.blob(), client.model());
  const uint32_t scalar_count = r.u32();
  FCA_CHECK_MSG(scalar_count <= r.remaining() / sizeof(int64_t),
                "optimizer scalar count " << scalar_count
                    << " overruns the state of client " << client.id());
  std::vector<int64_t> scalars(scalar_count);
  for (uint32_t i = 0; i < scalar_count; ++i) scalars[i] = r.i64();
  client.optimizer().restore_scalar_state(scalars);
  try {
    models::deserialize_tensors_into(r.blob(),
                                     client.optimizer().state_tensors());
  } catch (const Error& e) {
    throw Error("optimizer slots of client " + std::to_string(client.id()) +
                " do not match the serialized state: " + e.what());
  }
  client.rng().restore(r.u64());
  r.expect_done();
}

}  // namespace fca::fl
