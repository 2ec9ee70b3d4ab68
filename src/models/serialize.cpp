#include "models/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "utils/atomic_io.hpp"
#include "utils/error.hpp"

namespace fca::models {
namespace {

// Buffer format, little-endian:
//   u32 tensor_count
//   per tensor: u32 name_len, name bytes, u32 ndim, i64 dims..., f32 data...
//
// Encoders append into a buffer reserved to serialized_named_size, so every
// byte is copied once out of tensor memory. Decoders check every count,
// length, dim and data size against the bytes remaining before they
// allocate for it; the in-place decoder checks the whole buffer against its
// targets before it writes any of them.

void put(std::vector<std::byte>& out, const void* p, size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

void put_u32(std::vector<std::byte>& out, uint32_t v) {
  put(out, &v, sizeof(v));
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  uint32_t u32() {
    uint32_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }
  int64_t i64() {
    int64_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }
  /// Consumes `n` bytes and returns where they start.
  const std::byte* take(size_t n) {
    FCA_CHECK_MSG(n <= remaining(), "truncated buffer");
    const std::byte* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

/// Reads the tensor count; every record takes at least name_len + ndim.
uint32_t read_count(Reader& r) {
  const uint32_t count = r.u32();
  FCA_CHECK_MSG(count <= r.remaining() / (2 * sizeof(uint32_t)),
                "tensor count " << count << " does not fit the "
                                << r.remaining() << " bytes that follow");
  return count;
}

std::string_view read_name(Reader& r) {
  const uint32_t len = r.u32();
  return {reinterpret_cast<const char*>(r.take(len)), len};
}

/// Reads one record into a new tensor, checking its rank, dims and data
/// length against the bytes remaining before anything is allocated.
Tensor read_tensor(Reader& r) {
  const std::string_view name = read_name(r);
  const uint32_t ndim = r.u32();
  FCA_CHECK_MSG(ndim <= r.remaining() / sizeof(int64_t),
                "rank " << ndim << " of tensor '" << name
                        << "' does not fit the buffer");
  Shape shape(ndim);
  size_t numel = 1;
  for (int64_t& d : shape) {
    d = r.i64();
    FCA_CHECK_MSG(d >= 0, "negative dim " << d << " in tensor '" << name
                                          << "'");
    // numel stays <= remaining / 4, so the product cannot overflow.
    FCA_CHECK_MSG(numel == 0 || static_cast<uint64_t>(d) <=
                                    r.remaining() / sizeof(float) / numel,
                  "tensor '" << name << "' claims more data than the "
                             << r.remaining() << " bytes left");
    numel *= static_cast<size_t>(d);
  }
  const std::byte* data = r.take(numel * sizeof(float));
  Tensor t(shape);
  if (numel > 0) std::memcpy(t.data(), data, numel * sizeof(float));
  return t;
}

struct NamedTensor {
  std::string name;
  Tensor* tensor;
};

void append_named(const std::vector<NamedTensor>& items,
                  std::vector<std::byte>& out) {
  put_u32(out, static_cast<uint32_t>(items.size()));
  for (const auto& it : items) {
    put_u32(out, static_cast<uint32_t>(it.name.size()));
    put(out, it.name.data(), it.name.size());
    put_u32(out, static_cast<uint32_t>(it.tensor->ndim()));
    const Shape& shape = it.tensor->shape();
    put(out, shape.data(), shape.size() * sizeof(int64_t));
    put(out, it.tensor->data(),
        static_cast<size_t>(it.tensor->numel()) * sizeof(float));
  }
}

size_t serialized_named_size(const std::vector<NamedTensor>& items) {
  size_t n = sizeof(uint32_t);
  for (const auto& it : items) {
    n += sizeof(uint32_t) + it.name.size();
    n += sizeof(uint32_t) +
         static_cast<size_t>(it.tensor->ndim()) * sizeof(int64_t);
    n += static_cast<size_t>(it.tensor->numel()) * sizeof(float);
  }
  return n;
}

std::vector<std::byte> serialize_named(const std::vector<NamedTensor>& items) {
  std::vector<std::byte> out;
  out.reserve(serialized_named_size(items));
  append_named(items, out);
  return out;
}

/// Decodes into `items` in place. The buffer is checked against the
/// targets' names and shapes in a first pass and copied in a second, so a
/// mismatch anywhere leaves every target unwritten.
void deserialize_named(std::span<const std::byte> bytes,
                       const std::vector<NamedTensor>& items) {
  Reader r(bytes);
  const uint32_t count = r.u32();
  FCA_CHECK_MSG(count == items.size(), "tensor count mismatch: buffer has "
                                           << count << ", target has "
                                           << items.size());
  std::vector<const std::byte*> data(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const NamedTensor& it = items[i];
    const std::string_view name = read_name(r);
    FCA_CHECK_MSG(name == it.name,
                  "tensor name mismatch: '" << name << "' vs '" << it.name
                                            << "'");
    FCA_CHECK_MSG(r.u32() == static_cast<uint32_t>(it.tensor->ndim()),
                  "rank mismatch for " << it.name);
    for (int64_t d = 0; d < it.tensor->ndim(); ++d) {
      FCA_CHECK_MSG(r.i64() == it.tensor->dim(d),
                    "shape mismatch for " << it.name);
    }
    data[i] = r.take(static_cast<size_t>(it.tensor->numel()) * sizeof(float));
  }
  FCA_CHECK_MSG(r.done(), "trailing bytes after deserialization");
  for (size_t i = 0; i < items.size(); ++i) {
    const size_t numel = static_cast<size_t>(items[i].tensor->numel());
    if (numel > 0) {
      std::memcpy(items[i].tensor->data(), data[i], numel * sizeof(float));
    }
  }
}

std::vector<NamedTensor> param_tensors(const std::vector<nn::Param*>& params) {
  std::vector<NamedTensor> out;
  out.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    // Positional prefix keeps equal simple names ("weight") distinct.
    out.push_back({std::to_string(i) + ":" + params[i]->name,
                   &params[i]->value});
  }
  return out;
}

/// Anonymous tensors are named by position ("0", "1", ...).
std::vector<NamedTensor> indexed_tensors(const std::vector<Tensor*>& tensors) {
  std::vector<NamedTensor> out;
  out.reserve(tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    out.push_back({std::to_string(i), tensors[i]});
  }
  return out;
}

std::vector<NamedTensor> state_tensors(SplitModel& model) {
  std::vector<NamedTensor> out = param_tensors(model.parameters());
  for (const auto& buf : model.buffers()) {
    out.push_back({"buf:" + buf.name, buf.tensor});
  }
  return out;
}

}  // namespace

std::vector<std::byte> serialize_params(
    const std::vector<nn::Param*>& params) {
  return serialize_named(param_tensors(params));
}

void deserialize_params(std::span<const std::byte> bytes,
                        const std::vector<nn::Param*>& params) {
  deserialize_named(bytes, param_tensors(params));
}

size_t serialized_params_size(const std::vector<nn::Param*>& params) {
  return serialized_named_size(param_tensors(params));
}

std::vector<std::byte> serialize_state(SplitModel& model) {
  return serialize_named(state_tensors(model));
}

void deserialize_state(std::span<const std::byte> bytes, SplitModel& model) {
  deserialize_named(bytes, state_tensors(model));
}

size_t serialized_state_size(SplitModel& model) {
  return serialized_named_size(state_tensors(model));
}

void append_state(SplitModel& model, std::vector<std::byte>& out) {
  append_named(state_tensors(model), out);
}

namespace {
constexpr char kStateMagic[8] = {'F', 'C', 'A', 'S', 'T', 'A', 'T', '1'};
}  // namespace

void save_state_file(SplitModel& model, const std::string& path) {
  const std::vector<std::byte> body = serialize_state(model);
  const auto size = static_cast<uint64_t>(body.size());
  AtomicFileWriter file(path);
  file.write(std::as_bytes(std::span(kStateMagic)));
  file.write(std::as_bytes(std::span(&size, 1)));
  file.write(body);
  file.commit();
}

void load_state_file(SplitModel& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FCA_CHECK_MSG(in.good(), "cannot open " << path);
  char magic[sizeof(kStateMagic)] = {};
  in.read(magic, sizeof(magic));
  FCA_CHECK_MSG(in.good() && std::memcmp(magic, kStateMagic,
                                         sizeof(kStateMagic)) == 0,
                path << " is not an FCA state file");
  uint64_t size = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  FCA_CHECK_MSG(in.good(), "truncated state file " << path);
  std::vector<std::byte> body(size);
  in.read(reinterpret_cast<char*>(body.data()),
          static_cast<std::streamsize>(size));
  FCA_CHECK_MSG(in.good(), "truncated state file " << path);
  deserialize_state(body, model);
}

std::vector<std::byte> serialize_tensors(const std::vector<Tensor>& tensors) {
  std::vector<Tensor*> ptrs;
  ptrs.reserve(tensors.size());
  // serialize_named only reads through the pointers, so the const_cast is
  // safe; the alternative (templating NamedTensor on constness) is not
  // worth the noise.
  for (const Tensor& t : tensors) ptrs.push_back(const_cast<Tensor*>(&t));
  return serialize_named(indexed_tensors(ptrs));
}

size_t serialized_tensors_size(const std::vector<Tensor*>& tensors) {
  return serialized_named_size(indexed_tensors(tensors));
}

void append_tensors(const std::vector<Tensor*>& tensors,
                    std::vector<std::byte>& out) {
  append_named(indexed_tensors(tensors), out);
}

std::vector<Tensor> deserialize_tensors(std::span<const std::byte> bytes) {
  Reader r(bytes);
  const uint32_t count = read_count(r);
  std::vector<Tensor> out;
  for (uint32_t i = 0; i < count; ++i) out.push_back(read_tensor(r));
  FCA_CHECK_MSG(r.done(), "trailing bytes after tensor deserialization");
  return out;
}

void deserialize_tensors_into(std::span<const std::byte> bytes,
                              const std::vector<Tensor*>& tensors) {
  deserialize_named(bytes, indexed_tensors(tensors));
}

void copy_param_values(const std::vector<nn::Param*>& src,
                       const std::vector<nn::Param*>& dst) {
  FCA_CHECK(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    FCA_CHECK_MSG(src[i]->value.same_shape(dst[i]->value),
                  "param shape mismatch at index " << i);
    std::copy_n(src[i]->value.data(), src[i]->value.numel(),
                dst[i]->value.data());
  }
}

std::vector<Tensor> snapshot_values(const std::vector<nn::Param*>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const nn::Param* p : params) out.push_back(p->value.clone());
  return out;
}

void restore_values(const std::vector<Tensor>& snapshot,
                    const std::vector<nn::Param*>& params) {
  FCA_CHECK(snapshot.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    FCA_CHECK(snapshot[i].same_shape(params[i]->value));
    std::copy_n(snapshot[i].data(), snapshot[i].numel(),
                params[i]->value.data());
  }
}

}  // namespace fca::models
