// Parameter (de)serialization.
//
// Produces the byte streams that flow through the comm fabric: FedClassAvg
// ships only classifier parameters, FedAvg/FedProx ship whole models. The
// format is a simple self-describing TLV: per tensor, a name, a shape, and
// raw float32 data. Sizes measured on these buffers feed Table 5.
//
// Encoders are exact-size and single-copy: returned buffers are allocated
// once at their final size (capacity() == size()), and the append_* forms
// write into a caller's buffer so an enclosing encoding (fl/client_state)
// embeds them without an intermediate blob. Decoders validate every count,
// name, dim and data length against the bytes remaining before they
// allocate or write, throwing fca::Error on a malformed buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/split_model.hpp"

namespace fca::models {

/// Serializes parameter values (names + shapes + data) to a buffer.
std::vector<std::byte> serialize_params(
    const std::vector<nn::Param*>& params);

/// Restores parameter values from a buffer produced by serialize_params.
/// Count, order, names and shapes must match exactly.
void deserialize_params(std::span<const std::byte> bytes,
                        const std::vector<nn::Param*>& params);

/// Serialized size in bytes without building the buffer.
size_t serialized_params_size(const std::vector<nn::Param*>& params);

/// Full model state: every parameter plus every buffer (BatchNorm running
/// stats), the equivalent of a PyTorch state_dict file.
std::vector<std::byte> serialize_state(SplitModel& model);
void deserialize_state(std::span<const std::byte> bytes, SplitModel& model);
size_t serialized_state_size(SplitModel& model);
/// Appends the serialize_state encoding of `model` to `out`.
void append_state(SplitModel& model, std::vector<std::byte>& out);

/// Writes the full model state to a file (the equivalent of
/// torch.save(state_dict)): a small magic/version header followed by the
/// serialize_state buffer. Throws on I/O failure.
void save_state_file(SplitModel& model, const std::string& path);
/// Loads a state file produced by save_state_file into an identically
/// structured model. Throws on I/O failure, bad magic, or shape mismatch.
void load_state_file(SplitModel& model, const std::string& path);

/// Serializes an anonymous tensor list (used for prototypes, soft
/// predictions and other non-parameter payloads on the wire).
std::vector<std::byte> serialize_tensors(const std::vector<Tensor>& tensors);
/// Inverse of serialize_tensors; shapes are carried in the buffer.
std::vector<Tensor> deserialize_tensors(std::span<const std::byte> bytes);
/// serialize_tensors' size and encoding for tensors owned elsewhere (e.g.
/// optimizer slots), appended to `out` without copying the tensors first.
size_t serialized_tensors_size(const std::vector<Tensor*>& tensors);
void append_tensors(const std::vector<Tensor*>& tensors,
                    std::vector<std::byte>& out);
/// Decodes a serialize_tensors buffer straight into existing tensors. Count
/// and shapes must match; nothing is written unless the whole buffer does.
void deserialize_tensors_into(std::span<const std::byte> bytes,
                              const std::vector<Tensor*>& tensors);

/// Copies parameter *values* between equally shaped parameter lists.
void copy_param_values(const std::vector<nn::Param*>& src,
                       const std::vector<nn::Param*>& dst);

/// Snapshots parameter values into plain tensors (deep copies).
std::vector<Tensor> snapshot_values(const std::vector<nn::Param*>& params);
/// Writes snapshot tensors back into parameters.
void restore_values(const std::vector<Tensor>& snapshot,
                    const std::vector<nn::Param*>& params);

}  // namespace fca::models
