// Server-side aggregation rules shared by the round strategies.
//
// The paper's server step is one rule, a data-weighted average of uploaded
// tensors (eq. 1 weights applied as in eq. 3), and the prototype strategies
// add one more, FedProto's class-count-weighted prototype merge. Each rule
// lives here exactly once so every strategy that uses it runs the same
// arithmetic in the same order; new strategies call these helpers instead of
// copying the loops. Uploads arrive from other ranks in a multi-process
// world, so the helpers check tensor counts and shapes against the expected
// layout and throw fca::Error on a malformed payload.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "comm/endpoint.hpp"
#include "tensor/tensor.hpp"

namespace fca::fl {

class Client;
class FederatedRun;

/// Produces upload i on demand. The helpers call it exactly once per i, in
/// ascending order, so a caller can deserialize (or snapshot) lazily and keep
/// a single upload alive at a time.
using UploadFn = std::function<std::vector<Tensor>(size_t i)>;

/// Shapes of a tensor list, for use as an expected layout.
std::vector<Shape> shapes_of(const std::vector<Tensor>& tensors);

/// Deserializes a payload that must hold exactly `layout.size()` tensors of
/// the given shapes.
std::vector<Tensor> decode_tensors(std::span<const std::byte> bytes,
                                   const std::vector<Shape>& layout);

/// sum_i weights[i] * upload_of(i) for i in [0, weights.size()): zeroed
/// accumulators, then one axpy per upload in list order with the weight
/// rounded to float. Every upload must match `layout`; an empty layout
/// adopts the first upload's.
std::vector<Tensor> weighted_average(const std::vector<double>& weights,
                                     const std::vector<Shape>& layout,
                                     const UploadFn& upload_of);

/// Per-class mean features over the client's train shard, [C, D], and the
/// per-class sample counts, [C].
std::pair<Tensor, Tensor> local_prototypes(Client& c);

/// Count-weighted merge of `n` uploads, upload_of(i) = [protos [C, D],
/// counts [C]], into the global table `protos`/`valid`: a class some upload
/// counted gets sum_i counts_i[c] * protos_i[c] / sum_i counts_i[c] and
/// becomes valid; a class no upload counted keeps its row and validity.
void merge_prototypes(Tensor& protos, std::vector<bool>& valid, size_t n,
                      const UploadFn& upload_of);

/// The seen-class mask as it travels and is checkpointed: 1.0 / 0.0 per
/// class.
Tensor valid_mask(const std::vector<bool>& valid);
/// Inverse of valid_mask (entries above 0.5 are set).
std::vector<bool> valid_from_mask(const Tensor& mask);

/// Serializes `tensors` (span fl/serialize, value = payload bytes) and sends
/// the payload to every client in `live` on `tag` (span fl/broadcast, value =
/// recipient count).
void broadcast_tensors(FederatedRun& run, const std::vector<int>& live,
                       int tag, const std::vector<Tensor>& tensors);

}  // namespace fca::fl
