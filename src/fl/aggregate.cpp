#include "fl/aggregate.hpp"

#include <string>

#include "fl/server.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::fl {
namespace {

void check_layout(const std::vector<Tensor>& tensors,
                  const std::vector<Shape>& layout, const std::string& what) {
  FCA_CHECK_MSG(tensors.size() == layout.size(),
                what << " holds " << tensors.size() << " tensors, expected "
                     << layout.size());
  for (size_t t = 0; t < layout.size(); ++t) {
    FCA_CHECK_MSG(tensors[t].shape() == layout[t],
                  what << " tensor " << t << " has shape "
                       << shape_to_string(tensors[t].shape()) << ", expected "
                       << shape_to_string(layout[t]));
  }
}

}  // namespace

std::vector<Shape> shapes_of(const std::vector<Tensor>& tensors) {
  std::vector<Shape> shapes;
  shapes.reserve(tensors.size());
  for (const Tensor& t : tensors) shapes.push_back(t.shape());
  return shapes;
}

std::vector<Tensor> decode_tensors(std::span<const std::byte> bytes,
                                   const std::vector<Shape>& layout) {
  std::vector<Tensor> tensors = models::deserialize_tensors(bytes);
  check_layout(tensors, layout, "payload");
  return tensors;
}

std::vector<Tensor> weighted_average(const std::vector<double>& weights,
                                     const std::vector<Shape>& layout,
                                     const UploadFn& upload_of) {
  std::vector<Shape> expected = layout;
  std::vector<Tensor> acc(expected.begin(), expected.end());
  for (size_t i = 0; i < weights.size(); ++i) {
    const std::vector<Tensor> up = upload_of(i);
    if (i == 0 && layout.empty()) {
      expected = shapes_of(up);
      acc = std::vector<Tensor>(expected.begin(), expected.end());
    }
    check_layout(up, expected, "upload " + std::to_string(i));
    for (size_t t = 0; t < acc.size(); ++t) {
      axpy_(acc[t], static_cast<float>(weights[i]), up[t]);
    }
  }
  return acc;
}

std::pair<Tensor, Tensor> local_prototypes(Client& c) {
  const data::Dataset& ds = c.train_data();
  const int64_t d = c.model().feature_dim();
  const int64_t num_classes = c.model().num_classes();
  Tensor feats = c.extract_features(ds);
  Tensor protos({num_classes, d});
  Tensor counts({num_classes});
  for (int64_t i = 0; i < ds.size(); ++i) {
    const int y = ds.labels[static_cast<size_t>(i)];
    counts[y] += 1.0f;
    for (int64_t j = 0; j < d; ++j) protos[y * d + j] += feats[i * d + j];
  }
  for (int64_t cls = 0; cls < num_classes; ++cls) {
    if (counts[cls] > 0.0f) {
      const float inv = 1.0f / counts[cls];
      for (int64_t j = 0; j < d; ++j) protos[cls * d + j] *= inv;
    }
  }
  return {std::move(protos), std::move(counts)};
}

void merge_prototypes(Tensor& protos, std::vector<bool>& valid, size_t n,
                      const UploadFn& upload_of) {
  FCA_CHECK(protos.ndim() == 2 &&
            static_cast<int64_t>(valid.size()) == protos.dim(0));
  const int64_t num_classes = protos.dim(0);
  const int64_t d = protos.dim(1);
  const std::vector<Shape> layout{protos.shape(), {num_classes}};
  Tensor agg(protos.shape());
  Tensor agg_counts({num_classes});
  for (size_t i = 0; i < n; ++i) {
    const std::vector<Tensor> up = upload_of(i);
    check_layout(up, layout, "prototype upload " + std::to_string(i));
    const Tensor& up_protos = up[0];
    const Tensor& counts = up[1];
    for (int64_t cls = 0; cls < num_classes; ++cls) {
      if (counts[cls] <= 0.0f) continue;
      for (int64_t j = 0; j < d; ++j) {
        agg[cls * d + j] += counts[cls] * up_protos[cls * d + j];
      }
      agg_counts[cls] += counts[cls];
    }
  }
  for (int64_t cls = 0; cls < num_classes; ++cls) {
    if (agg_counts[cls] > 0.0f) {
      const float inv = 1.0f / agg_counts[cls];
      for (int64_t j = 0; j < d; ++j) {
        protos[cls * d + j] = agg[cls * d + j] * inv;
      }
      valid[static_cast<size_t>(cls)] = true;
    }
  }
}

Tensor valid_mask(const std::vector<bool>& valid) {
  Tensor mask({static_cast<int64_t>(valid.size())});
  for (size_t i = 0; i < valid.size(); ++i) {
    mask[static_cast<int64_t>(i)] = valid[i] ? 1.0f : 0.0f;
  }
  return mask;
}

std::vector<bool> valid_from_mask(const Tensor& mask) {
  std::vector<bool> valid(static_cast<size_t>(mask.numel()));
  for (size_t i = 0; i < valid.size(); ++i) {
    valid[i] = mask[static_cast<int64_t>(i)] > 0.5f;
  }
  return valid;
}

void broadcast_tensors(FederatedRun& run, const std::vector<int>& live,
                       int tag, const std::vector<Tensor>& tensors) {
  comm::Bytes payload;
  {
    obs::TraceSpan ser_span("fl", "serialize");
    payload = models::serialize_tensors(tensors);
    ser_span.set_value(static_cast<int64_t>(payload.size()));
  }
  obs::TraceSpan bcast_span("fl", "broadcast",
                            static_cast<int64_t>(live.size()));
  run.server_endpoint().bcast_send(FederatedRun::ranks_of(live), tag,
                                   payload);
}

}  // namespace fca::fl
