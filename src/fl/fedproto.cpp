#include "fl/fedproto.hpp"

#include <limits>
#include <optional>

#include "fl/aggregate.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "utils/error.hpp"

namespace fca::fl {

comm::Bytes FedProto::save_state() const {
  return models::serialize_tensors({global_protos_, valid_mask(valid_)});
}

void FedProto::load_state(std::span<const std::byte> state) {
  std::vector<Tensor> t = models::deserialize_tensors(state);
  FCA_CHECK_MSG(t.size() == 2, "FedProto state must hold [protos, mask]");
  global_protos_ = std::move(t[0]);
  valid_ = valid_from_mask(t[1]);
}

float FedProto::train_epoch(Client& c, const Tensor& protos,
                            const std::vector<bool>& valid) const {
  double total = 0.0;
  int64_t batches = 0;
  const int64_t d = c.model().feature_dim();
  data::BatchLoader loader(c.train_data(), {}, c.config().batch_size);
  for (const auto& idx : loader.epoch(c.rng())) {
    const data::Batch batch = data::make_batch(c.train_data(), idx);
    const Tensor x = c.augmentor().augment(batch.images, c.rng());
    c.optimizer().zero_grad();
    Tensor feats = c.model().features(x, /*train=*/true);
    Tensor logits = c.model().classifier().forward(feats, /*train=*/true);
    nn::LossResult ce = nn::softmax_cross_entropy(logits, batch.labels);
    Tensor dfeat = c.model().classifier().backward(ce.grad);
    float loss = ce.value;
    if (!protos.empty()) {
      // lambda * mean_i ||f_i - proto[y_i]||^2, skipping classes the
      // federation has not produced a prototype for yet.
      const int64_t b = feats.dim(0);
      const float scale = 2.0f * config_.lambda / static_cast<float>(b);
      double reg = 0.0;
      for (int64_t i = 0; i < b; ++i) {
        const int y = batch.labels[static_cast<size_t>(i)];
        if (!valid[static_cast<size_t>(y)]) continue;
        for (int64_t j = 0; j < d; ++j) {
          const float diff = feats[i * d + j] - protos[y * d + j];
          reg += static_cast<double>(diff) * diff;
          dfeat[i * d + j] += scale * diff;
        }
      }
      loss += config_.lambda * static_cast<float>(reg) /
              static_cast<float>(b);
    }
    c.model().backward_features(dfeat);
    c.optimizer().step();
    total += loss;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total / batches) : 0.0f;
}

float FedProto::execute_round(FederatedRun& run, int round,
                              const std::vector<int>& selected) {
  // Architecture metadata only: a read-only touch keeps client 0 clean.
  const int64_t num_classes = run.client_readonly(0).model().num_classes();
  const int64_t d = run.client_readonly(0).model().feature_dim();
  if (valid_.empty()) {
    valid_.assign(static_cast<size_t>(num_classes), false);
    global_protos_ = Tensor({num_classes, d});
  }

  // Server -> live clients: current global prototypes (+ validity as
  // floats); crashed cohort members sit the round out.
  const std::vector<int> live = run.live_clients(round, selected);
  broadcast_tensors(run, live, kTagModelDown,
                    {global_protos_, valid_mask(valid_)});

  const std::vector<double> losses = run.executor().map(live, [&](int k) {
    const ClientStore::Lease lease = run.lease_client(k);
    Client& c = *lease;
    const std::optional<comm::Bytes> msg_bytes =
        run.client_endpoint(k).try_recv(0, kTagModelDown);
    if (!msg_bytes.has_value()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    const std::vector<Tensor> msg = decode_tensors(
        *msg_bytes, {{c.model().num_classes(), c.model().feature_dim()},
                     {c.model().num_classes()}});
    const std::vector<bool> valid = valid_from_mask(msg[1]);
    double loss = 0.0;
    {
      obs::TraceSpan train_span("fl", "local-train",
                                run.config().local_epochs);
      for (int e = 0; e < run.config().local_epochs; ++e) {
        loss += train_epoch(c, msg[0], valid);
      }
    }
    auto [protos, counts] = local_prototypes(c);
    run.client_endpoint(k).send(
        0, kTagModelUp, models::serialize_tensors({protos, counts}));
    return loss;
  });

  // Server: count-weighted prototype aggregation across survivors; below
  // quorum the previous global prototypes carry over unchanged.
  obs::TraceSpan agg_span("fl", "aggregate");
  const FederatedRun::SurvivorGather g =
      run.gather_survivors(live, kTagModelUp);
  agg_span.set_value(static_cast<int64_t>(g.survivors.size()));
  if (g.quorum_met && !g.survivors.empty()) {
    merge_prototypes(global_protos_, valid_, g.payloads.size(),
                     [&](size_t i) {
                       return models::deserialize_tensors(g.payloads[i]);
                     });
  }
  return FederatedRun::mean_finite(losses, run.config().local_epochs);
}

}  // namespace fca::fl
