#include "core/fedclassavg_proto.hpp"

#include <limits>
#include <optional>

#include "autograd/ops.hpp"
#include "fl/aggregate.hpp"
#include "models/serialize.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "utils/error.hpp"

namespace fca::core {
namespace {

/// The prototype-distance extension, in *cosine space*: lambda times the
/// batch mean of ||F(x'_i)/|F(x'_i)| - p_y/|p_y|||^2 over the first view,
/// skipping classes the federation has no prototype for yet. Operating on
/// the unit sphere keeps the pull compatible with the SupCon geometry (a
/// raw-space pull fights the contrastive term's normalization and
/// destabilizes training).
FedClassAvg::ExtraLoss prototype_pull(const Tensor& protos,
                                      std::vector<bool> valid, float lambda) {
  return [protos_n = l2_normalize_rows(protos), valid = std::move(valid),
          lambda](const ag::Variable& f, const data::Batch& batch) {
    const int64_t b = batch.size();
    const int64_t d = protos_n.dim(1);
    Tensor proto_rows({b, d});
    Tensor row_mask({b, d});
    for (int64_t i = 0; i < b; ++i) {
      const int y = batch.labels[static_cast<size_t>(i)];
      if (!valid[static_cast<size_t>(y)]) continue;
      proto_rows.copy_row_from(i, protos_n, y);
      for (int64_t j = 0; j < d; ++j) row_mask[i * d + j] = 1.0f;
    }
    ag::Variable fn = ag::l2_normalize_rows(ag::slice_rows(f, 0, b));
    ag::Variable diff = ag::sub(fn, ag::Variable::constant(proto_rows));
    return ag::mul_scalar(ag::sum_squares(ag::mul_const(diff, row_mask)),
                          lambda / static_cast<float>(b));
  };
}

}  // namespace

FedClassAvgProto::FedClassAvgProto(FedClassAvgProtoConfig config)
    : config_(config), head_(config.base) {
  FCA_CHECK(config_.lambda >= 0.0f);
  FCA_CHECK_MSG(!config_.base.share_all_weights,
                "FedClassAvg+Proto is a heterogeneous-model strategy; use "
                "plain FedClassAvg for the +weight variant");
  FCA_CHECK_MSG(config_.base.contrastive_mode == ContrastiveMode::kSupervised,
                "FedClassAvg+Proto pulls features toward class prototypes "
                "under SupCon; use plain FedClassAvg for the SimCLR variant");
}

comm::Bytes FedClassAvgProto::save_state() const {
  // [classifier W, classifier b, prototypes, seen-class mask].
  FCA_CHECK_MSG(global_.size() == 2, "global classifier not initialized");
  return models::serialize_tensors(
      {global_[0], global_[1], global_protos_, fl::valid_mask(valid_)});
}

void FedClassAvgProto::load_state(std::span<const std::byte> state) {
  std::vector<Tensor> t = models::deserialize_tensors(state);
  FCA_CHECK_MSG(t.size() == 4,
                "FedClassAvg+Proto state must hold [W, b, protos, mask]");
  global_.clear();
  global_.push_back(std::move(t[0]));
  global_.push_back(std::move(t[1]));
  global_protos_ = std::move(t[2]);
  valid_ = fl::valid_from_mask(t[3]);
}

void FedClassAvgProto::initialize(fl::FederatedRun& run) {
  // Same classifier synchronization as FedClassAvg::initialize.
  std::vector<int> all;
  for (int k = 0; k < run.num_clients(); ++k) all.push_back(k);
  for (int k : all) {
    run.client_endpoint(k).send(
        0, fl::kTagModelUp,
        models::serialize_tensors(models::snapshot_values(
            run.client(k).model().classifier_parameters())));
  }
  // Strict collect: on a reliable fabric a lost init upload is a protocol
  // bug, so contributors == all on return, preserving the weights-over-all
  // arithmetic. Scoped ranks consume the root's mirror instead.
  const fl::FederatedRun::CollectedUploads collected =
      run.collect_uploads(all, fl::kTagModelUp, /*strict=*/true);
  global_ = fl::weighted_average(
      run.data_weights(collected.contributors), {}, [&](size_t i) {
        return models::deserialize_tensors(collected.uploads[i]);
      });
  const comm::Bytes payload = models::serialize_tensors(global_);
  run.server_endpoint().bcast_send(fl::FederatedRun::ranks_of(all),
                                   fl::kTagModelDown, payload);
  run.executor().for_each(all, [&run](int k) {
    const fl::ClientStore::Lease lease = run.lease_client(k);
    models::restore_values(
        models::deserialize_tensors(
            run.client_endpoint(k).recv(0, fl::kTagModelDown)),
        lease->model().classifier_parameters());
  });
  const int64_t num_classes = run.client(0).model().num_classes();
  const int64_t d = run.client(0).model().feature_dim();
  global_protos_ = Tensor({num_classes, d});
  valid_.assign(static_cast<size_t>(num_classes), false);
}

comm::Bytes FedClassAvgProto::initialize_lazy(fl::FederatedRun& run) {
  const comm::Bytes payload = head_.initialize_lazy(run);
  global_ = head_.global_classifier();
  const int64_t num_classes = run.client_readonly(0).model().num_classes();
  const int64_t d = run.client_readonly(0).model().feature_dim();
  global_protos_ = Tensor({num_classes, d});
  valid_.assign(static_cast<size_t>(num_classes), false);
  return payload;
}

void FedClassAvgProto::bootstrap_client(fl::FederatedRun& run,
                                        fl::Client& client,
                                        const comm::Bytes& payload) {
  head_.bootstrap_client(run, client, payload);
}

float FedClassAvgProto::execute_round(fl::FederatedRun& run, int round,
                                      const std::vector<int>& selected) {
  const bool proto_active =
      round > config_.warmup_rounds && config_.lambda > 0.0f;
  FCA_CHECK_MSG(!global_.empty(), "initialize() was not called");
  const int64_t num_classes = run.client_readonly(0).model().num_classes();
  const int64_t d = run.client_readonly(0).model().feature_dim();

  // Down: classifier + prototypes (+ validity).
  const std::vector<int> live = run.live_clients(round, selected);
  fl::broadcast_tensors(
      run, live, fl::kTagModelDown,
      {global_[0], global_[1], global_protos_, fl::valid_mask(valid_)});

  const std::vector<double> losses = run.executor().map(live, [&](int k) {
    const fl::ClientStore::Lease lease = run.lease_client(k);
    fl::Client& c = *lease;
    const std::optional<comm::Bytes> down_bytes =
        run.client_endpoint(k).try_recv(0, fl::kTagModelDown);
    if (!down_bytes.has_value()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    nn::Linear& clf = c.model().classifier();
    const int64_t classes = c.model().num_classes();
    const std::vector<Tensor> down = fl::decode_tensors(
        *down_bytes, {clf.weight().value.shape(), clf.bias().value.shape(),
                      {classes, c.model().feature_dim()}, {classes}});
    models::restore_values({down[0], down[1]},
                           c.model().classifier_parameters());
    FedClassAvg::ExtraLoss pull;
    if (proto_active) {
      pull = prototype_pull(down[2], fl::valid_from_mask(down[3]),
                            config_.lambda);
    }
    double loss = 0.0;
    {
      obs::TraceSpan train_span("fl", "local-train",
                                run.config().local_epochs);
      for (int e = 0; e < run.config().local_epochs; ++e) {
        loss += head_.train_epoch(c, down[0], down[1], pull);
      }
    }
    auto [protos, counts] = fl::local_prototypes(c);
    run.client_endpoint(k).send(
        0, fl::kTagModelUp,
        models::serialize_tensors(
            {clf.weight().value, clf.bias().value, protos, counts}));
    return loss;
  });

  // Up: classifier averaging (eq. 3) + count-weighted prototype merge over
  // the survivors; below quorum both carry over unchanged. Each upload is
  // [W, b, protos, counts], decoded once and split between the two rules.
  obs::TraceSpan agg_span("fl", "aggregate");
  const fl::FederatedRun::SurvivorGather g =
      run.gather_survivors(live, fl::kTagModelUp);
  agg_span.set_value(static_cast<int64_t>(g.survivors.size()));
  if (g.quorum_met && !g.survivors.empty()) {
    const std::vector<Shape> layout{global_[0].shape(), global_[1].shape(),
                                    {num_classes, d}, {num_classes}};
    std::vector<std::vector<Tensor>> ups;
    for (const comm::Bytes& payload : g.payloads) {
      ups.push_back(fl::decode_tensors(payload, layout));
    }
    global_ = fl::weighted_average(
        run.data_weights(g.survivors), fl::shapes_of(global_),
        [&](size_t i) { return std::vector<Tensor>{ups[i][0], ups[i][1]}; });
    fl::merge_prototypes(global_protos_, valid_, ups.size(), [&](size_t i) {
      return std::vector<Tensor>{ups[i][2], ups[i][3]};
    });
  }
  return fl::FederatedRun::mean_finite(losses, run.config().local_epochs);
}

}  // namespace fca::core
