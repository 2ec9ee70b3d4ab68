// FedProto (Tan et al. 2022): federated prototype learning.
//
// Clients never exchange weights; instead each client uploads per-class
// feature prototypes (mean embeddings), the server aggregates them weighted
// by class counts, and local training adds a prototype-distance regularizer
// lambda * ||F(x) - proto[y]||^2 on top of cross-entropy. Requires all
// clients to share one feature dimension (the paper notes FedProto therefore
// assumes *less* model heterogeneity than the other methods).
#pragma once

#include "fl/server.hpp"

namespace fca::fl {

struct FedProtoConfig {
  float lambda = 1.0f;  // prototype regularizer weight
};

class FedProto : public RoundStrategy {
 public:
  explicit FedProto(FedProtoConfig config = {}) : config_(config) {}

  std::string name() const override { return "FedProto"; }
  float execute_round(FederatedRun& run, int round,
                      const std::vector<int>& selected) override;
  /// FedProto has no init sweep (prototypes grow lazily from round 1), so
  /// lazy mode is the default behavior with an empty bootstrap.
  bool supports_lazy_init() const override { return true; }
  comm::Bytes initialize_lazy(FederatedRun& run) override {
    (void)run;
    return {};
  }
  void bootstrap_client(FederatedRun& run, Client& client,
                        const comm::Bytes& payload) override {
    (void)run;
    (void)client;
    (void)payload;
  }
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  /// Current global prototypes [num_classes, D]; rows of classes never seen
  /// are zero and `valid()[c]` is false.
  const Tensor& prototypes() const { return global_protos_; }
  const std::vector<bool>& valid() const { return valid_; }

 private:
  /// One local epoch with CE + prototype regularizer; returns mean loss.
  float train_epoch(Client& c, const Tensor& protos,
                    const std::vector<bool>& valid) const;

  FedProtoConfig config_;
  Tensor global_protos_;
  std::vector<bool> valid_;
};

}  // namespace fca::fl
