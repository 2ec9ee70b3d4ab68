// FedClassAvg + prototype learning — the extension the paper's conclusion
// proposes ("combining ... prototype training with our method can bring
// effective enhancements").
//
// Protocol per round = FedClassAvg's classifier exchange (Algorithm 1)
// *plus* a FedProto-style prototype exchange: clients upload per-class mean
// features, the server aggregates them weighted by class counts, and the
// local objective gains a prototype-distance term:
//
//   L = L_CL + L_CE + rho * L_R + lambda * mean_i ||F(x'_i) - proto[y_i]||^2
//
// The prototype pull gives the feature extractors a *direct* cross-client
// alignment signal on top of the indirect one the shared classifier
// provides; the extra traffic is one [C, D] matrix per direction per round.
// Requires a common feature dimension (which FedClassAvg already assumes).
#pragma once

#include "core/fedclassavg.hpp"

namespace fca::core {

struct FedClassAvgProtoConfig {
  FedClassAvgConfig base;
  /// Prototype-distance weight. Kept mild by default: early-round
  /// prototypes come from barely trained extractors, and pulling features
  /// toward them too hard slows the supervised objective down.
  float lambda = 0.2f;
  /// Rounds to wait before enabling the prototype term, letting the
  /// extractors produce meaningful prototypes first.
  int warmup_rounds = 2;
};

class FedClassAvgProto : public fl::RoundStrategy {
 public:
  /// Rejects the +weight (share_all_weights) and SimCLR (kSelfSupervised)
  /// base configurations: the prototype pull is defined for the
  /// heterogeneous, supervised-contrastive method only.
  explicit FedClassAvgProto(FedClassAvgProtoConfig config = {});

  std::string name() const override { return "FedClassAvg+Proto"; }
  void initialize(fl::FederatedRun& run) override;
  float execute_round(fl::FederatedRun& run, int round,
                      const std::vector<int>& selected) override;
  /// Same streamed C^1 computation as FedClassAvg::initialize_lazy, plus
  /// the zero-prototype setup; the bootstrap restores the averaged
  /// classifier into each client at first materialization.
  bool supports_lazy_init() const override { return true; }
  comm::Bytes initialize_lazy(fl::FederatedRun& run) override;
  void bootstrap_client(fl::FederatedRun& run, fl::Client& client,
                        const comm::Bytes& payload) override;
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  /// Global prototypes [num_classes, D]; zero rows for classes not yet seen.
  const Tensor& prototypes() const { return global_protos_; }
  const std::vector<bool>& prototype_valid() const { return valid_; }

 private:
  FedClassAvgProtoConfig config_;
  /// The classifier half of the protocol: its lazy C^1 sweep and
  /// bootstrap, and the eq. (4) loss head that local epochs run with the
  /// prototype pull as the extra term. Round state lives in global_.
  FedClassAvg head_;
  std::vector<Tensor> global_;  // [classifier W, classifier b]
  Tensor global_protos_;
  std::vector<bool> valid_;
};

}  // namespace fca::core
