// The benchmark's named workloads: each pins a full core::ExperimentConfig,
// the strategy and the checkpoint policy. Only the seed comes from outside.
// Why each workload exists, and the values its outputs are checked
// against, are recorded in perfbench/workloads.json.
#pragma once

#include <memory>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "core/trainer.hpp"
#include "fl/server.hpp"

namespace fca::perfbench {

struct Workload {
  std::string name;
  core::ExperimentConfig config;
  bool fedavg = false;          // FedAvg; FedClassAvg otherwise
  bool checkpoint = false;      // CheckpointManager on every round
  ckpt::Options checkpoint_options;  // dir filled in per episode
  /// Kernel spans (conv2d, optimizer, SupCon) in traced episodes: on for
  /// the compute-heavy workloads, off where they would only add tracing
  /// overhead to an exchange-bound round.
  bool kernel_spans = false;
};

/// The workload called `name` with its data seeded by `seed`; throws
/// fca::Error on an unknown name.
Workload workload(const std::string& name, uint64_t seed);

std::unique_ptr<fl::RoundStrategy> make_strategy(
    const Workload& w, const core::Experiment& experiment);

}  // namespace fca::perfbench
