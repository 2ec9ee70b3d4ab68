#include "workloads.hpp"

#include "core/fedclassavg.hpp"
#include "fl/fedavg.hpp"
#include "utils/error.hpp"

namespace fca::perfbench {

namespace {

/// Client lanes of every workload. Two lanes keep at most two CPUs busy:
/// on a shared 4-vCPU host, runs that kept all four busy (one lane with
/// pool-parallel kernels, or four lanes) lost far more time to hypervisor
/// steal, and their round times spread several times wider between runs.
constexpr int kLanes = 2;

/// hetero-cifar: the paper's headline configuration (Table 2) —
/// FedClassAvg over the round-robin ResNet/ShuffleNet/GoogLeNet/AlexNet
/// zoo, Dirichlet(0.5) shards, full participation, inproc fabric, resident
/// store, no checkpoints. Compute-bound: local training dominates and only
/// the classifier travels.
Workload hetero_cifar() {
  Workload w;
  core::ExperimentConfig& c = w.config;
  c.dataset = "synth-cifar10";
  c.with_scaled_preset();
  c.num_clients = 10;
  c.train_per_class = 50;
  c.partition = core::PartitionScheme::kDirichlet;
  c.dirichlet_alpha = 0.5;
  c.models = core::ModelScheme::kHeterogeneous;
  c.rounds = 12;
  c.client_parallelism = kLanes;
  w.kernel_spans = true;
  return w;
}

/// fedavg-tcp: exchange-bound — FedAvg with full-model exchange over the
/// all-local tcp fabric (real loopback sockets), small shards fanned out
/// over the client lanes, and a checkpoint after every round.
Workload fedavg_tcp() {
  Workload w;
  core::ExperimentConfig& c = w.config;
  c.dataset = "synth-cifar10";
  c.with_scaled_preset();
  c.num_clients = 10;
  c.train_per_class = 30;
  c.test_per_client = 20;
  c.models = core::ModelScheme::kHomogeneousResNet;
  c.rounds = 12;
  c.client_parallelism = kLanes;
  c.transport.kind = comm::TransportKind::kTcp;
  w.fedavg = true;
  w.checkpoint = true;
  w.checkpoint_options.every = 1;
  w.checkpoint_options.keep_last = 2;
  return w;
}

/// paged-churn: store-bound — a 1024-client population with ~4 samples
/// each, 16 sampled per round under an 8-client residency budget with lazy
/// init and a 16-client eval prefix, so every round pages dirty clients
/// out, loads reselected ones back and drops clean ones.
Workload paged_churn() {
  Workload w;
  core::ExperimentConfig& c = w.config;
  c.dataset = "synth-cifar10";
  c.with_scaled_preset();
  c.num_clients = 256;
  c.train_per_class = 103;
  c.test_per_client = 20;
  c.models = core::ModelScheme::kHeterogeneous;
  c.rounds = 16;
  c.sample_rate = 32.0 / 256.0;
  c.max_resident_clients = 8;
  c.lazy_init = true;
  c.eval_clients = 16;
  c.client_parallelism = kLanes;
  w.kernel_spans = true;
  return w;
}

}  // namespace

Workload workload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "hetero-cifar") {
    w = hetero_cifar();
  } else if (name == "fedavg-tcp") {
    w = fedavg_tcp();
  } else if (name == "paged-churn") {
    w = paged_churn();
  } else {
    throw Error("unknown workload: " + name);
  }
  w.name = name;
  w.config.seed = seed;
  return w;
}

std::unique_ptr<fl::RoundStrategy> make_strategy(
    const Workload& w, const core::Experiment& experiment) {
  if (w.fedavg) return std::make_unique<fl::FedAvg>();
  return std::make_unique<core::FedClassAvg>(experiment.fedclassavg_config());
}

}  // namespace fca::perfbench
