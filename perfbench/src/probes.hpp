// Timing probes the benchmark wraps around the library's public layer
// boundaries: the round strategy, the round-boundary hook (and the
// checkpoint manager behind it) and the client factory behind the store.
//
// Every probe delegates each call to the real object and adds only
// steady_clock reads, counter snapshots and obs spans (which record nothing
// while tracing is off). A run driven through them therefore computes
// exactly what core::Experiment::execute computes; the self-test checks
// that by comparing curve digests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/trainer.hpp"
#include "fl/server.hpp"

namespace fca::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `epoch` to now.
double seconds_since(Clock::time_point epoch);

/// CPU time the hypervisor has stolen from this machine's CPUs so far, in
/// clock ticks (the steal column of /proc/stat's "cpu" line); -1 where that
/// is not available. Rounds that lost CPU time this way measure the host,
/// not the program, so the benchmark reports which rounds were steal-free.
int64_t host_steal_ticks();

/// Cumulative counters the boundary hook snapshots; per-round values are
/// differences of consecutive snapshots.
struct Counters {
  uint64_t payload_bytes = 0;
  uint64_t messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t retry_events = 0;
  uint64_t real_peer_faults = 0;
  uint64_t materializations = 0;
  uint64_t page_writes = 0;
  uint64_t page_loads = 0;
  uint64_t clean_drops = 0;
  int peak_resident = 0;
  double materialize_s = 0.0;  // time inside the client factory
};

/// What one round looked like from outside the library. Times are seconds
/// since the episode epoch unless named *_s durations.
struct RoundRecord {
  int round = 0;
  double body_start = 0.0;  // execute_round entered
  double body_s = 0.0;      // execute_round duration
  double hook_enter = 0.0;  // round-boundary hook entered (eval finished)
  double save_s = 0.0;      // CheckpointManager::after_round duration
  double boundary = 0.0;    // round-boundary hook returned
  int selected = 0;
  int eval_clients = 0;
  int64_t samples = 0;  // sum of selected shard sizes x local epochs
  double accuracy = -1.0;  // curve mean accuracy (-1 = no eval this round)
  Counters after;          // snapshot at hook entry
  int64_t steal_ticks = -1;  // host_steal_ticks() at the boundary
};

/// Shared state of one episode's probes.
struct Probe {
  Clock::time_point epoch = Clock::now();
  int64_t start_steal_ticks = host_steal_ticks();
  int64_t init_steal_ticks = -1;  // host_steal_ticks() at init end
  double init_s = 0.0;    // initialize() / initialize_lazy() duration
  double init_end = 0.0;  // first round's start boundary
  Counters after_init;
  std::vector<RoundRecord> rounds;
  int execute_round_calls = 0;  // more than the rounds = rounds replayed
  // The factory runs under the store's lock, but lanes of a paged store
  // may call it from pool threads, so its accumulator is atomic.
  std::atomic<int64_t> materialize_ns{0};
};

Counters snapshot(fl::FederatedRun& run, const Probe& probe);

/// RoundStrategy decorator: forwards every virtual (name() included, which
/// seeds the client sampler) and times initialize / initialize_lazy /
/// bootstrap_client / execute_round / save_state.
class TimedStrategy : public fl::RoundStrategy {
 public:
  TimedStrategy(fl::RoundStrategy& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  std::string name() const override { return inner_.name(); }
  void initialize(fl::FederatedRun& run) override;
  float execute_round(fl::FederatedRun& run, int round,
                      const std::vector<int>& selected) override;
  bool supports_lazy_init() const override {
    return inner_.supports_lazy_init();
  }
  comm::Bytes initialize_lazy(fl::FederatedRun& run) override;
  void bootstrap_client(fl::FederatedRun& run, fl::Client& client,
                        const comm::Bytes& payload) override;
  comm::Bytes save_state() const override;
  void load_state(std::span<const std::byte> state) override;

  double bootstrap_s() const { return bootstrap_ns_.load() * 1e-9; }
  double save_state_s() const { return save_state_s_; }

 private:
  void finish_init(fl::FederatedRun& run, Clock::time_point start);

  fl::RoundStrategy& inner_;
  Probe& probe_;
  // Bootstraps run at materialization, possibly on a pool lane.
  std::atomic<int64_t> bootstrap_ns_{0};
  mutable double save_state_s_ = 0.0;
};

/// Round-boundary hook: stamps each boundary, snapshots the counters and
/// forwards to the checkpoint manager (when the workload checkpoints),
/// timing its after_round().
class BoundaryHook : public fl::RoundHook {
 public:
  BoundaryHook(Probe& probe, ckpt::CheckpointManager* manager)
      : probe_(probe), manager_(manager) {}

  void after_round(fl::FederatedRun& run, fl::RoundStrategy& strategy,
                   const fl::ResumeState& cursor) override;
  std::optional<fl::ResumeState> recover(fl::FederatedRun& run,
                                         fl::RoundStrategy& strategy) override;

 private:
  Probe& probe_;
  ckpt::CheckpointManager* manager_;
};

/// Client factory timing Experiment::build_client.
class TimedFactory {
 public:
  TimedFactory(const core::Experiment& experiment, Probe& probe)
      : experiment_(experiment), probe_(probe) {}
  fl::ClientPtr operator()(int client_id) const;

 private:
  const core::Experiment& experiment_;
  Probe& probe_;
};

/// The store Experiment::build_store() builds for the experiment's config
/// (resident, lazy or paged), with every client constructed through
/// `factory`. A paged config must name its page_dir.
std::unique_ptr<fl::ClientStore> build_timed_store(
    const core::Experiment& experiment, const TimedFactory& factory);

}  // namespace fca::perfbench
