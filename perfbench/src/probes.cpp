#include "probes.hpp"

#include <fstream>
#include <string>

#include "obs/trace.hpp"
#include "utils/error.hpp"

namespace fca::perfbench {

namespace {

int64_t nanos_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

double seconds_since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int64_t host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  int64_t fields[8] = {};
  in >> label;
  for (int64_t& f : fields) in >> f;
  return in && label == "cpu" ? fields[7] : -1;
}

Counters snapshot(fl::FederatedRun& run, const Probe& probe) {
  Counters c;
  const comm::TrafficStats traffic = run.network().total_stats();
  c.payload_bytes = traffic.payload_bytes;
  c.messages = traffic.messages;
  c.wire_bytes = run.network().transport().wire_bytes();
  c.retry_events = run.network().transport().retry_events();
  c.real_peer_faults = run.network().fault_stats().real_peer_faults;
  const fl::ClientStoreStats store = run.store().stats();
  c.materializations = store.materializations;
  c.page_writes = store.page_writes;
  c.page_loads = store.page_loads;
  c.clean_drops = store.clean_drops;
  c.peak_resident = store.peak_resident;
  c.materialize_s = static_cast<double>(probe.materialize_ns.load()) * 1e-9;
  return c;
}

// -- TimedStrategy -------------------------------------------------------------

void TimedStrategy::finish_init(fl::FederatedRun& run,
                                Clock::time_point start) {
  probe_.init_s = seconds_since(start);
  probe_.init_end = seconds_since(probe_.epoch);
  probe_.init_steal_ticks = host_steal_ticks();
  probe_.after_init = snapshot(run, probe_);
}

void TimedStrategy::initialize(fl::FederatedRun& run) {
  const Clock::time_point start = Clock::now();
  {
    obs::TraceSpan span("bench", "initialize");
    inner_.initialize(run);
  }
  finish_init(run, start);
}

comm::Bytes TimedStrategy::initialize_lazy(fl::FederatedRun& run) {
  const Clock::time_point start = Clock::now();
  comm::Bytes payload;
  {
    obs::TraceSpan span("bench", "initialize");
    payload = inner_.initialize_lazy(run);
  }
  finish_init(run, start);
  return payload;
}

void TimedStrategy::bootstrap_client(fl::FederatedRun& run, fl::Client& client,
                                     const comm::Bytes& payload) {
  const Clock::time_point start = Clock::now();
  inner_.bootstrap_client(run, client, payload);
  bootstrap_ns_ += nanos_since(start);
}

float TimedStrategy::execute_round(fl::FederatedRun& run, int round,
                                   const std::vector<int>& selected) {
  RoundRecord rec;
  rec.round = round;
  rec.selected = static_cast<int>(selected.size());
  for (int k : selected) {
    rec.samples += run.store().train_size(k) * run.config().local_epochs;
  }
  ++probe_.execute_round_calls;
  const Clock::time_point start = Clock::now();
  rec.body_start = seconds_since(probe_.epoch);
  float loss = 0.0f;
  {
    obs::TraceSpan span("bench", "execute_round");
    loss = inner_.execute_round(run, round, selected);
  }
  rec.body_s = seconds_since(start);
  probe_.rounds.push_back(rec);
  return loss;
}

comm::Bytes TimedStrategy::save_state() const {
  const Clock::time_point start = Clock::now();
  comm::Bytes state = inner_.save_state();
  save_state_s_ += seconds_since(start);
  return state;
}

void TimedStrategy::load_state(std::span<const std::byte> state) {
  inner_.load_state(state);
}

// -- BoundaryHook --------------------------------------------------------------

void BoundaryHook::after_round(fl::FederatedRun& run,
                               fl::RoundStrategy& strategy,
                               const fl::ResumeState& cursor) {
  FCA_CHECK_MSG(!probe_.rounds.empty() &&
                    probe_.rounds.back().round == cursor.next_round - 1,
                "round boundary without a matching execute_round");
  RoundRecord& rec = probe_.rounds.back();
  rec.hook_enter = seconds_since(probe_.epoch);
  obs::TraceSpan span("bench", "boundary");
  if (!cursor.curve.empty() && cursor.curve.back().round == rec.round) {
    const fl::RoundMetrics& m = cursor.curve.back();
    rec.accuracy = m.mean_accuracy;
    rec.eval_clients = static_cast<int>(m.client_accuracies.size());
  }
  rec.after = snapshot(run, probe_);
  if (manager_ != nullptr) {
    const Clock::time_point start = Clock::now();
    obs::TraceSpan save_span("bench", "ckpt.after_round");
    manager_->after_round(run, strategy, cursor);
    rec.save_s = seconds_since(start);
  }
  rec.boundary = seconds_since(probe_.epoch);
  rec.steal_ticks = host_steal_ticks();
}

std::optional<fl::ResumeState> BoundaryHook::recover(
    fl::FederatedRun& run, fl::RoundStrategy& strategy) {
  if (manager_ == nullptr) return std::nullopt;
  return manager_->recover(run, strategy);
}

// -- TimedFactory --------------------------------------------------------------

fl::ClientPtr TimedFactory::operator()(int client_id) const {
  const Clock::time_point start = Clock::now();
  fl::ClientPtr client;
  {
    obs::TraceSpan span("bench", "materialize");
    client = experiment_.build_client(client_id);
  }
  probe_.materialize_ns += nanos_since(start);
  return client;
}

std::unique_ptr<fl::ClientStore> build_timed_store(
    const core::Experiment& experiment, const TimedFactory& factory) {
  const core::ExperimentConfig& cfg = experiment.config();
  if (cfg.max_resident_clients <= 0 && !cfg.lazy_init) {
    std::vector<fl::ClientPtr> clients;
    clients.reserve(static_cast<size_t>(cfg.num_clients));
    for (int k = 0; k < cfg.num_clients; ++k) clients.push_back(factory(k));
    return std::make_unique<fl::ClientStore>(std::move(clients));
  }
  std::vector<int64_t> sizes;
  sizes.reserve(static_cast<size_t>(cfg.num_clients));
  for (const std::vector<int>& shard : experiment.partition().client_indices) {
    sizes.push_back(static_cast<int64_t>(shard.size()));
  }
  fl::ClientStoreOptions opts;
  opts.max_resident = std::max(cfg.max_resident_clients, 0);
  if (opts.max_resident > 0) {
    FCA_CHECK_MSG(!cfg.page_dir.empty(), "a paged workload needs a page_dir");
    opts.page_dir = cfg.page_dir;
  }
  return std::make_unique<fl::ClientStore>(cfg.num_clients, factory,
                                           std::move(sizes), std::move(opts));
}

}  // namespace fca::perfbench
