// fca_perfbench: runs one benchmark episode (or its Experiment::execute
// oracle) in this process and writes what it measured as one JSON object.
// perfbench/run.py drives it, one child process per episode, and turns the
// episodes into the benchmark's metrics.
//
//   fca_perfbench episode --workload W --seed N --tmp DIR --out FILE
//                         [--trace 0|1]
//       The production Experiment -> FederatedRun path behind the timing
//       probes (probes.hpp). --trace 1 also turns on the library's obs
//       tracing and joins its spans with the probes' by round.
//   fca_perfbench oracle --workload W --seed N --tmp DIR --out FILE
//       The same workload through core::Experiment::execute, unwrapped —
//       the reference the probes must be transparent against.
//   fca_perfbench stamp --out FILE
//       Compiler, flags and build type of this binary.
//
// Page and checkpoint directories go under --tmp, which the caller owns.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fl/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "trace_join.hpp"
#include "utils/error.hpp"
#include "workloads.hpp"

namespace fca::perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  std::string tmp;
  std::string out;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  FCA_CHECK_MSG(argc >= 2, "usage: fca_perfbench episode|oracle|stamp ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    FCA_CHECK_MSG(i + 1 < argc, "missing value for " << flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      a.seed_set = true;
    } else if (flag == "--tmp") {
      a.tmp = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace") {
      FCA_CHECK_MSG(value == "0" || value == "1", "--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw Error("unknown flag: " + flag);
    }
  }
  FCA_CHECK_MSG(!a.out.empty(), "--out is required");
  if (a.mode != "stamp") {
    FCA_CHECK_MSG(!a.workload.empty() && a.seed_set && !a.tmp.empty(),
                  a.mode << " needs --workload, --seed and --tmp");
  }
  return a;
}

/// Minimal JSON object writer: keys in insertion order, numbers at full
/// precision.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') {
        quoted += '\\';
        quoted += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        quoted += ' ';
      } else {
        quoted += ch;
      }
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ << (body_.tellp() > 0 ? "," : "") << "\"" << key << "\":" << json;
    return *this;
  }
  std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string s = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) s += ",";
    s += items[i];
  }
  return s + "]";
}

/// FNV-1a over the curve's canonical CSV rows (fl::curve_csv_row), one
/// '\n'-terminated line each: the bits a curve CSV file would hold.
std::string curve_digest(const std::vector<fl::RoundMetrics>& curve) {
  uint64_t h = 1469598103934665603ULL;
  for (const fl::RoundMetrics& m : curve) {
    std::string line;
    for (const std::string& cell : fl::curve_csv_row(m)) {
      if (!line.empty()) line += ",";
      line += cell;
    }
    line += "\n";
    for (char ch : line) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Workload load_workload(const Args& a) {
  Workload w = workload(a.workload, a.seed);
  w.config.page_dir = (std::filesystem::path(a.tmp) / "pages").string();
  w.checkpoint_options.dir = (std::filesystem::path(a.tmp) / "ckpt").string();
  return w;
}

/// Fields every mode reports about the finished run, from the result alone.
void result_fields(JsonObject& o, const fl::RunResult& r) {
  uint64_t missed = 0;
  for (const fl::RoundMetrics& m : r.curve) {
    missed += static_cast<uint64_t>(m.selected_count - m.survivor_count);
  }
  o.integer("total_payload_bytes",
            static_cast<int64_t>(r.total_traffic.payload_bytes))
      .integer("total_messages", static_cast<int64_t>(r.total_traffic.messages))
      .num("upload_bytes_per_client_round", r.client_upload_bytes_per_round)
      .num("final_acc", r.final_mean_accuracy)
      .integer("curve_rows", static_cast<int64_t>(r.curve.size()))
      .str("curve_digest", curve_digest(r.curve))
      .integer("missed_updates", static_cast<int64_t>(missed))
      .integer("aborted_rounds",
               static_cast<int64_t>(r.total_faults.aborted_rounds));
}

/// Ticks stolen between two host_steal_ticks() readings; -1 if unknown.
int64_t steal_between(int64_t before, int64_t after) {
  return before < 0 || after < 0 ? -1 : after - before;
}

std::string round_json(const RoundRecord& rec, const Counters& before,
                       int64_t steal_before, const PhaseRow* phases) {
  const Counters& c = rec.after;
  JsonObject o;
  o.integer("round", rec.round)
      .num("body_start", rec.body_start)
      .num("body_s", rec.body_s)
      .num("hook_enter", rec.hook_enter)
      .num("save_s", rec.save_s)
      .num("boundary", rec.boundary)
      .integer("selected", rec.selected)
      .integer("eval_clients", rec.eval_clients)
      .integer("samples", rec.samples)
      .num("accuracy", rec.accuracy)
      .integer("payload_bytes",
               static_cast<int64_t>(c.payload_bytes - before.payload_bytes))
      .integer("messages", static_cast<int64_t>(c.messages - before.messages))
      .integer("wire_bytes",
               static_cast<int64_t>(c.wire_bytes - before.wire_bytes))
      .integer("retry_events",
               static_cast<int64_t>(c.retry_events - before.retry_events))
      .integer("real_peer_faults", static_cast<int64_t>(
                                       c.real_peer_faults -
                                       before.real_peer_faults))
      .integer("materializations", static_cast<int64_t>(
                                       c.materializations -
                                       before.materializations))
      .integer("page_writes",
               static_cast<int64_t>(c.page_writes - before.page_writes))
      .integer("page_loads",
               static_cast<int64_t>(c.page_loads - before.page_loads))
      .integer("clean_drops",
               static_cast<int64_t>(c.clean_drops - before.clean_drops))
      .integer("peak_resident", c.peak_resident)
      .num("materialize_s", c.materialize_s - before.materialize_s)
      .integer("steal_ticks", steal_between(steal_before, rec.steal_ticks));
  if (phases != nullptr) o.raw("phases", phases_json(*phases));
  return o.str();
}

void write_out(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  out << json << "\n";
  FCA_CHECK_MSG(out.good(), "cannot write " << path);
}

int run_episode(const Args& a) {
  Workload w = load_workload(a);
  if (a.trace) {
    obs::set_tracing(true);
    obs::set_kernel_tracing(w.kernel_spans);
    obs::Tracer::instance().reset();
  }
  Probe probe;
  const Clock::time_point t0 = Clock::now();
  const core::Experiment experiment(w.config);
  const double synth_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  const TimedFactory factory(experiment, probe);
  auto run = std::make_unique<fl::FederatedRun>(
      build_timed_store(experiment, factory), experiment.fl_config());
  const double store_s = seconds_since(t1);

  std::unique_ptr<fl::RoundStrategy> strategy = make_strategy(w, experiment);
  TimedStrategy timed(*strategy, probe);
  std::unique_ptr<ckpt::CheckpointManager> manager;
  if (w.checkpoint) {
    manager = std::make_unique<ckpt::CheckpointManager>(w.checkpoint_options);
  }
  BoundaryHook hook(probe, manager.get());
  const fl::RunResult result = run->execute(timed, &hook);
  const size_t pending = run->network().pending_messages();

  std::vector<PhaseRow> phases;
  if (a.trace) {
    phases = join_trace(obs::Tracer::instance().drain(), probe.rounds,
                        run->executor().parallelism());
    obs::set_tracing(false);
  }

  JsonObject o;
  o.str("mode", "episode")
      .str("workload", w.name)
      .integer("seed", static_cast<int64_t>(a.seed))
      .integer("rounds", w.config.rounds)
      .boolean("traced", a.trace)
      .num("synth_s", synth_s)
      .num("store_s", store_s)
      .num("init_s", probe.init_s)
      .num("init_end", probe.init_end)
      .integer("setup_steal_ticks",
               steal_between(probe.start_steal_ticks, probe.init_steal_ticks))
      .integer("init_payload_bytes",
               static_cast<int64_t>(probe.after_init.payload_bytes))
      .integer("init_messages",
               static_cast<int64_t>(probe.after_init.messages))
      .integer("pending_messages", static_cast<int64_t>(pending))
      .integer("execute_round_calls", probe.execute_round_calls)
      .num("bootstrap_s", timed.bootstrap_s())
      .num("save_state_s", timed.save_state_s());
  if (manager != nullptr) {
    o.integer("ckpt_last_file_bytes",
              static_cast<int64_t>(manager->stats().last_file_bytes));
  }
  result_fields(o, result);
  std::vector<std::string> rounds;
  Counters before = probe.after_init;
  int64_t steal_before = probe.init_steal_ticks;
  for (size_t i = 0; i < probe.rounds.size(); ++i) {
    const PhaseRow* row = i < phases.size() ? &phases[i] : nullptr;
    rounds.push_back(round_json(probe.rounds[i], before, steal_before, row));
    before = probe.rounds[i].after;
    steal_before = probe.rounds[i].steal_ticks;
  }
  o.raw("round_records", json_array(rounds));
  write_out(a.out, o.str());
  return 0;
}

int run_oracle(const Args& a) {
  const Workload w = load_workload(a);
  const core::Experiment experiment(w.config);
  std::unique_ptr<fl::RoundStrategy> strategy = make_strategy(w, experiment);
  const core::CompletedRun done =
      w.checkpoint ? experiment.execute(*strategy, w.checkpoint_options)
                   : experiment.execute(*strategy);
  JsonObject o;
  o.str("mode", "oracle")
      .str("workload", w.name)
      .integer("seed", static_cast<int64_t>(a.seed))
      .integer("rounds", w.config.rounds);
  result_fields(o, done.result);
  write_out(a.out, o.str());
  return 0;
}

int run_stamp(const Args& a) {
  JsonObject o;
  o.str("compiler", FCA_BENCH_COMPILER)
      .str("flags", FCA_BENCH_FLAGS)
      .str("build_type", FCA_BENCH_BUILD_TYPE);
  write_out(a.out, o.str());
  return 0;
}

}  // namespace
}  // namespace fca::perfbench

int main(int argc, char** argv) {
  using namespace fca::perfbench;
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "episode") return run_episode(a);
    if (a.mode == "oracle") return run_oracle(a);
    if (a.mode == "stamp") return run_stamp(a);
    std::fprintf(stderr, "fca_perfbench: unknown mode %s\n", a.mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fca_perfbench: %s\n", e.what());
  }
  return 2;
}
