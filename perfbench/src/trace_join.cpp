#include "trace_join.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

namespace fca::perfbench {
namespace {

using Interval = std::pair<double, double>;  // [start, end) in µs

bool is(const obs::TraceEvent& e, const char* cat, const char* name) {
  return std::strcmp(e.cat, cat) == 0 && std::strcmp(e.name, name) == 0;
}

Interval interval_of(const obs::TraceEvent& e) {
  return {e.ts_us, e.ts_us + e.dur_us};
}

/// Length of the union of `spans` clipped to `window`.
double covered(std::vector<Interval> spans, Interval window) {
  for (Interval& s : spans) {
    s.first = std::max(s.first, window.first);
    s.second = std::min(s.second, window.second);
  }
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double reach = window.first;
  for (const Interval& s : spans) {
    const double start = std::max(s.first, reach);
    if (s.second > start) {
      total += s.second - start;
      reach = s.second;
    }
  }
  return total;
}

double union_length(const std::vector<Interval>& spans) {
  if (spans.empty()) return 0.0;
  Interval all = spans.front();
  for (const Interval& s : spans) {
    all.first = std::min(all.first, s.first);
    all.second = std::max(all.second, s.second);
  }
  return covered(spans, all);
}

PhaseRow join_round(const std::vector<const obs::TraceEvent*>& events,
                    int selected, int parallelism) {
  constexpr double kSec = 1e-6;
  PhaseRow row;
  row.lanes = std::max(1, std::min(parallelism, selected));
  Interval body{0.0, 0.0};
  double broadcast_end = -1.0;
  double aggregate_start = -1.0;
  std::vector<Interval> phase_spans;
  std::map<int32_t, std::vector<Interval>> train_by_rank;
  for (const obs::TraceEvent* e : events) {
    const double dur = e->dur_us * kSec;
    if (is(*e, "bench", "execute_round")) {
      body = interval_of(*e);
      row.body_s = dur;
    } else if (is(*e, "fl", "serialize")) {
      row.serialize_s += dur;
      phase_spans.push_back(interval_of(*e));
    } else if (is(*e, "fl", "broadcast")) {
      row.broadcast_s += dur;
      broadcast_end = std::max(broadcast_end, e->ts_us + e->dur_us);
      phase_spans.push_back(interval_of(*e));
    } else if (is(*e, "fl", "aggregate")) {
      row.aggregate_s += dur;
      if (aggregate_start < 0.0) aggregate_start = e->ts_us;
      phase_spans.push_back(interval_of(*e));
    } else if (is(*e, "fl", "local-train")) {
      row.local_train_s += dur;
      row.local_train_max_s = std::max(row.local_train_max_s, dur);
      phase_spans.push_back(interval_of(*e));
      train_by_rank[e->rank].push_back(interval_of(*e));
    } else if (is(*e, "fl", "eval")) {
      row.eval_s += dur;
    } else if (is(*e, "bench", "materialize")) {
      row.materialize_s += dur;
    }
  }
  std::vector<Interval> train_spans;
  for (const auto& [rank, spans] : train_by_rank) {
    train_spans.insert(train_spans.end(), spans.begin(), spans.end());
  }
  row.local_train_wall_s = union_length(train_spans) * kSec;
  if (broadcast_end >= 0.0 && aggregate_start >= broadcast_end) {
    row.sweep_s = (aggregate_start - broadcast_end) * kSec;
  }
  row.unattributed_s =
      row.body_s - covered(phase_spans, body) * kSec;

  // Kernel spans count toward local training only when they sit inside one
  // of their own rank's fl/local-train spans (eval runs the same kernels).
  for (const obs::TraceEvent* e : events) {
    if (std::strcmp(e->cat, "kernel") != 0) continue;
    const auto it = train_by_rank.find(e->rank);
    if (it == train_by_rank.end()) continue;
    const bool in_train = std::any_of(
        it->second.begin(), it->second.end(), [&](const Interval& s) {
          return e->ts_us >= s.first && e->ts_us < s.second;
        });
    if (!in_train) continue;
    const double dur = e->dur_us * kSec;
    if (std::strcmp(e->name, "conv2d.fwd") == 0) {
      row.conv_fwd_s += dur;
      ++row.conv_calls;
    } else if (std::strcmp(e->name, "conv2d.bwd") == 0) {
      row.conv_bwd_s += dur;
      ++row.conv_calls;
    } else if (std::strcmp(e->name, "optim.step") == 0) {
      row.optim_s += dur;
    } else if (std::strcmp(e->name, "supcon") == 0) {
      row.supcon_s += dur;
    }
  }
  return row;
}

}  // namespace

std::vector<PhaseRow> join_trace(const std::vector<obs::TraceEvent>& events,
                                 const std::vector<RoundRecord>& rounds,
                                 int parallelism) {
  std::map<int32_t, std::vector<const obs::TraceEvent*>> by_round;
  for (const obs::TraceEvent& e : events) by_round[e.round].push_back(&e);
  std::vector<PhaseRow> rows;
  rows.reserve(rounds.size());
  for (const RoundRecord& rec : rounds) {
    rows.push_back(join_round(by_round[rec.round], rec.selected, parallelism));
  }
  return rows;
}

std::string phases_json(const PhaseRow& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"body_s\":%.9g,\"serialize_s\":%.9g,\"broadcast_s\":%.9g,"
      "\"aggregate_s\":%.9g,\"local_train_s\":%.9g,"
      "\"local_train_max_s\":%.9g,\"local_train_wall_s\":%.9g,"
      "\"sweep_s\":%.9g,\"lanes\":%d,\"unattributed_s\":%.9g,"
      "\"eval_s\":%.9g,\"materialize_s\":%.9g,\"conv_fwd_s\":%.9g,"
      "\"conv_bwd_s\":%.9g,\"conv_calls\":%lld,\"optim_s\":%.9g,"
      "\"supcon_s\":%.9g}",
      r.body_s, r.serialize_s, r.broadcast_s, r.aggregate_s, r.local_train_s,
      r.local_train_max_s, r.local_train_wall_s, r.sweep_s, r.lanes,
      r.unattributed_s, r.eval_s, r.materialize_s, r.conv_fwd_s, r.conv_bwd_s,
      static_cast<long long>(r.conv_calls), r.optim_s, r.supcon_s);
  return buf;
}

}  // namespace fca::perfbench
