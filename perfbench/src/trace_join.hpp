// Joins a traced episode's obs events — the library's own spans and the
// benchmark's "bench" spans around its probes — by round into one row of
// phase times per round, with the part of the round body no phase span
// covers reported as unattributed.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "probes.hpp"

namespace fca::perfbench {

/// Seconds per phase of one round (sums over spans unless noted).
struct PhaseRow {
  double body_s = 0.0;          // bench/execute_round
  double serialize_s = 0.0;     // fl/serialize
  double broadcast_s = 0.0;     // fl/broadcast
  double aggregate_s = 0.0;     // fl/aggregate
  double local_train_s = 0.0;   // fl/local-train, summed over clients
  double local_train_max_s = 0.0;    // slowest client's fl/local-train
  double local_train_wall_s = 0.0;   // union of fl/local-train intervals
  double sweep_s = 0.0;  // broadcast end -> aggregate start (client fan-out)
  int lanes = 1;         // executor lanes the sweep could use
  /// Body time covered by none of serialize / broadcast / local-train /
  /// aggregate: leases, materialization, page I/O, (de)serialization of
  /// client payloads, executor scheduling.
  double unattributed_s = 0.0;
  double eval_s = 0.0;          // fl/eval
  double materialize_s = 0.0;   // bench/materialize (client factory)
  // Kernel spans inside fl/local-train (kernel-traced workloads only).
  double conv_fwd_s = 0.0;
  double conv_bwd_s = 0.0;
  int64_t conv_calls = 0;  // conv2d.fwd + conv2d.bwd spans
  double optim_s = 0.0;
  double supcon_s = 0.0;
};

/// One row per entry of `rounds` (the probe's completed rounds, in order).
std::vector<PhaseRow> join_trace(const std::vector<obs::TraceEvent>& events,
                                 const std::vector<RoundRecord>& rounds,
                                 int parallelism);

std::string phases_json(const PhaseRow& row);

}  // namespace fca::perfbench
