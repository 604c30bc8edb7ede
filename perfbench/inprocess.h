// The traced run's in-process parts: (b) a replay of the workload through
// the same public calls the socket frontend makes, one step at a time, and
// (c) isolated calls into each decision-path layer on the replayed inputs.
// Spans are recorded by this file around those calls; nothing inside the
// program is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/pcp.h"
#include "scenario.h"

namespace perfbench {

// Decision latency measured by the shard pool's workers: the count-weighted
// mean of each shard's percentile (the pool keeps no merged samples).
struct PoolLatency {
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t samples = 0;
};
PoolLatency pool_latency(const dfi::PolicyCompilationPoint& pcp);

struct InprocResult {
  SpanRecorder spans{1 << 17};
  std::vector<double> turnaround_us;  // one operation at a time, frame in to answer out
  double items_per_submit = 0;        // Packet-ins per PCP submission seen
  double queue_depth_mean = 0;        // PCP queue depth after each switch batch end
  double wait_idle_share = 0;         // wait_idle time / batched replay time
  double candidates_per_query = 0;
  double journal_bytes_per_mutation = 0;
  PoolLatency pool;                   // the in-process system's shard pool
  std::uint64_t mismatches = 0;       // answers that differed from the expected bytes
  std::vector<std::string> errors;
};

// Run parts (b) and (c) on a fresh system recovered from the scenario's
// image. `ops` bounds the single-step replay; the batched replay and the
// isolated calls use fixed counts.
InprocResult run_inprocess(const Scenario& scenario, std::uint64_t ops);

}  // namespace perfbench
