// Model-based invariant fuzz harness for the DFI control plane (DESIGN.md
// §6).
//
// One call to run_fuzz_schedule() assembles a complete system under test —
// two OpenFlow switches behind DfiProxy sessions, PCP + shard pool, ERM +
// Policy Manager + binding sensors on a shared bus — alongside a
// ReferenceModel, then replays one seeded fault schedule against it:
// randomized bursts of data-plane packets, sensor events and controller
// traffic pushed through FaultChannels that drop/duplicate/delay/reorder,
// policy churn racing in-flight decisions, proxy sessions severed and
// reconnected mid-flight, and (threaded backend) shard workers stalled or
// killed mid-decision.
//
// After every delivery and at every step boundary the harness checks the
// five safety invariants (DESIGN.md §6 table):
//   I1  no denied (or unparsable) Packet-in is ever forwarded to the
//       controller;
//   I2  no controller-visible message references Table 0 — FEATURES_REPLY
//       always advertises one fewer table, flow-stats rows and
//       FLOW_REMOVED for Table 0 are filtered, DFI cookies never escape;
//   I3  once a revoke has quiesced, no connected switch holds a Table-0
//       rule citing the revoked policy's cookie;
//   I4  cache/snapshot staleness never changes an observable verdict: every
//       installed Table-0 rule's action equals the reference model's
//       verdict at install time;
//   I5  the threaded shard pool applies completion effects in submission
//       order even when workers die mid-job.
//
// Violations are collected (not asserted) so the caller owns the failure
// message — including the seed-replay instructions the fuzz test prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pcp_decide.h"
#include "fault/fault_plan.h"

namespace dfi::test {

struct FuzzOptions {
  std::uint64_t seed = 1;
  PcpBackend backend = PcpBackend::kSimulated;
  std::size_t shards = 2;
  std::size_t steps = 10;
  // Threaded backend only: arm the deterministic worker kill/stall probe.
  bool worker_faults = false;
  // Exercise the CAB-ACME wildcard-caching extension. Per-install verdict
  // checks (I4) are skipped — a generalized match covers many flows — but
  // the cookie invariants (I2/I3) still apply to every install.
  bool wildcard_caching = false;
  std::size_t decision_cache_capacity = 64;
  // Exercise the batched datapath (DESIGN.md §5) harder. The proxy always
  // batches consecutive table-0 Packet-ins; this flag adds what real
  // batches need to form and race: the schedule injects multi-Packet-in
  // chunks, the proxy coalesces switch-bound egress into pooled
  // multi-frame writes, and (with worker_faults) the kill probe gains
  // kKillAfterDecide — a crash in the completion-publish window, mid-batch.
  // Default off: every pre-existing variant keeps its byte-identical trace.
  bool batched_datapath = false;
  // Exercise incremental snapshot publication (DESIGN.md §8): the schedule
  // captures ErmSnapshots between binding churn and policy revokes, keeps a
  // window of them alive across steps, and after every drain asserts each
  // held snapshot still answers from the world it was published in (epoch
  // and enrichment byte-stable) while I3/I4 keep holding for live traffic.
  // Default off: every pre-existing variant keeps its exact per-message
  // behavior and byte-identical trace.
  bool incremental_snapshots = false;
  // Run the switch<->proxy byte streams through the real socket-datapath
  // machinery (DESIGN.md §9): each chunk the fault channel delivers is
  // carried over a seeded FaultSocket into a manual-mode Connection —
  // scatter readv into the decoder, bounded-queue writev egress — under a
  // lossless fault spec (short reads/writes, EAGAIN storms, slow drain; no
  // resets). The harness asserts the reassembled stream is byte-identical
  // to the direct path, so I1-I5 and the egress hash must hold unchanged.
  // All socket rng draws are gated on this flag: pre-existing variants keep
  // their byte-identical traces.
  bool socket_transport = false;
};

struct FuzzResult {
  // Empty means the schedule passed. Each entry is one invariant violation
  // with step context.
  std::vector<std::string> violations;
  // The FaultPlan replay trace: byte-identical across runs of the same
  // seed+options. The determinism test compares these directly.
  std::string trace;
  FaultPlanStats fault_stats;

  // Coverage counters, for the campaign-level "the fuzzer actually
  // exercised the machinery" assertions.
  std::uint64_t packet_ins = 0;       // Packet-ins the PCP accepted
  std::uint64_t installs_seen = 0;    // Table-0 ADDs observed at the tap
  std::uint64_t forwards_seen = 0;    // Packet-ins delivered to controller
  std::uint64_t denies = 0;           // denied + default + spoof (system)
  std::uint64_t decision_cache_hits = 0;
  std::uint64_t severs = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resync_clears = 0;
  std::uint64_t stale_redecides = 0;
  std::uint64_t jobs_abandoned = 0;
  std::uint64_t pool_jobs_checked = 0;  // I5 sub-schedule jobs verified
  std::uint64_t batch_bursts = 0;       // multi-Packet-in chunks injected
  std::uint64_t snapshot_probes = 0;    // held-snapshot captures verified
  // Wire fast-path counters (DESIGN.md §5): the switch<->proxy streams run
  // through classify()/patch_table_refs() + pooled buffers, so a healthy
  // campaign must show pass-through and patched frames, not only decodes.
  std::uint64_t frames_fast_path = 0;
  std::uint64_t frames_patched = 0;
  std::uint64_t frames_decoded = 0;
  double pool_hit_rate = 0.0;
  // Socket-transport variant (DESIGN.md §9): IO calls the FaultSockets
  // served, and how often they forced the retry paths.
  std::uint64_t socket_reads = 0;
  std::uint64_t socket_writes = 0;
  std::uint64_t socket_would_block = 0;
  // FNV-1a over every byte the proxy emitted (both directions, in delivery
  // order). Transport-independent: the same schedule must produce the same
  // hash with socket_transport on or off — the differential proof.
  std::uint64_t egress_hash = 0;
};

// Replay one fault schedule. Deterministic: equal options produce an equal
// FuzzResult, byte-identical trace included.
FuzzResult run_fuzz_schedule(const FuzzOptions& options);

// Human-readable reproduction recipe for a failing seed, printed by the
// fuzz test on violation.
std::string replay_instructions(const FuzzOptions& options);

}  // namespace dfi::test
