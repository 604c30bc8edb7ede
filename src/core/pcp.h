// Policy Compilation Point (paper Section III-B).
//
// The PCP turns Packet-in events into installed Table-0 flow rules:
//   1. parse the packet and collect all low-level identifiers present
//      (MAC/IP addresses, L4 ports, ingress switch and port);
//   2. validate them against authoritative bindings (spoofed -> deny);
//   3. query the Entity Resolution Manager to enrich with hostnames and
//      usernames (late binding, at decision time);
//   4. query the Policy Manager for the highest-priority matching rule
//      (default deny);
//   5. compile an exact-match flow rule — every identifier available in the
//      packet is specified — tagged with the deciding policy's id as the
//      OpenFlow cookie, and install it in the ingress switch's Table 0.
//
// The PCP also hosts the MAC<->switch-port binding sensor (Section IV-A)
// and executes flush directives from the Policy Manager by issuing
// cookie-masked FLOW_MOD deletes to every registered switch.
//
// Snapshot-isolated split (DESIGN.md §5): steps 2-5's decision logic is the
// pure decide_on_snapshots() (core/pcp_decide.h), running against immutable
// ErmSnapshot/PolicySnapshot pairs on a PcpShardPool
// (core/pcp_shard_pool.h) that partitions Packet-ins by flow-tuple hash.
// This class is the stateful shell: it owns the per-shard decision caches,
// captures snapshots, runs the location sensor, applies decision effects
// (stats, bus publishes, rule installation, callbacks) on the control
// thread, and preserves the pre-split public API.
//
// Capacity model: requests are served by bounded worker pools (paper
// Section V-A: saturation at ~1350 flows/sec, bounded queue, drops past
// saturation). On the simulated backend, component latencies are sampled
// from log-normal distributions calibrated to Table II; with the default
// shards=1 this is exactly the paper's single PCP. The threaded backend
// spends only the real CPU time of each decision.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <optional>
#include <vector>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "core/decision_cache.h"
#include "core/entity_resolution.h"
#include "core/pcp_decide.h"
#include "core/pcp_shard_pool.h"
#include "core/policy_manager.h"
#include "openflow/messages.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace dfi {

struct PcpStats {
  std::uint64_t packet_ins = 0;
  std::uint64_t allowed = 0;
  std::uint64_t denied = 0;           // policy Deny
  std::uint64_t default_denied = 0;   // no matching rule
  std::uint64_t spoof_denied = 0;
  std::uint64_t dropped_overload = 0;
  std::uint64_t rules_installed = 0;
  std::uint64_t flush_directives = 0;
  std::uint64_t mac_moves = 0;
  std::uint64_t unparsable = 0;
  std::uint64_t wildcard_rules_installed = 0;  // caching extension
  std::uint64_t wildcard_fallbacks = 0;        // safety gate fired
  std::uint64_t binding_invalidations = 0;     // identity caches flushed
  std::uint64_t decision_cache_hits = 0;       // decisions replayed from cache
  // Threaded backend: a finished decision reached the control thread after
  // the policy or binding epoch moved past its snapshots and was re-decided
  // on fresh state before its effects ran (DESIGN.md §6, invariant I3).
  std::uint64_t stale_redecides = 0;
  // A switch re-registered after a session loss and had its Table 0 cleared
  // wholesale: flushes issued while it was unreachable never arrived.
  std::uint64_t resync_clears = 0;
};

class PolicyCompilationPoint {
 public:
  using SwitchWriter = std::function<void(const OfMessage&)>;
  using DecisionCallback = std::function<void(const PcpDecision&)>;

  PolicyCompilationPoint(Simulator& sim, MessageBus& bus,
                         EntityResolutionManager& erm, PolicyManager& policy,
                         PcpConfig config, Rng rng);

  // The proxy registers a direct writer to each switch's control channel.
  void register_switch(Dpid dpid, SwitchWriter writer);
  void unregister_switch(Dpid dpid);

  // Clear Table 0 wholesale on every currently-registered switch. Called by
  // the DfiSystem when the HealthMonitor declares the plane healthy again:
  // rules installed or flushes missed across a degraded window cannot be
  // trusted, so flows re-enter via Packet-in and are re-decided against
  // current state. Counts one resync_clear per switch.
  void resync_all();

  // Queue a Packet-in for processing. Returns false when the bounded shard
  // queue rejects it (control-plane saturation): the packet is dropped and
  // the flow must re-enter on retransmission. On completion the compiled
  // rule has been written to the switch and `done` is invoked — in the DES
  // for the simulated backend, during poll_completions()/wait_idle() for
  // the threaded one.
  bool handle_packet_in(Dpid dpid, PacketInMsg msg, DecisionCallback done);

  // One Packet-in of a batch submission (handle_packet_in_batch). The PCP
  // sets `accepted` per item; a rejected item's packet is dropped exactly
  // like a rejected handle_packet_in (the caller counts it).
  struct BatchItem {
    Dpid dpid{};
    PacketInMsg msg;
    DecisionCallback done;
    bool accepted = false;
  };

  // Submit a batch of Packet-ins. Byte-identical outcome to calling
  // handle_packet_in per item back-to-back (no poll in between); the
  // difference is cost: the threaded backend captures the ERM/policy
  // snapshot pair ONCE for the whole batch and workers borrow it by plain
  // pointer for the batch lifetime, so the per-packet shared_ptr refcount
  // bumps disappear from the submit loop (DESIGN.md §5, batched datapath).
  // The simulated backend loops the per-item path — batching is a no-op
  // there by construction, keeping Table I bit-for-bit. Returns how many
  // items were accepted.
  std::size_t handle_packet_in_batch(std::vector<BatchItem>& items);

  // Synchronous decision core (no queueing/latency): capture snapshots,
  // decide, apply effects, all inline on the calling thread. The
  // single-threaded oracle the sharded backends are differential-tested
  // against; also used by tests and the insert-time-binding ablation.
  PcpDecision decide(Dpid dpid, const PacketInMsg& msg);

  // Threaded backend only: release finished decisions' effects on the
  // calling (control) thread, in submission order. No-ops for kSimulated.
  // Also retires batch snapshot pairs whose last borrower has applied.
  std::size_t poll_completions();
  void wait_idle();

  // Fault injection (DESIGN.md §6): forwarded to the shard pool. Threaded
  // backend only.
  void set_worker_fault_probe(PcpShardPool::WorkerFaultProbe probe) {
    pool_.set_worker_fault_probe(std::move(probe));
  }
  std::size_t respawn_dead_workers() { return pool_.respawn_dead_workers(); }

  const PcpStats& stats() const { return stats_; }

  // Decision-cache stats of one shard (default: shard 0 — the only shard
  // in the paper configuration, so existing callers keep PR-1 semantics).
  const DecisionCacheStats& decision_cache_stats(std::size_t shard = 0) const {
    return caches_[shard]->stats();
  }
  // Sum over all shards. Threaded backend: call only when idle.
  DecisionCacheStats aggregate_decision_cache_stats() const;
  std::size_t decision_cache_size() const;

  std::size_t shard_count() const { return pool_.shards(); }
  std::size_t queue_depth() const { return pool_.queue_depth(); }
  const PcpShardPool& pool() const { return pool_; }

  // Per-component simulated latency, for the Table II reproduction
  // (simulated backend only; the threaded backend records none).
  const SampleStats& binding_latency_ms() const { return binding_latency_ms_; }
  const SampleStats& policy_latency_ms() const { return policy_latency_ms_; }
  const SampleStats& other_latency_ms() const { return other_latency_ms_; }
  const SampleStats& total_latency_ms() const { return total_latency_ms_; }

 private:
  // The snapshot pair shared by every job of one threaded batch. Workers
  // borrow it by raw pointer; it outlives its borrowers because it is
  // retired only once the pool's applied seq has passed the batch's last
  // submitted seq (abandoned jobs advance that seq too, so worker death
  // cannot leak a pair).
  struct PendingBatch {
    std::uint64_t end_seq = 0;
    std::unique_ptr<const DecisionSnapshots> snapshots;
  };

  // Threaded submission of `count` items sharing one snapshot pair; sets
  // each item's `accepted`, returns how many were accepted.
  std::size_t submit_threaded_batch(BatchItem* items, std::size_t count);
  // Simulated per-item submission (the pre-batching handle_packet_in body).
  bool submit_simulated_one(Dpid dpid, PacketInMsg msg, DecisionCallback done);
  // Free batch snapshot pairs whose jobs have all applied or been abandoned.
  void retire_batches();

  // Decision-time context + pure decide, in oracle order: sensor first,
  // then snapshot capture, then decide_on_snapshots against the shard's
  // cache. Shared by decide() and the simulated backend's completions.
  DecisionEffects decide_from_input(DecisionInput& input);

  // Apply a finished decision's side effects on the control thread: stats,
  // identity-cache tracking, spoof logging, rule installation, callback.
  void apply_effects(Dpid dpid, const DecisionEffects& effects,
                     const DecisionCallback& done);

  void observe_mac_location(Dpid dpid, PortNo port, const MacAddress& mac);
  void flush(const FlushDirective& directive);
  void install(Dpid dpid, const FlowModMsg& rule);
  void on_binding_changed(const BindingEvent& event);
  void count_outcome(const PcpDecision& decision);
  DecisionSnapshots capture_snapshots() const;

  Simulator& sim_;
  MessageBus& bus_;
  EntityResolutionManager& erm_;
  PolicyManager& policy_;
  PcpConfig config_;
  Rng rng_;
  // Table II service-time distributions, derived once from the configured
  // moments instead of per Packet-in.
  LogNormalParams binding_service_{};
  LogNormalParams policy_service_{};
  LogNormalParams other_service_{};
  // Live batch snapshot pairs in submission order (front retires first).
  // Declared before pool_ on purpose: members destroy in reverse order, so
  // the pool joins its workers — the only other readers of a pair — before
  // any pair is freed.
  std::deque<PendingBatch> batches_;
  PcpShardPool pool_;
  // One decision cache per shard; a flow's hash pins it to one shard, so
  // each cache is touched only by that shard's execution context (the DES
  // thread for kSimulated, the shard's worker for kThreads).
  std::vector<std::unique_ptr<DecisionCache<PcpDecision>>> caches_;
  // Control-thread-only scratch cache (capacity 0: lookups miss, stores are
  // dropped) for re-deciding stale threaded completions without touching a
  // shard's cache from the wrong thread.
  DecisionCache<PcpDecision> redecide_cache_{0};
  Subscription flush_subscription_;
  Subscription binding_subscription_;  // active only with wildcard_caching
  std::map<Dpid, SwitchWriter> switches_;
  // Every dpid ever registered: a re-registration is a reconnect and
  // triggers a Table-0 resync clear (flushes may have missed the switch).
  std::set<Dpid> known_dpids_;
  // Policies whose cached wildcard rules were narrowed using identity
  // bindings; flushed when bindings are retracted.
  std::set<PolicyRuleId> identity_cached_policies_;
  PcpStats stats_;

  SampleStats binding_latency_ms_;
  SampleStats policy_latency_ms_;
  SampleStats other_latency_ms_;
  SampleStats total_latency_ms_;
};

}  // namespace dfi
