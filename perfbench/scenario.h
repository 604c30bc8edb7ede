// Seeded inputs and expected answers of the end-to-end benchmark.
//
// Everything here is built before any timed window: the enterprise state
// (compacted into an in-memory journal image), the Packet-in frames each
// switch stub sends, the controller messages the relay stub sends, and the
// exact bytes every answer must have. Expected FlowMods come from
// pcp().decide() on a second DfiSystem recovered from the same image; the
// relay's table-shifted frames are built independently with the wire codec.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/dfi_system.h"
#include "core/journal.h"
#include "core/policy.h"
#include "services/events.h"
#include "testbed/scale_generator.h"

namespace perfbench {

enum class Workload { kNewFlows, kPolicyChurn, kRelay };
const char* workload_name(Workload workload);

// ------------------------------------------------------------- constants
inline constexpr std::uint32_t kHosts = 25000;
// The enterprise (bindings, rules, the two switches) is the same for every
// run; --seed draws the traffic. Different seeds would otherwise compare
// different policy indexes and binding layouts, not run-to-run noise.
inline constexpr std::uint64_t kEnterpriseSeed = 42;
inline constexpr std::uint32_t kRules = 10000;
inline constexpr std::uint32_t kPriorityLevels = 8;
inline constexpr std::size_t kConnections = 2;
// Closed loop: requests in flight per connection (cbench method).
inline constexpr std::size_t kWindow = 16;
// Distinct Packet-in flows per connection. A flow recurs only after every
// other flow of its pool, i.e. after 4x the PCP's total decision-cache
// capacity (2 shards x 8192) of other decisions, so it always misses.
inline constexpr std::uint32_t kFlowsPerConnection = 32768;
// policy_churn: one churn cycle per this many regular Packet-ins.
inline constexpr std::uint32_t kChurnEvery = 100;
// Fresh flows the churn rule admits, sent once admitted and once more as
// re-arrivals after the revoke.
inline constexpr std::uint32_t kChurnFlows = 4;
inline constexpr std::uint32_t kChurnSets = 1024;
inline constexpr std::uint32_t kChurnPatterns = 16;
// The churn rule names this destination port; regular traffic never uses
// it, so regular answers do not depend on churn state.
inline constexpr std::uint16_t kChurnPort = 9;
inline constexpr std::uint32_t kChurnPriority = kPriorityLevels + 1;
inline constexpr std::uint32_t kRelayOpsPerLink = 4096;
// relay sends no Packet-ins; this many per connection feed the traced
// run's isolated decision-path calls.
inline constexpr std::uint32_t kRelayFlowsPerConnection = 2048;
// Offset of the 64-bit cookie in a FLOW_MOD frame (after ofp_header).
inline constexpr std::size_t kFlowModCookieOffset = 8;

// Handle into the scenario's byte arena.
struct Bytes {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

struct PacketInOp {
  Bytes request;   // Table-0 PACKET_IN the switch stub sends
  Bytes flow_mod;  // exact-match FlowMod the switch stub must receive
  bool allow = false;  // the controller stub must also receive `request`
  std::uint64_t cookie = 0;
};

struct ChurnPattern {
  dfi::PolicyRule rule;
  std::uint32_t conn = 0;  // connection of the rule's source host
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
  // DELETE frames the insert's consistency flush sends to each switch.
  std::vector<Bytes> insert_deletes;
  // Masked DELETE of the rule's own cookie as the reference issued it; the
  // cycle's cookie is written in when the cycle starts.
  Bytes revoke_delete;
};

struct ChurnSet {
  std::uint32_t pattern = 0;
  // With the rule: FlowMods carry the pattern's reference cookie.
  std::array<PacketInOp, kChurnFlows> admitted;
  // After the revoke: the base policy's answers.
  std::array<PacketInOp, kChurnFlows> rearrival;
  std::uint32_t logon_host = 0;  // host of the log-off/log-on pair
};

enum class RelayKind : std::uint8_t { kFlowMod, kPacketOut, kBarrier, kFlowStats };

struct RelayOp {
  RelayKind kind = RelayKind::kFlowMod;
  Bytes send;         // controller stub -> proxy
  Bytes at_switch;    // table-shifted bytes the switch stub must receive
  Bytes reply;        // switch stub's answer (barrier/stats), else empty
  Bytes at_controller;  // the answer as the controller must receive it
};

struct Handshake {
  Bytes switch_hello, controller_hello, features_request;
  std::array<Bytes, kConnections> features_reply;           // switch sends
  std::array<Bytes, kConnections> features_reply_shifted;   // controller gets
};

struct Mix {
  std::uint64_t aimed_allow = 0, aimed_deny = 0, aimed_none = 0;
  std::uint64_t allowed = 0, denied = 0, default_denied = 0;
};

class Scenario {
 public:
  // Build everything for `workload` from `seed`.
  Scenario(Workload workload, std::uint64_t seed);

  Workload workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  const dfi::ScaleGenerator& generator() const { return gen_; }
  dfi::Dpid dpid(std::size_t conn) const { return dpids_[conn]; }
  std::uint32_t first_host(std::size_t conn) const { return first_host_[conn]; }
  const dfi::InMemoryJournalStore& compacted() const { return compacted_; }
  // The id the first post-recovery insert receives (cycle k gets +k).
  std::uint64_t first_churn_cookie() const { return first_churn_cookie_; }
  std::size_t bindings() const { return bindings_; }

  const std::uint8_t* data(Bytes b) const { return arena_.data() + b.off; }
  std::vector<std::uint8_t> copy(Bytes b) const {
    return {data(b), data(b) + b.len};
  }

  const std::vector<PacketInOp>& flows(std::size_t conn) const { return flows_[conn]; }
  const std::vector<ChurnPattern>& patterns() const { return patterns_; }
  const std::vector<ChurnSet>& churn_sets() const { return churn_; }
  const std::vector<RelayOp>& relay(std::size_t conn) const { return relay_[conn]; }
  const Handshake& handshake() const { return handshake_; }
  const Mix& mix() const { return mix_; }

  // One half of a churn cycle's log-off/log-on pair for `host`.
  dfi::BindingEvent logon_event(std::uint32_t host, bool retracted) const;

  // The configuration under test: functional, threaded PCP, 2 shards.
  static dfi::DfiConfig config();

 private:
  Bytes put(const std::vector<std::uint8_t>& bytes);
  void build_enterprise();
  void build_packet_ins(dfi::Rng& rng, std::uint32_t flows_per_conn,
                        std::uint32_t churn_sets);
  void build_relay(dfi::Rng& rng);
  void build_handshake();

  Workload workload_;
  std::uint64_t seed_;
  dfi::ScaleGenerator gen_;
  std::array<dfi::Dpid, kConnections> dpids_{};
  std::array<std::uint32_t, kConnections> first_host_{};
  dfi::InMemoryJournalStore compacted_;
  std::uint64_t first_churn_cookie_ = 0;
  std::size_t bindings_ = 0;
  std::vector<std::uint8_t> arena_;
  std::array<std::vector<PacketInOp>, kConnections> flows_;
  std::vector<ChurnPattern> patterns_;
  std::vector<ChurnSet> churn_;
  std::array<std::vector<RelayOp>, kConnections> relay_;
  Handshake handshake_;
  Mix mix_;
};

// Write `cookie` big-endian into a FLOW_MOD frame's cookie field.
void write_cookie(std::uint8_t* frame, std::uint64_t cookie);

}  // namespace perfbench
