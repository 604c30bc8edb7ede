// Reference model for the model-based invariant fuzzer (DESIGN.md §6).
//
// The model is an independent, synchronous re-implementation of the DFI
// access-control semantics built from the repo's reference components: a
// private EntityResolutionManager mirror fed exactly the binding events the
// system's ERM *actually received* (post-fault — the mirror subscribes to
// the same `erm.bindings` topic, after the real ERM, so it sees the same
// delivered sequence), plus a private PolicyManager mirror fed the same
// policy inserts/revokes the fuzzer applies to the system. Verdicts come
// from the linear-scan reference query, not the posting-list index, and
// never touch snapshots, decision caches, or the shard pool — everything
// the system under test layers on top of the semantics is absent here, so
// any divergence is a system bug, not a modelling artifact.
//
// The model compares verdict shape only (allow / spoofed / default-deny),
// not the deciding rule id: among equally-ranked same-action rules the
// tie-break is implementation freedom (see query_linear below).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "bus/message_bus.h"
#include "core/entity_resolution.h"
#include "core/policy_manager.h"
#include "net/packet.h"
#include "openflow/match.h"

namespace dfi::test {

// The policy oracle: the Policy Manager's query semantics as a full linear
// scan over `rules` (ascending id, as PolicyManager::rules() returns them).
// The differential-test oracle for the posting-list index and the scan
// baseline of bench_micro_policy_index; semantically identical to
// PolicyManager::query up to the choice among equally ranked same-action
// rules (the scan keeps the lowest id).
PolicyDecision query_linear(const std::vector<StoredPolicyRule>& rules,
                            const FlowView& flow);

// What the model predicts for one Packet-in.
struct ModelVerdict {
  bool allow = false;
  bool spoofed = false;
  bool default_deny = false;
};

class ReferenceModel {
 public:
  // `system_bus` is the bus of the system under test; the model mirrors
  // every BindingEvent delivered on it. Construct the model AFTER the
  // system's EntityResolutionManager so the mirror observes each event
  // after the real ERM has applied it.
  explicit ReferenceModel(MessageBus& system_bus);

  // Mirror one policy insert/revoke the fuzzer applied to the system's
  // PolicyManager. record_insert returns the id the mirror assigned — the
  // same insert sequence must yield the same ids as the system's manager
  // (the harness asserts this).
  PolicyRuleId record_insert(const PolicyRule& rule, PdpPriority priority);
  bool record_revoke(PolicyRuleId id);

  // The verdict the reference semantics assign to this packet right now.
  // nullopt when the frame is unparsable (the system default-denies it and
  // compiles no rule).
  std::optional<ModelVerdict> expected_verdict(
      Dpid dpid, PortNo in_port, const std::vector<std::uint8_t>& frame) const;

  // Same verdict, derived from the identifier fields of an exact-match
  // Table-0 rule instead of raw packet bytes — used to validate installed
  // rules at the proxy→switch tap (invariant I4). Only meaningful for
  // exact_from_packet-shaped matches.
  ModelVerdict expected_verdict_match(Dpid dpid, const Match& match) const;

  // Cookie bookkeeping for the installed-rule invariants. "Issued" ids are
  // every id ever returned by record_insert plus the default-deny cookie;
  // "revoked" ids never leave the revoked set (ids are not reused).
  bool cookie_issued(std::uint64_t cookie) const;
  bool cookie_revoked(std::uint64_t cookie) const;

  const std::set<std::uint64_t>& revoked_cookies() const { return revoked_; }
  std::uint64_t binding_events_seen() const { return binding_events_seen_; }

 private:
  ModelVerdict decide(EndpointView src, EndpointView dst,
                      std::uint16_t ether_type,
                      std::optional<std::uint8_t> ip_proto) const;

  // Private bus: the mirrors' own subscriptions attach here and never fire;
  // the mirror PolicyManager's consistency flushes are published here and
  // discarded.
  MessageBus private_bus_;
  EntityResolutionManager erm_;
  PolicyManager policy_;
  Subscription mirror_subscription_;
  std::set<std::uint64_t> issued_;
  std::set<std::uint64_t> revoked_;
  std::uint64_t binding_events_seen_ = 0;
};

}  // namespace dfi::test
