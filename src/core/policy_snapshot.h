// Immutable snapshot of the Policy Manager's rule database.
//
// The PCP decision path queries policy through a PolicySnapshot instead of
// the Policy Manager's live index (DESIGN.md §5). A snapshot is a handle
// to one frozen version of that same copy-on-write index
// (core/policy_index.h) plus the epoch it was taken at: taking one copies
// no rule and builds nothing. The control thread never writes a frozen
// version, and snapshot queries count nothing, so any number of PCP shards
// may query one concurrently while PDPs keep inserting and revoking rules
// against the live manager.
//
// Query equivalence: the live query and a snapshot query run the same
// PolicyIndexView::best_match over the same version, so query() here
// returns bit-identical decisions to PolicyManager::query() at the epoch
// the snapshot was taken — including the choice among equally ranked
// same-action rules.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/types.h"
#include "core/policy.h"
#include "core/policy_index.h"

namespace dfi {

// Cookie value reserved for flow rules the PCP installs for the default
// Deny decision (no matching policy rule). PolicyRuleIds start above it.
inline constexpr Cookie kDefaultDenyCookie{1};

// Outcome of a policy query for one flow.
struct PolicyDecision {
  PolicyAction action = PolicyAction::kDeny;
  // Id of the deciding rule; kDefaultDenyCookie.value when no rule matched
  // (default deny).
  PolicyRuleId rule_id{kDefaultDenyCookie.value};
  bool default_deny = false;
};

// The decision a best match (nullptr: none) stands for.
inline PolicyDecision decision_of(const StoredPolicyRule* best) {
  if (best == nullptr) {
    return PolicyDecision{PolicyAction::kDeny, PolicyRuleId{kDefaultDenyCookie.value},
                          /*default_deny=*/true};
  }
  return PolicyDecision{best->rule.action, best->id, /*default_deny=*/false};
}

class PolicySnapshot {
 public:
  PolicySnapshot(std::shared_ptr<const PolicyIndexRoot> root, std::uint64_t epoch)
      : root_(std::move(root)), epoch_(epoch) {}

  // Highest-priority rule matching the flow; PDP priority orders rules,
  // equal-priority Allow/Deny conflicts resolve to Deny, no match is the
  // default deny. Pure: touches no mutable state.
  PolicyDecision query(const FlowView& flow) const {
    return decision_of(index().best_match(flow));
  }

  // Rules stay valid while this snapshot is held, revoked ones included.
  const StoredPolicyRule* find(PolicyRuleId id) const { return index().find(id); }

  // The frozen index, counting nothing.
  PolicyIndexView index() const { return PolicyIndexView(*root_, nullptr); }

  std::size_t size() const { return index().size(); }

  // The Policy Manager epoch in force when this snapshot was taken;
  // decision-cache entries derived from it are stamped with this value.
  std::uint64_t epoch() const { return epoch_; }

  // Which index version this snapshot holds.
  const PolicyIndexRoot* root() const { return root_.get(); }

 private:
  std::shared_ptr<const PolicyIndexRoot> root_;
  std::uint64_t epoch_ = 0;
};

}  // namespace dfi
