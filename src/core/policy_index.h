// Priority-bucketed posting-list index over policy rules, copy-on-write.
//
// The Policy Manager must return the highest-PDP-priority rule matching an
// enriched flow, resolving equal-priority Allow/Deny conflicts toward Deny
// (paper Section III-B). The reference implementation scans every stored
// rule per query — O(n) on the Packet-in hot path. This index buckets
// rules by PDP priority (kept in descending order) and, within a bucket,
// files each rule under exactly ONE concrete "pivot" field — the first
// concrete one of src/dst IP, MAC, user, host, DPID in that order. Rules
// with none of those fields concrete (wildcard-only rules, or rules
// constrained solely by ports / flow properties) live on the bucket's
// wildcard list.
//
// Posting keys are 64-bit words: IPs, MACs and DPIDs are their values,
// user/host names are a hash of the name. A hash collision only adds a
// candidate — matches() and overlaps() re-check the names — so the index
// needs no name interner, and a queried name no rule pivots on probes an
// empty slot.
//
// Query: walk buckets from the highest priority down. A bucket's candidate
// set is its wildcard list plus, for each pivot field, the posting list
// keyed by the flow's observed value for that field (enriched user/host
// fields contribute one probe per bound identifier). Skipping rules whose
// pivot value is absent from the flow is exact, not heuristic: a concrete
// spec field only matches when the observed value is present and equal
// (core/policy.cc, field_matches), so such rules cannot match the flow.
// Because each rule lives in exactly one posting list, no candidate is
// visited twice and the Deny-wins tie-break inspects every equal-priority
// match exactly as the linear scan does. Posting lists are in ascending-id
// order, so the choice among equally ranked same-action rules is a pure
// function of the rule set. The first bucket containing any match decides
// (early exit).
//
// The same structure serves the insert-time consistency sweep (Section
// III-B) and the wildcard-cache safety gate (core/rule_cache.h): overlap
// candidates for a rule are, per bucket in a priority range, the wildcard
// list plus — for each pivot field — either one posting list (the rule
// names that field concretely; overlap requires equality) or the field's
// entire map (the rule wildcards the field, which overlaps every value).
//
// Copy-on-write versions (DESIGN.md §5). Every node — the bucket set, each
// bucket, each pivot field's map, each of the map's hash pages, and the
// id -> rule map — carries a generation tag (common/cow_table.h). freeze()
// bumps the generation and hands out the current root: an O(1) snapshot.
// The next write path-copies only the root, the bucket, the field map and
// the one page it touches; all other nodes stay shared. Each map is split
// into a fixed number of pages by key hash and each page is one flat
// vector, so a path copy costs a fixed number of allocations whatever the
// rule count. Rules are owned by the posting entries that file them
// (shared_ptr), so a revoke cannot free a rule a frozen version still
// reaches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/policy.h"

namespace dfi {

// A rule as stored by the Policy Manager. Immutable once indexed.
struct StoredPolicyRule {
  PolicyRuleId id{};
  PolicyRule rule;
  PdpPriority priority{};
  std::string pdp_name;
};

struct PolicyIndexStats {
  std::uint64_t buckets_visited = 0;      // priority buckets walked by queries
  std::uint64_t match_candidates = 0;     // rules tested with matches()
  std::uint64_t overlap_candidates = 0;   // rules tested by the insert sweep
};

// One version of the index (defined in policy_index.cc). The live version
// is written only by its PolicyRuleIndex; a frozen one is never written.
struct PolicyIndexRoot;

// Read-only operations over one version of the index: the live one (through
// PolicyRuleIndex::view) or a frozen one (PolicySnapshot::index).
class PolicyIndexView {
 public:
  // Counters go to `stats` when non-null. Frozen versions are read from
  // PCP shard threads and pass null: they then touch no mutable state.
  PolicyIndexView(const PolicyIndexRoot& root, PolicyIndexStats* stats)
      : root_(&root), stats_(stats) {}

  // Highest-priority rule matching `flow`, Deny winning equal-priority
  // conflicts; nullptr when nothing matches (default deny).
  const StoredPolicyRule* best_match(const FlowView& flow) const;

  // Invoke `fn` on every rule with priority in [min_priority, max_priority]
  // that could field-wise overlap `rule`. The candidate set is a superset
  // of the truly overlapping rules; callers re-check with
  // PolicyRule::overlaps. Each rule is visited at most once.
  void for_each_overlap_candidate(
      const PolicyRule& rule, std::uint32_t min_priority, std::uint32_t max_priority,
      const std::function<void(const StoredPolicyRule&)>& fn) const;

  const StoredPolicyRule* find(PolicyRuleId id) const;

  // Every rule, ascending id.
  std::vector<const StoredPolicyRule*> rules() const;

  std::size_t size() const;

 private:
  const PolicyIndexRoot* root_;
  PolicyIndexStats* stats_;
};

// The live index: the single writer of its versions (control thread only).
class PolicyRuleIndex {
 public:
  PolicyRuleIndex();
  PolicyRuleIndex(const PolicyRuleIndex&) = delete;
  PolicyRuleIndex& operator=(const PolicyRuleIndex&) = delete;

  // `stored.id` must not be indexed already.
  void insert(StoredPolicyRule stored);
  // False when `id` is not indexed.
  bool remove(PolicyRuleId id);

  // The current version, frozen: later writes copy what they touch instead
  // of changing it. Freezing changes no content, hence const.
  std::shared_ptr<const PolicyIndexRoot> freeze() const;

  // The live version, counting into stats().
  PolicyIndexView view() const { return PolicyIndexView(*root_, &stats_); }
  // Identity of the live version: unchanged exactly until the next write
  // after a freeze().
  const PolicyIndexRoot* root() const { return root_.get(); }
  const PolicyIndexStats& stats() const { return stats_; }

 private:
  std::shared_ptr<PolicyIndexRoot> root_;
  mutable std::uint64_t generation_ = 0;
  mutable PolicyIndexStats stats_;
};

}  // namespace dfi
