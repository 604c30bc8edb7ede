#include "core/policy_manager.h"

#include "common/logging.h"
#include "core/journal.h"

namespace dfi {

PolicyManager::PolicyManager(MessageBus& bus) : bus_(bus) {}

PolicyRuleId PolicyManager::insert(PolicyRule rule, PdpPriority priority,
                                   std::string pdp_name) {
  const PolicyRuleId id{next_id_};
  if (journal_ != nullptr) {
    // WAL ordering: the record is durable before any effect of the insert
    // escapes — including the conflict flush publishes below. If the
    // append dies mid-write (CrashException), the insert never happened:
    // next_id_, the epoch and the rule map are all untouched.
    journal_->append_policy_insert(id, StoredPolicyRule{id, rule, priority, pdp_name},
                                   epoch_ + 1);
  }
  ++next_id_;
  ++stats_.inserts;

  // Consistency check: flush switch rules derived from existing
  // lower-priority rules with the opposite action that overlap the new one.
  // The index narrows the sweep to field-wise overlap candidates.
  if (priority.value > 0) {
    index_.view().for_each_overlap_candidate(
        rule, 0, priority.value - 1, [&](const StoredPolicyRule& stored) {
          if (stored.rule.action == rule.action) return;
          if (!stored.rule.overlaps(rule)) return;
          ++stats_.conflict_flushes;
          publish_flush(stored.id);
        });
  }
  // A new Allow rule may override previous default-deny decisions whose
  // exact-match deny rules are cached in switches; flush those too.
  if (rule.action == PolicyAction::kAllow) {
    publish_flush(PolicyRuleId{kDefaultDenyCookie.value});
  }

  index_.insert(StoredPolicyRule{id, std::move(rule), priority, std::move(pdp_name)});
  ++epoch_;
  return id;
}

bool PolicyManager::revoke(PolicyRuleId id) {
  if (index_.view().find(id) == nullptr) return false;
  if (journal_ != nullptr) journal_->append_policy_revoke(id, epoch_ + 1);
  ++stats_.revocations;
  index_.remove(id);
  ++epoch_;
  // Flush every switch rule derived from the revoked policy so ongoing
  // flows are re-evaluated against the remaining policy (Section III-B).
  publish_flush(id);
  return true;
}

PolicyDecision PolicyManager::query(const FlowView& flow) const {
  ++stats_.queries;
  return decision_of(index_.view().best_match(flow));
}

std::optional<StoredPolicyRule> PolicyManager::find(PolicyRuleId id) const {
  const StoredPolicyRule* stored = index_.view().find(id);
  if (stored == nullptr) return std::nullopt;
  return *stored;
}

std::vector<StoredPolicyRule> PolicyManager::rules() const {
  std::vector<StoredPolicyRule> out;
  out.reserve(size());
  for (const StoredPolicyRule* stored : index_.view().rules()) out.push_back(*stored);
  return out;
}

void PolicyManager::restore_rule(StoredPolicyRule stored) {
  const PolicyRuleId id = stored.id;
  if (index_.view().find(id) != nullptr) return;  // replay is idempotent
  index_.insert(std::move(stored));
  if (id.value >= next_id_) next_id_ = id.value + 1;
}

bool PolicyManager::restore_revoke(PolicyRuleId id) { return index_.remove(id); }

void PolicyManager::restore_next_id(std::uint64_t next_id) {
  if (next_id > next_id_) next_id_ = next_id;
}

void PolicyManager::advance_epoch_to(std::uint64_t epoch) {
  if (epoch > epoch_) epoch_ = epoch;
}

std::shared_ptr<const PolicySnapshot> PolicyManager::snapshot_view() const {
  // Any write after a freeze replaces the live root, so an unchanged root
  // at an unchanged epoch means the published snapshot is still current.
  if (published_ == nullptr || published_->root() != index_.root() ||
      published_->epoch() != epoch_) {
    ++stats_.publications;
    published_ = std::make_shared<const PolicySnapshot>(index_.freeze(), epoch_);
  }
  return published_;
}

void PolicyManager::publish_flush(PolicyRuleId id) {
  DFI_DEBUG << "PolicyManager: flush derivations of " << to_string(id);
  bus_.publish(topics::kRuleFlush, FlushDirective{id});
}

}  // namespace dfi
