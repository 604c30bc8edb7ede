#include "core/policy_index.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string_view>

#include "common/cow_table.h"
#include "common/hash.h"

namespace dfi {
namespace policy_index_detail {

// Pages per map: a path copy clones one page, so this divides the copied
// entries; the map node itself copies this many page pointers.
constexpr unsigned kPageBits = 6;
constexpr std::size_t kPages = std::size_t{1} << kPageBits;

// Posting maps own their rules; the id map points into them.
using RulePtr = std::shared_ptr<const StoredPolicyRule>;
using RawRule = const StoredPolicyRule*;

template <typename Ref>
struct Posting {
  std::uint64_t key;
  Ref rule;
};

template <typename Ref>
struct PostingPage {
  std::uint64_t tag = 0;
  std::vector<Posting<Ref>> entries;  // sorted by (key, rule id)

  PostingPage() = default;
  // A clone keeps room for one more entry, so the write that forced the
  // copy never reallocates: a path copy is a fixed number of allocations.
  PostingPage(const PostingPage& other) : tag(other.tag) {
    entries.reserve(other.entries.size() + 1);
    entries.insert(entries.end(), other.entries.begin(), other.entries.end());
  }
};

// Multimap from a 64-bit key to rules, split into kPages pages by key hash.
template <typename Ref>
struct PostingMap {
  std::uint64_t tag = 0;
  std::size_t size = 0;
  std::array<std::shared_ptr<PostingPage<Ref>>, kPages> pages;
};

std::size_t page_of(std::uint64_t key) { return mix64(key) >> (64 - kPageBits); }

template <typename Ref, typename Fn>
void probe(const PostingMap<Ref>* map, std::uint64_t key, Fn&& fn) {
  if (map == nullptr) return;
  const PostingPage<Ref>* page = map->pages[page_of(key)].get();
  if (page == nullptr) return;
  auto it = std::lower_bound(
      page->entries.begin(), page->entries.end(), key,
      [](const Posting<Ref>& posting, std::uint64_t k) { return posting.key < k; });
  for (; it != page->entries.end() && it->key == key; ++it) fn(std::to_address(it->rule));
}

template <typename Ref, typename Fn>
void for_all(const PostingMap<Ref>* map, Fn&& fn) {
  if (map == nullptr) return;
  for (const auto& page : map->pages) {
    if (page == nullptr) continue;
    for (const Posting<Ref>& posting : page->entries) fn(std::to_address(posting.rule));
  }
}

template <typename Ref>
void posting_insert(std::shared_ptr<PostingMap<Ref>>& map_ptr, std::uint64_t key, Ref rule,
                    std::uint64_t generation) {
  PostingMap<Ref>& map = cow_writable(map_ptr, generation);
  std::vector<Posting<Ref>>& entries = cow_writable(map.pages[page_of(key)], generation).entries;
  const PolicyRuleId id = rule->id;
  const auto at = std::upper_bound(
      entries.begin(), entries.end(), key, [&](std::uint64_t k, const Posting<Ref>& posting) {
        return k < posting.key || (k == posting.key && id < posting.rule->id);
      });
  entries.insert(at, Posting<Ref>{key, std::move(rule)});
  ++map.size;
}

// `id` must be filed under `key`. A map or page the erase empties is
// dropped instead of copied.
template <typename Ref>
void posting_erase(std::shared_ptr<PostingMap<Ref>>& map_ptr, std::uint64_t key, PolicyRuleId id,
                   std::uint64_t generation) {
  if (map_ptr->size == 1) {
    map_ptr.reset();
    return;
  }
  PostingMap<Ref>& map = cow_writable(map_ptr, generation);
  --map.size;
  std::shared_ptr<PostingPage<Ref>>& page = map.pages[page_of(key)];
  if (page->entries.size() == 1) {
    page.reset();
    return;
  }
  std::vector<Posting<Ref>>& entries = cow_writable(page, generation).entries;
  entries.erase(std::find_if(entries.begin(), entries.end(), [&](const Posting<Ref>& posting) {
    return posting.key == key && posting.rule->id == id;
  }));
}

// Pivot fields, in pivot-selection order; kWildcard holds rules with none.
enum Field : std::size_t {
  kSrcIp, kDstIp, kSrcMac, kDstMac, kSrcUser, kDstUser, kSrcHost, kDstHost,
  kSrcDpid, kDstDpid, kWildcard, kFields
};

// Every wildcard-list entry has this key, so the list is one page.
constexpr std::uint64_t kWildcardKey = 0;

std::uint64_t name_key(const std::string& name) {
  return std::hash<std::string_view>{}(name);
}

// Each concrete pivot-field value of a rule spec, as its posting key.
std::array<std::optional<std::uint64_t>, kWildcard> spec_keys(const PolicyRule& rule) {
  const EndpointSpec& src = rule.source;
  const EndpointSpec& dst = rule.destination;
  std::array<std::optional<std::uint64_t>, kWildcard> keys;
  if (src.ip) keys[kSrcIp] = src.ip->value();
  if (dst.ip) keys[kDstIp] = dst.ip->value();
  if (src.mac) keys[kSrcMac] = src.mac->to_u64();
  if (dst.mac) keys[kDstMac] = dst.mac->to_u64();
  if (src.user) keys[kSrcUser] = name_key(src.user->value);
  if (dst.user) keys[kDstUser] = name_key(dst.user->value);
  if (src.host) keys[kSrcHost] = name_key(src.host->value);
  if (dst.host) keys[kDstHost] = name_key(dst.host->value);
  if (src.dpid) keys[kSrcDpid] = src.dpid->value;
  if (dst.dpid) keys[kDstDpid] = dst.dpid->value;
  return keys;
}

struct Pivot {
  std::size_t field = kWildcard;
  std::uint64_t key = kWildcardKey;
};

// The posting list a rule is filed under: its first concrete pivot field.
Pivot pivot_of(const PolicyRule& rule) {
  const auto keys = spec_keys(rule);
  for (std::size_t field = 0; field < keys.size(); ++field) {
    if (keys[field]) return Pivot{field, *keys[field]};
  }
  return Pivot{};
}

struct Bucket {
  std::uint64_t tag = 0;
  std::uint32_t priority = 0;
  std::size_t size = 0;
  std::array<std::shared_ptr<PostingMap<RulePtr>>, kFields> fields;
};

// The flow's user/host pivot keys, hashed once per query rather than once
// per bucket. Only a flow naming more than kInline names allocates.
class NameKeys {
 public:
  enum List : std::size_t { kSrcUsers, kDstUsers, kSrcHosts, kDstHosts };

  explicit NameKeys(const FlowView& flow) {
    add(flow.src.usernames, kSrcUsers);
    add(flow.dst.usernames, kDstUsers);
    add(flow.src.hostnames, kSrcHosts);
    add(flow.dst.hostnames, kDstHosts);
  }

  template <typename Fn>
  void for_each(List list, Fn&& fn) const {
    const std::uint64_t* keys = spill_.empty() ? inline_.data() : spill_.data();
    for (std::size_t i = list == 0 ? 0 : end_[list - 1]; i < end_[list]; ++i) fn(keys[i]);
  }

 private:
  static constexpr std::size_t kInline = 16;

  template <typename Names>
  void add(const Names& names, List list) {
    for (const auto& name : names) {
      if (count_ == kInline && spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
      const std::uint64_t key = name_key(name.value);
      if (spill_.empty()) {
        inline_[count_] = key;
      } else {
        spill_.push_back(key);
      }
      ++count_;
    }
    end_[list] = count_;
  }

  std::array<std::uint64_t, kInline> inline_{};
  std::vector<std::uint64_t> spill_;
  std::array<std::size_t, 4> end_{};
  std::size_t count_ = 0;
};

}  // namespace policy_index_detail

using namespace policy_index_detail;

struct PolicyIndexRoot {
  std::uint64_t tag = 0;
  std::vector<std::shared_ptr<Bucket>> buckets;  // descending priority
  std::shared_ptr<PostingMap<RawRule>> by_id;    // keyed by rule id
};

namespace {

// First bucket with priority <= `priority` (buckets are descending).
template <typename Buckets>
auto bucket_at(Buckets& buckets, std::uint32_t priority) {
  return std::lower_bound(buckets.begin(), buckets.end(), priority,
                          [](const std::shared_ptr<Bucket>& bucket, std::uint32_t p) {
                            return bucket->priority > p;
                          });
}

}  // namespace

const StoredPolicyRule* PolicyIndexView::best_match(const FlowView& flow) const {
  const NameKeys names(flow);
  for (const std::shared_ptr<Bucket>& bucket : root_->buckets) {
    if (stats_ != nullptr) ++stats_->buckets_visited;
    const StoredPolicyRule* best = nullptr;
    const auto consider = [&](const StoredPolicyRule* stored) {
      if (stats_ != nullptr) ++stats_->match_candidates;
      if (!stored->rule.matches(flow)) return;
      if (best == nullptr) {
        best = stored;
      } else if (best->rule.action == PolicyAction::kAllow &&
                 stored->rule.action == PolicyAction::kDeny) {
        best = stored;  // equal-priority conflict: Deny wins
      }
    };
    const auto field = [&](Field f) { return bucket->fields[f].get(); };
    const auto probe_names = [&](Field f, NameKeys::List list) {
      if (field(f) == nullptr) return;
      names.for_each(list, [&](std::uint64_t key) { probe(field(f), key, consider); });
    };
    if (flow.src.ip) probe(field(kSrcIp), flow.src.ip->value(), consider);
    if (flow.dst.ip) probe(field(kDstIp), flow.dst.ip->value(), consider);
    if (flow.src.mac) probe(field(kSrcMac), flow.src.mac->to_u64(), consider);
    if (flow.dst.mac) probe(field(kDstMac), flow.dst.mac->to_u64(), consider);
    probe_names(kSrcUser, NameKeys::kSrcUsers);
    probe_names(kDstUser, NameKeys::kDstUsers);
    probe_names(kSrcHost, NameKeys::kSrcHosts);
    probe_names(kDstHost, NameKeys::kDstHosts);
    if (flow.src.dpid) probe(field(kSrcDpid), flow.src.dpid->value, consider);
    if (flow.dst.dpid) probe(field(kDstDpid), flow.dst.dpid->value, consider);
    probe(field(kWildcard), kWildcardKey, consider);
    if (best != nullptr) return best;  // no lower bucket can outrank this one
  }
  return nullptr;
}

void PolicyIndexView::for_each_overlap_candidate(
    const PolicyRule& rule, std::uint32_t min_priority, std::uint32_t max_priority,
    const std::function<void(const StoredPolicyRule&)>& fn) const {
  const auto visit = [&](const StoredPolicyRule* stored) {
    if (stats_ != nullptr) ++stats_->overlap_candidates;
    fn(*stored);
  };
  // A rule pivoted on field f with value v overlaps `rule` on f iff `rule`
  // wildcards f or names the same v — so a concrete spec costs one probe,
  // a wildcard spec visits the whole map.
  const auto keys = spec_keys(rule);
  for (auto it = bucket_at(root_->buckets, max_priority);
       it != root_->buckets.end() && (*it)->priority >= min_priority; ++it) {
    const Bucket& bucket = **it;
    for (std::size_t f = 0; f < keys.size(); ++f) {
      if (keys[f]) {
        probe(bucket.fields[f].get(), *keys[f], visit);
      } else {
        for_all(bucket.fields[f].get(), visit);
      }
    }
    probe(bucket.fields[kWildcard].get(), kWildcardKey, visit);
  }
}

const StoredPolicyRule* PolicyIndexView::find(PolicyRuleId id) const {
  const StoredPolicyRule* found = nullptr;
  probe(root_->by_id.get(), id.value, [&](const StoredPolicyRule* stored) { found = stored; });
  return found;
}

std::vector<const StoredPolicyRule*> PolicyIndexView::rules() const {
  std::vector<const StoredPolicyRule*> out;
  out.reserve(size());
  for_all(root_->by_id.get(), [&](const StoredPolicyRule* stored) { out.push_back(stored); });
  std::sort(out.begin(), out.end(),
            [](const StoredPolicyRule* a, const StoredPolicyRule* b) { return a->id < b->id; });
  return out;
}

std::size_t PolicyIndexView::size() const {
  return root_->by_id == nullptr ? 0 : root_->by_id->size;
}

PolicyRuleIndex::PolicyRuleIndex() : root_(std::make_shared<PolicyIndexRoot>()) {}

void PolicyRuleIndex::insert(StoredPolicyRule stored) {
  RulePtr rule = std::make_shared<const StoredPolicyRule>(std::move(stored));
  PolicyIndexRoot& root = cow_writable(root_, generation_);
  auto it = bucket_at(root.buckets, rule->priority.value);
  if (it == root.buckets.end() || (*it)->priority != rule->priority.value) {
    it = root.buckets.insert(it, nullptr);
    cow_writable(*it, generation_).priority = rule->priority.value;
  }
  Bucket& bucket = cow_writable(*it, generation_);
  const Pivot pivot = pivot_of(rule->rule);
  posting_insert(root.by_id, rule->id.value, rule.get(), generation_);
  posting_insert(bucket.fields[pivot.field], pivot.key, std::move(rule), generation_);
  ++bucket.size;
}

bool PolicyRuleIndex::remove(PolicyRuleId id) {
  const StoredPolicyRule* stored = PolicyIndexView(*root_, nullptr).find(id);
  if (stored == nullptr) return false;
  // Everything needed from the rule, taken before an erase may free it.
  const std::uint32_t priority = stored->priority.value;
  const Pivot pivot = pivot_of(stored->rule);
  PolicyIndexRoot& root = cow_writable(root_, generation_);
  posting_erase(root.by_id, id.value, id, generation_);
  const auto it = bucket_at(root.buckets, priority);
  if ((*it)->size == 1) {
    root.buckets.erase(it);
  } else {
    Bucket& bucket = cow_writable(*it, generation_);
    posting_erase(bucket.fields[pivot.field], pivot.key, id, generation_);
    --bucket.size;
  }
  return true;
}

std::shared_ptr<const PolicyIndexRoot> PolicyRuleIndex::freeze() const {
  ++generation_;
  return root_;
}

}  // namespace dfi
