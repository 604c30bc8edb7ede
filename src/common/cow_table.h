// Paged copy-on-write tables keyed by dense entity ids.
//
// PR 2's snapshot isolation rebuilt the whole ErmIdentityTables on every
// dirty epoch — O(total bindings) per publication, which is exactly what a
// million-entity ERM cannot afford when one log-on event lands between two
// Packet-in bursts. A CowTable instead stores its values in fixed-size
// pages behind a shared root: taking a snapshot is a root-pointer copy, and
// the *next* mutation path-copies only the root page vector and the one
// dirty page — O(changed), independent of table size.
//
// Race-freedom without use_count() probes: sharing is tracked by
// generation tags, not refcounts. Observing a refcount of 1 from a relaxed
// load does not order the former holder's reads before our writes, and
// that boundary is exactly where refcount-probing copy-on-write goes racy.
// `freeze()` — called by the owner every time it publishes a snapshot —
// bumps the table's generation; a page (or the root) whose tag lags the
// current generation may be referenced by some snapshot and is cloned
// before the first write, while structures created after the latest freeze
// carry the current tag and are mutated in place. The control thread never
// writes memory a snapshot can reach, so readers need no synchronization
// beyond the snapshot handoff itself.
//
// Single-writer contract: all mutation, freezing and publication happen on
// the control thread that owns the table; reader threads only ever hold
// `shared_ptr<const T>` snapshots handed out at publication, so the only
// cross-thread traffic is the shared_ptr refcount. A snapshot no longer
// held simply deallocates when its last holder drops it.
//
// `cow_writable` is the scheme's one primitive, shared by CowTable and the
// policy index (core/policy_index.h): any node type with a `tag` member can
// be path-copied with it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace dfi {

// Writer only: `node` made safe to mutate at `generation`. A node whose tag
// lags may be shared with a frozen version and is cloned first; a missing
// node is created. Either way the result carries the current tag, so later
// writes before the next freeze() go in place.
template <typename Node>
Node& cow_writable(std::shared_ptr<Node>& node, std::uint64_t generation) {
  if (node != nullptr && node->tag == generation) return *node;
  node = node == nullptr ? std::make_shared<Node>() : std::make_shared<Node>(*node);
  node->tag = generation;
  return *node;
}

struct CowTableStats {
  std::uint64_t page_copies = 0;   // pages cloned because a snapshot shares them
  std::uint64_t root_copies = 0;   // root vectors cloned after a freeze
};

template <typename V, std::uint32_t kPageShift = 9>
class CowTable {
 public:
  static constexpr std::uint32_t kPageSize = 1u << kPageShift;
  static constexpr std::uint32_t kPageMask = kPageSize - 1;

  CowTable() : root_(std::make_shared<Root>()) {}

  // Readable slot for `id`, or nullptr when the id was never written in
  // this version. Safe on any thread holding a frozen copy.
  const V* find(std::uint32_t id) const {
    const Root& root = *root_;
    const std::uint32_t page_index = id >> kPageShift;
    if (page_index >= root.pages.size()) return nullptr;
    const Page* page = root.pages[page_index].get();
    if (page == nullptr) return nullptr;
    return &page->slots[id & kPageMask];
  }

  // Writer only: mark every currently reachable page as potentially shared.
  // Call once per published snapshot; the next mutation of each shared
  // page clones it first.
  void freeze() { ++generation_; }

  // Writer only: writable slot for `id`, path-copying shared structure.
  V& mutate(std::uint32_t id) {
    if (root_->tag != generation_) ++stats_.root_copies;
    Root& root = cow_writable(root_, generation_);
    const std::uint32_t page_index = id >> kPageShift;
    if (page_index >= root.pages.size()) root.pages.resize(page_index + 1);
    std::shared_ptr<Page>& page = root.pages[page_index];
    if (page != nullptr && page->tag != generation_) ++stats_.page_copies;
    return cow_writable(page, generation_).slots[id & kPageMask];
  }

  std::size_t page_count() const { return root_->pages.size(); }
  const CowTableStats& stats() const { return stats_; }

 private:
  struct Page {
    std::uint64_t tag = 0;
    std::array<V, kPageSize> slots{};
  };
  struct Root {
    std::uint64_t tag = 0;
    std::vector<std::shared_ptr<Page>> pages;
  };

  std::shared_ptr<Root> root_;
  std::uint64_t generation_ = 0;
  CowTableStats stats_;
};

}  // namespace dfi
