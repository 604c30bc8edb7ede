// Immutable snapshot of the Entity Resolution Manager's identity bindings.
//
// The PCP decision path must be a pure function of frozen state (DESIGN.md
// §5): enrichment and spoof validation run against an `ErmSnapshot`, never
// against the live ERM maps, so N PCP shards — simulated stations or real
// threads — can decide concurrently while sensors keep mutating the live
// manager on the control thread.
//
// Compact entity plane (DESIGN.md §8): the binding tables are keyed on
// dense interned `EntityId`s (common/intern.h), not heap strings. Each
// table is a paged copy-on-write structure (common/cow_table.h) whose
// posting lists hold packed 32-bit ids sorted in the *presentation* order
// of the entities they name (lexicographic for users/hosts, numeric for
// IPs), so enrichment output is byte-identical to the old ordered-set
// layout without sorting on the hot path. Publishing a snapshot is a
// root-pointer capture — O(1) — and the next mutation path-copies only the
// dirty page: one binding event at a million bindings costs the same as
// one binding event at ten thousand.
//
// The snapshot covers the *identity* bindings (user<->host, host<->IP,
// IP<->MAC). The MAC<->(switch,port) location binding is deliberately NOT
// part of it: the PCP's own location sensor asserts the observed location
// of every packet's source before deciding, which makes the source-side
// location check a tautology for unicast MACs (see decide_on_snapshots in
// core/pcp_decide.h). The one packet-visible location fact — the prior
// port of the source MAC — travels with the decision request as a scalar.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cow_table.h"
#include "common/intern.h"
#include "core/policy.h"

namespace dfi {

// Result of spoof validation (also returned by the live ERM).
struct SpoofCheck {
  bool spoofed = false;
  std::string reason;
};

// One immutable, packed posting list of entity ids. Slots in the paged
// tables hold shared pointers to these; mutation replaces the pointer with
// a freshly built list, so published snapshots keep reading the old one.
using PostingListPtr = std::shared_ptr<const std::vector<EntityId>>;

// The non-empty posting list stored under `key`, or nullptr (an invalid
// id, e.g. a name the interner has never seen, has none).
inline const std::vector<EntityId>* list_of(const CowTable<PostingListPtr>& table,
                                            EntityId key) {
  if (!key.valid()) return nullptr;
  const PostingListPtr* slot = table.find(key.value);
  if (slot == nullptr || *slot == nullptr || (*slot)->empty()) return nullptr;
  return slot->get();
}

// The identity-binding tables, shared structurally between the live ERM
// (which path-copies on mutation) and published snapshots (frozen). Pure
// queries live here so live and snapshot paths cannot drift apart.
struct ErmIdentityTables {
  ErmIdentityTables()
      : interner(std::make_shared<EntityInterner>()),
        ip_lookup(interner->ips().reader()) {}

  // Append-only id<->name store, shared by every version of the tables.
  std::shared_ptr<EntityInterner> interner;
  // IP value -> id capture for reader-side lookups (refreshed by the ERM
  // on every mutation / publication; see common/intern.h concurrency
  // contract).
  ValueInterner::Reader ip_lookup;

  // user id -> host ids, sorted by hostname.
  CowTable<PostingListPtr> user_to_hosts;
  // host id -> user ids, sorted by username.
  CowTable<PostingListPtr> host_to_users;
  // host id -> ip ids, sorted by address value.
  CowTable<PostingListPtr> host_to_ips;
  // ip id -> host ids, sorted by hostname.
  CowTable<PostingListPtr> ip_to_hosts;
  // ip id -> MAC (DHCP: one MAC per IP), packed as to_u64()+1; 0 = unbound.
  CowTable<std::uint64_t> ip_to_mac;
  // mac id -> ip ids, sorted by address value.
  CowTable<PostingListPtr> mac_to_ips;

  // Enrich the low-level identifiers of one endpoint: the input plus all
  // hostnames bound to the IP and all usernames bound to those hostnames,
  // deduplicated. Pure — no counters, no side effects.
  EndpointView enrich(EndpointView view) const;

  // IP<->MAC spoof validation: a packet claiming an IP that DHCP bound to
  // a different MAC is spoofed. Missing bindings are not spoofing.
  SpoofCheck validate_identity(const std::optional<MacAddress>& mac,
                               const std::optional<Ipv4Address>& ip) const;

  // Writer only: mark every page as shared by a published snapshot, so the
  // next mutation of each path-copies it (common/cow_table.h).
  void freeze_all() {
    user_to_hosts.freeze();
    host_to_users.freeze();
    host_to_ips.freeze();
    ip_to_hosts.freeze();
    ip_to_mac.freeze();
    mac_to_ips.freeze();
  }

  // Aggregate copy-on-write cost counters across all six tables.
  CowTableStats cow_stats() const {
    CowTableStats total;
    for (const CowTableStats* s :
         {&user_to_hosts.stats(), &host_to_users.stats(), &host_to_ips.stats(),
          &ip_to_hosts.stats(), &ip_to_mac.stats(), &mac_to_ips.stats()}) {
      total.page_copies += s->page_copies;
      total.root_copies += s->root_copies;
    }
    return total;
  }
};

// One immutable, epoch-stamped view of the identity bindings. Cheap to
// copy (a shared_ptr plus the epoch); safe to read from any thread. Only
// the ERM publishes one: there is deliberately no default constructor,
// since an empty snapshot would have to build throwaway tables and an
// interner on the hot path.
class ErmSnapshot {
 public:
  ErmSnapshot(std::shared_ptr<const ErmIdentityTables> tables, std::uint64_t epoch)
      : tables_(std::move(tables)), epoch_(epoch) {}

  EndpointView enrich(EndpointView view) const { return tables_->enrich(std::move(view)); }
  SpoofCheck validate_identity(const std::optional<MacAddress>& mac,
                               const std::optional<Ipv4Address>& ip) const {
    return tables_->validate_identity(mac, ip);
  }

  // The ERM epoch in force when this snapshot was taken; decision-cache
  // entries derived from it are stamped with this value.
  std::uint64_t epoch() const { return epoch_; }

  const ErmIdentityTables& tables() const { return *tables_; }

 private:
  std::shared_ptr<const ErmIdentityTables> tables_;
  std::uint64_t epoch_ = 0;
};

}  // namespace dfi
