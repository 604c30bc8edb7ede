// Allocation guards for snapshot publication.
//
// Every threaded Packet-in burst captures the (ErmSnapshot, PolicySnapshot)
// pair. When nothing mutated since the last capture, that must be a pair
// of shared_ptr copies: no heap allocation at all. After one policy insert
// or revoke, publication path-copies a fixed set of index nodes, so it
// allocates the same count whatever the rule count. This binary replaces
// the global operator new with a counting one, so it lives apart from the
// other tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bus/message_bus.h"
#include "core/entity_resolution.h"
#include "core/pcp_decide.h"
#include "core/policy_manager.h"

namespace {

thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfi {
namespace {

// Heap allocations the calling thread makes while running `fn`.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

class SnapshotAllocTest : public ::testing::Test {
 protected:
  SnapshotAllocTest() : erm_(bus_), manager_(bus_) {
    BindingEvent ip_mac;
    ip_mac.kind = BindingKind::kIpMac;
    ip_mac.ip = Ipv4Address(10, 0, 0, 5);
    ip_mac.mac = MacAddress::from_u64(5);
    erm_.apply(ip_mac);
    BindingEvent host_ip;
    host_ip.kind = BindingKind::kHostIp;
    host_ip.host = Hostname{"h5"};
    host_ip.ip = Ipv4Address(10, 0, 0, 5);
    erm_.apply(host_ip);

    PolicyRule allow;
    allow.action = PolicyAction::kAllow;
    manager_.insert(allow, PdpPriority{10}, "test");
  }

  MessageBus bus_;
  EntityResolutionManager erm_;
  PolicyManager manager_;
};

TEST_F(SnapshotAllocTest, CountingAllocatorSeesAllocations) {
  // The guard below means nothing if the replacement is not linked in.
  EXPECT_GT(allocations_in([] { delete new int(7); }), 0u);
}

TEST_F(SnapshotAllocTest, RepeatErmSnapshotOnCleanErmAllocatesNothing) {
  const ErmSnapshot first = erm_.snapshot_view();
  const std::uint64_t allocs = allocations_in([&] {
    const ErmSnapshot again = erm_.snapshot_view();
    EXPECT_EQ(&again.tables(), &first.tables());
    EXPECT_EQ(again.epoch(), first.epoch());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST_F(SnapshotAllocTest, RepeatPolicySnapshotOnCleanManagerAllocatesNothing) {
  const auto first = manager_.snapshot_view();
  const std::uint64_t allocs = allocations_in([&] {
    const auto again = manager_.snapshot_view();
    EXPECT_EQ(again.get(), first.get());
  });
  EXPECT_EQ(allocs, 0u);
}

TEST_F(SnapshotAllocTest, RepeatDecisionPairCaptureAllocatesNothing) {
  // The pair the PCP captures once per threaded burst.
  const DecisionSnapshots first{erm_.snapshot_view(), manager_.snapshot_view()};
  const std::uint64_t allocs = allocations_in([&] {
    const DecisionSnapshots again{erm_.snapshot_view(), manager_.snapshot_view()};
    EXPECT_EQ(again.policy.get(), first.policy.get());
  });
  EXPECT_EQ(allocs, 0u);
}

// Allocations of one insert + publication and of one revoke + publication
// against a published manager holding `rules` rules. Rules pivot on
// distinct source IPs over four priorities; the probe rule shares rule 0's
// IP and lowest priority, so its insert sweeps no lower bucket and both
// operations touch a populated posting page at every rule count.
struct PublishAllocations {
  std::uint64_t insert = 0;
  std::uint64_t revoke = 0;
};

PublishAllocations publish_allocations(std::uint32_t rules) {
  MessageBus bus;
  PolicyManager manager(bus);
  for (std::uint32_t i = 0; i < rules; ++i) {
    PolicyRule rule;
    rule.action = i % 2 == 0 ? PolicyAction::kAllow : PolicyAction::kDeny;
    rule.source.ip = Ipv4Address(0x0a000000u + i);
    manager.insert(rule, PdpPriority{1 + i % 4}, "base");
  }
  manager.snapshot_view();
  PolicyRule probe;
  probe.action = PolicyAction::kAllow;
  probe.source.ip = Ipv4Address(0x0a000000u);
  probe.destination.l4_port = 22;
  PublishAllocations out;
  PolicyRuleId id{};
  out.insert = allocations_in([&] {
    id = manager.insert(probe, PdpPriority{1}, "probe");
    manager.snapshot_view();
  });
  out.revoke = allocations_in([&] {
    manager.revoke(id);
    manager.snapshot_view();
  });
  return out;
}

TEST(PolicyPublishAllocTest, InsertOrRevokePublicationAllocatesTheSameAt1kAnd10kRules) {
  const PublishAllocations small = publish_allocations(1000);
  const PublishAllocations large = publish_allocations(10000);
  EXPECT_EQ(small.insert, large.insert);
  EXPECT_EQ(small.revoke, large.revoke);
  // A path copy is a handful of nodes, not a copy of the rule set.
  EXPECT_LE(large.insert, 16u);
  EXPECT_LE(large.revoke, 16u);
}

}  // namespace
}  // namespace dfi
