// Differential/property tests for the posting-list policy index: the
// indexed PolicyManager::query must be semantically equivalent to the
// linear-scan oracle query_linear (tests/support/reference_model) over
// randomized rule sets and flows, including equal-priority Deny-wins and
// wildcard-only rules, and the index-driven insert-time conflict sweep must
// flush exactly the rules the brute-force overlap definition names (paper
// §III-B). Frozen versions of the copy-on-write index (PolicySnapshot) must
// keep answering as the oracle did at their epoch, on any thread, whatever
// the live index does afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "bus/message_bus.h"
#include "core/policy_manager.h"
#include "support/reference_model.h"

namespace dfi {
namespace {

using test::query_linear;

// Small identifier pools: draws collide often enough that rules match
// flows, overlap each other, and tie on priority.
const std::vector<Username> kUsers = {Username{"alice"}, Username{"bob"},
                                      Username{"carol"}};
const std::vector<Hostname> kHosts = {Hostname{"h1"}, Hostname{"h2"},
                                      Hostname{"h3"}};
const std::vector<Ipv4Address> kIps = {
    Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), Ipv4Address(10, 0, 0, 3),
    Ipv4Address(10, 0, 0, 4)};
const std::vector<std::uint16_t> kPorts = {22, 80, 445};
const std::vector<std::uint16_t> kEtherTypes = {0x0800, 0x0806};
const std::vector<std::uint8_t> kProtos = {6, 17};

class RandomModel {
 public:
  explicit RandomModel(std::uint32_t seed) : rng_(seed) {}

  bool chance(double p) { return std::uniform_real_distribution<>(0, 1)(rng_) < p; }

  template <typename T>
  const T& pick(const std::vector<T>& pool) {
    return pool[std::uniform_int_distribution<std::size_t>(0, pool.size() - 1)(rng_)];
  }

  EndpointSpec random_spec() {
    EndpointSpec spec;
    if (chance(0.3)) spec.user = pick(kUsers);
    if (chance(0.3)) spec.host = pick(kHosts);
    if (chance(0.4)) spec.ip = pick(kIps);
    if (chance(0.3)) spec.l4_port = pick(kPorts);
    if (chance(0.2)) spec.mac = MacAddress::from_u64(1 + pick(kPorts) % 4);
    if (chance(0.15)) spec.dpid = Dpid{std::uint64_t{1} + pick(kPorts) % 2};
    return spec;
  }

  PolicyRule random_rule() {
    PolicyRule rule;
    rule.action = chance(0.5) ? PolicyAction::kAllow : PolicyAction::kDeny;
    if (chance(0.3)) rule.properties.ether_type = pick(kEtherTypes);
    if (chance(0.25)) rule.properties.ip_proto = pick(kProtos);
    // ~10% of rules stay fully wildcard on both endpoints (wildcard-list
    // coverage); the rest draw random specs, which may still come out
    // wildcard-only on the pivot fields (port-only rules).
    if (!chance(0.1)) {
      rule.source = random_spec();
      rule.destination = random_spec();
    }
    return rule;
  }

  EndpointView random_view() {
    EndpointView view;
    if (chance(0.9)) view.ip = pick(kIps);
    if (chance(0.9)) view.mac = MacAddress::from_u64(1 + pick(kPorts) % 4);
    if (chance(0.8)) view.l4_port = pick(kPorts);
    if (chance(0.3)) view.dpid = Dpid{std::uint64_t{1} + pick(kPorts) % 2};
    while (chance(0.4)) view.hostnames.push_back(pick(kHosts));
    while (chance(0.4)) view.usernames.push_back(pick(kUsers));
    return view;
  }

  FlowView random_flow() {
    FlowView flow;
    flow.ether_type = pick(kEtherTypes);
    if (chance(0.7)) flow.ip_proto = pick(kProtos);
    flow.src = random_view();
    flow.dst = random_view();
    return flow;
  }

  PdpPriority random_priority() {
    return PdpPriority{static_cast<std::uint32_t>(
        std::uniform_int_distribution<>(1, 4)(rng_) * 10)};
  }

 private:
  std::mt19937 rng_;
};

// The differential contract (mirrors tests/differential_test.cc): both
// implementations must agree on default-deny and action. The deciding rule
// id may differ among equally-ranked same-action rules.
void expect_equivalent(const PolicyManager& manager, const FlowView& flow) {
  const PolicyDecision indexed = manager.query(flow);
  const PolicyDecision linear = query_linear(manager.rules(), flow);
  ASSERT_EQ(indexed.default_deny, linear.default_deny)
      << "index and linear scan disagree on whether any rule matches";
  ASSERT_EQ(indexed.action, linear.action);
  if (indexed.default_deny || indexed.rule_id == linear.rule_id) return;
  const auto a = manager.find(indexed.rule_id);
  const auto b = manager.find(linear.rule_id);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->priority, b->priority);
  EXPECT_EQ(a->rule.action, b->rule.action);
  EXPECT_TRUE(a->rule.matches(flow));
  EXPECT_TRUE(b->rule.matches(flow));
}

class PolicyIndexDifferentialTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PolicyIndexDifferentialTest, IndexedQueryMatchesLinearScan) {
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(GetParam());
  for (int i = 0; i < 120; ++i) {
    manager.insert(model.random_rule(), model.random_priority(), "fuzz");
  }
  for (int i = 0; i < 300; ++i) {
    expect_equivalent(manager, model.random_flow());
  }
}

TEST_P(PolicyIndexDifferentialTest, EquivalenceHoldsAcrossInsertRevokeChurn) {
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(GetParam() ^ 0x5a5a5a5au);
  std::vector<PolicyRuleId> live;
  for (int round = 0; round < 200; ++round) {
    if (live.empty() || model.chance(0.6)) {
      live.push_back(manager.insert(model.random_rule(), model.random_priority(), "churn"));
    } else {
      std::swap(live[live.size() / 2], live.back());
      ASSERT_TRUE(manager.revoke(live.back()));
      live.pop_back();
    }
    expect_equivalent(manager, model.random_flow());
  }
  // Drain completely: the index must end empty and default-deny everything.
  for (const PolicyRuleId id : live) ASSERT_TRUE(manager.revoke(id));
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_TRUE(manager.query(model.random_flow()).default_deny);
}

TEST_P(PolicyIndexDifferentialTest, ConflictFlushSetMatchesBruteForce) {
  MessageBus bus;
  RandomModel model(GetParam() ^ 0xc0ffee11u);
  std::vector<PolicyRuleId> flushes;
  PolicyManager manager(bus);
  const Subscription sub = bus.subscribe<FlushDirective>(
      topics::kRuleFlush,
      [&flushes](const FlushDirective& d) { flushes.push_back(d.policy); });

  for (int round = 0; round < 80; ++round) {
    const PolicyRule rule = model.random_rule();
    const PdpPriority priority = model.random_priority();
    // Brute-force reference: strictly lower priority, opposite action,
    // field-wise overlap (paper §III-B consistency conditions).
    std::vector<PolicyRuleId> expected;
    for (const StoredPolicyRule& stored : manager.rules()) {
      if (stored.priority < priority && stored.rule.action != rule.action &&
          stored.rule.overlaps(rule)) {
        expected.push_back(stored.id);
      }
    }
    flushes.clear();
    manager.insert(rule, priority, "sweep");
    std::vector<PolicyRuleId> actual;
    for (const PolicyRuleId id : flushes) {
      if (id.value != kDefaultDenyCookie.value) actual.push_back(id);
    }
    auto by_value = [](PolicyRuleId a, PolicyRuleId b) { return a.value < b.value; };
    std::sort(expected.begin(), expected.end(), by_value);
    std::sort(actual.begin(), actual.end(), by_value);
    ASSERT_EQ(actual, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyIndexDifferentialTest,
                         ::testing::Range(0u, 6u));

// ------------------------------------------------- deterministic corners

FlowView flow_for_user(const char* user) {
  FlowView flow;
  flow.ether_type = 0x0800;
  flow.src.ip = Ipv4Address(10, 0, 0, 1);
  flow.src.usernames = {Username{user}};
  flow.dst.ip = Ipv4Address(10, 0, 0, 2);
  return flow;
}

TEST(PolicyIndexTest, EqualPriorityDenyWinsWithinPostingList) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  PolicyRule deny = allow;
  deny.action = PolicyAction::kDeny;
  manager.insert(allow, PdpPriority{10}, "a");
  manager.insert(deny, PdpPriority{10}, "b");
  EXPECT_EQ(manager.query(flow_for_user("alice")).action, PolicyAction::kDeny);
  EXPECT_EQ(query_linear(manager.rules(), flow_for_user("alice")).action,
            PolicyAction::kDeny);
}

TEST(PolicyIndexTest, EqualPriorityDenyWinsAcrossWildcardAndPostingList) {
  // The Allow names a pivot field (posting list); the Deny is wildcard-only
  // (wildcard list). Equal priority: Deny must still win, which requires
  // the bucket walk to consider both lists before deciding.
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  PolicyRule deny;  // fully wildcard
  deny.action = PolicyAction::kDeny;
  manager.insert(allow, PdpPriority{10}, "a");
  manager.insert(deny, PdpPriority{10}, "b");
  EXPECT_EQ(manager.query(flow_for_user("alice")).action, PolicyAction::kDeny);
}

TEST(PolicyIndexTest, WildcardOnlyRuleMatchesViaWildcardList) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule port_only;  // no pivot field concrete: lives on the wildcard list
  port_only.action = PolicyAction::kAllow;
  port_only.destination.l4_port = 445;
  const PolicyRuleId id = manager.insert(port_only, PdpPriority{10}, "t");
  FlowView flow = flow_for_user("alice");
  flow.dst.l4_port = 445;
  const PolicyDecision decision = manager.query(flow);
  EXPECT_EQ(decision.action, PolicyAction::kAllow);
  EXPECT_EQ(decision.rule_id, id);
}

TEST(PolicyIndexTest, HigherPriorityBucketDecidesBeforeLowerIsVisited) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  PolicyRule deny = allow;
  deny.action = PolicyAction::kDeny;
  const PolicyRuleId high = manager.insert(allow, PdpPriority{30}, "high");
  manager.insert(deny, PdpPriority{10}, "low");
  const PolicyDecision decision = manager.query(flow_for_user("alice"));
  EXPECT_EQ(decision.action, PolicyAction::kAllow);
  EXPECT_EQ(decision.rule_id, high);
}

TEST(PolicyIndexTest, PolicyEpochBumpsOnInsertAndRevokeOnly) {
  MessageBus bus;
  PolicyManager manager(bus);
  const std::uint64_t e0 = manager.epoch();
  const PolicyRuleId id = manager.insert(PolicyRule{}, PdpPriority{10}, "t");
  EXPECT_GT(manager.epoch(), e0);
  const std::uint64_t e1 = manager.epoch();
  manager.query(flow_for_user("alice"));  // queries never bump
  EXPECT_EQ(manager.epoch(), e1);
  EXPECT_TRUE(manager.revoke(id));
  EXPECT_GT(manager.epoch(), e1);
  const std::uint64_t e2 = manager.epoch();
  EXPECT_FALSE(manager.revoke(id));  // failed revoke: no state change
  EXPECT_EQ(manager.epoch(), e2);
}

// ------------------------------------------------- frozen versions

// The oracle contract of expect_equivalent, for a decision `got` from a
// snapshot whose rules were `rules` (ascending id).
bool oracle_agrees(const PolicySnapshot& snapshot, const std::vector<StoredPolicyRule>& rules,
                   const FlowView& flow, const PolicyDecision& got) {
  const PolicyDecision want = query_linear(rules, flow);
  if (got.default_deny != want.default_deny || got.action != want.action) return false;
  if (got.default_deny || got.rule_id == want.rule_id) return true;
  const StoredPolicyRule* a = snapshot.find(got.rule_id);
  const StoredPolicyRule* b = snapshot.find(want.rule_id);
  return a != nullptr && b != nullptr && a->priority == b->priority &&
         a->rule.matches(flow);
}

TEST(PolicySnapshotTest, SnapshotTakenBeforeRevokeStillFindsAndMatchesTheRule) {
  // The rules a held snapshot reaches must outlive their revocation (under
  // ASan a freed rule read here is a use-after-free), and the snapshot must
  // keep answering as the oracle did at its epoch.
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(77);
  for (int i = 0; i < 150; ++i) {
    manager.insert(model.random_rule(), model.random_priority(), "before");
  }
  const std::vector<StoredPolicyRule> rules = manager.rules();
  const auto snapshot = manager.snapshot_view();

  // Revoke every rule (emptying pages, maps and buckets) and churn new ones
  // into the live index, publishing in between.
  for (const StoredPolicyRule& stored : rules) {
    ASSERT_TRUE(manager.revoke(stored.id));
    if (stored.id.value % 3 == 0) {
      manager.insert(model.random_rule(), model.random_priority(), "after");
      manager.snapshot_view();
    }
  }
  for (const StoredPolicyRule& stored : rules) {
    EXPECT_FALSE(manager.find(stored.id).has_value());
    const StoredPolicyRule* held = snapshot->find(stored.id);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(held->rule, stored.rule);
    EXPECT_EQ(held->priority, stored.priority);
    EXPECT_EQ(held->pdp_name, stored.pdp_name);
  }
  EXPECT_EQ(snapshot->size(), rules.size());
  EXPECT_EQ(snapshot->index().rules().size(), rules.size());
  for (int i = 0; i < 300; ++i) {
    const FlowView flow = model.random_flow();
    const PolicyDecision got = snapshot->query(flow);
    ASSERT_TRUE(oracle_agrees(*snapshot, rules, flow, got)) << "flow " << i;
    if (!got.default_deny) {
      EXPECT_TRUE(snapshot->find(got.rule_id)->rule.matches(flow));
    }
  }
}

TEST(PolicySnapshotTest, HeldSnapshotsAnswerAsTheOracleAtTheirEpochWhileTheIndexChurns) {
  // Reader threads query held snapshots while the control thread inserts,
  // revokes and publishes. Each publication carries the live answers and
  // the rule set at its epoch; every reader answer must equal the live one
  // exactly and satisfy the oracle contract. Run under TSan by check.sh.
  struct Publication {
    std::shared_ptr<const PolicySnapshot> snapshot;
    std::vector<StoredPolicyRule> rules;
    std::vector<PolicyDecision> live;
  };
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(4242);
  std::vector<FlowView> flows;
  for (int i = 0; i < 48; ++i) flows.push_back(model.random_flow());
  std::vector<PolicyRuleId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(manager.insert(model.random_rule(), model.random_priority(), "base"));
  }

  std::mutex mu;
  std::shared_ptr<const Publication> latest;
  const auto publish = [&] {
    auto publication = std::make_shared<Publication>();
    publication->snapshot = manager.snapshot_view();
    publication->rules = manager.rules();
    for (const FlowView& flow : flows) publication->live.push_back(manager.query(flow));
    const std::lock_guard<std::mutex> lock(mu);
    latest = std::move(publication);
  };
  publish();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::shared_ptr<const Publication>> held;  // older epochs too
      std::size_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          held.push_back(latest);
        }
        if (held.size() > 4) held.erase(held.begin() + static_cast<long>(round++ % 4));
        for (const auto& publication : held) {
          const PolicySnapshot& snapshot = *publication->snapshot;
          for (std::size_t i = r; i < flows.size(); i += 2) {
            const PolicyDecision got = snapshot.query(flows[i]);
            const PolicyDecision& live = publication->live[i];
            if (got.rule_id != live.rule_id || got.action != live.action ||
                got.default_deny != live.default_deny ||
                !oracle_agrees(snapshot, publication->rules, flows[i], got)) {
              mismatches.fetch_add(1);
            }
            checked.fetch_add(1);
          }
        }
      }
    });
  }

  for (int round = 0; round < 200; ++round) {
    if (ids.empty() || model.chance(0.5)) {
      ids.push_back(manager.insert(model.random_rule(), model.random_priority(), "churn"));
    } else {
      std::swap(ids[static_cast<std::size_t>(round) % ids.size()], ids.back());
      ASSERT_TRUE(manager.revoke(ids.back()));
      ids.pop_back();
    }
    publish();
  }
  // Let the readers see the last publications before stopping them.
  while (checked.load() < 20000) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
}

}  // namespace
}  // namespace dfi
