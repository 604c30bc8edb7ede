// Unit tests for the Entity Resolution Manager: binding maintenance,
// enrichment (late binding), and spoof validation.
#include <gtest/gtest.h>

#include <type_traits>

#include "bus/message_bus.h"
#include "core/entity_resolution.h"
#include "core/persistence.h"
#include "services/dhcp.h"
#include "services/dns.h"
#include "services/sensors.h"
#include "services/siem.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

BindingEvent user_host(const char* user, const char* host, bool retract = false) {
  BindingEvent event;
  event.kind = BindingKind::kUserHost;
  event.user = Username{user};
  event.host = Hostname{host};
  event.retracted = retract;
  return event;
}

BindingEvent host_ip(const char* host, Ipv4Address ip, bool retract = false) {
  BindingEvent event;
  event.kind = BindingKind::kHostIp;
  event.host = Hostname{host};
  event.ip = ip;
  event.retracted = retract;
  return event;
}

BindingEvent ip_mac(Ipv4Address ip, MacAddress mac, bool retract = false) {
  BindingEvent event;
  event.kind = BindingKind::kIpMac;
  event.ip = ip;
  event.mac = mac;
  event.retracted = retract;
  return event;
}

BindingEvent mac_location(MacAddress mac, Dpid dpid, PortNo port, bool retract = false) {
  BindingEvent event;
  event.kind = BindingKind::kMacLocation;
  event.mac = mac;
  event.dpid = dpid;
  event.port = port;
  event.retracted = retract;
  return event;
}

class ErmTest : public ::testing::Test {
 protected:
  ErmTest() : erm_(bus_) {}

  MessageBus bus_;
  EntityResolutionManager erm_;
};

TEST_F(ErmTest, EnrichFullChain) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 5), MacAddress::from_u64(5)));
  erm_.apply(host_ip("alice-laptop", Ipv4Address(10, 0, 0, 5)));
  erm_.apply(user_host("alice", "alice-laptop"));

  EndpointView view;
  view.ip = Ipv4Address(10, 0, 0, 5);
  view.mac = MacAddress::from_u64(5);
  const EndpointView enriched = erm_.enrich(view);
  ASSERT_EQ(enriched.hostnames.size(), 1u);
  EXPECT_EQ(enriched.hostnames[0], Hostname{"alice-laptop"});
  ASSERT_EQ(enriched.usernames.size(), 1u);
  EXPECT_EQ(enriched.usernames[0], Username{"alice"});
}

TEST_F(ErmTest, EnrichUnknownIpYieldsNoIdentity) {
  EndpointView view;
  view.ip = Ipv4Address(99, 9, 9, 9);
  const EndpointView enriched = erm_.enrich(view);
  EXPECT_TRUE(enriched.hostnames.empty());
  EXPECT_TRUE(enriched.usernames.empty());
}

TEST_F(ErmTest, RetractionRemovesBinding) {
  erm_.apply(user_host("alice", "h1"));
  EXPECT_EQ(erm_.users_of_host(Hostname{"h1"}).size(), 1u);
  erm_.apply(user_host("alice", "h1", /*retract=*/true));
  EXPECT_TRUE(erm_.users_of_host(Hostname{"h1"}).empty());
  EXPECT_TRUE(erm_.hosts_of_user(Username{"alice"}).empty());
}

TEST_F(ErmTest, ManyToManyBindings) {
  // Alice logged onto two hosts; h1 also used by bob; h1 has two IPs.
  erm_.apply(user_host("alice", "h1"));
  erm_.apply(user_host("alice", "h2"));
  erm_.apply(user_host("bob", "h1"));
  erm_.apply(host_ip("h1", Ipv4Address(10, 0, 0, 1)));
  erm_.apply(host_ip("h1", Ipv4Address(10, 0, 0, 2)));

  EXPECT_EQ(erm_.hosts_of_user(Username{"alice"}).size(), 2u);
  EXPECT_EQ(erm_.users_of_host(Hostname{"h1"}).size(), 2u);
  EXPECT_EQ(erm_.ips_of_host(Hostname{"h1"}).size(), 2u);

  EndpointView view;
  view.ip = Ipv4Address(10, 0, 0, 2);
  const EndpointView enriched = erm_.enrich(view);
  EXPECT_EQ(enriched.usernames.size(), 2u);
}

TEST_F(ErmTest, DhcpReassignmentReplacesMacBinding) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(1)));
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(2)));
  EXPECT_EQ(erm_.mac_of_ip(Ipv4Address(10, 0, 0, 1)), MacAddress::from_u64(2));
  EXPECT_TRUE(erm_.ips_of_mac(MacAddress::from_u64(1)).empty());
}

TEST_F(ErmTest, ValidateDetectsIpSpoofing) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(1)));
  // Attacker at MAC 2 claims IP .1, which DHCP bound to MAC 1.
  const SpoofCheck check = erm_.validate(MacAddress::from_u64(2),
                                         Ipv4Address(10, 0, 0, 1), std::nullopt,
                                         std::nullopt);
  EXPECT_TRUE(check.spoofed);
  EXPECT_EQ(erm_.stats().spoof_rejections, 1u);
}

TEST_F(ErmTest, ValidateAcceptsCorrectOrUnknownBindings) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(1)));
  EXPECT_FALSE(erm_.validate(MacAddress::from_u64(1), Ipv4Address(10, 0, 0, 1),
                             std::nullopt, std::nullopt)
                   .spoofed);
  // Unknown IP: no binding to contradict — not spoofed, just unenriched.
  EXPECT_FALSE(erm_.validate(MacAddress::from_u64(9), Ipv4Address(10, 9, 9, 9),
                             std::nullopt, std::nullopt)
                   .spoofed);
}

TEST_F(ErmTest, ValidateDetectsMacAtWrongPort) {
  erm_.apply(mac_location(MacAddress::from_u64(1), Dpid{7}, PortNo{3}));
  const SpoofCheck wrong = erm_.validate(MacAddress::from_u64(1), std::nullopt,
                                         Dpid{7}, PortNo{4});
  EXPECT_TRUE(wrong.spoofed);
  const SpoofCheck right = erm_.validate(MacAddress::from_u64(1), std::nullopt,
                                         Dpid{7}, PortNo{3});
  EXPECT_FALSE(right.spoofed);
  // A different switch has no binding for this MAC: fine.
  EXPECT_FALSE(
      erm_.validate(MacAddress::from_u64(1), std::nullopt, Dpid{8}, PortNo{9}).spoofed);
}

TEST_F(ErmTest, MacLocationReplacedOnMove) {
  erm_.apply(mac_location(MacAddress::from_u64(1), Dpid{7}, PortNo{3}));
  erm_.apply(mac_location(MacAddress::from_u64(1), Dpid{7}, PortNo{5}));
  EXPECT_EQ(erm_.location_of_mac(Dpid{7}, MacAddress::from_u64(1)), PortNo{5});
}

TEST_F(ErmTest, ConsumesBusEvents) {
  bus_.publish(topics::kErmBindings, user_host("alice", "h1"));
  EXPECT_EQ(erm_.users_of_host(Hostname{"h1"}).size(), 1u);
  EXPECT_EQ(erm_.stats().binding_updates, 1u);
}

TEST_F(ErmTest, EnrichDeduplicatesUsersAcrossHostnames) {
  // One IP carries two hostname bindings (e.g. DNS alias); alice is logged
  // onto both. She must appear once in the enriched view, not per host.
  erm_.apply(host_ip("h1", Ipv4Address(10, 0, 0, 1)));
  erm_.apply(host_ip("h1-alias", Ipv4Address(10, 0, 0, 1)));
  erm_.apply(user_host("alice", "h1"));
  erm_.apply(user_host("alice", "h1-alias"));
  erm_.apply(user_host("bob", "h1"));

  EndpointView view;
  view.ip = Ipv4Address(10, 0, 0, 1);
  const EndpointView enriched = erm_.enrich(view);
  EXPECT_EQ(enriched.hostnames.size(), 2u);
  ASSERT_EQ(enriched.usernames.size(), 2u);
  EXPECT_EQ(enriched.usernames[0], Username{"alice"});
  EXPECT_EQ(enriched.usernames[1], Username{"bob"});
}

TEST_F(ErmTest, EpochBumpsOnEffectiveChangesOnly) {
  const std::uint64_t e0 = erm_.epoch();
  erm_.apply(user_host("alice", "h1"));
  EXPECT_GT(erm_.epoch(), e0);
  const std::uint64_t e1 = erm_.epoch();
  erm_.apply(user_host("alice", "h1"));  // redundant re-assertion: no-op
  EXPECT_EQ(erm_.epoch(), e1);
  erm_.apply(user_host("alice", "h9", /*retract=*/true));  // absent binding
  EXPECT_EQ(erm_.epoch(), e1);
  erm_.apply(user_host("alice", "h1", /*retract=*/true));
  EXPECT_GT(erm_.epoch(), e1);
}

TEST_F(ErmTest, EpochSkipsFirstMacLocationAssertion) {
  // A first (switch, MAC) location sighting deliberately does not bump the
  // epoch (see the header comment): validate() passes on missing location
  // bindings, so no cached decision can be contradicted by it.
  const std::uint64_t e0 = erm_.epoch();
  erm_.apply(mac_location(MacAddress::from_u64(7), Dpid{1}, PortNo{3}));
  EXPECT_EQ(erm_.epoch(), e0);
  // Re-assertion at the same port: still no change.
  erm_.apply(mac_location(MacAddress::from_u64(7), Dpid{1}, PortNo{3}));
  EXPECT_EQ(erm_.epoch(), e0);
  // A move replaces the binding: that IS an effective change.
  erm_.apply(mac_location(MacAddress::from_u64(7), Dpid{1}, PortNo{4}));
  EXPECT_GT(erm_.epoch(), e0);
  const std::uint64_t e1 = erm_.epoch();
  // Retraction of an existing location: effective change too.
  erm_.apply(mac_location(MacAddress::from_u64(7), Dpid{1}, PortNo{4}, true));
  EXPECT_GT(erm_.epoch(), e1);
}

TEST_F(ErmTest, EpochBumpsOnDhcpReassignment) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(1)));
  const std::uint64_t e0 = erm_.epoch();
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(1)));  // no-op
  EXPECT_EQ(erm_.epoch(), e0);
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 1), MacAddress::from_u64(2)));  // lease moves
  EXPECT_GT(erm_.epoch(), e0);
}

TEST_F(ErmTest, BindingCountAggregates) {
  erm_.apply(user_host("a", "h"));
  erm_.apply(host_ip("h", Ipv4Address(1, 1, 1, 1)));
  erm_.apply(ip_mac(Ipv4Address(1, 1, 1, 1), MacAddress::from_u64(1)));
  erm_.apply(mac_location(MacAddress::from_u64(1), Dpid{1}, PortNo{1}));
  EXPECT_EQ(erm_.binding_count(), 4u);
}

// End-to-end sensor chain: real services feed the ERM through the sensors,
// exactly as Figure 3 prescribes.
TEST(ErmSensorsTest, ServicesFeedErmThroughSensors) {
  Simulator sim;
  MessageBus bus;
  EntityResolutionManager erm(bus);
  SensorSuite sensors(bus);
  const auto clock = [&sim]() { return sim.now(); };
  DhcpServer dhcp(bus, clock, Ipv4Address(10, 0, 0, 10), 8);
  DnsServer dns(bus, clock);
  SiemService siem(bus, clock);

  const MacAddress mac = MacAddress::from_u64(0xA11CE);
  const auto leased = dhcp.lease(mac);
  ASSERT_TRUE(leased.ok());
  dns.register_record(Hostname{"alice-laptop"}, leased.value());
  siem.process_created(Username{"alice"}, Hostname{"alice-laptop"});

  EndpointView view;
  view.ip = leased.value();
  view.mac = mac;
  const EndpointView enriched = erm.enrich(view);
  ASSERT_EQ(enriched.usernames.size(), 1u);
  EXPECT_EQ(enriched.usernames[0], Username{"alice"});
  EXPECT_EQ(erm.mac_of_ip(leased.value()), mac);

  // Log-off retracts the user binding.
  siem.process_terminated(Username{"alice"}, Hostname{"alice-laptop"});
  EXPECT_TRUE(erm.users_of_host(Hostname{"alice-laptop"}).empty());

  // Release retracts the IP<->MAC binding.
  dhcp.release(mac);
  EXPECT_FALSE(erm.mac_of_ip(leased.value()).has_value());
}

// Regression: reloading a binding snapshot replays only the *surviving*
// assertions, so without a floor the epoch counter restarts behind its
// pre-crash value — and later mutations can march it back to a value that
// pre-crash decision-cache stamps already cite, with different binding
// state behind it. load_bindings' epoch_floor closes the hole.
TEST(ErmReload, EpochFloorPreventsPreCrashStampAliasing) {
  MessageBus bus;
  EntityResolutionManager erm(bus);
  erm.apply(user_host("alice", "h1"));
  erm.apply(user_host("alice", "h1", /*retract=*/true));
  erm.apply(user_host("bob", "h2"));
  const std::uint64_t pre_crash_epoch = erm.epoch();
  ASSERT_EQ(pre_crash_epoch, 3u);
  const std::string snapshot = save_bindings(erm);

  // Plain reload: only bob's binding survives, the epoch lands at 1.
  MessageBus bus2;
  EntityResolutionManager reloaded(bus2);
  ASSERT_TRUE(load_bindings(reloaded, snapshot).ok());
  ASSERT_LT(reloaded.epoch(), pre_crash_epoch);

  // Two unrelated mutations later, the counter aliases the pre-crash value
  // while the binding state is very different — any cached decision
  // stamped (binding_epoch=3) before the crash would now validate.
  reloaded.apply(user_host("carol", "h3"));
  reloaded.apply(user_host("dave", "h4"));
  EXPECT_EQ(reloaded.epoch(), pre_crash_epoch);  // the aliasing hazard
  EXPECT_NE(save_bindings(reloaded), snapshot);

  // Floored reload: the counter can never revisit pre-crash values.
  MessageBus bus3;
  EntityResolutionManager floored(bus3);
  ASSERT_TRUE(load_bindings(floored, snapshot, pre_crash_epoch).ok());
  EXPECT_EQ(floored.epoch(), pre_crash_epoch);
  floored.apply(user_host("carol", "h3"));
  floored.apply(user_host("dave", "h4"));
  EXPECT_GT(floored.epoch(), pre_crash_epoch + 1);
}

// ------------------------------------------------ compact entity plane

TEST_F(ErmTest, InternedIdsStableAcrossEpochs) {
  erm_.apply(user_host("alice", "h1"));
  const EntityId alice = erm_.interner().users().find("alice");
  const EntityId h1 = erm_.interner().hosts().find("h1");
  ASSERT_TRUE(alice.valid());
  ASSERT_TRUE(h1.valid());

  // Retract, churn other entities across several epochs, re-assert: the
  // ids never change, and an id captured in an old snapshot still names
  // the same strings.
  erm_.apply(user_host("alice", "h1", /*retract=*/true));
  erm_.apply(user_host("bob", "h2"));
  erm_.apply(host_ip("h3", Ipv4Address(10, 0, 0, 3)));
  erm_.apply(user_host("alice", "h1"));
  EXPECT_EQ(erm_.interner().users().find("alice"), alice);
  EXPECT_EQ(erm_.interner().hosts().find("h1"), h1);
  EXPECT_EQ(erm_.interner().users().view(alice), "alice");
  EXPECT_EQ(erm_.interner().hosts().view(h1), "h1");
}

// A snapshot is only ever published by the ERM: a default constructor
// would have to build throwaway tables and an interner, and the threaded
// Packet-in path must never pay for that.
static_assert(!std::is_default_constructible_v<ErmSnapshot>);

TEST_F(ErmTest, HeldSnapshotImmutableUnderMutation) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 5), MacAddress::from_u64(5)));
  erm_.apply(host_ip("h5", Ipv4Address(10, 0, 0, 5)));
  erm_.apply(user_host("alice", "h5"));
  const ErmSnapshot held = erm_.snapshot_view();

  // Rebind the IP's world: user logs off, DHCP hands the IP elsewhere.
  erm_.apply(user_host("alice", "h5", /*retract=*/true));
  erm_.apply(host_ip("h5", Ipv4Address(10, 0, 0, 5), /*retract=*/true));
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 5), MacAddress::from_u64(99)));

  // The held snapshot still answers from its epoch's world...
  EndpointView view;
  view.ip = Ipv4Address(10, 0, 0, 5);
  const EndpointView old_world = held.enrich(view);
  ASSERT_EQ(old_world.hostnames.size(), 1u);
  EXPECT_EQ(old_world.hostnames[0], Hostname{"h5"});
  ASSERT_EQ(old_world.usernames.size(), 1u);
  EXPECT_EQ(old_world.usernames[0], Username{"alice"});
  EXPECT_TRUE(held.validate_identity(MacAddress::from_u64(99),
                                     Ipv4Address(10, 0, 0, 5))
                  .spoofed);

  // ...while the live ERM answers from the new one.
  EXPECT_TRUE(erm_.enrich(view).hostnames.empty());
  EXPECT_FALSE(erm_.validate(MacAddress::from_u64(99), Ipv4Address(10, 0, 0, 5),
                             std::nullopt, std::nullopt)
                   .spoofed);
}

TEST_F(ErmTest, IncrementalPublicationSharesUntouchedPages) {
  // Load enough hosts to span several copy-on-write pages, publish, then
  // mutate one binding: only the dirty pages may be cloned.
  constexpr std::uint32_t kHosts = 4096;  // 8 pages of 512 slots
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    erm_.apply(host_ip(("host" + std::to_string(h)).c_str(),
                       Ipv4Address(0x0a000000u + h)));
  }
  (void)erm_.snapshot_view();
  const CowTableStats at_publish = erm_.cow_stats();

  erm_.apply(host_ip("host7", Ipv4Address(0x0a000007u), /*retract=*/true));
  (void)erm_.snapshot_view();
  const CowTableStats after = erm_.cow_stats();
  // One host-ip retraction touches two tables; each clones at most the one
  // page holding the dirty slot (plus its root vector).
  EXPECT_LE(after.page_copies - at_publish.page_copies, 2u);
  EXPECT_LE(after.root_copies - at_publish.root_copies, 2u);
}

TEST_F(ErmTest, RedundantEventCausesNoPageCopies) {
  erm_.apply(user_host("alice", "h1"));
  (void)erm_.snapshot_view();
  const std::uint64_t epoch = erm_.epoch();
  const CowTableStats before = erm_.cow_stats();
  // Re-asserting an existing binding mutates nothing: no epoch bump (the
  // long-standing contract) and, new with CoW tables, no page clones.
  erm_.apply(user_host("alice", "h1"));
  EXPECT_EQ(erm_.epoch(), epoch);
  EXPECT_EQ(erm_.cow_stats().page_copies, before.page_copies);
}

// The ERM republishes exactly when its epoch moves: every identity-table
// change bumps the epoch, and an epoch bump with untouched tables (a MAC
// move, advance_epoch_to) must still reach decision caches through the
// snapshot's stamp. Anything else reuses the last publication.
TEST_F(ErmTest, PublicationFollowsTheEpoch) {
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 7), MacAddress::from_u64(7)));
  erm_.apply(mac_location(MacAddress::from_u64(7), Dpid{1}, PortNo{3}));
  const ErmSnapshot first = erm_.snapshot_view();
  const std::uint64_t rebuilds = erm_.stats().snapshot_rebuilds;
  EXPECT_EQ(first.epoch(), erm_.epoch());

  // A first MAC-location sighting and a redundant event: same publication.
  erm_.apply(mac_location(MacAddress::from_u64(8), Dpid{1}, PortNo{4}));
  erm_.apply(ip_mac(Ipv4Address(10, 0, 0, 7), MacAddress::from_u64(7)));
  const ErmSnapshot reused = erm_.snapshot_view();
  EXPECT_EQ(&reused.tables(), &first.tables());
  EXPECT_EQ(reused.epoch(), first.epoch());
  EXPECT_EQ(erm_.stats().snapshot_rebuilds, rebuilds);

  // A MAC move: new epoch, republished once.
  erm_.apply(mac_location(MacAddress::from_u64(7), Dpid{1}, PortNo{5}));
  const ErmSnapshot moved = erm_.snapshot_view();
  EXPECT_GT(moved.epoch(), first.epoch());
  EXPECT_EQ(moved.epoch(), erm_.epoch());
  EXPECT_EQ(erm_.stats().snapshot_rebuilds, rebuilds + 1);
  (void)erm_.snapshot_view();
  EXPECT_EQ(erm_.stats().snapshot_rebuilds, rebuilds + 1);

  // advance_epoch_to: republished at the new epoch; a lower target is a no-op.
  erm_.advance_epoch_to(erm_.epoch() + 10);
  const ErmSnapshot advanced = erm_.snapshot_view();
  EXPECT_EQ(advanced.epoch(), moved.epoch() + 10);
  EXPECT_EQ(erm_.stats().snapshot_rebuilds, rebuilds + 2);
  erm_.advance_epoch_to(1);
  EXPECT_EQ(erm_.snapshot_view().epoch(), advanced.epoch());
  EXPECT_EQ(erm_.stats().snapshot_rebuilds, rebuilds + 2);
}

}  // namespace
}  // namespace dfi
