// Unit tests for the DFI Proxy: table-id shifting in both directions,
// Table-0 concealment, and packet-in interposition (paper Section IV-B).
#include <gtest/gtest.h>

#include <string>

#include "bus/message_bus.h"
#include "core/proxy.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest()
      : erm_(bus_),
        manager_(bus_),
        pcp_(sim_, bus_, erm_, manager_, zero_latency_pcp(), Rng(1)),
        proxy_(sim_, pcp_, ProxyConfig{0, 0, true}, Rng(2)),
        session_(proxy_.create_session(
            [this](const std::vector<std::uint8_t>& bytes) { collect(bytes, to_switch_); },
            [this](const std::vector<std::uint8_t>& bytes) {
              collect(bytes, to_controller_);
            })) {}

  static PcpConfig zero_latency_pcp() {
    PcpConfig config;
    config.zero_latency = true;
    return config;
  }

  void collect(const std::vector<std::uint8_t>& bytes, std::vector<OfMessage>& sink) {
    FrameDecoder decoder;
    decoder.feed(bytes);
    for (auto& result : decoder.drain()) {
      ASSERT_TRUE(result.ok());
      sink.push_back(std::move(result).value());
    }
  }

  void complete_handshake(std::uint8_t n_tables = 4) {
    FeaturesReplyMsg features;
    features.datapath_id = Dpid{9};
    features.n_tables = n_tables;
    session_.from_switch(encode(OfMessage{1, features}));
    sim_.run();
  }

  PacketInMsg table0_miss() {
    PacketInMsg msg;
    msg.table_id = 0;
    msg.in_port = PortNo{3};
    msg.data = make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               1000, 80)
                   .serialize();
    return msg;
  }

  template <typename T>
  std::vector<T> of_type(const std::vector<OfMessage>& sink) const {
    std::vector<T> out;
    for (const auto& message : sink) {
      if (const T* typed = std::get_if<T>(&message.payload)) out.push_back(*typed);
    }
    return out;
  }

  Simulator sim_;
  MessageBus bus_;
  EntityResolutionManager erm_;
  PolicyManager manager_;
  PolicyCompilationPoint pcp_;
  DfiProxy proxy_;
  DfiProxy::Session& session_;
  std::vector<OfMessage> to_switch_;
  std::vector<OfMessage> to_controller_;
};

TEST_F(ProxyTest, FeaturesReplyHidesDfiTable) {
  complete_handshake(4);
  const auto features = of_type<FeaturesReplyMsg>(to_controller_);
  ASSERT_EQ(features.size(), 1u);
  EXPECT_EQ(features[0].n_tables, 3);  // one table hidden
  EXPECT_EQ(session_.dpid(), Dpid{9});
}

TEST_F(ProxyTest, ControllerFlowModShiftedUp) {
  complete_handshake();
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.table_id = 0;  // controller's first table
  mod.instructions = Instructions::to_table(1);
  session_.from_controller(encode(OfMessage{5, mod}));
  sim_.run();

  const auto mods = of_type<FlowModMsg>(to_switch_);
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].table_id, 1);                 // shifted +1
  EXPECT_EQ(mods[0].instructions.goto_table, 2);  // goto shifted too
}

TEST_F(ProxyTest, ControllerCannotAddressBeyondShiftedRange) {
  complete_handshake(4);  // controller sees 3 tables: valid ids 0..2
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.table_id = 3;  // would land on switch table 4 — out of range
  session_.from_controller(encode(OfMessage{6, mod}));
  sim_.run();
  EXPECT_TRUE(of_type<FlowModMsg>(to_switch_).empty());
  const auto errors = of_type<ErrorMsg>(to_controller_);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, 2);  // BAD_TABLE_ID
}

TEST_F(ProxyTest, DeleteAllExpandsToControllerTablesOnly) {
  complete_handshake(4);
  FlowModMsg del;
  del.command = FlowModCommand::kDelete;
  del.table_id = 0xff;
  session_.from_controller(encode(OfMessage{7, del}));
  sim_.run();
  const auto mods = of_type<FlowModMsg>(to_switch_);
  ASSERT_EQ(mods.size(), 3u);  // tables 1, 2, 3 — never table 0
  for (std::size_t i = 0; i < mods.size(); ++i) {
    EXPECT_EQ(mods[i].table_id, i + 1);
    EXPECT_NE(mods[i].table_id, 0);
  }
}

TEST_F(ProxyTest, AddToAllTablesRejected) {
  complete_handshake();
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.table_id = 0xff;
  session_.from_controller(encode(OfMessage{8, mod}));
  sim_.run();
  EXPECT_TRUE(of_type<FlowModMsg>(to_switch_).empty());
  EXPECT_EQ(of_type<ErrorMsg>(to_controller_).size(), 1u);
}

TEST_F(ProxyTest, Table0PacketInGoesToPcpDeniedSuppressed) {
  complete_handshake();
  // Default deny: the controller must never see this packet.
  session_.from_switch(encode(OfMessage{9, table0_miss()}));
  sim_.run();
  EXPECT_TRUE(of_type<PacketInMsg>(to_controller_).empty());
  // But the deny rule was installed in the switch.
  const auto mods = of_type<FlowModMsg>(to_switch_);
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].table_id, 0);
  EXPECT_TRUE(mods[0].instructions.apply_actions.empty());
  EXPECT_EQ(proxy_.stats().packet_ins_suppressed, 1u);
}

TEST_F(ProxyTest, Table0PacketInAllowedForwardedToController) {
  complete_handshake();
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  manager_.insert(allow, PdpPriority{5}, "t");

  session_.from_switch(encode(OfMessage{10, table0_miss()}));
  sim_.run();
  const auto packet_ins = of_type<PacketInMsg>(to_controller_);
  ASSERT_EQ(packet_ins.size(), 1u);
  EXPECT_EQ(packet_ins[0].table_id, 0);  // controller-view table id
  // Allow rule (goto table 1) installed. (The Allow policy insert also
  // produced a default-deny flush DELETE; look at ADDs only.)
  std::vector<FlowModMsg> mods;
  for (const auto& mod : of_type<FlowModMsg>(to_switch_)) {
    if (mod.command == FlowModCommand::kAdd) mods.push_back(mod);
  }
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].instructions.goto_table, 1);
  EXPECT_EQ(proxy_.stats().packet_ins_forwarded, 1u);
}

TEST_F(ProxyTest, LaterTablePacketInBypassesPcpAndShiftsDown) {
  complete_handshake();
  PacketInMsg msg = table0_miss();
  msg.table_id = 2;  // miss in a controller table
  session_.from_switch(encode(OfMessage{11, msg}));
  sim_.run();
  const auto packet_ins = of_type<PacketInMsg>(to_controller_);
  ASSERT_EQ(packet_ins.size(), 1u);
  EXPECT_EQ(packet_ins[0].table_id, 1);  // decremented
  EXPECT_TRUE(of_type<FlowModMsg>(to_switch_).empty());  // no DFI decision
}

TEST_F(ProxyTest, PacketInBeforeHandshakeDropped) {
  session_.from_switch(encode(OfMessage{12, table0_miss()}));
  sim_.run();
  EXPECT_TRUE(to_controller_.empty());
  EXPECT_EQ(proxy_.stats().packet_ins_suppressed, 1u);
}

TEST_F(ProxyTest, FlowRemovedTable0Swallowed) {
  complete_handshake();
  FlowRemovedMsg removed;
  removed.table_id = 0;
  session_.from_switch(encode(OfMessage{13, removed}));
  sim_.run();
  EXPECT_TRUE(of_type<FlowRemovedMsg>(to_controller_).empty());

  removed.table_id = 2;
  session_.from_switch(encode(OfMessage{14, removed}));
  sim_.run();
  const auto forwarded = of_type<FlowRemovedMsg>(to_controller_);
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0].table_id, 1);
}

TEST_F(ProxyTest, FlowStatsHideTable0AndShiftRest) {
  complete_handshake();
  MultipartReplyMsg reply;
  FlowStatsEntry dfi_entry;
  dfi_entry.table_id = 0;
  FlowStatsEntry ctrl_entry;
  ctrl_entry.table_id = 1;
  ctrl_entry.instructions.goto_table = 2;
  reply.flow_stats = {dfi_entry, ctrl_entry};
  session_.from_switch(encode(OfMessage{15, reply}));
  sim_.run();

  const auto replies = of_type<MultipartReplyMsg>(to_controller_);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].flow_stats.size(), 1u);  // DFI row hidden
  EXPECT_EQ(replies[0].flow_stats[0].table_id, 0);
  EXPECT_EQ(replies[0].flow_stats[0].instructions.goto_table, 1);
  EXPECT_EQ(proxy_.stats().stats_entries_hidden, 1u);
}

TEST_F(ProxyTest, FlowStatsRequestShifted) {
  complete_handshake();
  MultipartRequestMsg request;
  request.flow_request.table_id = 1;
  session_.from_controller(encode(OfMessage{16, request}));
  sim_.run();
  const auto requests = of_type<MultipartRequestMsg>(to_switch_);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].flow_request.table_id, 2);

  // OFPTT_ALL passes through (the reply is filtered instead).
  to_switch_.clear();
  request.flow_request.table_id = 0xff;
  session_.from_controller(encode(OfMessage{17, request}));
  sim_.run();
  EXPECT_EQ(of_type<MultipartRequestMsg>(to_switch_)[0].flow_request.table_id, 0xff);
}

TEST_F(ProxyTest, EchoAndPacketOutPassThrough) {
  complete_handshake();
  session_.from_controller(encode(OfMessage{18, EchoRequestMsg{{1}}}));
  PacketOutMsg out;
  out.actions = {OutputAction{kPortFlood}};
  session_.from_controller(encode(OfMessage{19, out}));
  sim_.run();
  EXPECT_EQ(of_type<EchoRequestMsg>(to_switch_).size(), 1u);
  EXPECT_EQ(of_type<PacketOutMsg>(to_switch_).size(), 1u);

  session_.from_switch(encode(OfMessage{20, EchoReplyMsg{{1}}}));
  sim_.run();
  EXPECT_EQ(of_type<EchoReplyMsg>(to_controller_).size(), 1u);
}

TEST_F(ProxyTest, MalformedFramesCountedNotFatal) {
  complete_handshake();
  session_.from_switch({0x04, 0x63, 0x00, 0x08, 0, 0, 0, 1});  // unknown type
  sim_.run();
  EXPECT_EQ(proxy_.stats().malformed, 1u);
  // Session still functional.
  session_.from_switch(encode(OfMessage{21, EchoReplyMsg{{}}}));
  sim_.run();
  EXPECT_EQ(of_type<EchoReplyMsg>(to_controller_).size(), 1u);
}

// Property: whatever the controller sends, no FLOW_MOD addressing Table 0
// ever reaches the switch; whatever the switch sends, no message revealing
// Table 0 ever reaches the controller.
TEST_F(ProxyTest, Table0IsolationInvariantUnderRandomTraffic) {
  complete_handshake(4);
  Rng rng(0x150);

  for (int i = 0; i < 400; ++i) {
    if (rng.chance(0.5)) {
      // Random controller flow-mod at a random (possibly invalid) table.
      FlowModMsg mod;
      mod.command = rng.chance(0.7) ? FlowModCommand::kAdd : FlowModCommand::kDelete;
      const std::int64_t table = rng.uniform_int(0, 5);
      mod.table_id = table == 5 ? 0xff : static_cast<std::uint8_t>(table);
      if (rng.chance(0.5)) {
        mod.instructions.goto_table = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
      }
      mod.priority = static_cast<std::uint16_t>(rng.uniform_int(0, 1000));
      session_.from_controller(encode(OfMessage{static_cast<std::uint32_t>(i), mod}));
    } else {
      // Random switch-side report touching a random table.
      const auto table = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
      if (rng.chance(0.5)) {
        FlowRemovedMsg removed;
        removed.table_id = table;
        session_.from_switch(encode(OfMessage{static_cast<std::uint32_t>(i), removed}));
      } else {
        MultipartReplyMsg reply;
        FlowStatsEntry entry;
        entry.table_id = table;
        if (rng.chance(0.5)) entry.instructions.goto_table = static_cast<std::uint8_t>(table + 1);
        reply.flow_stats.push_back(entry);
        session_.from_switch(encode(OfMessage{static_cast<std::uint32_t>(i), reply}));
      }
    }
  }
  sim_.run();

  for (const auto& message : to_switch_) {
    if (const auto* mod = std::get_if<FlowModMsg>(&message.payload)) {
      EXPECT_NE(mod->table_id, 0) << "controller flow-mod reached DFI's table";
      EXPECT_NE(mod->table_id, 0xff) << "unexpanded OFPTT_ALL reached the switch";
      if (mod->instructions.goto_table.has_value()) {
        EXPECT_GE(*mod->instructions.goto_table, 1);
      }
    }
  }
  for (const auto& message : to_controller_) {
    if (const auto* removed = std::get_if<FlowRemovedMsg>(&message.payload)) {
      // Shifted view: the controller only ever sees its own tables 0..2,
      // and what it sees as 0 is really switch table 1.
      EXPECT_LE(removed->table_id, 2);
    }
    if (const auto* reply = std::get_if<MultipartReplyMsg>(&message.payload)) {
      for (const auto& entry : reply->flow_stats) {
        EXPECT_LE(entry.table_id, 2);
      }
    }
  }
}

// ---------------------------------------------------- teardown regressions
//
// Pinned regressions for the session-teardown use-after-free the invariant
// fuzzer surfaced (tests/fuzz_invariants_test.cc, FuzzRegression seed 3301):
// a session destroyed while a Packet-in decision is still in flight must
// drop the decision's deferred deliveries instead of writing through freed
// session state. The Session's liveness token (proxy.cc) is what these pin.

TEST_F(ProxyTest, SessionTornDownWithPacketInInFlight) {
  complete_handshake();
  session_.from_switch(encode(OfMessage{7, table0_miss()}));
  // The PCP decision and its deliveries are queued in the simulator; tear
  // the session down before any of them run.
  const std::size_t switch_msgs = to_switch_.size();
  const std::size_t controller_msgs = to_controller_.size();
  proxy_.destroy_session(session_);
  EXPECT_EQ(proxy_.session_count(), 0u);
  sim_.run();  // pre-fix: wrote through the freed Session (ASan heap-UAF)
  EXPECT_EQ(to_switch_.size(), switch_msgs);
  EXPECT_EQ(to_controller_.size(), controller_msgs);
}

TEST(ProxyTeardown, ThreadedDecisionsInFlightAtDestroy) {
  Simulator sim;
  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  PcpConfig config;
  config.zero_latency = true;
  config.backend = PcpBackend::kThreads;
  config.shards = 2;
  PolicyCompilationPoint pcp(sim, bus, erm, manager, config, Rng(1));
  DfiProxy proxy(sim, pcp, ProxyConfig{0, 0, true}, Rng(2));

  std::size_t switch_bytes = 0;
  std::size_t controller_bytes = 0;
  auto& session = proxy.create_session(
      [&switch_bytes](const std::vector<std::uint8_t>& b) {
        switch_bytes += b.size();
      },
      [&controller_bytes](const std::vector<std::uint8_t>& b) {
        controller_bytes += b.size();
      });
  FeaturesReplyMsg features;
  features.datapath_id = Dpid{9};
  features.n_tables = 4;
  session.from_switch(encode(OfMessage{1, features}));
  sim.run();

  // A burst of distinct table-0 misses, all handed to shard workers, then
  // teardown before a single completion is applied.
  for (std::uint16_t i = 0; i < 8; ++i) {
    PacketInMsg msg;
    msg.table_id = 0;
    msg.in_port = PortNo{3};
    msg.data = make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                               Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                               1000, static_cast<std::uint16_t>(80 + i))
                   .serialize();
    session.from_switch(encode(OfMessage{static_cast<std::uint32_t>(10 + i), msg}));
  }
  const std::size_t switch_before = switch_bytes;
  const std::size_t controller_before = controller_bytes;
  proxy.destroy_session(session);
  EXPECT_EQ(proxy.session_count(), 0u);
  // Completions apply here against the destroyed session: every delivery
  // must hit the dead liveness token and drop.
  pcp.wait_idle();
  sim.run();
  EXPECT_EQ(switch_bytes, switch_before);
  EXPECT_EQ(controller_bytes, controller_before);
}

TEST_F(ProxyTest, FastPathCountersClassifyTraffic) {
  complete_handshake();  // FEATURES_REPLY itself needs the decode path
  const auto decoded_baseline = proxy_.stats().frames_decoded;

  // Echo: canonical pass-through, forwarded without decode.
  session_.from_switch(encode(OfMessage{10, EchoRequestMsg{{0xaa}}}));
  // Packet-in from a controller table: patched in place.
  PacketInMsg packet_in;
  packet_in.table_id = 2;
  packet_in.in_port = PortNo{1};
  packet_in.data = {1, 2, 3};
  session_.from_switch(encode(OfMessage{11, packet_in}));
  // Flow-mod from the controller: patched in place, counted as shifted.
  FlowModMsg mod;
  mod.table_id = 1;
  mod.match.in_port = PortNo{1};
  mod.instructions = Instructions::output(PortNo{2});
  session_.from_controller(encode(OfMessage{12, mod}));
  sim_.run();

  const ProxyStats& stats = proxy_.stats();
  EXPECT_EQ(stats.frames_fast_path, 1u);
  EXPECT_EQ(stats.frames_patched, 2u);
  EXPECT_EQ(stats.frames_decoded, decoded_baseline);
  EXPECT_EQ(stats.flow_mods_shifted, 1u);

  // The patched bytes decoded back out with shifted table ids.
  const auto packet_ins = of_type<PacketInMsg>(to_controller_);
  ASSERT_EQ(packet_ins.size(), 1u);
  EXPECT_EQ(packet_ins[0].table_id, 1);
  const auto mods = of_type<FlowModMsg>(to_switch_);
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].table_id, 2);
}

TEST_F(ProxyTest, SteadyStateForwardingReusesPooledBuffers) {
  complete_handshake();
  // Warm the pool, then verify a long pass-through burst allocates nothing.
  for (int i = 0; i < 4; ++i) {
    session_.from_switch(encode(OfMessage{static_cast<std::uint32_t>(i),
                                          EchoRequestMsg{{0x55}}}));
    sim_.run();
  }
  const auto warm = proxy_.buffer_pool().stats();
  for (int i = 0; i < 200; ++i) {
    session_.from_switch(encode(OfMessage{static_cast<std::uint32_t>(100 + i),
                                          EchoRequestMsg{{0x55}}}));
    sim_.run();
  }
  const auto stats = proxy_.buffer_pool().stats();
  EXPECT_EQ(stats.allocations, warm.allocations);
  EXPECT_EQ(stats.reuses, warm.reuses + 200);
  EXPECT_GT(proxy_.stats().pool_hit_rate(), 0.5);
}

// ------------------------------------------- mixed chunks vs per-frame

// Packet-ins are always batched: a chunk's maximal run of table-0
// Packet-ins goes to the PCP as one burst, and every other frame —
// fast-path pass-through and patched frames included — submits the pending
// run before it is handled. Feeding a mixed chunk must therefore give the
// same egress, byte for byte and in the same order, as feeding its frames
// one chunk each.
//
// The controller side reacts to the first Echo it receives by allowing
// port 81. With zero latency the Echo's delivery ties with the decision of
// the Packet-in before it, so the verdict depends on which of the two the
// simulator runs first: a run that let the Echo's deferral overtake the
// pending Packet-in's submission would allow a flow per-frame delivery
// denies. With latency on, any reordering would shift the seeded draws.
using Frames = std::vector<std::vector<std::uint8_t>>;

// The frames as delivered: each its own chunk, or all in one.
Frames as_chunks(const Frames& frames, bool one_chunk) {
  if (!one_chunk) return frames;
  Frames chunk(1);
  for (const auto& frame : frames) chunk[0].insert(chunk[0].end(), frame.begin(), frame.end());
  return chunk;
}

PolicyRule allow_port(std::uint16_t port) {
  PolicyRule rule;
  rule.action = PolicyAction::kAllow;
  rule.destination.l4_port = port;
  return rule;
}

class MixedChunkRig {
 public:
  MixedChunkRig(PcpBackend backend, bool zero_latency)
      : erm_(bus_),
        manager_(bus_),
        pcp_(sim_, bus_, erm_, manager_,
             PcpConfig{.shards = 2, .backend = backend, .zero_latency = zero_latency},
             Rng(1)),
        proxy_(sim_, pcp_, ProxyConfig{.zero_latency = zero_latency}, Rng(2)),
        session(proxy_.create_session(
            [this](const std::vector<std::uint8_t>& bytes) { to_switch.push_back(bytes); },
            [this](const std::vector<std::uint8_t>& bytes) { on_controller(bytes); })) {
    manager_.insert(allow_port(80), PdpPriority{5}, "t");
    FeaturesReplyMsg features;
    features.datapath_id = Dpid{9};
    features.n_tables = 4;
    session.from_switch(encode(OfMessage{1, features}));
    settle();
  }

  void settle() {
    sim_.run();
    pcp_.wait_idle();  // threaded: apply completions, deferring their egress
    sim_.run();
  }

  const ProxyStats& stats() const { return proxy_.stats(); }

 private:
  void on_controller(const std::vector<std::uint8_t>& bytes) {
    to_controller.push_back(bytes);
    if (!reacted_ && FrameView(bytes.data(), bytes.size()).type() == OfType::kEchoRequest) {
      reacted_ = true;
      manager_.insert(allow_port(81), PdpPriority{6}, "controller");
    }
  }

  Simulator sim_;
  MessageBus bus_;
  EntityResolutionManager erm_;
  PolicyManager manager_;
  PolicyCompilationPoint pcp_;
  DfiProxy proxy_;
  bool reacted_ = false;

 public:
  DfiProxy::Session& session;
  Frames to_switch;
  Frames to_controller;
};

std::vector<std::uint8_t> table0_packet_in(std::uint32_t xid, std::uint16_t src_port,
                                           std::uint16_t dst_port) {
  PacketInMsg msg;
  msg.table_id = 0;
  msg.in_port = PortNo{3};
  msg.data = make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                             Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                             src_port, dst_port)
                 .serialize();
  return encode(OfMessage{xid, msg});
}

Frames mixed_switch_frames() {
  PacketInMsg later_table;
  later_table.table_id = 2;
  later_table.in_port = PortNo{1};
  later_table.data = {1, 2, 3};
  FlowRemovedMsg dfi_expiry;
  dfi_expiry.table_id = 0;
  FlowRemovedMsg controller_expiry;
  controller_expiry.table_id = 2;
  MultipartReplyMsg stats;
  FlowStatsEntry dfi_row;
  dfi_row.table_id = 0;
  FlowStatsEntry controller_row;
  controller_row.table_id = 1;
  stats.flow_stats = {dfi_row, controller_row};
  return {
      table0_packet_in(20, 1000, 80),                    // run of two: allow
      table0_packet_in(21, 1001, 81),                    //   and deny
      encode(OfMessage{22, EchoRequestMsg{{0xaa}}}),     // pass-through
      table0_packet_in(23, 1002, 80),                    // run of one
      encode(OfMessage{24, later_table}),                // patched
      table0_packet_in(25, 1003, 80),
      encode(OfMessage{26, dfi_expiry}),                 // fast-path drop
      table0_packet_in(27, 1004, 82),
      encode(OfMessage{28, controller_expiry}),          // patched
      table0_packet_in(29, 1005, 80),
      encode(OfMessage{30, stats}),                      // decoded
      table0_packet_in(31, 1006, 80),                    // run ends the chunk
      table0_packet_in(32, 1007, 83),
  };
}

Frames mixed_controller_frames() {
  FlowModMsg mod;
  mod.table_id = 1;
  mod.match.in_port = PortNo{1};
  mod.instructions = Instructions::output(PortNo{2});
  FlowModMsg delete_all;
  delete_all.command = FlowModCommand::kDelete;
  delete_all.table_id = 0xff;
  FlowModMsg out_of_range;
  out_of_range.table_id = 3;
  MultipartRequestMsg request;
  request.flow_request.table_id = 1;
  return {
      encode(OfMessage{40, EchoRequestMsg{{0xbb}}}),  // pass-through
      encode(OfMessage{41, mod}),                     // patched
      encode(OfMessage{42, delete_all}),              // decoded, expanded
      encode(OfMessage{43, out_of_range}),            // decoded, error
      encode(OfMessage{44, request}),                 // patched
  };
}

TEST(ProxyBatching, MixedChunkMatchesPerFrameDelivery) {
  for (const PcpBackend backend : {PcpBackend::kSimulated, PcpBackend::kThreads}) {
    for (const bool zero_latency : {true, false}) {
      SCOPED_TRACE(std::string(backend == PcpBackend::kThreads ? "threads" : "simulated") +
                   (zero_latency ? ", zero latency" : ", calibrated latency"));
      MixedChunkRig per_frame(backend, zero_latency);
      MixedChunkRig chunked(backend, zero_latency);
      for (MixedChunkRig* rig : {&per_frame, &chunked}) {
        const bool one_chunk = rig == &chunked;
        for (const auto& chunk : as_chunks(mixed_switch_frames(), one_chunk)) {
          rig->session.from_switch(chunk);
        }
        for (const auto& chunk : as_chunks(mixed_controller_frames(), one_chunk)) {
          rig->session.from_controller(chunk);
        }
        for (const auto& chunk : as_chunks(mixed_switch_frames(), one_chunk)) {
          rig->session.from_switch(chunk);  // the same flows, after the policy change
        }
        rig->settle();
      }
      EXPECT_EQ(chunked.to_switch, per_frame.to_switch);
      EXPECT_EQ(chunked.to_controller, per_frame.to_controller);
      EXPECT_EQ(chunked.stats().packet_ins_forwarded, per_frame.stats().packet_ins_forwarded);
      // Both directions carried real traffic: PCP installs and controller
      // writes toward the switch, verdicts and relays toward the controller.
      EXPECT_EQ(per_frame.stats().packet_ins_to_pcp, 16u);
      EXPECT_GE(per_frame.stats().packet_ins_forwarded, 10u);
      EXPECT_GE(per_frame.to_switch.size(), 16u + 6u);
      EXPECT_EQ(chunked.stats().frames_fast_path, per_frame.stats().frames_fast_path);
      EXPECT_EQ(chunked.stats().frames_patched, per_frame.stats().frames_patched);
    }
  }
}

}  // namespace
}  // namespace dfi
