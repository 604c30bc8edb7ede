#include "scenario.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "net/packet.h"
#include "openflow/wire.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace dfi;

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kNewFlows: return "new_flows";
    case Workload::kPolicyChurn: return "policy_churn";
    case Workload::kRelay: return "relay";
  }
  return "?";
}

void write_cookie(std::uint8_t* frame, std::uint64_t cookie) {
  for (int i = 0; i < 8; ++i) {
    frame[kFlowModCookieOffset + i] = static_cast<std::uint8_t>(cookie >> (56 - 8 * i));
  }
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

// The rule kinds make_rules cycles through (rule i has kind i % 8) that
// pivot on the destination endpoint or on the destination port, so a flow
// from one of the benchmark's source hosts can be aimed at them.
bool destination_kind(std::uint32_t rule) {
  const std::uint32_t kind = rule % 8;
  return kind == 1 || kind == 4 || kind == 6 || kind == 7;
}

bool deny_rule(std::uint32_t rule) { return rule % 5 == 0; }

std::uint32_t pick(Rng& rng, std::uint32_t bound) {
  return static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<int>(bound) - 1));
}

}  // namespace

DfiConfig Scenario::config() {
  DfiConfig config = DfiConfig::functional();
  config.pcp.backend = PcpBackend::kThreads;
  config.pcp.shards = 2;
  return config;
}

Scenario::Scenario(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), gen_([&] {
        ScaleConfig config;
        config.hosts = kHosts;
        config.seed = kEnterpriseSeed;
        return config;
      }()) {
  build_enterprise();
  // Two distinct, fully populated access switches, fixed with the
  // enterprise: --seed varies the traffic, not the state under test.
  Rng placement(kEnterpriseSeed);
  const std::uint32_t per_switch = gen_.config().hosts_per_switch;
  const std::uint32_t full_switches = kHosts / per_switch;
  const std::uint32_t first = pick(placement, full_switches);
  std::uint32_t second = pick(placement, full_switches - 1);
  if (second >= first) ++second;
  first_host_ = {first * per_switch, second * per_switch};
  Rng rng(seed ^ 0x5eedbe5c4ull);
  dpids_ = {gen_.switch_of(first_host_[0]), gen_.switch_of(first_host_[1])};
  build_handshake();
  // Every workload gets Packet-in flows (the traced run's isolated calls
  // replay them) and churn patterns (every workload measures revocation);
  // only policy_churn needs the full flow pool and the churn sets.
  const bool relay = workload_ == Workload::kRelay;
  build_packet_ins(rng, relay ? kRelayFlowsPerConnection : kFlowsPerConnection,
                   workload_ == Workload::kPolicyChurn ? kChurnSets : 0);
  if (relay) build_relay(rng);
}

Bytes Scenario::put(const std::vector<std::uint8_t>& bytes) {
  Bytes b;
  b.off = static_cast<std::uint32_t>(arena_.size());
  b.len = static_cast<std::uint32_t>(bytes.size());
  arena_.insert(arena_.end(), bytes.begin(), bytes.end());
  return b;
}

void Scenario::build_enterprise() {
  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  gen_.emit_initial_bindings([&](const BindingEvent& event) { erm.apply(event); });
  bindings_ = erm.binding_count();
  // Highest priority first: the insert-time overlap sweep only looks at
  // strictly lower buckets, which are still empty in this order.
  const std::vector<PolicyRule> rules = gen_.make_rules(kRules);
  for (std::uint32_t i = 0; i < rules.size(); ++i) {
    const std::uint32_t level = kPriorityLevels - (i * kPriorityLevels) / kRules;
    manager.insert(rules[i], PdpPriority{level}, "perfbench-base");
  }
  Journal journal(compacted_);
  const Status status = journal.compact(manager, erm);
  if (!status.ok()) fail("journal compaction failed");
}

void Scenario::build_handshake() {
  handshake_.switch_hello = put(encode(OfMessage{1, HelloMsg{}}));
  handshake_.controller_hello = put(encode(OfMessage{1, HelloMsg{}}));
  handshake_.features_request = put(encode(OfMessage{2, FeaturesRequestMsg{}}));
  for (std::size_t c = 0; c < kConnections; ++c) {
    FeaturesReplyMsg features;
    features.datapath_id = dpids_[c];
    features.n_buffers = 256;
    features.n_tables = 4;
    handshake_.features_reply[c] = put(encode(OfMessage{2, features}));
    features.n_tables = 3;  // Table 0 is DFI's and invisible
    handshake_.features_reply_shifted[c] = put(encode(OfMessage{2, features}));
  }
}

namespace {

PacketInMsg packet_in(const ScaleGenerator& gen, std::uint32_t src, std::uint32_t dst,
                      std::uint16_t src_port, std::uint16_t dst_port) {
  const Packet packet = make_tcp_packet(gen.mac_of(src), gen.mac_of(dst), gen.ip_of(src),
                                        gen.ip_of(dst), src_port, dst_port);
  PacketInMsg msg;
  msg.reason = PacketInReason::kNoMatch;
  msg.table_id = 0;
  msg.in_port = gen.port_of(src);
  msg.data = packet.serialize();
  msg.total_len = static_cast<std::uint16_t>(msg.data.size());
  return msg;
}

// A second, identically recovered system whose PCP decides every expected
// answer; registered switch writers capture exactly what it would send.
struct Reference {
  InMemoryJournalStore store;
  Journal journal{store};
  Simulator sim;
  MessageBus bus;
  DfiSystem system;
  std::array<std::vector<std::vector<std::uint8_t>>, kConnections> captured;

  Reference(const InMemoryJournalStore& image, const std::array<Dpid, kConnections>& dpids)
      : store(image), system(sim, bus, Scenario::config()) {
    if (!system.recover_from(journal).ok()) fail("reference recovery failed");
    for (std::size_t c = 0; c < kConnections; ++c) {
      system.pcp().register_switch(dpids[c], [this, c](const OfMessage& message) {
        captured[c].push_back(encode(message));
      });
    }
  }
  void clear() {
    for (auto& frames : captured) frames.clear();
  }
};

}  // namespace

void Scenario::build_packet_ins(Rng& rng, std::uint32_t flows_per_conn,
                                std::uint32_t churn_sets) {
  Reference ref(compacted_, dpids_);
  first_churn_cookie_ = ref.system.policy_manager().next_id();
  const std::vector<std::uint32_t> targets = gen_.rule_targets(kRules);
  const std::uint32_t per_switch = gen_.config().hosts_per_switch;

  std::vector<std::uint32_t> allow_rules, deny_rules, deny_destination_rules;
  for (std::uint32_t i = 0; i < kRules; ++i) {
    if (!destination_kind(i)) continue;
    (deny_rule(i) ? deny_rules : allow_rules).push_back(i);
    if (deny_rule(i) && i % 8 != 7) deny_destination_rules.push_back(i);
  }

  auto decide = [&](std::size_t conn, const PacketInMsg& msg, std::uint32_t xid) {
    PacketInOp op;
    op.request = put(encode(OfMessage{xid, msg}));
    ref.clear();
    const PcpDecision decision = ref.system.pcp().decide(dpids_[conn], msg);
    if (ref.captured[conn].size() != 1) fail("reference decision installed no rule");
    op.flow_mod = put(ref.captured[conn][0]);
    op.allow = decision.allow;
    op.cookie = decision.installed_rule.cookie.value;
    return op;
  };

  // Regular flows: 40% aimed at an Allow rule, 20% at a Deny rule, 40% at
  // no rule (random destination on a service port no rule names).
  static constexpr std::uint16_t kUntargetedPorts[] = {80, 443, 22, 3389};
  for (std::size_t c = 0; c < kConnections; ++c) {
    flows_[c].reserve(flows_per_conn);
    for (std::uint32_t j = 0; j < flows_per_conn; ++j) {
      const std::uint32_t src = first_host_[c] + pick(rng, per_switch);
      std::uint32_t dst = pick(rng, kHosts);
      std::uint16_t dst_port = kUntargetedPorts[pick(rng, 4)];
      const std::uint32_t roll = pick(rng, 100);
      if (roll < 60) {
        const auto& pool = roll < 40 ? allow_rules : deny_rules;
        const std::uint32_t rule = pool[pick(rng, static_cast<std::uint32_t>(pool.size()))];
        if (rule % 8 == 7) {
          dst_port = static_cast<std::uint16_t>(1024 + rule % 40000);
        } else {
          dst = targets[rule];
          dst_port = 445;
        }
        ++(roll < 40 ? mix_.aimed_allow : mix_.aimed_deny);
      } else {
        ++mix_.aimed_none;
      }
      if (dst == src) dst = (dst + 1) % kHosts;
      const PacketInMsg msg =
          packet_in(gen_, src, dst, static_cast<std::uint16_t>(20000 + j), dst_port);
      PacketInOp op = decide(c, msg, j + 1);
      if (op.allow) {
        ++mix_.allowed;
      } else if (op.cookie == kDefaultDenyCookie.value) {
        ++mix_.default_denied;
      } else {
        ++mix_.denied;
      }
      flows_[c].push_back(op);
    }
  }
  // Churn patterns: an Allow exception for one (source, destination,
  // port) triple above every base priority. The destination is the target
  // of a base Deny rule, so the insert's consistency check flushes that
  // rule's derivations (plus default-deny's) from both switches.
  patterns_.resize(kChurnPatterns);
  for (std::uint32_t p = 0; p < kChurnPatterns; ++p) {
    ChurnPattern& pattern = patterns_[p];
    pattern.conn = p % kConnections;
    const std::uint32_t a = first_host_[pattern.conn] + pick(rng, per_switch);
    const std::uint32_t rule_index =
        deny_destination_rules[pick(rng, static_cast<std::uint32_t>(deny_destination_rules.size()))];
    const std::uint32_t b = targets[rule_index];
    pattern.src_host = a;
    pattern.dst_host = b;
    PolicyRule rule;
    rule.action = PolicyAction::kAllow;
    rule.properties.ether_type = 0x0800;
    rule.properties.ip_proto = 6;
    rule.source.ip = gen_.ip_of(a);
    rule.source.mac = gen_.mac_of(a);
    rule.source.user = Username{gen_.user_name(a)};
    rule.source.host = Hostname{gen_.host_name(a)};
    rule.destination.ip = gen_.ip_of(b);
    rule.destination.user = Username{gen_.user_name(b)};
    rule.destination.host = Hostname{gen_.host_name(b)};
    rule.destination.l4_port = kChurnPort;
    pattern.rule = rule;
  }

  churn_.resize(churn_sets);
  std::vector<std::array<PacketInMsg, kChurnFlows>> churn_msgs(churn_sets);
  for (std::uint32_t s = 0; s < churn_sets; ++s) {
    ChurnSet& set = churn_[s];
    set.pattern = s % kChurnPatterns;
    set.logon_host = first_host_[s % kConnections] + (s * 7) % per_switch;
    const ChurnPattern& pattern = patterns_[set.pattern];
    for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
      churn_msgs[s][f] =
          packet_in(gen_, pattern.src_host, pattern.dst_host,
                    static_cast<std::uint16_t>(1024 + s * kChurnFlows + f), kChurnPort);
    }
  }
  auto churn_xid = [](std::uint32_t s, std::uint32_t f, bool again) {
    return 0x40000000u + (again ? 0x10000000u : 0u) + s * kChurnFlows + f;
  };
  for (std::uint32_t p = 0; p < kChurnPatterns; ++p) {
    ChurnPattern& pattern = patterns_[p];
    ref.clear();
    const PolicyRuleId id = ref.system.policy_manager().insert(
        pattern.rule, PdpPriority{kChurnPriority}, "perfbench-churn");
    if (ref.captured[0] != ref.captured[1]) fail("insert flush differs per switch");
    if (ref.captured[0].size() < 2) fail("churn insert flushed fewer than 2 rules");
    for (const auto& frame : ref.captured[0]) pattern.insert_deletes.push_back(put(frame));
    for (std::uint32_t s = p; s < churn_sets; s += kChurnPatterns) {
      for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
        PacketInOp op = decide(pattern.conn, churn_msgs[s][f], churn_xid(s, f, false));
        if (!op.allow || op.cookie != id.value) fail("churn rule did not admit its flow");
        churn_[s].admitted[f] = op;
      }
    }
    ref.clear();
    if (!ref.system.policy_manager().revoke(id)) fail("reference revoke failed");
    if (ref.captured[0].size() != 1 || ref.captured[0] != ref.captured[1]) {
      fail("revoke did not flush exactly one DELETE per switch");
    }
    pattern.revoke_delete = put(ref.captured[0][0]);
    for (std::uint32_t s = p; s < churn_sets; s += kChurnPatterns) {
      for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
        PacketInOp op = decide(pattern.conn, churn_msgs[s][f], churn_xid(s, f, true));
        if (op.cookie == id.value) fail("revoked rule still decides");
        churn_[s].rearrival[f] = op;
      }
    }
  }
}

void Scenario::build_relay(Rng& rng) {
  for (std::size_t c = 0; c < kConnections; ++c) {
    relay_[c].reserve(kRelayOpsPerLink);
    for (std::uint32_t i = 0; i < kRelayOpsPerLink; ++i) {
      const std::uint32_t xid = 0x1000 + i;
      RelayOp op;
      op.kind = static_cast<RelayKind>(pick(rng, 4));
      switch (op.kind) {
        case RelayKind::kFlowMod: {
          FlowModMsg mod;
          mod.command = FlowModCommand::kAdd;
          mod.table_id = static_cast<std::uint8_t>(pick(rng, 2));
          mod.priority = static_cast<std::uint16_t>(100 + pick(rng, 100));
          mod.match.eth_type = 0x0800;
          mod.match.ipv4_dst = gen_.ip_of(pick(rng, kHosts));
          mod.instructions.goto_table = static_cast<std::uint8_t>(mod.table_id + 1);
          op.send = put(encode(OfMessage{xid, mod}));
          ++mod.table_id;
          ++*mod.instructions.goto_table;
          op.at_switch = put(encode(OfMessage{xid, mod}));
          break;
        }
        case RelayKind::kPacketOut: {
          PacketOutMsg out;
          out.in_port = PortNo{1 + pick(rng, 48)};
          out.actions.push_back(OutputAction{PortNo{1 + pick(rng, 48)}});
          const std::uint32_t src = first_host_[c] + pick(rng, 48);
          const std::uint32_t dst = pick(rng, kHosts);
          out.data = make_tcp_packet(gen_.mac_of(src), gen_.mac_of(dst), gen_.ip_of(src),
                                     gen_.ip_of(dst), 40000, 80)
                         .serialize();
          op.send = put(encode(OfMessage{xid, out}));
          op.at_switch = op.send;
          break;
        }
        case RelayKind::kBarrier: {
          op.send = put(encode(OfMessage{xid, BarrierRequestMsg{}}));
          op.at_switch = op.send;
          op.reply = put(encode(OfMessage{xid, BarrierReplyMsg{}}));
          op.at_controller = op.reply;
          break;
        }
        case RelayKind::kFlowStats: {
          MultipartRequestMsg request;
          request.stats_type = kStatsTypeFlow;
          const std::uint32_t table = pick(rng, 3);
          request.flow_request.table_id = table == 2 ? 0xff : static_cast<std::uint8_t>(table);
          op.send = put(encode(OfMessage{xid, request}));
          if (request.flow_request.table_id != 0xff) ++request.flow_request.table_id;
          op.at_switch = put(encode(OfMessage{xid, request}));
          // The switch reports two DFI Table-0 rows and two controller rows.
          MultipartReplyMsg reply;
          reply.stats_type = kStatsTypeFlow;
          for (std::uint8_t t : {0, 1, 0, 2}) {
            FlowStatsEntry entry;
            entry.table_id = t;
            entry.priority = static_cast<std::uint16_t>(t == 0 ? 100 : 200 + pick(rng, 50));
            entry.cookie = Cookie{t == 0 ? first_churn_cookie_ + pick(rng, 1000) : 0};
            entry.packet_count = pick(rng, 1000);
            entry.byte_count = entry.packet_count * 64;
            entry.match.eth_type = 0x0800;
            entry.match.ipv4_dst = gen_.ip_of(pick(rng, kHosts));
            if (t == 1) entry.instructions.goto_table = 2;
            reply.flow_stats.push_back(entry);
          }
          op.reply = put(encode(OfMessage{xid, reply}));
          MultipartReplyMsg visible;
          visible.stats_type = kStatsTypeFlow;
          for (FlowStatsEntry entry : reply.flow_stats) {
            if (entry.table_id == 0) continue;
            --entry.table_id;
            if (entry.instructions.goto_table.has_value()) --*entry.instructions.goto_table;
            visible.flow_stats.push_back(entry);
          }
          op.at_controller = put(encode(OfMessage{xid, visible}));
          break;
        }
      }
      relay_[c].push_back(op);
    }
  }
}

BindingEvent Scenario::logon_event(std::uint32_t host, bool retracted) const {
  BindingEvent event;
  event.kind = BindingKind::kUserHost;
  event.retracted = retracted;
  event.user = Username{gen_.user_name(host)};
  event.host = Hostname{gen_.host_name(host)};
  return event;
}

}  // namespace perfbench
