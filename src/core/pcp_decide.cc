#include "core/pcp_decide.h"

#include <utility>

#include "core/rule_cache.h"
#include "openflow/match.h"

namespace dfi {
namespace {

// Shape of every Table-0 rule. The proxy shifts the controller's tables up
// by exactly one (core/proxy.h), so the controller's first table is table
// 1: an allowed flow must continue there, and any other goto target would
// send it past (or short of) the controller's pipeline.
constexpr std::uint16_t kTable0RulePriority = 100;
constexpr std::uint8_t kControllerFirstTable = 1;

PolicyDecision default_deny_decision() {
  return PolicyDecision{PolicyAction::kDeny, PolicyRuleId{kDefaultDenyCookie.value},
                        /*default_deny=*/true};
}

}  // namespace

DecisionInput make_decision_input(Dpid dpid, const PacketInMsg& msg) {
  DecisionInput input;
  input.dpid = dpid;
  input.in_port = msg.in_port;
  auto parsed = Packet::parse(msg.data);
  if (parsed.ok()) {
    input.packet = std::move(parsed.value());
    input.flow_key = FlowKey::from_packet(dpid, msg.in_port, *input.packet);
  }
  return input;
}

FlowModMsg compile_exact_rule(const Packet& packet, PortNo in_port, bool allow,
                              Cookie cookie) {
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.table_id = 0;  // DFI's reserved table
  mod.priority = kTable0RulePriority;
  mod.cookie = cookie;
  // Exact match: every identifier available in the packet is specified so
  // each new flow gets its own policy check (Section III-B).
  mod.match = Match::exact_from_packet(packet, in_port);
  mod.instructions = allow ? Instructions::to_table(kControllerFirstTable)
                           : Instructions::drop();
  return mod;
}

DecisionEffects decide_on_snapshots(const DecisionInput& input,
                                    const DecisionSnapshots& snapshots,
                                    DecisionCache<PcpDecision>& cache,
                                    const PcpConfig& config) {
  DecisionEffects effects;
  PcpDecision& decision = effects.decision;

  if (!input.packet.has_value()) {
    // Unparsable traffic cannot be matched to policy; default deny, but no
    // rule can be compiled for it (no usable header fields).
    effects.unparsable = true;
    decision.allow = false;
    decision.policy = default_deny_decision();
    return effects;
  }
  const Packet& packet = *input.packet;
  const std::uint64_t policy_epoch = snapshots.policy->epoch();
  const std::uint64_t binding_epoch = snapshots.erm.epoch();

  // Decision cache: an identical flow tuple decided under the current
  // policy and binding epochs replays its decision without re-running
  // validation, enrichment, or the policy query. Any policy insert/revoke
  // or effective binding change bumps an epoch and forces the full path,
  // preserving late binding (Section III-B).
  if (cache.enabled()) {
    if (const PcpDecision* cached =
            cache.lookup(input.flow_key, policy_epoch, binding_epoch)) {
      decision = *cached;
      effects.cache_hit = true;
      effects.has_rule = true;
      return effects;
    }
  }

  // Collect all source/destination identifiers present in the packet.
  EndpointView src;
  src.mac = packet.eth.src;
  src.dpid = input.dpid;
  src.switch_port = input.in_port;
  EndpointView dst;
  dst.mac = packet.eth.dst;
  if (packet.ipv4.has_value()) {
    src.ip = packet.ipv4->src;
    dst.ip = packet.ipv4->dst;
  }
  if (packet.tcp.has_value()) {
    src.l4_port = packet.tcp->src_port;
    dst.l4_port = packet.tcp->dst_port;
  } else if (packet.udp.has_value()) {
    src.l4_port = packet.udp->src_port;
    dst.l4_port = packet.udp->dst_port;
  }

  // Spoof validation against authoritative bindings (source side; the
  // destination's claimed identifiers are not attacker-controlled claims).
  // Identity conflicts come from the snapshot. The location check reduces
  // to the prior_src_location scalar and only bites for multicast source
  // MACs: for a unicast source the shell's location sensor asserts the
  // observed (switch, MAC) -> port binding before the decision takes
  // effect, so the live ERM's check always passed by construction.
  SpoofCheck spoof = snapshots.erm.validate_identity(src.mac, src.ip);
  if (!spoof.spoofed && packet.eth.src.is_multicast() &&
      input.prior_src_location.has_value() &&
      *input.prior_src_location != input.in_port) {
    spoof = {true, "MAC " + packet.eth.src.to_string() + " is located at port " +
                       std::to_string(input.prior_src_location->value) + " of " +
                       to_string(input.dpid) + ", not port " +
                       std::to_string(input.in_port.value)};
  }
  if (spoof.spoofed) {
    decision.spoofed = true;
    decision.allow = false;
    decision.policy = default_deny_decision();
    decision.installed_rule = compile_exact_rule(packet, input.in_port,
                                                 /*allow=*/false, kDefaultDenyCookie);
    effects.has_rule = true;
    effects.spoof_reason = spoof.reason;
    cache.store(input.flow_key, decision, policy_epoch, binding_epoch);
    return effects;
  }

  // Enrichment: map low-level identifiers up to hostnames and usernames at
  // decision time (late binding).
  FlowView flow;
  flow.ether_type = packet.eth.ether_type;
  if (packet.ipv4.has_value()) flow.ip_proto = packet.ipv4->protocol;
  flow.src = snapshots.erm.enrich(std::move(src));
  flow.dst = snapshots.erm.enrich(std::move(dst));

  // Policy query: highest-priority matching rule, default deny.
  decision.policy = snapshots.policy->query(flow);
  decision.allow = decision.policy.action == PolicyAction::kAllow;
  decision.flow = flow;

  decision.installed_rule =
      compile_exact_rule(packet, input.in_port, decision.allow,
                         Cookie{decision.policy.rule_id.value});
  effects.has_rule = true;

  // Wildcard caching extension: replace the exact match with a safe
  // generalization of the deciding policy when one exists.
  if (config.wildcard_caching) {
    const auto cached = compile_wildcard(*snapshots.policy, decision.policy, flow);
    if (cached.has_value()) {
      decision.installed_rule.match = cached->match;
      effects.wildcard_installed = true;
      effects.identity_derived = cached->identity_derived;
    } else {
      effects.wildcard_fallback = true;
    }
  }

  cache.store(input.flow_key, decision, policy_epoch, binding_epoch);
  return effects;
}

}  // namespace dfi
