#include "support/reference_model.h"

#include "core/policy_snapshot.h"
#include "services/events.h"

namespace dfi::test {

PolicyDecision query_linear(const std::vector<StoredPolicyRule>& rules,
                            const FlowView& flow) {
  const StoredPolicyRule* best = nullptr;
  for (const StoredPolicyRule& stored : rules) {
    if (!stored.rule.matches(flow)) continue;
    if (best == nullptr || stored.priority > best->priority) {
      best = &stored;
    } else if (stored.priority == best->priority &&
               stored.rule.action == PolicyAction::kDeny &&
               best->rule.action == PolicyAction::kAllow) {
      best = &stored;  // equal-priority conflict: Deny wins
    }
  }
  return decision_of(best);
}

ReferenceModel::ReferenceModel(MessageBus& system_bus)
    : erm_(private_bus_),
      policy_(private_bus_),
      mirror_subscription_(system_bus.subscribe<BindingEvent>(
          topics::kErmBindings, [this](const BindingEvent& event) {
            ++binding_events_seen_;
            erm_.apply(event);
          })) {}

PolicyRuleId ReferenceModel::record_insert(const PolicyRule& rule,
                                           PdpPriority priority) {
  const PolicyRuleId id = policy_.insert(rule, priority, "model");
  issued_.insert(id.value);
  return id;
}

bool ReferenceModel::record_revoke(PolicyRuleId id) {
  if (!policy_.revoke(id)) return false;
  revoked_.insert(id.value);
  return true;
}

std::optional<ModelVerdict> ReferenceModel::expected_verdict(
    Dpid dpid, PortNo in_port, const std::vector<std::uint8_t>& frame) const {
  auto parsed = Packet::parse(frame);
  if (!parsed.ok()) return std::nullopt;
  const Packet& packet = parsed.value();

  // Identifier collection, exactly the set the PCP gathers (pcp_decide.cc).
  EndpointView src;
  src.mac = packet.eth.src;
  src.dpid = dpid;
  src.switch_port = in_port;
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

  std::optional<std::uint8_t> ip_proto;
  if (packet.ipv4.has_value()) ip_proto = packet.ipv4->protocol;
  return decide(std::move(src), std::move(dst), packet.eth.ether_type, ip_proto);
}

ModelVerdict ReferenceModel::expected_verdict_match(Dpid dpid,
                                                    const Match& match) const {
  EndpointView src;
  src.mac = match.eth_src;
  src.dpid = dpid;
  src.switch_port = match.in_port;
  src.ip = match.ipv4_src;
  src.l4_port = match.tcp_src.has_value() ? match.tcp_src : match.udp_src;
  EndpointView dst;
  dst.mac = match.eth_dst;
  dst.ip = match.ipv4_dst;
  dst.l4_port = match.tcp_dst.has_value() ? match.tcp_dst : match.udp_dst;
  return decide(std::move(src), std::move(dst), match.eth_type.value_or(0),
                match.ip_proto);
}

ModelVerdict ReferenceModel::decide(EndpointView src, EndpointView dst,
                                    std::uint16_t ether_type,
                                    std::optional<std::uint8_t> ip_proto) const {
  ModelVerdict verdict;

  // Source-side spoof validation against the mirrored authoritative
  // bindings. The location check is deliberately omitted: the fuzzer uses
  // unicast source MACs only, for which the PCP's own sensor asserts the
  // observed location before deciding (see DecisionInput::prior_src_location).
  const SpoofCheck spoof =
      erm_.validate(src.mac, src.ip, std::nullopt, std::nullopt);
  if (spoof.spoofed) {
    verdict.spoofed = true;
    verdict.allow = false;
    verdict.default_deny = true;
    return verdict;
  }

  // Late-binding enrichment + linear-scan reference policy query.
  FlowView flow;
  flow.ether_type = ether_type;
  flow.ip_proto = ip_proto;
  flow.src = erm_.enrich(std::move(src));
  flow.dst = erm_.enrich(std::move(dst));

  const PolicyDecision decision = query_linear(policy_.rules(), flow);
  verdict.allow = decision.action == PolicyAction::kAllow;
  verdict.default_deny = decision.default_deny;
  return verdict;
}

bool ReferenceModel::cookie_issued(std::uint64_t cookie) const {
  return cookie == kDefaultDenyCookie.value || issued_.contains(cookie);
}

bool ReferenceModel::cookie_revoked(std::uint64_t cookie) const {
  return revoked_.contains(cookie);
}

}  // namespace dfi::test
