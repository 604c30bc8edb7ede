#include "core/rule_cache.h"

#include <limits>

namespace dfi {
namespace {

// Pin one side of the wildcard match from the policy spec, narrowing
// high-level identifiers to the flow's observed addresses. Returns false
// when no safe pinning exists (caller falls back to exact-match).
bool pin_endpoint(const EndpointSpec& spec, const EndpointView& view, bool is_source,
                  Match& match, bool& identity_derived) {
  const bool names_identity = spec.user.has_value() || spec.host.has_value();
  if (names_identity) {
    // Narrow the identity to the observed IP — a safe subset of the policy
    // scope under the current bindings.
    if (!view.ip.has_value()) return false;
    identity_derived = true;
    (is_source ? match.ipv4_src : match.ipv4_dst) = *view.ip;
  }
  if (spec.ip.has_value()) {
    (is_source ? match.ipv4_src : match.ipv4_dst) = *spec.ip;
  }
  if (spec.mac.has_value()) {
    (is_source ? match.eth_src : match.eth_dst) = *spec.mac;
  }
  if (spec.switch_port.has_value()) {
    // Only the ingress (source) switch port is expressible in a match.
    if (!is_source) return false;
    match.in_port = *spec.switch_port;
  }
  // spec.dpid needs no match field: the rule is installed only on the
  // switch that raised the Packet-in, which the policy already matched.
  return true;
}

}  // namespace

std::optional<WildcardCompileResult> compile_wildcard(const PolicySnapshot& policy,
                                                      const PolicyDecision& decision,
                                                      const FlowView& flow) {
  // Default deny has no policy scope to generalize.
  if (decision.default_deny) return std::nullopt;
  const StoredPolicyRule* stored = policy.find(decision.rule_id);
  if (stored == nullptr) return std::nullopt;

  // Safety gate: any other rule with priority >= ours and the opposite
  // action that overlaps our scope could decide a covered packet
  // differently (including the equal-priority case, where Deny wins).
  bool conflict = false;
  policy.index().for_each_overlap_candidate(
      stored->rule, stored->priority.value, std::numeric_limits<std::uint32_t>::max(),
      [&](const StoredPolicyRule& other) {
        if (other.id == stored->id || other.rule.action == stored->rule.action) return;
        if (other.rule.overlaps(stored->rule)) conflict = true;
      });
  if (conflict) return std::nullopt;

  WildcardCompileResult result;
  Match& match = result.match;

  // Frame-level pinning keeps OpenFlow match prerequisites satisfied.
  match.eth_type = flow.ether_type;
  const bool needs_proto = stored->rule.properties.ip_proto.has_value() ||
                           stored->rule.source.l4_port.has_value() ||
                           stored->rule.destination.l4_port.has_value();
  if (needs_proto) {
    if (!flow.ip_proto.has_value()) return std::nullopt;
    match.ip_proto = flow.ip_proto;
  }

  if (!pin_endpoint(stored->rule.source, flow.src, /*is_source=*/true, match,
                    result.identity_derived)) {
    return std::nullopt;
  }
  if (!pin_endpoint(stored->rule.destination, flow.dst, /*is_source=*/false, match,
                    result.identity_derived)) {
    return std::nullopt;
  }

  // L4 ports, typed by the flow's transport.
  const auto pin_port = [&](const std::optional<std::uint16_t>& port, bool is_source) {
    if (!port.has_value()) return;
    const bool is_tcp =
        flow.ip_proto == static_cast<std::uint8_t>(IpProto::kTcp);
    if (is_tcp) {
      (is_source ? match.tcp_src : match.tcp_dst) = *port;
    } else {
      (is_source ? match.udp_src : match.udp_dst) = *port;
    }
  };
  pin_port(stored->rule.source.l4_port, /*is_source=*/true);
  pin_port(stored->rule.destination.l4_port, /*is_source=*/false);

  // A fully-wildcarded result (allow/deny-all policy with no identity) is
  // legitimate: one rule covers the whole table.
  return result;
}

std::optional<WildcardCompileResult> compile_wildcard(const PolicyManager& policy,
                                                      const PolicyDecision& decision,
                                                      const FlowView& flow) {
  return compile_wildcard(*policy.snapshot_view(), decision, flow);
}

}  // namespace dfi
