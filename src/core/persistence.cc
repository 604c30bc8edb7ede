#include "core/persistence.h"

#include <sstream>
#include <vector>

namespace dfi {
namespace {

Result<std::size_t> fail_line(std::size_t line, const std::string& what) {
  return Result<std::size_t>::Fail(
      ErrorCode::kMalformed, "line " + std::to_string(line) + ": " + what);
}

// ---------------------------------------------------------- endpoint spec

std::string spec_to_text(const EndpointSpec& spec) {
  std::string out;
  const auto append = [&out](const std::string& field) {
    if (!out.empty()) out += ",";
    out += field;
  };
  if (spec.user) append("user=" + spec.user->value);
  if (spec.host) append("host=" + spec.host->value);
  if (spec.ip) append("ip=" + spec.ip->to_string());
  if (spec.l4_port) append("port=" + std::to_string(*spec.l4_port));
  if (spec.mac) append("mac=" + spec.mac->to_string());
  if (spec.switch_port) append("swport=" + std::to_string(spec.switch_port->value));
  if (spec.dpid) append("dpid=" + std::to_string(spec.dpid->value));
  return out.empty() ? "*" : out;
}

bool spec_from_text(const std::string& text, EndpointSpec& spec) {
  if (text == "*") return true;
  for (const std::string& field : split(text, ',')) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "user") {
      spec.user = Username{value};
    } else if (key == "host") {
      spec.host = Hostname{value};
    } else if (key == "ip") {
      const auto ip = Ipv4Address::parse(value);
      if (!ip.ok()) return false;
      spec.ip = ip.value();
    } else if (key == "port") {
      spec.l4_port = static_cast<std::uint16_t>(std::stoul(value));
    } else if (key == "mac") {
      const auto mac = MacAddress::parse(value);
      if (!mac.ok()) return false;
      spec.mac = mac.value();
    } else if (key == "swport") {
      spec.switch_port = PortNo{static_cast<std::uint32_t>(std::stoul(value))};
    } else if (key == "dpid") {
      spec.dpid = Dpid{std::stoull(value)};
    } else {
      return false;
    }
  }
  return true;
}

template <typename T>
Result<T> fail_parse(const std::string& what) {
  return Result<T>::Fail(ErrorCode::kMalformed, what);
}

}  // namespace

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

std::string policy_rule_line(const StoredPolicyRule& stored) {
  std::ostringstream out;
  out << "policy|" << stored.pdp_name << "|" << stored.priority.value << "|"
      << (stored.rule.action == PolicyAction::kAllow ? "allow" : "deny") << "|";
  out << (stored.rule.properties.ether_type
              ? "ether=" + std::to_string(*stored.rule.properties.ether_type)
              : std::string("ether=*"))
      << "|";
  out << (stored.rule.properties.ip_proto
              ? "proto=" + std::to_string(*stored.rule.properties.ip_proto)
              : std::string("proto=*"))
      << "|";
  out << spec_to_text(stored.rule.source) << "|"
      << spec_to_text(stored.rule.destination);
  return out.str();
}

Result<StoredPolicyRule> parse_policy_rule_line(const std::string& line) {
  const auto parts = split(line, '|');
  if (parts.size() != 8 || parts[0] != "policy") {
    return fail_parse<StoredPolicyRule>("expected 8 '|'-separated policy fields");
  }
  StoredPolicyRule stored;
  stored.pdp_name = parts[1];
  try {
    stored.priority.value = static_cast<std::uint32_t>(std::stoul(parts[2]));
  } catch (...) {
    return fail_parse<StoredPolicyRule>("bad priority: " + parts[2]);
  }
  if (parts[3] == "allow") {
    stored.rule.action = PolicyAction::kAllow;
  } else if (parts[3] == "deny") {
    stored.rule.action = PolicyAction::kDeny;
  } else {
    return fail_parse<StoredPolicyRule>("bad action: " + parts[3]);
  }
  try {
    if (parts[4] != "ether=*") {
      if (parts[4].rfind("ether=", 0) != 0) {
        return fail_parse<StoredPolicyRule>("bad ether field");
      }
      stored.rule.properties.ether_type =
          static_cast<std::uint16_t>(std::stoul(parts[4].substr(6)));
    }
    if (parts[5] != "proto=*") {
      if (parts[5].rfind("proto=", 0) != 0) {
        return fail_parse<StoredPolicyRule>("bad proto field");
      }
      stored.rule.properties.ip_proto =
          static_cast<std::uint8_t>(std::stoul(parts[5].substr(6)));
    }
    if (!spec_from_text(parts[6], stored.rule.source)) {
      return fail_parse<StoredPolicyRule>("bad source spec: " + parts[6]);
    }
    if (!spec_from_text(parts[7], stored.rule.destination)) {
      return fail_parse<StoredPolicyRule>("bad destination spec: " + parts[7]);
    }
  } catch (...) {
    return fail_parse<StoredPolicyRule>("bad numeric field");
  }
  return stored;
}

std::string binding_event_line(const BindingEvent& event) {
  std::ostringstream out;
  switch (event.kind) {
    case BindingKind::kUserHost:
      out << "binding|user-host|" << event.user.value << "|" << event.host.value;
      break;
    case BindingKind::kHostIp:
      out << "binding|host-ip|" << event.host.value << "|" << event.ip.to_string();
      break;
    case BindingKind::kIpMac:
      out << "binding|ip-mac|" << event.ip.to_string() << "|"
          << event.mac.to_string();
      break;
    case BindingKind::kMacLocation:
      out << "binding|mac-location|" << event.mac.to_string() << "|"
          << event.dpid.value << "|" << event.port.value;
      break;
  }
  return out.str();
}

Result<BindingEvent> parse_binding_event_line(const std::string& line) {
  const auto parts = split(line, '|');
  if (parts.size() < 4 || parts[0] != "binding") {
    return fail_parse<BindingEvent>("expected binding line");
  }
  BindingEvent event;
  if (parts[1] == "user-host") {
    event.kind = BindingKind::kUserHost;
    event.user = Username{parts[2]};
    event.host = Hostname{parts[3]};
  } else if (parts[1] == "host-ip") {
    event.kind = BindingKind::kHostIp;
    event.host = Hostname{parts[2]};
    const auto ip = Ipv4Address::parse(parts[3]);
    if (!ip.ok()) return fail_parse<BindingEvent>("bad ip: " + parts[3]);
    event.ip = ip.value();
  } else if (parts[1] == "ip-mac") {
    event.kind = BindingKind::kIpMac;
    const auto ip = Ipv4Address::parse(parts[2]);
    if (!ip.ok()) return fail_parse<BindingEvent>("bad ip: " + parts[2]);
    event.ip = ip.value();
    const auto mac = MacAddress::parse(parts[3]);
    if (!mac.ok()) return fail_parse<BindingEvent>("bad mac: " + parts[3]);
    event.mac = mac.value();
  } else if (parts[1] == "mac-location") {
    if (parts.size() != 5) {
      return fail_parse<BindingEvent>("mac-location needs 5 fields");
    }
    event.kind = BindingKind::kMacLocation;
    const auto mac = MacAddress::parse(parts[2]);
    if (!mac.ok()) return fail_parse<BindingEvent>("bad mac: " + parts[2]);
    event.mac = mac.value();
    try {
      event.dpid = Dpid{std::stoull(parts[3])};
      event.port = PortNo{static_cast<std::uint32_t>(std::stoul(parts[4]))};
    } catch (...) {
      return fail_parse<BindingEvent>("bad dpid/port");
    }
  } else {
    return fail_parse<BindingEvent>("unknown binding kind: " + parts[1]);
  }
  return event;
}

std::string save_policies(const PolicyManager& manager) {
  std::ostringstream out;
  for (const auto& stored : manager.rules()) {
    out << policy_rule_line(stored) << "\n";
  }
  return out.str();
}

Result<std::size_t> load_policies(PolicyManager& manager, const std::string& snapshot,
                                  std::uint64_t epoch_floor) {
  std::istringstream in(snapshot);
  std::string line;
  std::size_t line_number = 0;
  std::size_t loaded = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    auto parsed = parse_policy_rule_line(line);
    if (!parsed.ok()) return fail_line(line_number, parsed.error().message);
    StoredPolicyRule stored = std::move(parsed).value();
    manager.insert(std::move(stored.rule), stored.priority, std::move(stored.pdp_name));
    ++loaded;
  }
  manager.advance_epoch_to(epoch_floor);
  return loaded;
}

std::string save_bindings(const EntityResolutionManager& erm) {
  std::ostringstream out;
  for (const BindingEvent& event : erm.snapshot()) {
    out << binding_event_line(event) << "\n";
  }
  return out.str();
}

Result<std::size_t> load_bindings(EntityResolutionManager& erm,
                                  const std::string& snapshot,
                                  std::uint64_t epoch_floor) {
  std::istringstream in(snapshot);
  std::string line;
  std::size_t line_number = 0;
  std::size_t loaded = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    auto parsed = parse_binding_event_line(line);
    if (!parsed.ok()) return fail_line(line_number, parsed.error().message);
    erm.apply(parsed.value());
    ++loaded;
  }
  erm.advance_epoch_to(epoch_floor);
  return loaded;
}

}  // namespace dfi
