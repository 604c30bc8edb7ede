// Persistence (paper Section IV: "Both the Policy Manager and the Entity
// Resolution Manager are backed by MySQL databases that maintain a record
// of current policy rules and current identifier bindings").
//
// The surrogate is a line-oriented text snapshot: deterministic to write,
// strict to parse (any malformed line fails with its line number), and
// sufficient to restart a DFI control plane with the policy database and
// binding state it had before. PolicyRuleIds are not preserved by a plain
// load_policies — they are runtime handles; PDP ownership (name +
// priority) is. The write-ahead log (core/journal.h) layers id and epoch
// preservation on top of this format: its snapshot records embed exactly
// the text save_policies/save_bindings emit, plus a header carrying the
// ids and epochs the plain loaders do not.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/entity_resolution.h"
#include "core/policy_manager.h"

namespace dfi {

// ------------------------------------------------------------- policies

// One line per rule:
//   policy|<pdp>|<priority>|allow/deny|ether=..|proto=..|SRC|DST
// where SRC/DST are comma-joined key=value pairs ("*" for none).
std::string save_policies(const PolicyManager& manager);

// Insert every rule from `snapshot` into `manager`. Returns the number of
// rules loaded, or a parse error naming the offending line.
//
// `epoch_floor` guards decision-cache consistency across a reload: caches
// stamp entries with the policy epoch, and a freshly loaded manager
// restarts its epoch from the insert count — typically *behind* the
// pre-restart value. Without the floor, later mutations could land the
// epoch exactly on a value that pre-restart cache entries were stamped
// with while the rule set differs, validating a stale verdict. Pass the
// pre-restart epoch (the journal records it; ad-hoc callers can persist
// PolicyManager::epoch() beside the snapshot) and the loaded manager
// resumes at least there, keeping the epoch monotonic across the restart.
Result<std::size_t> load_policies(PolicyManager& manager, const std::string& snapshot,
                                  std::uint64_t epoch_floor = 0);

// ------------------------------------------------------------- bindings

// One line per binding:
//   binding|user-host|<user>|<host>
//   binding|host-ip|<host>|<ip>
//   binding|ip-mac|<ip>|<mac>
//   binding|mac-location|<mac>|<dpid>|<port>
std::string save_bindings(const EntityResolutionManager& erm);

// Apply every binding from `snapshot` to `erm` (as assertions).
// `epoch_floor` has the same role as in load_policies: replaying the
// snapshot's assertions into a fresh ERM bumps the epoch at most once per
// binding, which can be far behind the pre-restart epoch after churn.
Result<std::size_t> load_bindings(EntityResolutionManager& erm,
                                  const std::string& snapshot,
                                  std::uint64_t epoch_floor = 0);

// -------------------------------------------------- line-level primitives
//
// The journal reuses the snapshot format one record at a time: a WAL
// policy record embeds exactly the line save_policies would write for the
// rule, a WAL binding record the line save_bindings would write.

// The "policy|..." line for one stored rule (no trailing newline). The
// rule id is deliberately not encoded; the journal carries it separately.
std::string policy_rule_line(const StoredPolicyRule& stored);

// Parse one policy line. The returned StoredPolicyRule has id 0 (the line
// does not carry one).
Result<StoredPolicyRule> parse_policy_rule_line(const std::string& line);

// The "binding|..." line for one binding event (no trailing newline).
// `retracted` and `at` are not encoded — snapshot lines are current
// assertions; the journal records retraction separately.
std::string binding_event_line(const BindingEvent& event);

// Parse one binding line into an assertion event.
Result<BindingEvent> parse_binding_event_line(const std::string& line);

// `text` cut at every `sep`; n separators give n + 1 fields (empty ones
// included). The field splitter of both text formats.
std::vector<std::string> split(const std::string& text, char sep);

}  // namespace dfi
