// Wildcard rule caching extension (paper Section III-B, future work).
//
// The baseline PCP installs one exact-match rule per flow, so every new
// flow — even between the same pair of endpoints — costs a control-plane
// round trip. The paper points at reactive wildcard caching (CAB-ACME) as
// the extension, and names the key challenge: a cached wildcard rule must
// never cover a packet for which a different, higher-priority policy rule
// (or a future binding state) would decide differently.
//
// This module compiles a *safe generalization* of the deciding policy rule:
//   * each policy-spec field that is concrete at the low level (IP, port,
//     MAC, switch port) is copied into the match;
//   * high-level fields (user/host) are narrowed to the identifiers
//     observed in the triggering flow (a safe subset of the policy scope);
//   * unspecified fields stay wildcarded — that is the generalization.
//
// Safety gates (compile_wildcard returns nullopt and the caller falls back
// to exact-match):
//   * some other policy rule with priority >= the deciding rule's and a
//     different action overlaps the deciding rule — a covered packet could
//     be decided differently;
//   * the decision is a default deny (there is no policy scope to
//     generalize);
//   * the deciding rule names high-level identifiers and the flow view
//     carries several bindings for them (ambiguous narrowing).
//
// Staleness: a cached rule derived from a user/host-naming policy depends
// on the bindings used to narrow it. The PCP (when caching is enabled)
// subscribes to binding retractions and flushes identity-derived cached
// rules by cookie, reusing the normal consistency path.
#pragma once

#include <optional>

#include "core/policy.h"
#include "core/policy_manager.h"
#include "openflow/match.h"

namespace dfi {

struct WildcardCompileResult {
  Match match;
  // True if the match was narrowed using user/host bindings and must be
  // flushed when bindings change.
  bool identity_derived = false;
};

// Compile a wildcard match for `flow`, decided by `decision` against the
// frozen `policy` snapshot. Pure — safe to call from PCP shard threads.
// Returns nullopt when no safe generalization exists (caller installs the
// exact-match rule instead).
std::optional<WildcardCompileResult> compile_wildcard(
    const PolicySnapshot& policy, const PolicyDecision& decision, const FlowView& flow);

// Convenience overload over the live manager: publishes a snapshot (O(1))
// and delegates.
std::optional<WildcardCompileResult> compile_wildcard(
    const PolicyManager& policy, const PolicyDecision& decision, const FlowView& flow);

}  // namespace dfi
