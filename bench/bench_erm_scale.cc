// Million-entity ERM / 100k-rule policy plane scale bench (DESIGN.md §8,
// EXPERIMENTS.md erm_scale).
//
// Sweeps the synthetic enterprise population (testbed/scale_generator.h)
// across entity counts and, per point, measures what the compact entity
// plane promises to keep flat:
//   * decision latency   - decide_on_snapshots() throughput with the
//                          decision cache off (every decision pays spoof
//                          validation, enrichment and the policy query);
//   * snapshot publish   - apply one binding event + snapshot_view(), i.e.
//                          the O(changed) incremental-publication path;
//   * memory             - VmRSS growth per binding during the load.
//
// The rule population is held constant across points so the sweep isolates
// entity-count scaling from rule-count scaling. A second sweep, over rule
// counts (1k, 10k, 100k), measures policy publication: one insert +
// snapshot_view(), then one revoke + snapshot_view(), repeatedly — what a
// PDP rule change between two Packet-in bursts costs the control thread —
// as publishes/s and heap allocations per publish.
//
// Gates (the acceptance criteria, enforced in-process):
//   * decisions/s at the largest point >= half the smallest point (latency
//     stays within 2x from 10k to 1M entities);
//   * publishes/s at the largest point >= a tenth of the smallest point
//     (publication is O(changed), not O(total));
//   * policy publishes/s at 100k rules >= a tenth of the rate at 1k rules
//     (the copy-on-write policy index publishes in O(changed));
// plus committed per-point floors via --check-baseline.
//
// Usage:
//   bench_erm_scale                          full sweep (to 1M entities)
//   bench_erm_scale --smoke                  CI-bounded sweep (to 50k)
//   bench_erm_scale --check-baseline <json>  also gate against floors
// Env:
//   DFI_SCALE_ENTITIES=<n>  cap the sweep at the largest standard point
//                           with at most n entities (50000 on PR CI,
//                           1000000 nightly).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "core/decision_cache.h"
#include "core/entity_resolution.h"
#include "core/pcp_decide.h"
#include "core/policy_manager.h"
#include "host_info.h"
#include "net/packet.h"
#include "testbed/scale_generator.h"

namespace {

// Counting global operator new (this binary is single-threaded): policy
// publication reports its heap allocations per publish.
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfi {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Current resident set size in bytes (Linux /proc; 0 if unreadable).
std::size_t rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

struct ScalePoint {
  std::string name;
  std::uint32_t hosts = 0;
  std::size_t entities = 0;   // nominal: 4 per host
  std::size_t bindings = 0;
  double load_s = 0;
  double decisions_per_sec = 0;
  double publish_per_sec = 0;
  double rss_per_binding_bytes = 0;
  std::uint64_t cow_page_copies = 0;
};

ScalePoint run_point(std::uint32_t hosts, std::uint32_t rules, bool smoke) {
  ScaleConfig config;
  config.hosts = hosts;
  ScaleGenerator gen(config);

  ScalePoint point;
  point.name = "h" + std::to_string(hosts);
  point.hosts = hosts;
  point.entities = std::size_t{hosts} * 4;

  const std::size_t rss_before = rss_bytes();
  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);

  // ------------------------------------------------------------- load
  const Clock::time_point load_start = Clock::now();
  gen.emit_initial_bindings([&](const BindingEvent& event) { erm.apply(event); });
  point.load_s = seconds_since(load_start);
  point.bindings = erm.binding_count();
  const std::size_t rss_after = rss_bytes();
  point.rss_per_binding_bytes =
      point.bindings == 0
          ? 0
          : static_cast<double>(rss_after - rss_before) / point.bindings;

  // Constant rule population across points. Highest priority first: the
  // insert-time overlap sweep looks only at strictly-lower buckets, which
  // are still empty in this order, so load time measures indexing, not the
  // (separately benched) consistency sweep.
  const std::vector<PolicyRule> rule_pop = gen.make_rules(rules);
  constexpr std::uint32_t kPriorityLevels = 8;
  for (std::uint32_t i = 0; i < rule_pop.size(); ++i) {
    const std::uint32_t level =
        kPriorityLevels - (i * kPriorityLevels) / static_cast<std::uint32_t>(rule_pop.size());
    manager.insert(rule_pop[i], PdpPriority{level}, "scale-bench");
  }

  // ------------------------------------------------- decision latency
  // Pre-built Packet-in population; cache off, so every decision runs
  // spoof validation + enrichment + the policy query. Flow i is built to
  // match a top-priority-bucket rule j (its endpoint is the rule's target
  // host, or its port for the port-only wildcard rules), so every flow's
  // bucket walk terminates at the first bucket at every population size
  // and the sweep isolates entity-count scaling. Random flows would
  // instead give the small point ~rules/hosts (incidental, early-exiting)
  // matches per flow and the large point almost none — comparing a
  // hit-heavy workload against one that walks every bucket's posting
  // lists, a rule-density artifact, not an entity-plane cost.
  const std::vector<std::uint32_t> targets = gen.rule_targets(rules);
  constexpr std::size_t kTuples = 512;
  std::vector<DecisionInput> inputs;
  inputs.reserve(kTuples);
  const std::uint32_t top_bucket = rules / kPriorityLevels;  // level-8 rules
  for (std::size_t i = 0; i < kTuples; ++i) {
    const std::uint32_t j = static_cast<std::uint32_t>((i * 16001u) % top_bucket);
    const std::uint32_t t = targets[j];
    const std::uint32_t other = targets[(j + 1) % rules];
    const std::uint32_t kind = j % 8;
    // Kinds 1/4/6 pivot on the destination endpoint; 7 is port-only.
    const bool target_is_dst = kind == 1 || kind == 4 || kind == 6;
    const std::uint32_t src = target_is_dst ? other : t;
    const std::uint32_t dst = target_is_dst ? t : other;
    const std::uint16_t dport =
        kind == 7 ? static_cast<std::uint16_t>(1024 + j % 40000) : 445;
    const Packet packet = make_tcp_packet(
        gen.mac_of(src), gen.mac_of(dst), gen.ip_of(src), gen.ip_of(dst),
        static_cast<std::uint16_t>(40000 + i % 1024), dport);
    PacketInMsg msg;
    msg.in_port = gen.port_of(src);
    msg.table_id = 0;
    msg.data = packet.serialize();
    DecisionInput input = make_decision_input(gen.switch_of(src), msg);
    input.prior_src_location = gen.port_of(src);
    inputs.push_back(std::move(input));
  }

  PcpConfig pcp_config;
  pcp_config.zero_latency = true;
  pcp_config.decision_cache_capacity = 0;
  DecisionCache<PcpDecision> cache(0);
  const DecisionSnapshots snapshots{erm.snapshot_view(), manager.snapshot_view()};

  const std::size_t decisions = smoke ? 20000 : 100000;
  const Clock::time_point decide_start = Clock::now();
  std::size_t allowed = 0;
  for (std::size_t i = 0; i < decisions; ++i) {
    const DecisionEffects effects =
        decide_on_snapshots(inputs[i % kTuples], snapshots, cache, pcp_config);
    allowed += effects.decision.allow ? 1 : 0;
  }
  point.decisions_per_sec =
      static_cast<double>(decisions) / seconds_since(decide_start);

  // --------------------------------------------- incremental publication
  // One binding event, one publication, repeatedly: the cost under test is
  // exactly what a log-on between two Packet-in bursts costs the control
  // thread. Alternates retract/assert so every event is a real change.
  const std::uint64_t cow_before = erm.cow_stats().page_copies;
  const std::size_t publishes = smoke ? 2000 : 10000;
  const Clock::time_point publish_start = Clock::now();
  for (std::size_t i = 0; i < publishes; ++i) {
    BindingEvent event;
    event.kind = BindingKind::kUserHost;
    event.retracted = (i % 2 == 0);
    const std::uint32_t h = static_cast<std::uint32_t>((i / 2) % hosts);
    event.user = Username{gen.user_name(h)};
    event.host = Hostname{gen.host_name(h)};
    erm.apply(event);
    const ErmSnapshot snap = erm.snapshot_view();
    if (snap.epoch() == 0) std::abort();  // keep the loop un-elidable
  }
  point.publish_per_sec =
      static_cast<double>(publishes) / seconds_since(publish_start);
  point.cow_page_copies = erm.cow_stats().page_copies - cow_before;

  std::printf(
      "%-8s %9zu entities %9zu bindings  load %6.2fs  %9.0f decisions/s "
      "(%zu allowed)  %8.0f publishes/s  %5.0f B/binding  %llu page copies\n",
      point.name.c_str(), point.entities, point.bindings, point.load_s,
      point.decisions_per_sec, allowed, point.publish_per_sec,
      point.rss_per_binding_bytes,
      static_cast<unsigned long long>(point.cow_page_copies));
  return point;
}

struct PolicyPoint {
  std::string name;
  std::uint32_t rules = 0;
  double publish_per_sec = 0;
  double allocs_per_publish = 0;
};

// Policy publication at `rules` rules: the base population of the entity
// sweep (make_rules over 8 priorities), then cycles of insert +
// snapshot_view() and revoke + snapshot_view(). The churned rule repeats
// the last source-user rule of the lowest priority with a distinct port:
// it files under a populated posting list and its consistency sweep has no
// lower bucket to visit, so the loop times publication, not the sweep.
PolicyPoint run_policy_point(std::uint32_t rules, bool smoke) {
  ScaleConfig config;
  config.hosts = 25000;
  const ScaleGenerator gen(config);
  MessageBus bus;
  PolicyManager manager(bus);
  const std::vector<PolicyRule> rule_pop = gen.make_rules(rules);
  constexpr std::uint32_t kPriorityLevels = 8;
  for (std::uint32_t i = 0; i < rules; ++i) {
    manager.insert(rule_pop[i], PdpPriority{kPriorityLevels - (i * kPriorityLevels) / rules},
                   "scale-bench");
  }
  PolicyRule probe = rule_pop[rules - 5];  // make_rules kind 3: source user
  probe.destination.l4_port = 9;
  if (!probe.source.user) std::abort();
  manager.snapshot_view();

  const std::size_t cycles = smoke ? 2000 : 10000;
  const std::uint64_t allocs_before = g_allocations;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < cycles; ++i) {
    const PolicyRuleId id = manager.insert(probe, PdpPriority{1}, "scale-bench-churn");
    if (manager.snapshot_view()->epoch() == 0) std::abort();
    if (!manager.revoke(id)) std::abort();
    if (manager.snapshot_view()->epoch() == 0) std::abort();
  }
  const double seconds = seconds_since(start);
  PolicyPoint point;
  point.name = "r" + std::to_string(rules);
  point.rules = rules;
  point.publish_per_sec = static_cast<double>(2 * cycles) / seconds;
  point.allocs_per_publish =
      static_cast<double>(g_allocations - allocs_before) / static_cast<double>(2 * cycles);
  std::printf("%-8s %9u rules  %8.0f policy publishes/s (%6.2f us)  %5.1f allocations/publish\n",
              point.name.c_str(), rules, point.publish_per_sec, 1e6 / point.publish_per_sec,
              point.allocs_per_publish);
  return point;
}

void write_json(const char* path, const std::vector<ScalePoint>& points,
                const std::vector<PolicyPoint>& policy_points, double decision_ratio,
                double publish_ratio, double policy_publish_ratio) {
  std::ofstream out(path);
  out << "{\n";
  dfi::bench::write_host_json(out);
  out << "  \"bench\": \"erm_scale\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    out << "    {\"point\": \"" << p.name << "\", \"hosts\": " << p.hosts
        << ", \"entities\": " << p.entities << ", \"bindings\": " << p.bindings
        << ", \"load_s\": " << p.load_s
        << ", \"decisions_per_sec\": " << p.decisions_per_sec
        << ", \"publish_per_sec\": " << p.publish_per_sec
        << ", \"rss_per_binding_bytes\": " << p.rss_per_binding_bytes
        << ", \"cow_page_copies\": " << p.cow_page_copies << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"policy_points\": [\n";
  for (std::size_t i = 0; i < policy_points.size(); ++i) {
    const PolicyPoint& p = policy_points[i];
    out << "    {\"point\": \"" << p.name << "\", \"rules\": " << p.rules
        << ", \"policy_publish_per_sec\": " << p.publish_per_sec
        << ", \"allocs_per_publish\": " << p.allocs_per_publish << "}"
        << (i + 1 < policy_points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gates\": {\"decision_ratio\": " << decision_ratio
      << ", \"publish_ratio\": " << publish_ratio
      << ", \"policy_publish_ratio\": " << policy_publish_ratio << "}\n}\n";
}

// Minimal scan: the numeric value of `key` inside the baseline object whose
// "point" equals `point`.
bool baseline_value(const std::string& json, const std::string& point,
                    const char* key, double* out) {
  const std::string anchor = "\"point\": \"" + point + "\"";
  std::size_t at = json.find(anchor);
  if (at == std::string::npos) return false;
  const std::size_t end = json.find('}', at);
  const std::string want = std::string("\"") + key + "\":";
  const std::size_t k = json.find(want, at);
  if (k == std::string::npos || k > end) return false;
  *out = std::strtod(json.c_str() + k + want.size(), nullptr);
  return true;
}

int check_baseline(const char* path, const std::vector<ScalePoint>& points,
                   const std::vector<PolicyPoint>& policy_points) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  int failures = 0;
  for (const ScalePoint& p : points) {
    double decide_floor = 0, publish_floor = 0, rss_ceiling = 0;
    if (!baseline_value(json, p.name, "decisions_per_sec_floor", &decide_floor) ||
        !baseline_value(json, p.name, "publish_per_sec_floor", &publish_floor) ||
        !baseline_value(json, p.name, "rss_per_binding_ceiling", &rss_ceiling)) {
      std::fprintf(stderr, "FAIL: baseline %s lacks point \"%s\"\n", path,
                   p.name.c_str());
      ++failures;
      continue;
    }
    // Floors are committed far below quiet-machine measurements; >10%
    // under one is a scaling regression, not noise.
    if (p.decisions_per_sec < 0.9 * decide_floor) {
      std::fprintf(stderr, "FAIL: %s %.0f decisions/s under floor %.0f\n",
                   p.name.c_str(), p.decisions_per_sec, decide_floor);
      ++failures;
    }
    if (p.publish_per_sec < 0.9 * publish_floor) {
      std::fprintf(stderr, "FAIL: %s %.0f publishes/s under floor %.0f\n",
                   p.name.c_str(), p.publish_per_sec, publish_floor);
      ++failures;
    }
    if (rss_ceiling > 0 && p.rss_per_binding_bytes > rss_ceiling) {
      std::fprintf(stderr, "FAIL: %s %.0f B/binding over ceiling %.0f\n",
                   p.name.c_str(), p.rss_per_binding_bytes, rss_ceiling);
      ++failures;
    }
    if (failures == 0) {
      std::printf("baseline ok: %-8s %9.0f decisions/s  %8.0f publishes/s  "
                  "%5.0f B/binding\n",
                  p.name.c_str(), p.decisions_per_sec, p.publish_per_sec,
                  p.rss_per_binding_bytes);
    }
  }
  for (const PolicyPoint& p : policy_points) {
    double floor = 0;
    if (!baseline_value(json, p.name, "policy_publish_per_sec_floor", &floor)) {
      std::fprintf(stderr, "FAIL: baseline %s lacks point \"%s\"\n", path, p.name.c_str());
      ++failures;
    } else if (p.publish_per_sec < 0.9 * floor) {
      std::fprintf(stderr, "FAIL: %s %.0f policy publishes/s under floor %.0f\n",
                   p.name.c_str(), p.publish_per_sec, floor);
      ++failures;
    } else {
      std::printf("baseline ok: %-8s %8.0f policy publishes/s\n", p.name.c_str(),
                  p.publish_per_sec);
    }
  }
  return failures == 0 ? 0 : 1;
}

int run(bool smoke, const char* baseline_path) {
  // Standard points (entities = 4x hosts). Smoke tops out at 50k entities,
  // the full sweep at 1M; DFI_SCALE_ENTITIES caps either.
  std::vector<std::uint32_t> hosts =
      smoke ? std::vector<std::uint32_t>{2500, 12500}
            : std::vector<std::uint32_t>{2500, 25000, 250000};
  std::size_t cap = smoke ? 50000 : 1000000;
  if (const char* env = std::getenv("DFI_SCALE_ENTITIES")) {
    cap = std::strtoull(env, nullptr, 10);
  }
  while (hosts.size() > 1 && std::size_t{hosts.back()} * 4 > cap) hosts.pop_back();

  const std::uint32_t rules = smoke ? 5000 : 100000;
  std::vector<ScalePoint> points;
  for (const std::uint32_t h : hosts) points.push_back(run_point(h, rules, smoke));

  const ScalePoint& small = points.front();
  const ScalePoint& large = points.back();
  const double decision_ratio =
      large.decisions_per_sec > 0 ? small.decisions_per_sec / large.decisions_per_sec : 1e9;
  const double publish_ratio =
      large.publish_per_sec > 0 ? small.publish_per_sec / large.publish_per_sec : 1e9;

  std::vector<PolicyPoint> policy_points;
  for (const std::uint32_t r : {1000u, 10000u, 100000u}) {
    policy_points.push_back(run_policy_point(r, smoke));
  }
  const PolicyPoint& few = policy_points.front();
  const PolicyPoint& many = policy_points.back();
  const double policy_publish_ratio =
      many.publish_per_sec > 0 ? few.publish_per_sec / many.publish_per_sec : 1e9;
  write_json("BENCH_erm_scale.json", points, policy_points, decision_ratio, publish_ratio,
             policy_publish_ratio);

  int failures = 0;
  if (points.size() > 1) {
    // Acceptance gates: decision latency flat within 2x, publication cost
    // within 10x, from the smallest point to the largest.
    if (decision_ratio > 2.0) {
      std::fprintf(stderr,
                   "FAIL: decisions/s degraded %.2fx from %s to %s (gate: 2x)\n",
                   decision_ratio, small.name.c_str(), large.name.c_str());
      ++failures;
    }
    if (publish_ratio > 10.0) {
      std::fprintf(stderr,
                   "FAIL: publish rate degraded %.2fx from %s to %s (gate: 10x)\n",
                   publish_ratio, small.name.c_str(), large.name.c_str());
      ++failures;
    }
    if (failures == 0) {
      std::printf("gates ok: decision ratio %.2fx (<=2x), publish ratio %.2fx (<=10x)\n",
                  decision_ratio, publish_ratio);
    }
  }
  if (policy_publish_ratio > 10.0) {
    std::fprintf(stderr,
                 "FAIL: policy publish rate degraded %.2fx from %s to %s (gate: 10x)\n",
                 policy_publish_ratio, few.name.c_str(), many.name.c_str());
    ++failures;
  } else {
    std::printf("gates ok: policy publish ratio %.2fx (<=10x)\n", policy_publish_ratio);
  }
  if (baseline_path != nullptr) failures += check_baseline(baseline_path, points, policy_points);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dfi

int main(int argc, char** argv) {
  bool smoke = false;
  const char* baseline = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--check-baseline <json>]\n", argv[0]);
      return 2;
    }
  }
  return dfi::run(smoke, baseline);
}
