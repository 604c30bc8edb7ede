// End-to-end benchmark of the DFI proxy over loopback TCP.
//
//   dfi_perfbench --workload new_flows|policy_churn|relay --seed N
//                 --seconds S --trace 0|1 [--spans-out PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object {correct, attempted, failed, metrics},
// and the exit code is 0 only when every answer was correct. README.md in
// this directory defines every metric and workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/logging.h"
#include "inprocess.h"
#include "scenario.h"
#include "socket_run.h"

namespace perfbench {
namespace {

constexpr int kSetups = 8;
constexpr std::uint64_t kWarmupOps = 30000;
// The timed window is split into rounds of about one second each.
constexpr std::uint64_t kUnloadedOpsPerRound = 300;
constexpr std::uint32_t kRevokeProbesPerRound = 10;
// Traced run: one-in-flight operations for asyncio.transport_p50_us.
constexpr std::uint64_t kUnloadedOps = 3000;
constexpr std::uint64_t kInprocOps = 2000;

struct Options {
  Workload workload = Workload::kNewFlows;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dfi_perfbench: %s\nusage: dfi_perfbench --workload new_flows|policy_churn|relay "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      have_workload = true;
      if (value == "new_flows") {
        options.workload = Workload::kNewFlows;
      } else if (value == "policy_churn") {
        options.workload = Workload::kPolicyChurn;
      } else if (value == "relay") {
        options.workload = Workload::kRelay;
      } else {
        usage(("unknown workload " + value).c_str());
      }
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      if (!(options.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

// Ordered metric set printed as lines and as the final JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back({name, value, unit});
    std::printf("%-32s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string samples(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// CPU share (percent of the window) of every thread, labelled.
struct ThreadShare {
  std::string label;
  double pct = 0;
};

std::vector<ThreadShare> thread_shares(const PhaseResult& window, int gen_tid, int loop_tid) {
  std::vector<ThreadShare> out;
  const double window_ns = window.seconds * 1e9;
  int worker = 0;
  for (const ThreadCpu& end : window.cpu_end) {
    std::uint64_t start_ns = 0;
    bool found = false;
    for (const ThreadCpu& start : window.cpu_start) {
      if (start.tid == end.tid) {
        start_ns = start.cpu_ns;
        found = true;
      }
    }
    if (!found) continue;
    ThreadShare share;
    share.pct = 100.0 * static_cast<double>(end.cpu_ns - start_ns) / window_ns;
    if (end.tid == gen_tid) {
      share.label = "generator";
    } else if (end.tid == loop_tid) {
      share.label = "loop";
    } else {
      share.label = "worker" + std::to_string(worker++);
    }
    out.push_back(share);
  }
  return out;
}

// Per-thread CPU time summed over several windows.
class CpuTotals {
 public:
  void add(const PhaseResult& window) {
    seconds_ += window.seconds;
    for (const ThreadCpu& end : window.cpu_end) {
      for (const ThreadCpu& start : window.cpu_start) {
        if (start.tid == end.tid) ns_[end.tid] += end.cpu_ns - start.cpu_ns;
      }
    }
  }
  std::vector<ThreadShare> shares(int gen_tid, int loop_tid) const {
    PhaseResult total;
    total.seconds = seconds_;
    for (const auto& [tid, ns] : ns_) {
      total.cpu_start.push_back({tid, 0});
      total.cpu_end.push_back({tid, ns});
    }
    return thread_shares(total, gen_tid, loop_tid);
  }

 private:
  double seconds_ = 0;
  std::map<int, std::uint64_t> ns_;
};

double share_of(const std::vector<ThreadShare>& shares, const std::string& label) {
  for (const auto& s : shares) {
    if (s.label == label) return s.pct;
  }
  return 0.0;
}

double mean_worker_share(const std::vector<ThreadShare>& shares) {
  double sum = 0;
  int n = 0;
  for (const auto& s : shares) {
    if (s.label.rfind("worker", 0) == 0) {
      sum += s.pct;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

void print_saturation(const std::vector<ThreadShare>& shares) {
  std::string line = "saturation (CPU % of the timed window):";
  const ThreadShare* busiest = nullptr;
  for (const auto& s : shares) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s=%.1f", s.label.c_str(), s.pct);
    line += buf;
    if (busiest == nullptr || s.pct > busiest->pct) busiest = &s;
  }
  if (busiest != nullptr) {
    line += "  busiest=" + busiest->label;
    if (busiest->label == "generator") line += "  WARNING: the generator bounds ops_per_s";
  }
  std::printf("%s\n", line.c_str());
}

void print_spans(const SpanRecorder& spans, const char* title) {
  std::printf("spans [%s]: %-28s %9s %10s %10s %11s %11s %9s\n", title, "name", "count",
              "p50_us", "p99_us", "total_ms", "self_ms", "allocs");
  for (const SpanSummary& s : summarize(spans)) {
    if (s.count == 0) continue;
    std::printf("spans [%s]: %-28s %9zu %10.2f %10.2f %11.2f %11.2f %9.2f\n", title,
                s.name.c_str(), s.count, s.p50_us, s.p99_us, s.total_ms, s.self_ms,
                s.allocs_mean);
  }
}

double span_p50(const SpanRecorder& spans, const std::string& name, std::size_t* n = nullptr) {
  const std::vector<double> d = durations_us(spans, name);
  if (n != nullptr) *n = d.size();
  return percentile(d, 50.0);
}

// A span-derived p50 metric, noting its sample count.
void add_span(Metrics& metrics, const std::string& metric, const SpanRecorder& spans,
              const std::string& span) {
  std::size_t n = 0;
  const double p50 = span_p50(spans, span, &n);
  metrics.add(metric, p50, "us", samples(n));
}

double span_allocs(const SpanRecorder& spans, const std::string& name) {
  for (const SpanSummary& s : summarize(spans)) {
    if (s.name == name) return s.allocs_mean;
  }
  return 0.0;
}

struct RunChecks {
  bool ok = true;
  std::vector<std::string> errors;
  void fail(const std::string& what) {
    ok = false;
    errors.push_back(what);
  }
};

// Post-run consistency of the socket-served system (loop thread stopped).
void check_system(const Scenario& scenario, Generator& gen, dfi::DfiSystem& system,
                  RunChecks& checks) {
  if (!gen.quiescent()) checks.fail("operations or expected DELETEs left open at the end");
  for (const auto& e : gen.errors()) checks.fail(e);
  system.pcp().wait_idle();
  const dfi::PcpStats& pcp = system.pcp().stats();
  const std::uint64_t outcomes =
      pcp.allowed + pcp.denied + pcp.default_denied + pcp.spoof_denied + pcp.dropped_overload;
  if (pcp.packet_ins != outcomes) {
    checks.fail("PcpStats do not reconcile: packet_ins=" + std::to_string(pcp.packet_ins) +
                " outcomes=" + std::to_string(outcomes));
  }
  if (pcp.dropped_overload != 0) {
    checks.fail("PCP dropped " + std::to_string(pcp.dropped_overload) + " Packet-ins");
  }
  if (scenario.workload() != Workload::kRelay && pcp.packet_ins != gen.packet_ins_sent()) {
    checks.fail("PCP saw " + std::to_string(pcp.packet_ins) + " Packet-ins, generator sent " +
                std::to_string(gen.packet_ins_sent()));
  }
}

int run(const Options& options) {
  dfi::Logger::instance().set_level(dfi::LogLevel::kError);
  const char* name = workload_name(options.workload);
  std::printf("host %s\n", host_fingerprint_json().c_str());
  std::printf("workload %s seed %llu seconds %.3f trace %d\n", name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  const std::uint64_t build0 = now_ns();
  const Scenario scenario(options.workload, options.seed);
  std::printf(
      "inputs: %u hosts, %zu bindings, %u rules over %u priorities, switches dpid %llu and "
      "%llu, built in %.2f s (untimed)\n",
      kHosts, scenario.bindings(), kRules, kPriorityLevels,
      static_cast<unsigned long long>(scenario.dpid(0).value),
      static_cast<unsigned long long>(scenario.dpid(1).value),
      static_cast<double>(now_ns() - build0) / 1e9);
  if (options.workload != Workload::kRelay) {
    const Mix& mix = scenario.mix();
    const double total = static_cast<double>(mix.allowed + mix.denied + mix.default_denied);
    std::printf(
        "mix: aimed allow %.1f%% deny %.1f%% none %.1f%%; decided allowed %.1f%% denied %.1f%% "
        "default-denied %.1f%% (%.0f flows)\n",
        100 * mix.aimed_allow / total, 100 * mix.aimed_deny / total, 100 * mix.aimed_none / total,
        100 * mix.allowed / total, 100 * mix.denied / total, 100 * mix.default_denied / total,
        total);
  }

  SocketStack stack(scenario);
  std::vector<double> setup_s, recover_s;
  // Set-up i runs on CPU i mod nproc: on a shared host one vCPU can be
  // 1.6x slower than another for minutes, and the scheduler tends to keep
  // a thread where it started, so an unpinned median measures placement.
  for (int i = 0; i < kSetups; ++i) {
    pin_current_thread(static_cast<unsigned>(i));
    const SocketStack::SetupTiming timing = stack.setup();
    unpin_all_threads();
    setup_s.push_back(timing.setup_s);
    recover_s.push_back(timing.recover_s);
  }
  std::printf("set-ups (s):");
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::printf(" %.4f (recover %.4f)", setup_s[i], recover_s[i]);
  }
  std::printf("\n");
  Generator gen(scenario, stack);
  const int gen_tid = current_tid();
  gen.warm_up(kWarmupOps);
  // Memory to serve the state: read after set-up and warm-up, not at exit,
  // because the PCP and proxy keep every latency sample they take, so
  // memory at exit grows with throughput x duration.
  const double rss_mb = peak_rss_mb();

  Metrics metrics;
  RunChecks checks;
  if (!options.trace) {
    // The timed window is split into rounds of about a second; each is a
    // loaded part, then an unloaded part and idle revoke probes. On a
    // shared host the speed of this program switches between levels that
    // last seconds (README.md, "Noise hygiene"); a median over rounds jumps
    // with the share of rounds spent at each level, a mean moves with it
    // smoothly. So throughput is every loaded operation over all loaded
    // time, and the one-at-a-time latency is a mean of per-round medians.
    const int rounds = std::max(1, static_cast<int>(std::lround(options.seconds)));
    std::vector<double> rates, p50s, p90s, p99s, lat1s;
    CpuTotals cpu;
    std::uint64_t ops = 0;
    double loaded_s = 0;
    for (int round = 0; round < rounds; ++round) {
      const PhaseResult window = gen.loaded(options.seconds / rounds, nullptr);
      rates.push_back(ratio(static_cast<double>(window.ops), window.seconds));
      p50s.push_back(window.lat.p50);
      p90s.push_back(window.lat.p90);
      p99s.push_back(window.lat.p99);
      ops += window.ops;
      loaded_s += window.seconds;
      cpu.add(window);
      lat1s.push_back(gen.unloaded(kUnloadedOpsPerRound, nullptr).lat.p50);
      gen.revoke_probes(kRevokeProbesPerRound);
    }
    std::printf("round ops_per_s:");
    for (const double rate : rates) std::printf(" %.0f", rate);
    std::printf("\n");
    const Dist loaded_revokes = gen.revokes();
    const Dist probe_revokes = gen.probe_revokes();
    const int loop_tid = stack.loop_tid();
    stack.stop_loop();
    check_system(scenario, gen, stack.system(), checks);
    print_saturation(cpu.shares(gen_tid, loop_tid));
    if (options.workload == Workload::kPolicyChurn) {
      std::printf("churn: %llu cycles, %llu inserts/revokes\n",
                  static_cast<unsigned long long>(gen.churn_cycles()),
                  static_cast<unsigned long long>(gen.inserts_posted()));
    }
    const std::string over = " median of " + std::to_string(rounds) + " rounds";
    metrics.add("setup_s", median(setup_s), "s", samples(setup_s.size()) + " setups");
    metrics.add("ops_per_s", ratio(static_cast<double>(ops), loaded_s), "1/s",
                samples(ops) + " ops over " + std::to_string(rounds) + " rounds");
    // Loaded latency is printed but not gated: with a fixed number in
    // flight it is the mirror of ops_per_s (Little's law), and its
    // percentiles spread more from run to run on a shared host (README.md).
    for (const auto& [label, values] : {std::pair{"lat_p50_us (not gated)", &p50s},
                                        std::pair{"lat_p90_us (not gated)", &p90s},
                                        std::pair{"lat_p99_us (not gated)", &p99s}}) {
      std::printf("%-32s %14.4f %-6s %s\n", label, median(*values), "us",
                  (samples(ops) + over).c_str());
    }
    metrics.add("lat1_p50_us", mean(lat1s), "us",
                samples(kUnloadedOpsPerRound * rounds) + " one in flight, mean of " +
                    std::to_string(rounds) + " round medians");
    metrics.add("revoke1_p90_us", probe_revokes.p90, "us",
                samples(probe_revokes.n) + " idle probes, one at a time");
    // Revocations under churn load are printed but not gated: a DELETE
    // leaves either before or after a policy publication (milliseconds), so
    // the percentiles flip between those two modes from run to run.
    if (options.workload == Workload::kPolicyChurn) {
      std::printf("%-32s %14.4f %-6s %s\n", "revoke_p50_us (not gated)", loaded_revokes.p50,
                  "us", (samples(loaded_revokes.n) + " under load").c_str());
      std::printf("%-32s %14.4f %-6s %s\n", "revoke_p90_us (not gated)", loaded_revokes.p90,
                  "us", (samples(loaded_revokes.n) + " under load").c_str());
    }
    metrics.add("peak_rss_mb", rss_mb, "MB", "VmHWM after set-up and warm-up");
  } else {
    // (a) Socket run: four loaded quarters in the order untraced, traced,
    // traced, untraced, so drift in the host's speed cancels out of
    // trace.overhead_pct instead of landing on one side.
    const double quarter = options.seconds / 4;
    const int loop_tid = stack.loop_tid();
    auto& system = stack.system();
    const PhaseResult plain1 = gen.loaded(quarter, nullptr);
    const auto loop0 = stack.call_on_loop([&] { return stack.loop().stats(); });
    const auto proxy0 = stack.call_on_loop([&] { return system.proxy().stats(); });
    const std::uint64_t ops0 = gen.completed();
    SpanRecorder op_spans(1 << 20);
    stack.set_loop_tracing(true);
    const PhaseResult traced1 = gen.loaded(quarter, &op_spans);
    const PhaseResult traced2 = gen.loaded(quarter, &op_spans);
    stack.set_loop_tracing(false);
    const double traced_ops = static_cast<double>(gen.completed() - ops0);
    const auto loop1 = stack.call_on_loop([&] { return stack.loop().stats(); });
    const auto proxy1 = stack.call_on_loop([&] { return system.proxy().stats(); });
    const PhaseResult plain2 = gen.loaded(quarter, nullptr);
    const PhaseResult single = gen.unloaded(kUnloadedOps, &op_spans);
    stack.stop_loop();
    check_system(scenario, gen, system, checks);
    const dfi::PcpStats pcp = system.pcp().stats();
    const dfi::DecisionCacheStats cache = system.pcp().aggregate_decision_cache_stats();
    const PoolLatency socket_pool = pool_latency(system.pcp());
    CpuTotals cpu;
    cpu.add(plain1);
    cpu.add(plain2);
    const std::vector<ThreadShare> shares = cpu.shares(gen_tid, loop_tid);
    print_saturation(shares);
    print_spans(op_spans, "socket");
    print_spans(stack.loop_spans(), "loop");
    if (!options.spans_out.empty() &&
        !(write_spans(op_spans, options.spans_out, "socket") &&
          write_spans(stack.loop_spans(), options.spans_out, "loop"))) {
      std::fprintf(stderr, "dfi_perfbench: could not write %s\n", options.spans_out.c_str());
    }
    stack.teardown();

    // (b) in-process replay and (c) isolated calls.
    const InprocResult inproc = run_inprocess(scenario, kInprocOps);
    print_spans(inproc.spans, "inproc");
    if (!options.spans_out.empty() && !write_spans(inproc.spans, options.spans_out, "inproc")) {
      std::fprintf(stderr, "dfi_perfbench: could not write %s\n", options.spans_out.c_str());
    }
    if (inproc.mismatches != 0) {
      checks.fail("in-process replay: " + std::to_string(inproc.mismatches) + " wrong answers");
      for (const auto& e : inproc.errors) checks.fail(e);
    }

    const double plain_ops = static_cast<double>(plain1.ops + plain2.ops);
    const double plain_rate = ratio(plain_ops, plain1.seconds + plain2.seconds);
    const double traced_rate = ratio(static_cast<double>(traced1.ops + traced2.ops),
                                     traced1.seconds + traced2.seconds);
    std::printf("socket run: untraced %.1f ops/s, traced %.1f ops/s\n", plain_rate, traced_rate);
    const SpanRecorder& s = inproc.spans;
    const double turnaround = percentile(inproc.turnaround_us, 50);
    std::vector<double> batch_end = durations_us(s, "proxy.switch_batch_end");
    for (double d : durations_us(s, "proxy.controller_batch_end")) batch_end.push_back(d);
    const double frames_total =
        static_cast<double>((proxy1.frames_fast_path - proxy0.frames_fast_path) +
                            (proxy1.frames_patched - proxy0.frames_patched) +
                            (proxy1.frames_decoded - proxy0.frames_decoded));
    const PoolLatency& pool = socket_pool.samples > 0 ? socket_pool : inproc.pool;

    metrics.add("asyncio.polls_per_op", ratio(static_cast<double>(loop1.polls - loop0.polls), traced_ops), "count");
    metrics.add("asyncio.dispatches_per_op",
                ratio(static_cast<double>(loop1.fd_dispatches - loop0.fd_dispatches), traced_ops), "count");
    metrics.add("asyncio.transport_p50_us", single.lat.p50 - turnaround, "us",
                "socket one-in-flight p50 minus in-process turnaround p50 " +
                    samples(inproc.turnaround_us.size()));
    metrics.add("loop.cpu_pct", share_of(shares, "loop"), "%");
    add_span(metrics, "proxy.switch_frame_p50_us", s, "proxy.switch_frame");
    add_span(metrics, "proxy.controller_frame_p50_us", s, "proxy.controller_frame");
    metrics.add("proxy.batch_end_p50_us", percentile(batch_end, 50), "us", samples(batch_end.size()));
    metrics.add("proxy.fast_path_ratio",
                ratio(static_cast<double>((proxy1.frames_fast_path - proxy0.frames_fast_path) +
                                          (proxy1.frames_patched - proxy0.frames_patched)),
                      frames_total),
                "ratio");
    metrics.add("proxy.decoded_per_op",
                ratio(static_cast<double>(proxy1.frames_decoded - proxy0.frames_decoded), traced_ops),
                "count");
    metrics.add("proxy.pool_hit_ratio",
                ratio(static_cast<double>(proxy1.pool_reuses - proxy0.pool_reuses),
                      static_cast<double>(proxy1.pool_acquires - proxy0.pool_acquires)),
                "ratio");
    add_span(metrics, "pcp.submit_p50_us", s, "pcp.handle_packet_in");
    metrics.add("pcp.allocs_per_submit", span_allocs(s, "pcp.handle_packet_in"), "count");
    metrics.add("pcp.items_per_submit", inproc.items_per_submit, "count");
    add_span(metrics, "pcp.wait_idle_p50_us", s, "pcp.wait_idle");
    metrics.add("pcp.wait_idle_share", inproc.wait_idle_share, "ratio");
    metrics.add("pcp.stale_redecide_ratio",
                ratio(static_cast<double>(pcp.stale_redecides), static_cast<double>(pcp.packet_ins)),
                "ratio");
    metrics.add("pcp.dropped_ratio",
                ratio(static_cast<double>(pcp.dropped_overload), static_cast<double>(pcp.packet_ins)),
                "ratio");
    const char* pool_source = socket_pool.samples > 0 ? "socket run" : "in-process (socket pool idle)";
    metrics.add("pool.decision_p50_us", pool.p50_us, "us", samples(pool.samples) + " " + pool_source);
    metrics.add("pool.decision_p99_us", pool.p99_us, "us", samples(pool.samples) + " " + pool_source);
    metrics.add("pool.worker_cpu_pct", mean_worker_share(shares), "%");
    metrics.add("pool.queue_depth_mean", inproc.queue_depth_mean, "count");
    add_span(metrics, "decide.parse_p50_us", s, "decide.parse");
    add_span(metrics, "decide.miss_p50_us", s, "decide.miss");
    add_span(metrics, "decide.hit_p50_us", s, "decide.hit");
    metrics.add("decide.allocs_per_miss", span_allocs(s, "decide.miss"), "count");
    add_span(metrics, "erm.enrich_p50_us", s, "erm.enrich");
    add_span(metrics, "erm.apply_p50_us", s, "erm.apply");
    add_span(metrics, "erm.snapshot_p50_us", s, "erm.snapshot");
    add_span(metrics, "policy.query_p50_us", s, "policy.query");
    metrics.add("policy.candidates_per_query", inproc.candidates_per_query, "count");
    add_span(metrics, "policy.insert_p50_us", s, "policy.insert");
    add_span(metrics, "policy.revoke_p50_us", s, "policy.revoke");
    add_span(metrics, "policy.publish_p50_us", s, "policy.publish");
    metrics.add("cache.hit_ratio", cache.hit_rate(), "ratio", samples(cache.lookups()) + " lookups");
    metrics.add("cache.stale_ratio",
                ratio(static_cast<double>(cache.stale_policy + cache.stale_binding),
                      static_cast<double>(cache.lookups())),
                "ratio");
    metrics.add("journal.recover_s", median(recover_s), "s", samples(recover_s.size()) + " setups");
    metrics.add("journal.bytes_per_mutation", inproc.journal_bytes_per_mutation, "B");
    add_span(metrics, "sim.run_p50_us", s, "sim.run");
    metrics.add("alloc.per_op", ratio(static_cast<double>(plain1.allocs + plain2.allocs), plain_ops),
                "count", "untraced window, all threads but the generator");
    metrics.add("gen.cpu_pct", share_of(shares, "generator"), "%");
    metrics.add("trace.overhead_pct", ratio(plain_rate - traced_rate, plain_rate) * 100.0, "%");
  }

  const bool correct = checks.ok && gen.failed() == 0;
  for (const auto& e : checks.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::uint64_t failed = gen.failed();
  if (!correct && failed == 0) failed = 1;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(gen.attempted()),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "dfi_perfbench: %s\n", e.what());
    return 2;
  }
}
