// Fixed-width table rendering for the experiment binaries, so every bench
// prints the same rows/series the paper reports, side by side with the
// paper's numbers.
#pragma once

#include <string>
#include <vector>

namespace dfi {

struct HealthStats;
struct JournalStats;
struct PcpStats;
struct ProxyStats;

class Report {
 public:
  explicit Report(std::string title);

  void columns(std::vector<std::string> headers);
  void row(std::vector<std::string> cells);
  void note(std::string text);

  // Render to stdout.
  void print() const;

  static std::string fmt(double value, int decimals = 2);

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> notes_;
};

// Recovery/degradation summary (DESIGN.md §6): renders the failure-time
// counters, each read from its owner — degraded window entries/exits and
// reconnect backoff retries (HealthMonitor), gated Packet-in outcomes
// (DfiProxy), Table-0 resync clears (PCP) and journal replay activity
// (Journal).
Report recovery_report(const HealthStats& health, const ProxyStats& proxy,
                       const PcpStats& pcp, const JournalStats& journal);

}  // namespace dfi
