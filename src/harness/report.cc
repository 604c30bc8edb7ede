#include "harness/report.h"

#include <algorithm>
#include <cstdio>

#include "core/health_monitor.h"
#include "core/journal.h"
#include "core/pcp.h"
#include "core/proxy.h"

namespace dfi {

Report::Report(std::string title) : title_(std::move(title)) {}

void Report::columns(std::vector<std::string> headers) { headers_ = std::move(headers); }

void Report::row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void Report::note(std::string text) { notes_.push_back(std::move(text)); }

std::string Report::fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

void Report::print() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& cells : rows_) {
    for (std::size_t i = 0; i < cells.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  }

  std::printf("\n=== %s ===\n", title_.c_str());
  const auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("  ");
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::vector<std::string> separators;
  separators.reserve(widths.size());
  for (const std::size_t width : widths) separators.push_back(std::string(width, '-'));
  print_row(separators);
  for (const auto& cells : rows_) print_row(cells);
  for (const auto& text : notes_) std::printf("  note: %s\n", text.c_str());
  std::printf("\n");
}

Report recovery_report(const HealthStats& health, const ProxyStats& proxy,
                       const PcpStats& pcp, const JournalStats& journal) {
  Report report("Recovery & degraded-mode summary");
  report.columns({"counter", "value"});
  const auto row = [&report](const char* name, std::uint64_t value) {
    report.row({name, std::to_string(value)});
  };
  row("degraded entries", health.degraded_entries);
  row("degraded exits", health.degraded_exits);
  row("packet-ins suppressed while degraded (fail-secure)",
      proxy.degraded_suppressed);
  row("packet-ins forwarded while degraded (fail-open)",
      proxy.degraded_forwarded);
  row("reconnect backoff retries", health.backoff_retries);
  row("table-0 resync clears", pcp.resync_clears);
  row("journal replays", journal.replays);
  row("journal records replayed", journal.records_replayed);
  row("journal torn tails truncated", journal.torn_tails_truncated);
  return report;
}

}  // namespace dfi
