// Reproduces paper Figure 4: Time-to-First-Byte for new flows as a function
// of the new-flow arrival rate, with and without DFI.
//
// Paper shape: without DFI, TTFB is flat at 4-6 ms across all rates. With
// DFI, TTFB starts ~22 ms, rises to ~85 ms at 700 flows/sec (saturation
// onset), and past ~800 flows/sec the bounded queue drops flows, which
// re-enter on TCP retransmission — the mean plateaus around 200 ms with
// high variance.
#include <cstdio>
#include <vector>

#include "core/journal.h"
#include "harness/report.h"
#include "harness/ttfb.h"

using namespace dfi;

int main() {
  std::printf("DFI reproduction — Figure 4: TTFB vs flow arrival rate\n");
  std::printf("(series: no-DFI and DFI; paper reference points inline)\n");

  const std::vector<double> rates = {0,   100, 200, 300, 400, 500, 600,
                                     700, 800, 900, 1000, 1200, 1400};

  Report report("Figure 4: TTFB (ms) vs background flow rate (flows/sec)");
  report.columns({"rate", "no-DFI mean", "no-DFI sd", "DFI mean", "DFI sd",
                  "DFI drops", "paper ref"});

  // Recovery counters summed over the DFI series, one total per owner.
  HealthStats health_totals;
  ProxyStats proxy_totals;
  PcpStats pcp_totals;
  for (const double rate : rates) {
    TtfbConfig without;
    without.with_dfi = false;
    without.background_fps = rate;
    without.duration = seconds(20.0);
    const TtfbResult base = run_ttfb_experiment(without);

    TtfbConfig with;
    with.with_dfi = true;
    with.background_fps = rate;
    with.duration = seconds(20.0);
    const TtfbResult dfi = run_ttfb_experiment(with);

    health_totals.degraded_entries += dfi.health.degraded_entries;
    health_totals.degraded_exits += dfi.health.degraded_exits;
    health_totals.backoff_retries += dfi.health.backoff_retries;
    proxy_totals.degraded_suppressed += dfi.proxy.degraded_suppressed;
    proxy_totals.degraded_forwarded += dfi.proxy.degraded_forwarded;
    pcp_totals.resync_clears += dfi.pcp.resync_clears;

    std::string paper_ref = "-";
    if (rate == 0) paper_ref = "no-DFI 4-6; DFI ~22";
    if (rate == 700) paper_ref = "DFI ~85 (saturation begins)";
    if (rate >= 900) paper_ref = "DFI plateau ~200, high variance";

    report.row({Report::fmt(rate, 0), Report::fmt(base.ttfb_ms.mean()),
                Report::fmt(base.ttfb_ms.stddev()), Report::fmt(dfi.ttfb_ms.mean()),
                Report::fmt(dfi.ttfb_ms.stddev()),
                std::to_string(dfi.pcp.dropped_overload), paper_ref});
  }
  report.note("each row: 20 s run, probe every 250 ms; drops = PCP queue rejections");
  report.print();

  // Fault-free runs should show all-zero recovery counters — a nonzero row
  // here means a degraded window opened during the benchmark.
  // The TTFB runs keep no journal, so its replay rows read zero.
  Report recovery = recovery_report(health_totals, proxy_totals, pcp_totals, JournalStats{});
  recovery.note("summed over the DFI series above (health monitoring idle)");
  recovery.print();
  return 0;
}
