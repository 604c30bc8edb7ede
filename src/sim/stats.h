// Streaming statistics helpers for experiment harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace dfi {

// Welford's online mean/variance plus retained samples for percentiles.
// At most kMaxRetained samples are kept: past the cap each new sample
// replaces a uniformly chosen retained one (reservoir sampling from a fixed
// seed, so runs stay reproducible), which bounds memory on long-lived
// recorders such as the threaded pool's per-shard latencies. count, mean,
// sd, min and max stay exact; percentiles are exact below the cap.
class SampleStats {
 public:
  static constexpr std::size_t kMaxRetained = std::size_t{1} << 20;

  void add(double value);

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // Percentile in [0, 100] of the retained samples; sorts lazily.
  double percentile(double pct) const;
  std::size_t retained() const { return samples_.size(); }

  std::string summary() const;  // "mean=... sd=... n=..."

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  Rng reservoir_rng_{0x5a3b1e5eed5ull};  // fixed seed: reproducible runs
};

// (time, value) series for figure reproduction (infection curves, TTFB).
struct TimeSeries {
  struct Point {
    double t;
    double value;
  };
  std::vector<Point> points;

  void add(double t, double value) { points.push_back({t, value}); }
  // Value of the step function at time t (last point with point.t <= t).
  double value_at(double t) const;
};

}  // namespace dfi
