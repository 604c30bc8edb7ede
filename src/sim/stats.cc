#include "sim/stats.h"

#include <cmath>
#include <cstdio>

namespace dfi {

void SampleStats::add(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  if (samples_.size() < kMaxRetained) {
    samples_.push_back(value);
  } else {
    // Algorithm R: keep the count_-th sample with probability
    // kMaxRetained / count_, in a uniformly chosen slot. The slot order
    // does not matter (percentile() sorts), so a sorted reservoir is fine.
    const auto slot = static_cast<std::uint64_t>(
        reservoir_rng_.uniform_int(0, static_cast<std::int64_t>(count_) - 1));
    if (slot >= kMaxRetained) return;
    samples_[slot] = value;
  }
  sorted_ = false;
}

double SampleStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SampleStats::stddev() const { return std::sqrt(variance()); }

double SampleStats::percentile(double pct) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = pct / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::string SampleStats::summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "mean=%.3f sd=%.3f n=%llu", mean(), stddev(),
                static_cast<unsigned long long>(count_));
  return buf;
}

double TimeSeries::value_at(double t) const {
  double value = 0.0;
  for (const auto& point : points) {
    if (point.t > t) break;
    value = point.value;
  }
  return value;
}

}  // namespace dfi
