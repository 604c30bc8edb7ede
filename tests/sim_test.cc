// Unit tests for the discrete-event simulator and the service station.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "sim/service_station.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace dfi {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{} + seconds(3), [&]() { order.push_back(3); });
  sim.schedule_at(SimTime{} + seconds(1), [&]() { order.push_back(1); });
  sim.schedule_at(SimTime{} + seconds(2), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime{} + seconds(3));
}

TEST(Simulator, FifoAmongSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime{} + seconds(1), [&, i]() { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, HandlersScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) sim.schedule_after(seconds(1), chain);
  };
  sim.schedule_after(seconds(1), chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), SimTime{} + seconds(5));
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime{} + seconds(1), [&]() { ++fired; });
  sim.schedule_at(SimTime{} + seconds(10), [&]() { ++fired; });
  sim.run_until(SimTime{} + seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime{} + seconds(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.schedule_at(SimTime{} + seconds(2), [&]() {
    sim.schedule_at(SimTime{} + seconds(1), []() {});  // in the past
  });
  sim.run();  // must terminate without time going backwards
  EXPECT_EQ(sim.now(), SimTime{} + seconds(2));
}

TEST(Simulator, NegativeDelayTreatedAsZero) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(SimDuration{-100}, [&]() { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime{});
}

TEST(ServiceStation, ServesSequentiallyWithOneWorker) {
  Simulator sim;
  ServiceStation station(sim, 1, 10);
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    station.submit([]() { return seconds(1.0); },
                   [&](SimTime, SimTime done) { completions.push_back(done.us / 1e6); });
  }
  sim.run();
  EXPECT_EQ(completions, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(station.stats().completed, 3u);
}

TEST(ServiceStation, ParallelWorkers) {
  Simulator sim;
  ServiceStation station(sim, 3, 10);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    station.submit([]() { return seconds(1.0); }, [&](SimTime, SimTime) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(sim.now(), SimTime{} + seconds(1.0));  // all in parallel
}

TEST(ServiceStation, DropsWhenQueueFull) {
  Simulator sim;
  ServiceStation station(sim, 1, 2);
  int done = 0, dropped = 0;
  for (int i = 0; i < 5; ++i) {
    const bool accepted = station.submit(
        []() { return seconds(1.0); }, [&](SimTime, SimTime) { ++done; },
        [&](SimTime) { ++dropped; });
    // 1 in service + 2 queued accepted; the rest dropped.
    EXPECT_EQ(accepted, i < 3);
  }
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(station.stats().dropped, 2u);
}

TEST(ServiceStation, QueueDrainsThenAcceptsAgain) {
  Simulator sim;
  ServiceStation station(sim, 1, 1);
  int done = 0;
  station.submit([]() { return seconds(1.0); }, [&](SimTime, SimTime) { ++done; });
  station.submit([]() { return seconds(1.0); }, [&](SimTime, SimTime) { ++done; });
  EXPECT_FALSE(station.submit([]() { return seconds(1.0); },
                              [&](SimTime, SimTime) { ++done; }));
  sim.run();
  EXPECT_TRUE(station.submit([]() { return seconds(1.0); },
                             [&](SimTime, SimTime) { ++done; }));
  sim.run();
  EXPECT_EQ(done, 3);
}

TEST(ServiceStation, WaitTimeObservableFromTimestamps) {
  Simulator sim;
  ServiceStation station(sim, 1, 10);
  SimDuration waited{};
  station.submit([]() { return seconds(2.0); }, [](SimTime, SimTime) {});
  station.submit([]() { return seconds(1.0); },
                 [&](SimTime enqueued, SimTime completed) {
                   waited = completed - enqueued;
                 });
  sim.run();
  EXPECT_EQ(waited, seconds(3.0));  // 2s wait + 1s service
}

TEST(SampleStats, MeanStdDevPercentiles) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) stats.add(i);
  EXPECT_DOUBLE_EQ(stats.mean(), 50.5);
  EXPECT_NEAR(stats.stddev(), 29.011, 0.01);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 100.0);
  EXPECT_NEAR(stats.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(stats.percentile(99), 99.01, 0.01);
  EXPECT_EQ(stats.count(), 100u);
}

TEST(SampleStats, EmptyIsSafe) {
  SampleStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
  EXPECT_EQ(stats.percentile(50), 0.0);
}

TEST(SampleStats, RetainedSamplesAreCappedByAReproducibleReservoir) {
  constexpr std::size_t kCap = SampleStats::kMaxRetained;
  SampleStats below;
  for (std::size_t i = 0; i < 1001; ++i) below.add(static_cast<double>(1000 - i));
  EXPECT_EQ(below.retained(), 1001u);
  EXPECT_DOUBLE_EQ(below.percentile(50), 500.0);  // exact below the cap

  // Three times the cap of 0, 1, 2, ...: moments and extremes stay exact,
  // memory stays at the cap, percentiles stay close.
  const std::size_t n = 3 * kCap;
  SampleStats a;
  SampleStats b;
  for (std::size_t i = 0; i < n; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  EXPECT_EQ(a.count(), n);
  EXPECT_EQ(a.retained(), kCap);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), static_cast<double>(n - 1));
  EXPECT_NEAR(a.mean(), static_cast<double>(n - 1) / 2.0, 1e-6 * static_cast<double>(n));
  const double exact_sd = static_cast<double>(n) / std::sqrt(12.0);
  EXPECT_NEAR(a.stddev(), exact_sd, 1e-3 * exact_sd);
  for (const double pct : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_NEAR(a.percentile(pct), pct / 100.0 * static_cast<double>(n),
                0.01 * static_cast<double>(n))
        << "p" << pct;
    // Fixed seed: the same stream retains the same samples.
    EXPECT_EQ(a.percentile(pct), b.percentile(pct));
  }
}

TEST(TimeSeries, StepFunctionValueAt) {
  TimeSeries series;
  series.add(0.0, 0.0);
  series.add(10.0, 3.0);
  series.add(20.0, 7.0);
  EXPECT_EQ(series.value_at(5.0), 0.0);
  EXPECT_EQ(series.value_at(10.0), 3.0);
  EXPECT_EQ(series.value_at(15.0), 3.0);
  EXPECT_EQ(series.value_at(100.0), 7.0);
}

}  // namespace
}  // namespace dfi
