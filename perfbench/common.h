// Shared helpers of the end-to-end DFI benchmark: clocks, order
// statistics, allocation and per-thread CPU counters, the host fingerprint,
// and the in-memory span recorder the traced run uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (CLOCK_MONOTONIC).
std::uint64_t now_ns();

// Linear-interpolated percentile (pct in [0, 100]) of `values`; 0 when
// empty. Sorts a copy.
double percentile(std::vector<double> values, double pct);
double median(std::vector<double> values);
// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);

// Fixed-capacity uniform sample of a stream (reservoir sampling), allocated
// and touched once up front so the generator's memory does not grow with
// throughput. Percentiles sort the kept samples in place.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity);
  void clear() {
    seen_ = 0;
    sorted_ = false;
  }
  void add(double value);
  std::size_t seen() const { return seen_; }
  double percentile(double pct);

 private:
  std::vector<double> data_;
  std::size_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  bool sorted_ = false;
};

// p50/p90/p99 of one reservoir, with the number of samples seen.
struct Dist {
  std::size_t n = 0;
  double p50 = 0, p90 = 0, p99 = 0;
};
Dist summarize(Reservoir& reservoir);

// ------------------------------------------------------------ allocations
// Heap allocations (global operator new) made by the calling thread, and by
// every thread of the process. Counted in alloc_count.cc without locks:
// each thread owns one padded slot.
std::uint64_t thread_allocs();
std::uint64_t process_allocs();

// ------------------------------------------------------------ thread CPU
// Linux thread id of the calling thread.
int current_tid();
// CPU time (ns) of every thread of this process, read from
// /proc/self/task/<tid>/schedstat (falls back to utime+stime in stat).
struct ThreadCpu {
  int tid = 0;
  std::uint64_t cpu_ns = 0;
};
std::vector<ThreadCpu> read_thread_cpu();
// Pin the calling thread to one CPU (cpu modulo the CPU count), and undo
// every pin in the process: all threads back on all CPUs. Threads started
// while the caller is pinned inherit its pin until unpin_all_threads().
void pin_current_thread(unsigned cpu);
void unpin_all_threads();
// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb();

// Host fingerprint as one JSON object (nproc, kernel, CPU model, compiler,
// build type, transport note).
std::string host_fingerprint_json();

// ------------------------------------------------------------------ spans
// A closed interval recorded around one call into a layer. Spans of one
// operation share `op`; `parent` is the index of the enclosing span in the
// same recorder (-1 for a root).
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t allocs = 0;  // calling-thread allocations inside the span
};

// Single-thread span recorder with an explicit open-span stack, so nested
// calls become children of the innermost open span.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 0) { spans_.reserve(reserve); }

  std::uint32_t intern(const std::string& name);
  const std::string& name_of(std::uint32_t id) const { return names_[id]; }

  // Open a span as a child of the innermost open one; returns its index.
  std::size_t open(std::uint32_t name, std::uint64_t op);
  void close(std::size_t index);
  // Record an already-measured interval (no nesting under it).
  void add(std::uint32_t name, std::uint64_t op, std::uint64_t start_ns,
           std::uint64_t end_ns, std::int32_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::size_t> stack_;
};

// RAII span on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint32_t name, std::uint64_t op)
      : recorder_(recorder),
        index_(recorder == nullptr ? 0 : recorder->open(name, op)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

// Per-name aggregate of a set of spans.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double total_ms = 0;
  double self_ms = 0;      // total minus the time covered by child spans
  double allocs_mean = 0;  // mean calling-thread allocations per span
};
std::vector<SpanSummary> summarize(const SpanRecorder& recorder);
// Durations (us) of every span named `name`.
std::vector<double> durations_us(const SpanRecorder& recorder, const std::string& name);

// Write the spans as tab-separated rows (name, op, parent, start_ns,
// end_ns, allocs). Returns false when the file cannot be written.
bool write_spans(const SpanRecorder& recorder, const std::string& path,
                 const std::string& source);

}  // namespace perfbench
