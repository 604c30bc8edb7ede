#include "common.h"

#include <sched.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

Reservoir::Reservoir(std::size_t capacity) : data_(capacity, 0.0) {}

void Reservoir::add(double value) {
  sorted_ = false;
  if (seen_ < data_.size()) {
    data_[seen_++] = value;
    return;
  }
  ++seen_;
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::size_t slot = static_cast<std::size_t>(rng_ % seen_);
  if (slot < data_.size()) data_[slot] = value;
}

double Reservoir::percentile(double pct) {
  const std::size_t kept = std::min(seen_, data_.size());
  if (kept == 0) return 0.0;
  if (!sorted_) {
    std::sort(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(kept));
    sorted_ = true;
  }
  const double rank = pct / 100.0 * static_cast<double>(kept - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, kept - 1);
  return data_[lo] + (data_[hi] - data_[lo]) * (rank - static_cast<double>(lo));
}

Dist summarize(Reservoir& reservoir) {
  Dist d;
  d.n = reservoir.seen();
  d.p50 = reservoir.percentile(50);
  d.p90 = reservoir.percentile(90);
  d.p99 = reservoir.percentile(99);
  return d;
}

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

namespace {

std::uint64_t task_cpu_ns(const std::string& tid) {
  {
    std::ifstream in("/proc/self/task/" + tid + "/schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) return run_ns;
  }
  std::ifstream in("/proc/self/task/" + tid + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesised command: utime is field 14, stime 15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000ull / static_cast<std::uint64_t>(hz > 0 ? hz : 100));
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<ThreadCpu> read_thread_cpu() {
  std::vector<ThreadCpu> threads;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return threads;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    threads.push_back({std::atoi(entry->d_name), task_cpu_ns(entry->d_name)});
  }
  ::closedir(dir);
  std::sort(threads.begin(), threads.end(),
            [](const ThreadCpu& a, const ThreadCpu& b) { return a.tid < b.tid; });
  return threads;
}

void pin_current_thread(unsigned cpu) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpus, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

void unpin_all_threads() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned i = 0; i < cpus; ++i) CPU_SET(i, &set);
  for (const ThreadCpu& t : read_thread_cpu()) ::sched_setaffinity(t.tid, sizeof set, &set);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

std::string host_fingerprint_json() {
  utsname uts{};
  ::uname(&uts);
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"kernel\": \""
      << json_escape(std::string(uts.sysname) + " " + uts.release) << "\", \"cpu\": \""
      << json_escape(cpu) << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"transport\": \"loopback TCP (127.0.0.1); no real link crossed\"}";
  return out.str();
}

// ------------------------------------------------------------------ spans

std::uint32_t SpanRecorder::intern(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanRecorder::open(std::uint32_t name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  span.allocs = thread_allocs();
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  const std::uint64_t end = now_ns();
  Span& span = spans_[index];
  span.end_ns = end;
  span.allocs = thread_allocs() - span.allocs;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanRecorder::add(std::uint32_t name, std::uint64_t op, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::int32_t parent) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<SpanSummary> summarize(const SpanRecorder& recorder) {
  const auto& spans = recorder.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::vector<SpanSummary> out(recorder.names().size());
  std::vector<std::vector<double>> durations(out.size());
  std::vector<double> allocs(out.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double dur_ns = static_cast<double>(span.end_ns - span.start_ns);
    durations[span.name].push_back(dur_ns / 1000.0);
    out[span.name].total_ms += dur_ns / 1e6;
    const double self_ns = dur_ns - static_cast<double>(std::min<std::uint64_t>(
                                        child_ns[i], span.end_ns - span.start_ns));
    out[span.name].self_ms += self_ns / 1e6;
    allocs[span.name] += static_cast<double>(span.allocs);
  }
  for (std::size_t n = 0; n < out.size(); ++n) {
    out[n].name = recorder.names()[n];
    out[n].count = durations[n].size();
    out[n].p50_us = percentile(durations[n], 50.0);
    out[n].p99_us = percentile(durations[n], 99.0);
    out[n].allocs_mean =
        out[n].count == 0 ? 0.0 : allocs[n] / static_cast<double>(out[n].count);
  }
  return out;
}

std::vector<double> durations_us(const SpanRecorder& recorder, const std::string& name) {
  std::vector<double> out;
  std::uint32_t id = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < recorder.names().size(); ++i) {
    if (recorder.names()[i] == name) {
      id = i;
      found = true;
    }
  }
  if (!found) return out;
  for (const Span& span : recorder.spans()) {
    if (span.name == id) out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
  }
  return out;
}

bool write_spans(const SpanRecorder& recorder, const std::string& path,
                 const std::string& source) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  for (const Span& span : recorder.spans()) {
    out << source << '\t' << recorder.name_of(span.name) << '\t' << span.op << '\t'
        << span.parent << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.allocs << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
