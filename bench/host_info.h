// Host fingerprint for the BENCH_*.json files the gated benches emit.
//
// A floor or a figure measured on one machine is not an absolute number:
// the same build reads differently on a single-core CI box and on a
// 4-vCPU VM. Each emitted file therefore records where it was measured —
// the CPUs this process may run on (what `nproc` prints), the kernel
// release and the CMake build type.
#pragma once

#include <sched.h>
#include <sys/utsname.h>

#include <ostream>
#include <string>
#include <thread>

#ifndef DFI_BUILD_TYPE
#define DFI_BUILD_TYPE "unknown"
#endif

namespace dfi::bench {

// Writes `"host": {...},` as the first member of a top-level JSON object:
// call it right after the object's opening brace.
inline void write_host_json(std::ostream& out) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const unsigned nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                             ? static_cast<unsigned>(CPU_COUNT(&cpus))
                             : std::thread::hardware_concurrency();
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  out << "  \"host\": {\"nproc\": " << nproc << ", \"kernel\": \"" << kernel
      << "\", \"build_type\": \"" << DFI_BUILD_TYPE << "\"},\n";
}

}  // namespace dfi::bench
