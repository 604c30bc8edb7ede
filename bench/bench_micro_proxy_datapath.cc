// Wire-layer proxy datapath micro-benchmark (DESIGN.md §5).
//
// Replays OpenFlow byte streams through the two proxy datapaths —
//
//   slow:  FrameDecoder -> decode() -> table shift on the message ->
//          encode() into a scratch vector (the pre-fast-path proxy);
//   fast:  FrameDecoder::next_frame -> classify() -> forward verbatim or
//          patch_table_refs() in place on a pooled buffer;
//
// — over several message mixes and frame sizes, and reports per-frame
// latency, throughput and the fast/slow speedup in
// BENCH_proxy_datapath.json.
//
// Before timing anything it proves the fast path honest: both pipelines run
// the same stream and their outputs must be byte-identical. After timing it
// asserts the zero-allocation property: once the pool is warm, a full
// pass-through/patched pass performs no allocator calls.
//
// Flags:
//   --smoke                  bounded run for CI (smaller reps, same checks)
//   --check-baseline <path>  compare speedups against a committed baseline
//                            JSON; exits 1 on a >10% regression.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/frame_buffer_pool.h"
#include "common/rng.h"
#include "host_info.h"
#include "openflow/wire.h"

namespace dfi {
namespace {

constexpr std::uint8_t kNumTables = 4;
constexpr std::size_t kChunkSize = 1460;  // TCP segment-sized feeds

struct WireFrame {
  std::vector<std::uint8_t> bytes;
  ProxyDirection direction;
};

// ---------------------------------------------------------------- workloads

Match bench_match(Rng& rng) {
  Match match;
  match.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  match.eth_src = MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
  match.eth_dst = MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
  match.eth_type = 0x0800;
  match.ip_proto = 6;
  match.ipv4_src = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
  match.ipv4_dst = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
  match.tcp_src = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  match.tcp_dst = 445;
  return match;
}

WireFrame echo_frame(Rng& rng) {
  std::vector<std::uint8_t> payload(8);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return {encode(OfMessage{static_cast<std::uint32_t>(rng.next_u64()),
                           EchoRequestMsg{payload}}),
          ProxyDirection::kSwitchToController};
}

WireFrame packet_in_frame(Rng& rng, std::size_t payload_len) {
  PacketInMsg msg;
  msg.total_len = static_cast<std::uint16_t>(payload_len);
  msg.table_id = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
  msg.cookie = Cookie{rng.next_u64()};
  msg.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  msg.data.resize(payload_len);
  for (auto& byte : msg.data) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return {encode(OfMessage{static_cast<std::uint32_t>(rng.next_u64()), msg}),
          ProxyDirection::kSwitchToController};
}

WireFrame flow_mod_frame(Rng& rng) {
  FlowModMsg mod;
  mod.cookie = Cookie{rng.next_u64()};
  mod.table_id = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
  mod.priority = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  mod.match = bench_match(rng);
  mod.instructions.apply_actions.push_back(
      OutputAction{PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))}});
  if (rng.chance(0.5)) {
    mod.instructions.goto_table = static_cast<std::uint8_t>(rng.uniform_int(1, 2));
  }
  return {encode(OfMessage{static_cast<std::uint32_t>(rng.next_u64()), mod}),
          ProxyDirection::kControllerToSwitch};
}

WireFrame flow_removed_frame(Rng& rng) {
  FlowRemovedMsg removed;
  removed.cookie = Cookie{rng.next_u64()};
  removed.table_id = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
  removed.packet_count = rng.next_u64() % 100000;
  removed.byte_count = rng.next_u64() % 10000000;
  removed.match = bench_match(rng);
  return {encode(OfMessage{static_cast<std::uint32_t>(rng.next_u64()), removed}),
          ProxyDirection::kSwitchToController};
}

WireFrame stats_reply_frame(Rng& rng) {
  MultipartReplyMsg reply;
  reply.stats_type = kStatsTypeFlow;
  const int entries = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < entries; ++i) {
    FlowStatsEntry entry;
    entry.table_id = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
    entry.cookie = Cookie{rng.next_u64()};
    entry.packet_count = rng.next_u64() % 100000;
    entry.match = bench_match(rng);
    entry.instructions.goto_table = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
    reply.flow_stats.push_back(std::move(entry));
  }
  return {encode(OfMessage{static_cast<std::uint32_t>(rng.next_u64()), reply}),
          ProxyDirection::kSwitchToController};
}

// A workload is what a proxy session sees: per-direction byte streams,
// pre-segmented into TCP-sized chunks. Segmentation happens once here so the
// timed passes only pay the costs the proxy pays — feed, framing, and the
// per-frame datapath.
struct Workload {
  std::string name;
  std::vector<std::vector<std::uint8_t>> from_switch_chunks;
  std::vector<std::vector<std::uint8_t>> from_controller_chunks;
  std::size_t frame_count = 0;
  std::size_t stream_bytes = 0;
};

void segment_stream(const std::vector<std::uint8_t>& stream,
                    std::vector<std::vector<std::uint8_t>>& chunks) {
  for (std::size_t offset = 0; offset < stream.size(); offset += kChunkSize) {
    const std::size_t take = std::min(kChunkSize, stream.size() - offset);
    chunks.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(offset),
                        stream.begin() + static_cast<std::ptrdiff_t>(offset + take));
  }
}

Workload make_workload(const std::string& name, std::size_t count,
                       const std::function<WireFrame(Rng&)>& generator,
                       std::uint64_t seed) {
  Workload workload;
  workload.name = name;
  Rng rng(seed);
  std::vector<std::uint8_t> from_switch;
  std::vector<std::uint8_t> from_controller;
  for (std::size_t i = 0; i < count; ++i) {
    WireFrame frame = generator(rng);
    auto& stream = frame.direction == ProxyDirection::kSwitchToController
                       ? from_switch
                       : from_controller;
    stream.insert(stream.end(), frame.bytes.begin(), frame.bytes.end());
    workload.stream_bytes += frame.bytes.size();
    ++workload.frame_count;
  }
  segment_stream(from_switch, workload.from_switch_chunks);
  segment_stream(from_controller, workload.from_controller_chunks);
  return workload;
}

// ---------------------------------------------------------------- pipelines

// The proxy's table-shift on a decoded message (src/core/proxy.cc subset
// covering the bench's message types).
bool shift_message(OfMessage& message, ProxyDirection direction) {
  if (direction == ProxyDirection::kSwitchToController) {
    if (auto* packet_in = std::get_if<PacketInMsg>(&message.payload)) {
      if (packet_in->table_id == 0) return false;  // PCP path (not generated)
      --packet_in->table_id;
      return true;
    }
    if (auto* removed = std::get_if<FlowRemovedMsg>(&message.payload)) {
      if (removed->table_id == 0) return false;
      --removed->table_id;
      return true;
    }
    if (auto* reply = std::get_if<MultipartReplyMsg>(&message.payload)) {
      for (auto& entry : reply->flow_stats) {
        --entry.table_id;
        if (entry.instructions.goto_table.has_value() &&
            *entry.instructions.goto_table > 0) {
          --*entry.instructions.goto_table;
        }
      }
      return true;
    }
    return true;  // echo etc: forwarded unchanged
  }
  if (auto* flow_mod = std::get_if<FlowModMsg>(&message.payload)) {
    ++flow_mod->table_id;
    if (flow_mod->instructions.goto_table.has_value()) {
      ++*flow_mod->instructions.goto_table;
    }
    return true;
  }
  return true;
}

// Order-sensitive sink hashing every output byte — used by the differential
// phase to prove the two pipelines byte-identical.
struct ByteSink {
  std::uint64_t checksum = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;

  void consume(const std::uint8_t* data, std::size_t size) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < size; ++i) sum += data[i];
    checksum = checksum * 1099511628211ull + sum + size;
    bytes += size;
    ++frames;
  }
};

// Sink for the timed passes: touches both ends of the frame so the output
// cannot be optimized away, without charging an O(size) hash to either path.
struct LightSink {
  std::uint64_t checksum = 0;

  void consume(const std::uint8_t* data, std::size_t size) {
    checksum += data[0] + data[size - 1] + size;
  }
};

// One pass of the decode -> shift -> re-encode proxy over the workload's
// pre-segmented byte streams, one FrameDecoder per direction.
template <typename Sink>
void run_slow_pass(const Workload& workload, Sink& sink) {
  std::vector<std::uint8_t> scratch;
  auto drain_stream = [&](const std::vector<std::vector<std::uint8_t>>& chunks,
                          ProxyDirection direction) {
    FrameDecoder decoder;
    FrameView view;
    for (const auto& chunk : chunks) {
      decoder.feed(chunk);
      while (decoder.next_frame(view) == FrameStatus::kFrame) {
        auto decoded = decode(view);
        if (!decoded.ok()) continue;
        if (!shift_message(decoded.value(), direction)) continue;
        encode_into(decoded.value(), scratch);
        sink.consume(scratch.data(), scratch.size());
      }
    }
  };
  drain_stream(workload.from_switch_chunks, ProxyDirection::kSwitchToController);
  drain_stream(workload.from_controller_chunks, ProxyDirection::kControllerToSwitch);
}

// One pass of the classify/patch fast path over the same streams. Pooled
// buffers stand in for the proxy's deferred-delivery frames.
template <typename Sink>
void run_fast_pass(const Workload& workload, FrameBufferPool& pool, Sink& sink) {
  auto drain_stream = [&](const std::vector<std::vector<std::uint8_t>>& chunks,
                          ProxyDirection direction) {
    FrameDecoder decoder;
    FrameView view;
    for (const auto& chunk : chunks) {
      decoder.feed(chunk);
      while (decoder.next_frame(view) == FrameStatus::kFrame) {
        switch (classify(view, direction, kNumTables)) {
          case FrameClass::kPassThrough: {
            std::vector<std::uint8_t> buffer = pool.acquire_copy(view.data(), view.size());
            sink.consume(buffer.data(), buffer.size());
            pool.release(std::move(buffer));
            break;
          }
          case FrameClass::kPatch: {
            if (view.type() == OfType::kFlowRemoved &&
                view.data()[kFlowRemovedTableOffset] == 0) {
              break;  // dropped, no copy
            }
            std::vector<std::uint8_t> buffer = pool.acquire_copy(view.data(), view.size());
            if (patch_table_refs(buffer.data(), buffer.size(), direction)) {
              sink.consume(buffer.data(), buffer.size());
            }
            pool.release(std::move(buffer));
            break;
          }
          case FrameClass::kDecode: {
            auto decoded = decode(view);
            if (!decoded.ok()) break;
            if (!shift_message(decoded.value(), direction)) break;
            std::vector<std::uint8_t> buffer = pool.acquire();
            encode_into(decoded.value(), buffer);
            sink.consume(buffer.data(), buffer.size());
            pool.release(std::move(buffer));
            break;
          }
        }
      }
    }
  };
  drain_stream(workload.from_switch_chunks, ProxyDirection::kSwitchToController);
  drain_stream(workload.from_controller_chunks, ProxyDirection::kControllerToSwitch);
}

// Byte-identity: both pipelines over the same stream must produce the same
// output frame sequence (compared via the order-sensitive sink checksum).
bool verify_equivalence(const Workload& workload) {
  ByteSink slow_sink;
  run_slow_pass(workload, slow_sink);
  FrameBufferPool pool;
  ByteSink fast_sink;
  run_fast_pass(workload, pool, fast_sink);
  if (slow_sink.checksum != fast_sink.checksum || slow_sink.bytes != fast_sink.bytes ||
      slow_sink.frames != fast_sink.frames) {
    std::fprintf(stderr,
                 "FAIL %s: fast path diverged from slow path "
                 "(frames %llu vs %llu, bytes %llu vs %llu)\n",
                 workload.name.c_str(),
                 static_cast<unsigned long long>(slow_sink.frames),
                 static_cast<unsigned long long>(fast_sink.frames),
                 static_cast<unsigned long long>(slow_sink.bytes),
                 static_cast<unsigned long long>(fast_sink.bytes));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- timing

struct MixResult {
  std::string name;
  std::size_t frames_per_pass = 0;
  std::size_t stream_bytes = 0;
  double slow_ns_per_frame = 0.0;
  double fast_ns_per_frame = 0.0;
  double slow_mb_per_s = 0.0;
  double fast_mb_per_s = 0.0;
  double speedup = 0.0;
  std::uint64_t steady_state_allocations = 0;
  double pool_hit_rate = 0.0;
};

template <typename PassFn>
double measure_ns_per_frame(const Workload& workload, double min_wall_ns, PassFn pass) {
  using Clock = std::chrono::steady_clock;
  pass();  // warm-up
  const auto start = Clock::now();
  std::size_t frames = 0;
  double elapsed_ns = 0.0;
  do {
    pass();
    frames += workload.frame_count;
    elapsed_ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  } while (elapsed_ns < min_wall_ns);
  return elapsed_ns / static_cast<double>(frames);
}

MixResult measure_mix(const Workload& workload, bool smoke) {
  const double min_wall_ns = smoke ? 2e7 : 2e8;
  MixResult result;
  result.name = workload.name;
  result.frames_per_pass = workload.frame_count;
  result.stream_bytes = workload.stream_bytes;

  LightSink slow_sink;
  result.slow_ns_per_frame = measure_ns_per_frame(
      workload, min_wall_ns, [&] { run_slow_pass(workload, slow_sink); });

  FrameBufferPool pool;
  LightSink fast_sink;
  // Warm the pool explicitly, snapshot, then measure: the allocation count
  // must not move during timed passes — zero allocations per frame at
  // steady state.
  run_fast_pass(workload, pool, fast_sink);
  const std::uint64_t warm_allocations = pool.stats().allocations;
  result.fast_ns_per_frame = measure_ns_per_frame(
      workload, min_wall_ns, [&] { run_fast_pass(workload, pool, fast_sink); });
  result.steady_state_allocations = pool.stats().allocations - warm_allocations;
  result.pool_hit_rate = pool.stats().hit_rate();

  result.speedup = result.fast_ns_per_frame > 0
                       ? result.slow_ns_per_frame / result.fast_ns_per_frame
                       : 0.0;
  const double bytes_per_frame =
      static_cast<double>(workload.stream_bytes) /
      static_cast<double>(workload.frame_count);
  result.slow_mb_per_s = bytes_per_frame / result.slow_ns_per_frame * 1e3;
  result.fast_mb_per_s = bytes_per_frame / result.fast_ns_per_frame * 1e3;
  return result;
}

// ---------------------------------------------------------------- reporting

void write_json(const char* path, const std::vector<MixResult>& results) {
  std::ofstream out(path);
  out << "{\n";
  dfi::bench::write_host_json(out);
  out << "  \"mixes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MixResult& r = results[i];
    out << "    {\"mix\": \"" << r.name << "\""
        << ", \"frames_per_pass\": " << r.frames_per_pass
        << ", \"stream_bytes\": " << r.stream_bytes
        << ", \"slow_ns_per_frame\": " << r.slow_ns_per_frame
        << ", \"fast_ns_per_frame\": " << r.fast_ns_per_frame
        << ", \"slow_mb_per_s\": " << r.slow_mb_per_s
        << ", \"fast_mb_per_s\": " << r.fast_mb_per_s
        << ", \"speedup\": " << r.speedup
        << ", \"steady_state_allocations\": " << r.steady_state_allocations
        << ", \"pool_hit_rate\": " << r.pool_hit_rate << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path);
}

// Minimal extractor for our own JSON shape: returns the value following
// `"mix": "<name>" ... "speedup": ` in the baseline file.
bool baseline_speedup(const std::string& json, const std::string& mix, double* out) {
  const auto mix_pos = json.find("\"mix\": \"" + mix + "\"");
  if (mix_pos == std::string::npos) return false;
  const auto key_pos = json.find("\"speedup\": ", mix_pos);
  if (key_pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + key_pos + std::strlen("\"speedup\": "), nullptr);
  return true;
}

int check_baseline(const char* path, const std::vector<MixResult>& results) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  int failures = 0;
  for (const MixResult& r : results) {
    double expected = 0.0;
    if (!baseline_speedup(json, r.name, &expected)) {
      std::fprintf(stderr, "FAIL: baseline %s has no mix \"%s\"\n", path, r.name.c_str());
      ++failures;
      continue;
    }
    // >10% below the committed speedup is a datapath regression.
    if (r.speedup < 0.9 * expected) {
      std::fprintf(stderr,
                   "FAIL: mix %s speedup %.2fx regressed >10%% vs baseline %.2fx\n",
                   r.name.c_str(), r.speedup, expected);
      ++failures;
    } else {
      std::printf("baseline ok: mix %-20s %.2fx (baseline %.2fx)\n", r.name.c_str(),
                  r.speedup, expected);
    }
  }
  return failures == 0 ? 0 : 1;
}

int run(bool smoke, const char* baseline_path) {
  const std::size_t frames = smoke ? 256 : 1024;
  std::vector<Workload> workloads;
  workloads.push_back(make_workload("passthrough_echo", frames, echo_frame, 11));
  workloads.push_back(make_workload(
      "patched_packet_in_64", frames,
      [](Rng& rng) { return packet_in_frame(rng, 64); }, 13));
  workloads.push_back(make_workload(
      "patched_packet_in_1024", frames,
      [](Rng& rng) { return packet_in_frame(rng, 1024); }, 17));
  workloads.push_back(make_workload("patched_flow_mod", frames, flow_mod_frame, 19));
  workloads.push_back(
      make_workload("patched_stats_reply", frames / 4, stats_reply_frame, 23));
  workloads.push_back(make_workload(
      "mixed_realistic", frames,
      [](Rng& rng) -> WireFrame {
        // Roughly the proxied steady state: mostly packet-ins and flow-mods
        // with periodic echoes, flow expiries and stats polls.
        const int roll = static_cast<int>(rng.uniform_int(0, 9));
        if (roll < 4) return packet_in_frame(rng, 128);
        if (roll < 7) return flow_mod_frame(rng);
        if (roll < 8) return flow_removed_frame(rng);
        if (roll < 9) return echo_frame(rng);
        return stats_reply_frame(rng);
      },
      29));

  for (const Workload& workload : workloads) {
    if (!verify_equivalence(workload)) return 1;
  }
  std::printf("differential check: fast path byte-identical on all %zu mixes\n",
              workloads.size());

  std::vector<MixResult> results;
  for (const Workload& workload : workloads) {
    results.push_back(measure_mix(workload, smoke));
    const MixResult& r = results.back();
    std::printf(
        "%-24s slow %8.1f ns/frame  fast %7.1f ns/frame  %5.2fx  %7.1f MB/s  "
        "pool_hit %.3f\n",
        r.name.c_str(), r.slow_ns_per_frame, r.fast_ns_per_frame, r.speedup,
        r.fast_mb_per_s, r.pool_hit_rate);
    if (r.steady_state_allocations != 0) {
      std::fprintf(stderr,
                   "FAIL: mix %s performed %llu allocations at steady state "
                   "(expected 0)\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.steady_state_allocations));
      return 1;
    }
  }
  write_json("BENCH_proxy_datapath.json", results);
  if (baseline_path != nullptr) return check_baseline(baseline_path, results);
  return 0;
}

}  // namespace
}  // namespace dfi

int main(int argc, char** argv) {
  bool smoke = false;
  const char* baseline = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--check-baseline <json>]\n", argv[0]);
      return 2;
    }
  }
  return dfi::run(smoke, baseline);
}
