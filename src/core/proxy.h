// DFI Proxy (paper Sections III-B and IV-B).
//
// Interposes transparently on the OpenFlow byte stream between each switch
// and the SDN controller. Two jobs:
//
//  * Isolation via table shifting: Table 0 of every switch is reserved for
//    DFI's access-control rules. Every table_id reference in messages from
//    the controller (FLOW_MOD including goto-table instructions, flow-stats
//    requests) is incremented; every table reference toward the controller
//    (PACKET_IN, FLOW_REMOVED, flow-stats replies) is decremented, and
//    entries describing Table 0 are filtered out entirely. FEATURES_REPLY
//    advertises one fewer table. The controller cannot observe, modify, or
//    even learn of DFI's table.
//
//  * Packet-in routing: a table-miss in Table 0 means the flow has no DFI
//    decision yet; the proxy hands it to the PCP *first*. Denied flows are
//    never forwarded to the controller, so a malicious/faulty controller or
//    app never sees (and cannot be poisoned by) traffic DFI rejects.
//
// The proxy is deliberately stateless across sessions: per-session state is
// only the datapath id and table count learned from the handshake, so
// multiple proxies can run in parallel (paper: not a single point of
// failure).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/frame_buffer_pool.h"
#include "common/rng.h"
#include "core/pcp.h"
#include "openflow/wire.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace dfi {

class HealthMonitor;

struct ProxyConfig {
  // Per-message proxy processing time (paper Table II: 0.16 ms ± 0.72 ms),
  // drawn per deferred delivery and recorded in DfiProxy::latency_ms().
  // zero_latency (functional tests, real-socket deployments) skips both the
  // draw and the sample.
  double latency_mean_ms = 0.16;
  double latency_sd_ms = 0.72;
  bool zero_latency = false;

  // coalesce_egress: append switch-bound messages into one pooled buffer
  // per session and deliver them as a single multi-frame write when the
  // watermark is crossed or DfiProxy::flush_egress() runs (OpenFlow frames
  // are self-delimiting, so concatenation is valid framing). Default off:
  // it defers switch-bound writes, which the calibrated reproduction and
  // the per-message tests do not expect.
  bool coalesce_egress = false;
  std::size_t egress_watermark_bytes = 16 * 1024;
};

struct ProxyStats {
  std::uint64_t from_switch = 0;
  std::uint64_t from_controller = 0;
  std::uint64_t packet_ins_to_pcp = 0;
  std::uint64_t packet_ins_forwarded = 0;
  std::uint64_t packet_ins_suppressed = 0;  // denied or PCP overloaded
  std::uint64_t flow_mods_shifted = 0;
  std::uint64_t stats_entries_hidden = 0;   // Table-0 rows filtered
  std::uint64_t controller_errors = 0;      // bad table id from controller
  std::uint64_t malformed = 0;

  // Wire fast path (DESIGN.md §5): frames forwarded verbatim or dropped
  // without decode, frames table-shifted in place, and frames that needed
  // the full decode->re-encode slow path.
  std::uint64_t frames_fast_path = 0;
  std::uint64_t frames_patched = 0;
  std::uint64_t frames_decoded = 0;
  // FrameBufferPool counters, mirrored by DfiProxy::stats().
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_reuses = 0;

  // The proxy's degraded-mode gate (DESIGN.md §6). Degraded windows,
  // reconnect retries, Table-0 resyncs and journal replays are counted by
  // their owners: HealthStats, PcpStats and JournalStats.
  std::uint64_t degraded_suppressed = 0;  // fail-secure: denied while degraded
  std::uint64_t degraded_forwarded = 0;   // fail-open: undecided, to controller

  double pool_hit_rate() const {
    return pool_acquires == 0 ? 1.0
                              : static_cast<double>(pool_reuses) /
                                    static_cast<double>(pool_acquires);
  }
};

class DfiProxy {
 public:
  using SendFn = std::function<void(const std::vector<std::uint8_t>&)>;

  // One proxied switch<->controller connection pair.
  class Session {
   public:
    Session(DfiProxy& proxy, SendFn to_switch, SendFn to_controller);

    // Bytes arriving from the switch side / the controller side.
    void from_switch(const std::vector<std::uint8_t>& chunk);
    void from_controller(const std::vector<std::uint8_t>& chunk);

    // Socket-transport entry points (src/net/asyncio): a Connection owns
    // its FrameDecoder and readv()s into it directly, so complete frames
    // arrive here with no intermediate chunk copy. *_frame processes one
    // frame; *_batch_end flushes the Packet-in run and coalesced egress
    // exactly where from_switch/from_controller would at chunk end;
    // *_stream_corrupt records the transport hitting unrecoverable framing
    // (length < 8). from_switch/from_controller are thin wrappers over
    // these, so both transports share one code path.
    void switch_frame(const FrameView& view);
    void controller_frame(const FrameView& view);
    void switch_batch_end();
    void controller_batch_end();
    void switch_stream_corrupt();
    void controller_stream_corrupt();

    std::optional<Dpid> dpid() const { return dpid_; }

   private:
    friend class DfiProxy;

    // Wire fast path: pass-through / in-place patch / decode fallback for
    // one complete frame (DESIGN.md §5 classification table).
    void fast_path_from_switch(const FrameView& view);
    void fast_path_from_controller(const FrameView& view);
    void handle_switch_message(OfMessage message);
    void handle_controller_message(OfMessage message);
    void send_to_switch(const OfMessage& message);
    void send_to_controller(const OfMessage& message);
    // Queue a message for delivery after the proxy processing delay. The
    // delivery no-ops if the session is destroyed in the meantime (the
    // pooled buffer still returns to the pool). Messages are encoded into
    // pooled buffers at defer time; the byte variants take an
    // already-encoded (pooled) frame and return it to the pool after
    // delivery. With coalesce_egress the switch-bound variants append to
    // the pending egress buffer instead of deferring one frame each.
    void defer_to_switch(OfMessage message);
    void defer_to_controller(OfMessage message);
    void defer_bytes_to_switch(std::vector<std::uint8_t> frame);
    void defer_bytes_to_controller(std::vector<std::uint8_t> frame);
    // Coalesced egress: append raw frame bytes to the pending switch-bound
    // buffer (acquiring it lazily), flushing at the watermark.
    void append_switch_bytes(const std::uint8_t* data, std::size_t size);
    // Deliver the pending coalesced buffer as one multi-frame write.
    void flush_switch_egress();
    // The single deferred-delivery path every switch-bound (pooled) frame
    // or coalesced buffer funnels through.
    void defer_frame_to_switch(std::vector<std::uint8_t> frame);
    // Packet-in batching (DESIGN.md §5): submit the pending run of table-0
    // Packet-ins to the PCP as one handle_packet_in_batch call.
    void flush_packet_ins();

    DfiProxy& proxy_;
    SendFn to_switch_;
    SendFn to_controller_;
    FrameDecoder switch_decoder_;
    FrameDecoder controller_decoder_;
    std::optional<Dpid> dpid_;
    std::uint8_t switch_num_tables_ = 0;
    // Coalesced egress state (coalesce_egress only): the pending pooled
    // buffer, valid while pending_egress_active_, plus a reused encode
    // scratch so appends allocate nothing in steady state.
    std::vector<std::uint8_t> pending_egress_;
    bool pending_egress_active_ = false;
    std::vector<std::uint8_t> encode_scratch_;
    // The current run of consecutive table-0 Packet-ins, flushed before any
    // other frame (fast-path frames included) and at the end of every
    // chunk — never carried across either boundary, so the PCP sees
    // submissions in the order a per-frame delivery would produce.
    std::vector<PolicyCompilationPoint::BatchItem> pending_pins_;
    // Liveness token: deferred deliveries and in-flight PCP decision
    // callbacks capture this instead of trusting `this` to outlive them.
    // destroy_session() flips it, turning every outstanding closure into a
    // no-op — tearing a session down mid-Packet-in must not touch freed
    // memory.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  };

  DfiProxy(Simulator& sim, PolicyCompilationPoint& pcp, ProxyConfig config, Rng rng);
  ~DfiProxy();

  DfiProxy(const DfiProxy&) = delete;
  DfiProxy& operator=(const DfiProxy&) = delete;

  Session& create_session(SendFn to_switch, SendFn to_controller);

  // Tear a session down immediately: its switch is unregistered from the
  // PCP and every outstanding deferred delivery or in-flight decision
  // callback becomes a no-op. Models the control channel dying mid-flight.
  // Call before re-creating a session for the same switch — the new
  // session's PCP registration must come after the old one is gone.
  void destroy_session(Session& session);

  std::size_t session_count() const { return sessions_.size(); }

  // Coalesced egress only: deliver every session's pending switch-bound
  // buffer. Owners of the event loop call this at batch boundaries (the
  // bench after a submission burst, the fuzz harness inside drain); the
  // watermark bounds how much can ever be pending between calls.
  void flush_egress();

  // Degraded-mode gate (DESIGN.md §6). While the attached HealthMonitor
  // reports a non-healthy plane, undecided table-0 Packet-ins are not
  // handed to the PCP: fail-secure suppresses them (invariant I1 holds by
  // construction — nothing reaches the controller), fail-open forwards
  // them to the controller undecided. Detached (nullptr) or disabled
  // monitoring leaves the pre-existing behavior untouched.
  void attach_health(HealthMonitor* health) { health_ = health; }

  const ProxyStats& stats() const;
  const SampleStats& latency_ms() const { return latency_ms_; }
  const FrameBufferPool& buffer_pool() const { return pool_; }
  // Mutable access for transports that acquire/release pooled frames around
  // the wire (src/net/asyncio) — same control-thread-only discipline as the
  // proxy itself.
  FrameBufferPool& buffer_pool() { return pool_; }

 private:
  friend class Session;

  // Schedule `deliver` after the sampled proxy processing delay.
  void after_proxy_delay(std::function<void()> deliver);

  Simulator& sim_;
  PolicyCompilationPoint& pcp_;
  HealthMonitor* health_ = nullptr;
  ProxyConfig config_;
  Rng rng_;
  // Table II proxy latency distribution, derived once from the configured
  // moments instead of per message.
  LogNormalParams latency_{};
  std::vector<std::unique_ptr<Session>> sessions_;
  // Frame buffers shared by every session: forwarding reuses capacity
  // instead of allocating per message.
  FrameBufferPool pool_;
  // Proxy-level liveness token, flipped in the destructor: a deferred
  // delivery whose session died can still return its pooled buffer as long
  // as the proxy (and so the pool) is alive — pool accounting must reach
  // zero outstanding at quiesce, severed sessions included.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  mutable ProxyStats stats_;
  SampleStats latency_ms_;
};

}  // namespace dfi
