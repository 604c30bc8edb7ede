// Socket front end for the DFI proxy (DESIGN.md §9).
//
// One SocketFrontend turns the in-process DfiSystem into a network service:
// it listens for switch connections, dials the real controller for each
// accepted switch (supervised capped-exponential backoff, degraded while
// down), and binds the pair to a DfiProxy::Session — the Connection is just
// another byte-stream endpoint behind the session's liveness token.
//
// Data flow per peer pair:
//   switch readv  -> FrameDecoder spans -> Session::switch_frame (zero-copy
//                    FrameView into classify()) ... batch end -> flush the
//                    Packet-in run, pump the system, writev both egresses
//   session SendFn -> pooled acquire_copy -> Connection::send -> coalesced
//                    writev; the frame returns to the proxy's pool after
//                    the write (or at close) — zero steady-state allocation
//
// Backpressure: when a peer's egress crosses its high watermark, the
// frontend pauses reads on the *opposite* connection of the pair (the one
// producing the bytes) and resumes them at the low watermark.
//
// Teardown is session-first and fail-secure: any close — switch side,
// controller side, send overflow — marks the peer closing on the spot
// (every further delivery and frame callback no-ops) and finishes one loop
// turn later: destroy the proxy session (outstanding deferred deliveries
// no-op via the liveness token) and close both sockets. The deferral is
// load-bearing — a sever can be requested from inside the session's own
// SendFn (egress overflow) or a Connection's handle_io, and destroying
// either from its own stack is use-after-free. The switch is expected to
// reconnect, which replays the handshake and re-registers with the PCP
// (Table-0 resync on recovery).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/result.h"
#include "core/dfi_system.h"
#include "net/asyncio/conman.h"
#include "net/asyncio/connection.h"
#include "net/asyncio/event_loop.h"

namespace dfi::net {

struct FrontendConfig {
  std::string listen_ip = "127.0.0.1";
  std::uint16_t listen_port = 0;  // 0: ephemeral (start() returns it)
  std::string controller_ip = "127.0.0.1";
  std::uint16_t controller_port = 6653;
  ConmanConfig conman;
  // Periodic tick on the timer wheel: DfiSystem::pump() drains threaded-
  // backend completions that finish between read batches; with health
  // monitoring enabled the simulator clock (the monitor's clock) is
  // advanced to the wall time elapsed since start(), so heartbeat
  // deadlines and the recovering hold elapse in real time; then
  // HealthMonitor::poll() evaluates them. 0 disables.
  std::uint64_t tick_ms = 1;
};

struct FrontendStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t controller_dials_failed = 0;  // supervised dial abandoned
  std::uint64_t peer_pauses = 0;              // backpressure read pauses
};

class SocketFrontend {
 public:
  SocketFrontend(EventLoop& loop, DfiSystem& system, FrontendConfig config);
  ~SocketFrontend();

  SocketFrontend(const SocketFrontend&) = delete;
  SocketFrontend& operator=(const SocketFrontend&) = delete;

  // Bind the switch-side listener. Returns the bound port.
  Result<std::uint16_t> start();

  std::size_t peer_count() const { return peers_.size(); }
  ConnectionManager& conman() { return conman_; }
  const FrontendStats& stats() const { return stats_; }

 private:
  struct Peer {
    std::uint64_t id = 0;
    std::unique_ptr<Connection> switch_conn;
    std::unique_ptr<Connection> controller_conn;
    DfiProxy::Session* session = nullptr;
    bool closing = false;
  };

  void on_switch_accepted(std::unique_ptr<Connection> conn,
                          const std::string& peer_ip);
  void on_controller_link(std::uint64_t peer_id, std::unique_ptr<Connection> conn);
  void bind_session(Peer& peer);
  // Marks the peer closing immediately; the actual teardown runs on a
  // posted continuation (see finish_sever) because a sever can be requested
  // from deep inside the peer's own callback stack.
  void sever_peer(std::uint64_t peer_id, const char* reason);
  void finish_sever(std::uint64_t peer_id, const char* reason);
  // Flush egress of exactly the peers deliver() touched since the last call.
  void flush_dirty();
  void arm_tick();

  EventLoop& loop_;
  DfiSystem& system_;
  FrontendConfig config_;
  ConnectionManager conman_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Peer>> peers_;
  // Peers whose egress queues deliver() fed since the last flush_dirty():
  // batch-end flushing walks only these, not every live peer.
  std::unordered_set<std::uint64_t> dirty_peers_;
  std::uint64_t next_peer_id_ = 1;
  FrontendStats stats_;
  // Simulator time and wall time at start(): the tick keeps the simulator
  // clock at least sim_origin_ + (wall now - wall_origin_).
  SimTime sim_origin_{};
  std::chrono::steady_clock::time_point wall_origin_{};

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dfi::net
