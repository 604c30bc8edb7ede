// ConnectionManager + Connection tests over real loopback sockets
// (DESIGN.md §9): accept/connect lifecycle, per-IP and capacity limits,
// egress-watermark backpressure with read pause/resume, and supervised
// reconnect backoff ledgered through the HealthMonitor.
//
// Every test is single-threaded: the event loop is pumped from the test
// thread via run_once(), so sanitizers see one deterministic interleaving.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bus/message_bus.h"
#include "fault/fault_plan.h"
#include "common/rng.h"
#include "core/health_monitor.h"
#include "net/asyncio/conman.h"
#include "net/asyncio/connection.h"
#include "net/asyncio/event_loop.h"
#include "openflow/messages.h"
#include "openflow/wire.h"
#include "sim/simulator.h"

namespace dfi::net {
namespace {

template <typename Cond>
bool pump_until(EventLoop& loop, Cond cond, int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.run_once(5);
  }
  return true;
}

std::vector<std::uint8_t> echo_frame(std::uint32_t xid) {
  return encode(OfMessage{xid, EchoRequestMsg{{0xde, 0xad}}});
}

// Raw blocking client socket connected to 127.0.0.1:port.
int connect_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

// A bound-then-closed socket yields a port that is (almost certainly) free.
std::uint16_t grab_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(ConmanTest, AcceptAndDialExchangeFrames) {
  EventLoop loop;
  ConnectionManager conman(loop, {});

  std::unique_ptr<Connection> server;
  std::string server_peer_ip;
  auto port = conman.listen("127.0.0.1", 0,
                            [&](std::unique_ptr<Connection> conn,
                                const std::string& peer_ip) {
                              server = std::move(conn);
                              server_peer_ip = peer_ip;
                            });
  ASSERT_TRUE(port.ok()) << port.error().message;
  ASSERT_NE(port.value(), 0);

  std::unique_ptr<Connection> client;
  conman.dial("127.0.0.1", port.value(),
              [&](std::unique_ptr<Connection> conn) { client = std::move(conn); });
  ASSERT_TRUE(pump_until(loop, [&] { return server && client; }));
  EXPECT_EQ(server_peer_ip, "127.0.0.1");
  EXPECT_EQ(conman.connection_count(), 2u);
  EXPECT_EQ(conman.stats().accepted, 1u);
  EXPECT_EQ(conman.stats().dialed, 1u);

  // Frames flow both directions through the real readv/writev machinery.
  std::vector<std::vector<std::uint8_t>> at_server;
  std::vector<std::vector<std::uint8_t>> at_client;
  server->on_frame([&](const FrameView& view) {
    at_server.emplace_back(view.data(), view.data() + view.size());
  });
  client->on_frame([&](const FrameView& view) {
    at_client.emplace_back(view.data(), view.data() + view.size());
  });

  const auto ping = echo_frame(1);
  const auto pong = echo_frame(2);
  ASSERT_TRUE(client->send(ping));
  client->flush();
  ASSERT_TRUE(server->send(pong));
  server->flush();
  ASSERT_TRUE(pump_until(
      loop, [&] { return at_server.size() == 1 && at_client.size() == 1; }));
  EXPECT_EQ(at_server[0], ping);
  EXPECT_EQ(at_client[0], pong);
  EXPECT_EQ(server->stats().frames_in, 1u);
  EXPECT_EQ(client->stats().frames_out, 1u);

  // Close one side: the peer observes EOF and closes too, and conman's
  // accounting drains to zero live connections.
  client->close("test done");
  ASSERT_TRUE(pump_until(loop, [&] { return !server->open(); }));
  EXPECT_TRUE(pump_until(loop, [&] { return conman.connection_count() == 0; }));
  EXPECT_EQ(conman.per_ip_count("127.0.0.1"), 0u);
  EXPECT_EQ(conman.stats().closed, 2u);
}

TEST(ConmanTest, PerIpLimitRejectsExcessPeers) {
  EventLoop loop;
  ConmanConfig config;
  config.per_ip_limit = 2;
  ConnectionManager conman(loop, config);

  std::vector<std::unique_ptr<Connection>> accepted;
  auto port = conman.listen("127.0.0.1", 0,
                            [&](std::unique_ptr<Connection> conn,
                                const std::string&) {
                              accepted.push_back(std::move(conn));
                            });
  ASSERT_TRUE(port.ok());

  const int c1 = connect_client(port.value());
  const int c2 = connect_client(port.value());
  ASSERT_TRUE(pump_until(loop, [&] { return accepted.size() == 2; }));
  EXPECT_EQ(conman.per_ip_count("127.0.0.1"), 2u);

  // The third peer from the same IP is closed on the spot.
  const int c3 = connect_client(port.value());
  ASSERT_TRUE(
      pump_until(loop, [&] { return conman.stats().rejected_per_ip == 1; }));
  EXPECT_EQ(accepted.size(), 2u);
  char buf[8];
  // Blocking read on the rejected client returns 0: the server closed it.
  EXPECT_EQ(::read(c3, buf, sizeof buf), 0);

  // Dropping an accepted peer frees its per-IP slot for a new one.
  accepted.front()->close("make room");
  EXPECT_TRUE(pump_until(loop, [&] { return conman.per_ip_count("127.0.0.1") == 1; }));
  const int c4 = connect_client(port.value());
  ASSERT_TRUE(pump_until(loop, [&] { return accepted.size() == 3; }));
  EXPECT_EQ(conman.stats().rejected_per_ip, 1u);

  ::close(c1);
  ::close(c2);
  ::close(c3);
  ::close(c4);
}

TEST(ConmanTest, CapacityLimitRejects) {
  EventLoop loop;
  ConmanConfig config;
  config.max_connections = 1;
  ConnectionManager conman(loop, config);

  std::vector<std::unique_ptr<Connection>> accepted;
  auto port = conman.listen("127.0.0.1", 0,
                            [&](std::unique_ptr<Connection> conn,
                                const std::string&) {
                              accepted.push_back(std::move(conn));
                            });
  ASSERT_TRUE(port.ok());
  const int c1 = connect_client(port.value());
  ASSERT_TRUE(pump_until(loop, [&] { return accepted.size() == 1; }));
  const int c2 = connect_client(port.value());
  ASSERT_TRUE(
      pump_until(loop, [&] { return conman.stats().rejected_capacity == 1; }));
  EXPECT_EQ(accepted.size(), 1u);
  ::close(c1);
  ::close(c2);
}

TEST(ConmanTest, DialToClosedPortFails) {
  EventLoop loop;
  ConnectionManager conman(loop, {});
  bool called = false;
  std::unique_ptr<Connection> result;
  conman.dial("127.0.0.1", grab_free_port(),
              [&](std::unique_ptr<Connection> conn) {
                called = true;
                result = std::move(conn);
              });
  ASSERT_TRUE(pump_until(loop, [&] { return called; }));
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(conman.stats().dial_failures, 1u);
  EXPECT_EQ(conman.connection_count(), 0u);
}

// Supervised reconnect: a HealthMonitor whose config makes the protocol
// fast — 1ms base backoff, two attempts — so the whole supervised window
// runs inside the test. The conman must enter a degraded window on the
// first failure, ledger each retry, abandon after max_reconnect_attempts,
// and close the window either way.
TEST(ConmanTest, SupervisedDialAbandonsAfterCappedBackoff) {
  Simulator sim;
  MessageBus bus;
  HealthConfig hconfig;
  hconfig.enabled = true;
  hconfig.backoff_base = milliseconds(1.0);
  hconfig.backoff_cap = milliseconds(4.0);
  hconfig.max_reconnect_attempts = 2;
  HealthMonitor health(sim, bus, hconfig, Rng(1));

  EventLoop loop;
  ConnectionManager conman(loop, {}, &health);
  bool called = false;
  std::unique_ptr<Connection> result;
  conman.dial_supervised("controller-link:test", "127.0.0.1", grab_free_port(),
                         [&](std::unique_ptr<Connection> conn) {
                           called = true;
                           result = std::move(conn);
                         });
  ASSERT_TRUE(pump_until(loop, [&] { return called; }));
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(conman.stats().reconnects_abandoned, 1u);
  EXPECT_GE(conman.stats().reconnect_attempts, 1u);
  // The ledger lands in HealthStats.
  EXPECT_EQ(health.stats().reconnects_abandoned, 1u);
  EXPECT_GE(health.stats().backoff_retries, 1u);
  EXPECT_EQ(health.stats().degraded_entries, 1u);
  // The window is released on abandonment (the monitor then sits in
  // kRecovering until its holdoff elapses; refs are what must balance).
  EXPECT_EQ(health.degraded_refs(), 0u);
}

TEST(ConmanTest, SupervisedDialRecoversWhenListenerAppears) {
  Simulator sim;
  MessageBus bus;
  HealthConfig hconfig;
  hconfig.enabled = true;
  hconfig.backoff_base = milliseconds(1.0);
  hconfig.backoff_cap = milliseconds(4.0);
  hconfig.max_reconnect_attempts = 0;  // unlimited: the listener will appear
  HealthMonitor health(sim, bus, hconfig, Rng(2));

  EventLoop loop;
  ConnectionManager conman(loop, {}, &health);
  const std::uint16_t port = grab_free_port();

  bool called = false;
  std::unique_ptr<Connection> result;
  conman.dial_supervised("controller-link:test", "127.0.0.1", port,
                         [&](std::unique_ptr<Connection> conn) {
                           called = true;
                           result = std::move(conn);
                         });
  // Let at least one attempt fail, then bring the listener up.
  ASSERT_TRUE(
      pump_until(loop, [&] { return conman.stats().reconnect_attempts >= 1; }));
  std::vector<std::unique_ptr<Connection>> accepted;
  auto listen_port = conman.listen("127.0.0.1", port,
                                   [&](std::unique_ptr<Connection> conn,
                                       const std::string&) {
                                     accepted.push_back(std::move(conn));
                                   });
  ASSERT_TRUE(listen_port.ok()) << listen_port.error().message;
  ASSERT_TRUE(pump_until(loop, [&] { return called; }));
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->open());
  // Recovery closes the degraded window; nothing is abandoned.
  EXPECT_EQ(health.stats().reconnects_abandoned, 0u);
  EXPECT_EQ(health.degraded_refs(), 0u);
  EXPECT_EQ(health.stats().degraded_entries, 1u);
}

TEST(ConmanTest, SupervisedDialFirstTrySuccessOpensNoWindow) {
  Simulator sim;
  MessageBus bus;
  HealthConfig hconfig;
  hconfig.enabled = true;
  HealthMonitor health(sim, bus, hconfig, Rng(3));

  EventLoop loop;
  ConnectionManager conman(loop, {}, &health);
  std::vector<std::unique_ptr<Connection>> accepted;
  auto port = conman.listen("127.0.0.1", 0,
                            [&](std::unique_ptr<Connection> conn, const std::string&) {
                              accepted.push_back(std::move(conn));
                            });
  ASSERT_TRUE(port.ok()) << port.error().message;

  bool called = false;
  std::unique_ptr<Connection> result;
  conman.dial_supervised("controller-link:test", "127.0.0.1", port.value(),
                         [&](std::unique_ptr<Connection> conn) {
                           called = true;
                           result = std::move(conn);
                         });
  ASSERT_TRUE(pump_until(loop, [&] { return called; }));
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->open());
  // A link that comes up on the first try never degrades and never retries.
  EXPECT_EQ(conman.stats().reconnect_attempts, 0u);
  EXPECT_EQ(health.stats().backoff_retries, 0u);
  EXPECT_EQ(health.stats().degraded_entries, 0u);
  EXPECT_EQ(health.degraded_refs(), 0u);
  EXPECT_EQ(health.state(), HealthState::kHealthy);
}

TEST(ConmanTest, ReconnectBackoffIsReplayableBoundedAndResets) {
  // The supervised-dial schedule is drawn from the HealthMonitor's seeded
  // Rng through backoff_delay(attempt). Seed two monitors from the same
  // FaultPlan seed and the delay schedule must replay byte-identically;
  // every delay must respect base*2^attempt scaling within the jitter
  // band, capped; and passing attempt=0 again (a fresh supervision after a
  // healthy interval) must restart at base scale.
  HealthConfig hconfig;
  hconfig.enabled = true;
  hconfig.backoff_base = milliseconds(100);
  hconfig.backoff_cap = seconds(30.0);
  hconfig.backoff_jitter = 0.5;

  const auto schedule_for = [&](std::uint64_t seed) {
    FaultPlan plan(seed);
    Simulator sim;
    MessageBus bus;
    HealthMonitor health(sim, bus, hconfig, Rng(plan.rng().next_u64()));
    std::vector<std::int64_t> delays;
    for (int attempt = 0; attempt < 12; ++attempt) {
      const SimDuration delay = health.backoff_delay(attempt);
      plan.note("backoff: attempt=" + std::to_string(attempt) +
                " us=" + std::to_string(delay.us));
      delays.push_back(delay.us);
    }
    return std::make_pair(delays, plan.trace());
  };

  const auto [delays_a, trace_a] = schedule_for(0x5eed);
  const auto [delays_b, trace_b] = schedule_for(0x5eed);
  EXPECT_EQ(delays_a, delays_b);  // same seed -> same dial schedule
  EXPECT_EQ(trace_a, trace_b);    // replay trace byte-identical
  const auto [delays_c, trace_c] = schedule_for(0x5eee);
  EXPECT_NE(delays_a, delays_c);  // a different seed diverges

  for (int attempt = 0; attempt < 12; ++attempt) {
    const double uncapped =
        static_cast<double>(hconfig.backoff_base.us) * std::pow(2.0, attempt);
    const double pre_jitter =
        std::min(uncapped, static_cast<double>(hconfig.backoff_cap.us));
    const double lo = pre_jitter * (1.0 - hconfig.backoff_jitter);
    const double hi = pre_jitter * (1.0 + hconfig.backoff_jitter);
    EXPECT_GE(delays_a[attempt], static_cast<std::int64_t>(lo)) << attempt;
    EXPECT_LE(delays_a[attempt], static_cast<std::int64_t>(hi)) << attempt;
  }

  // Reset: a fresh attempt-0 draw is base-scale again, far below the
  // capped tail the schedule had grown to.
  Simulator sim;
  MessageBus bus;
  HealthMonitor health(sim, bus, hconfig, Rng(99));
  const std::int64_t grown = health.backoff_delay(10).us;
  const std::int64_t reset = health.backoff_delay(0).us;
  EXPECT_LT(reset, grown / 16);
}

TEST(ConmanTest, SupervisedDialLedgerReplaysFromSeed) {
  // Same seed, same closed port, same attempt budget: two independent
  // supervised dials must land the identical ledger in HealthStats and
  // ConmanStats (the schedule is deterministic even though the event loop
  // runs on wall clock). And a fresh supervision after a success starts
  // its backoff over: the second failing supervision retries exactly as
  // many times as the first, not zero.
  const auto run_failing_supervision = [](std::uint64_t seed,
                                          HealthStats* out_stats) {
    Simulator sim;
    MessageBus bus;
    HealthConfig hconfig;
    hconfig.enabled = true;
    hconfig.backoff_base = milliseconds(1.0);
    hconfig.backoff_cap = milliseconds(4.0);
    hconfig.max_reconnect_attempts = 3;
    HealthMonitor health(sim, bus, hconfig, Rng(seed));
    EventLoop loop;
    ConnectionManager conman(loop, {}, &health);
    bool called = false;
    conman.dial_supervised("replication", "127.0.0.1", grab_free_port(),
                           [&](std::unique_ptr<Connection> conn) {
                             called = true;
                             EXPECT_EQ(conn, nullptr);
                           });
    EXPECT_TRUE(pump_until(loop, [&] { return called; }));
    *out_stats = health.stats();
    return conman.stats();
  };

  HealthStats health_a;
  HealthStats health_b;
  const ConmanStats run_a = run_failing_supervision(0xabc, &health_a);
  const ConmanStats run_b = run_failing_supervision(0xabc, &health_b);
  EXPECT_EQ(run_a.reconnect_attempts, run_b.reconnect_attempts);
  EXPECT_EQ(run_a.reconnects_abandoned, run_b.reconnects_abandoned);
  EXPECT_EQ(run_a.dial_failures, run_b.dial_failures);
  EXPECT_EQ(health_a.backoff_retries, health_b.backoff_retries);
  EXPECT_EQ(health_a.reconnects_abandoned, health_b.reconnects_abandoned);
  EXPECT_EQ(health_a.backoff_retries, 3u);  // the full attempt budget, every run
}

// Egress-watermark backpressure over a real loopback pair: a peer that
// stops reading backs the connection up past the high watermark (reporting
// backed_up=true, upon which the owner pauses its producer's reads) and
// draining below the low watermark reports backed_up=false.
TEST(ConmanTest, EgressWatermarkBackpressurePausesAndResumesReads) {
  EventLoop loop;
  ConmanConfig config;
  config.connection.egress_high_watermark = 64 * 1024;
  config.connection.egress_low_watermark = 8 * 1024;
  ConnectionManager conman(loop, config);

  std::unique_ptr<Connection> server;
  auto port = conman.listen("127.0.0.1", 0,
                            [&](std::unique_ptr<Connection> conn,
                                const std::string&) { server = std::move(conn); });
  ASSERT_TRUE(port.ok());
  const int client = connect_client(port.value());
  // Shrink the kernel buffers so the watermark is reachable quickly.
  int small = 4096;
  ::setsockopt(client, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
  ASSERT_TRUE(pump_until(loop, [&] { return server != nullptr; }));
  ::setsockopt(server->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  // Model the frontend's policy: while backed up, pause our own reads (in
  // the real pairing it is the opposite connection of the peer pair).
  std::vector<bool> transitions;
  server->on_backpressure([&](bool backed_up) {
    transitions.push_back(backed_up);
    if (backed_up) {
      server->pause_reads();
    } else {
      server->resume_reads();
    }
  });

  // Flood egress while the client does not read.
  const auto frame = encode(OfMessage{1, EchoRequestMsg{
                                             std::vector<std::uint8_t>(1000, 0x7e)}});
  while (!server->backed_up()) {
    ASSERT_TRUE(server->send(frame));
    server->flush();
    loop.run_once(0);
    ASSERT_LT(server->pending_egress_frames(), 8000u) << "never backed up";
  }
  ASSERT_EQ(transitions, (std::vector<bool>{true}));
  EXPECT_TRUE(server->reads_paused());
  EXPECT_EQ(server->stats().backpressure_pauses, 1u);
  EXPECT_GE(server->stats().would_block_writes, 1u);

  // Drain the client side until the queue falls under the low watermark.
  std::vector<std::uint8_t> sink(64 * 1024);
  ASSERT_TRUE(pump_until(loop, [&] {
    while (::recv(client, sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
    }
    server->flush();
    return !server->backed_up();
  }));
  ASSERT_EQ(transitions, (std::vector<bool>{true, false}));
  EXPECT_FALSE(server->reads_paused());
  EXPECT_EQ(server->stats().backpressure_resumes, 1u);

  // The connection still works end to end after the squeeze.
  std::vector<std::vector<std::uint8_t>> received;
  server->on_frame([&](const FrameView& view) {
    received.emplace_back(view.data(), view.data() + view.size());
  });
  const auto ping = echo_frame(9);
  ASSERT_EQ(::send(client, ping.data(), ping.size(), 0),
            static_cast<ssize_t>(ping.size()));
  ASSERT_TRUE(pump_until(loop, [&] { return received.size() == 1; }));
  EXPECT_EQ(received[0], ping);
  ::close(client);
}

// A manager destroyed while a nonblocking connect is still in flight must
// reclaim the pending fd and its loop registration; the dial callback never
// fires.
TEST(ConmanTest, DestroyMidDialReclaimsPendingFd) {
  EventLoop loop;
  // A listener whose backlog is never drained: once the accept queue fills,
  // further connects sit in SYN_SENT — exactly the in-flight state a
  // teardown mid-dial has to clean up.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    make_nonblocking(fd);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    fillers.push_back(fd);
  }

  const std::size_t baseline = loop.fd_count();
  bool called = false;
  {
    ConnectionManager conman(loop, {});
    conman.dial("127.0.0.1", port,
                [&](std::unique_ptr<Connection>) { called = true; });
    loop.run_once(0);
    ASSERT_FALSE(called) << "dial completed despite a full backlog";
    EXPECT_EQ(loop.fd_count(), baseline + 1);  // the pending connect
  }
  EXPECT_EQ(loop.fd_count(), baseline);
  EXPECT_FALSE(called);
  loop.run_once(0);  // late events for the dead dial are no-ops
  EXPECT_FALSE(called);

  for (const int fd : fillers) ::close(fd);
  ::close(listen_fd);
}

// A full bounded egress queue fails send() instead of blocking or growing
// without bound — the owner treats that as a sever.
TEST(ConmanTest, BoundedEgressQueueRejectsWhenFull) {
  EventLoop loop;
  ConmanConfig config;
  config.connection.max_egress_frames = 4;
  config.connection.egress_high_watermark = 1 << 30;  // watermark out of play
  config.connection.egress_low_watermark = 1 << 29;
  ConnectionManager conman(loop, config);

  std::unique_ptr<Connection> server;
  auto port = conman.listen("127.0.0.1", 0,
                            [&](std::unique_ptr<Connection> conn,
                                const std::string&) { server = std::move(conn); });
  ASSERT_TRUE(port.ok());
  const int client = connect_client(port.value());
  int small = 4096;
  ::setsockopt(client, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
  ASSERT_TRUE(pump_until(loop, [&] { return server != nullptr; }));
  ::setsockopt(server->fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  // Saturate the socket first so queued frames stay queued.
  const auto frame = encode(OfMessage{1, EchoRequestMsg{
                                             std::vector<std::uint8_t>(60000, 1)}});
  bool rejected = false;
  for (int i = 0; i < 200 && !rejected; ++i) {
    rejected = !server->send(frame);
    server->flush();
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE(server->stats().send_rejected, 1u);
  EXPECT_TRUE(server->open()) << "send failure reports, it does not close";
  ::close(client);
}

}  // namespace
}  // namespace dfi::net
