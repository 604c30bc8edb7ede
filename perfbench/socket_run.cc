#include "socket_run.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

namespace perfbench {

using namespace dfi;

namespace {

constexpr int kSetupTimeoutMs = 10000;
constexpr std::uint64_t kStallNs = 10'000'000'000ull;
constexpr std::size_t kMaxSlots = 32;
constexpr std::size_t kInBufBytes = 1 << 18;
constexpr std::uint32_t kNotifyTag = 0xffff;
// Operation spans kept per traced phase (the first ones; relay completes
// about 4M operations in a 10 s window).
constexpr std::size_t kMaxOpSpans = 1 << 20;
// relay: replies in transit per link; more means the proxy stopped
// delivering them.
constexpr std::size_t kMaxReplies = 4096;

[[noreturn]] void fail_setup(const std::string& what) {
  throw std::runtime_error("setup: " + what + (errno != 0 ? std::string(": ") + std::strerror(errno) : ""));
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

int listen_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_setup("socket");
  const int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
  sockaddr_in addr = loopback(0);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) fail_setup("bind");
  if (::listen(fd, 8) != 0) fail_setup("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) fail_setup("getsockname");
  port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_setup("socket");
  sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) fail_setup("connect");
  set_nodelay(fd);
  set_recv_timeout(fd, kSetupTimeoutMs);
  return fd;
}

// Wait (blocking, bounded) for the frontend's controller dial and accept it.
int accept_link(int listen_fd) {
  pollfd pfd{listen_fd, POLLIN, 0};
  if (::poll(&pfd, 1, kSetupTimeoutMs) != 1) fail_setup("controller link never dialled");
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) fail_setup("accept");
  set_nodelay(fd);
  set_recv_timeout(fd, kSetupTimeoutMs);
  return fd;
}

void send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) fail_setup("send");
    off += static_cast<std::size_t>(n);
  }
}

// Blocking read of exactly `expected.size()` bytes, which must equal
// `expected`.
void expect_bytes(int fd, const std::vector<std::uint8_t>& expected, const char* what) {
  std::vector<std::uint8_t> got(expected.size());
  std::size_t off = 0;
  while (off < got.size()) {
    const ssize_t n = ::recv(fd, got.data() + off, got.size() - off, 0);
    if (n <= 0) fail_setup(std::string("handshake read: ") + what);
    off += static_cast<std::size_t>(n);
  }
  errno = 0;
  if (got != expected) fail_setup(std::string("handshake mismatch: ") + what);
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

// ============================================================ SocketStack

SocketStack::SocketStack(const Scenario& scenario) : scenario_(scenario) {
  // The controller stub is running before the system under test starts.
  ctl_listen_ = listen_loopback(ctl_port_);
  run_once_span_ = loop_spans_.intern("loop.run_once");
}

SocketStack::~SocketStack() {
  teardown();
  close_fd(ctl_listen_);
}

SocketStack::SetupTiming SocketStack::setup() {
  teardown();
  store_ = std::make_unique<InMemoryJournalStore>(scenario_.compacted());
  SetupTiming timing;
  const std::uint64_t t0 = now_ns();
  journal_ = std::make_unique<Journal>(*store_);
  sim_ = std::make_unique<Simulator>();
  bus_ = std::make_unique<MessageBus>();
  system_ = std::make_unique<DfiSystem>(*sim_, *bus_, Scenario::config());
  const std::uint64_t r0 = now_ns();
  const auto recovered = system_->recover_from(*journal_);
  timing.recover_s = static_cast<double>(now_ns() - r0) / 1e9;
  if (!recovered.ok()) fail_setup("recover_from failed");
  loop_ = std::make_unique<net::EventLoop>();
  net::FrontendConfig config;
  config.controller_port = ctl_port_;
  frontend_ = std::make_unique<net::SocketFrontend>(*loop_, *system_, config);
  const auto port = frontend_->start();
  if (!port.ok()) fail_setup("frontend start failed");
  loop_stop_.store(false);
  loop_thread_ = std::thread([this] {
    loop_tid_.store(current_tid());
    while (!loop_stop_.load(std::memory_order_acquire)) {
      if (loop_tracing_.load(std::memory_order_relaxed)) {
        const std::uint64_t start = now_ns();
        loop_->run_once(-1);
        loop_spans_.add(run_once_span_, 0, start, now_ns());
      } else {
        loop_->run_once(-1);
      }
    }
  });
  // Connect one switch at a time, so switch c pairs with controller link c.
  for (std::size_t c = 0; c < kConnections; ++c) {
    sw_fd_[c] = connect_loopback(port.value());
    ctl_fd_[c] = accept_link(ctl_listen_);
  }
  const Handshake& hs = scenario_.handshake();
  auto cat = [&](Bytes a, Bytes b) {
    std::vector<std::uint8_t> out = scenario_.copy(a);
    const auto tail = scenario_.copy(b);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  };
  for (std::size_t c = 0; c < kConnections; ++c) {
    send_all(sw_fd_[c], scenario_.data(hs.switch_hello), hs.switch_hello.len);
    const auto hello_and_request = cat(hs.controller_hello, hs.features_request);
    send_all(ctl_fd_[c], hello_and_request.data(), hello_and_request.size());
    expect_bytes(sw_fd_[c], hello_and_request, "switch stub");
    send_all(sw_fd_[c], scenario_.data(hs.features_reply[c]), hs.features_reply[c].len);
    expect_bytes(ctl_fd_[c], cat(hs.switch_hello, hs.features_reply_shifted[c]),
                 "controller stub");
  }
  timing.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t c = 0; c < kConnections; ++c) {
    set_nonblocking(sw_fd_[c], true);
    set_nonblocking(ctl_fd_[c], true);
  }
  return timing;
}

void SocketStack::stop_loop() {
  if (!loop_thread_.joinable()) return;
  loop_stop_.store(true, std::memory_order_release);
  loop_->post([] {});
  loop_thread_.join();
}

void SocketStack::teardown() {
  stop_loop();
  for (std::size_t c = 0; c < kConnections; ++c) {
    close_fd(sw_fd_[c]);
    close_fd(ctl_fd_[c]);
  }
  frontend_.reset();
  loop_.reset();
  system_.reset();
  bus_.reset();
  sim_.reset();
  journal_.reset();
  store_.reset();
}

// ============================================================== Generator

struct Generator::Slot {
  std::uint64_t t_send = 0;
  std::uint64_t op_id = 0;
  const std::uint8_t* expect_sw = nullptr;
  const std::uint8_t* expect_ctl = nullptr;
  const std::uint8_t* reply = nullptr;
  std::uint64_t cookie = 0;
  std::uint32_t expect_sw_len = 0;
  std::uint32_t expect_ctl_len = 0;
  std::uint32_t reply_len = 0;
  bool need_ctl = false;
  bool got_sw = false;
  bool got_ctl = false;
  bool churn = false;
};

namespace {

// Fixed-capacity FIFO of slot indices.
struct SlotRing {
  std::uint8_t items[kMaxSlots] = {};
  std::size_t head = 0;
  std::size_t count = 0;
  bool empty() const { return count == 0; }
  std::uint8_t front() const { return items[head]; }
  void push(std::uint8_t v) {
    items[(head + count) % kMaxSlots] = v;
    ++count;
  }
  void pop() {
    head = (head + 1) % kMaxSlots;
    --count;
  }
};

struct InBuf {
  std::vector<std::uint8_t> data = std::vector<std::uint8_t>(kInBufBytes);
  std::size_t rpos = 0;
  std::size_t wpos = 0;
};

struct OutBuf {
  std::vector<std::uint8_t> data;
  std::size_t sent = 0;
};

// A frame a stub must receive: a flush DELETE (`revoke`: the cycle's own
// cookie) or a relayed reply.
struct ExpectedFrame {
  const std::uint8_t* data = nullptr;
  std::uint32_t len = 0;
  bool revoke = false;
};

}  // namespace

struct Generator::Conn {
  int sw = -1;
  int ctl = -1;
  InBuf sw_in, ctl_in;
  OutBuf sw_out, ctl_out;
  Slot slots[kMaxSlots];
  std::vector<std::uint8_t> free_slots;
  SlotRing await_sw, await_ctl;
  std::vector<std::uint8_t> unsent;  // requests queued since the last flush
  std::size_t in_flight = 0;
  std::size_t next_op = 0;
  bool active = true;
  std::vector<ExpectedFrame> deletes;
  // relay: replies the controller stub must receive, in order.
  std::deque<ExpectedFrame> replies;
  // Churn cookies below this had their revoke DELETE delivered here.
  std::uint64_t revoked_below = 0;
};

Generator::Generator(const Scenario& scenario, SocketStack& stack)
    : scenario_(scenario), stack_(stack), relay_(scenario.workload() == Workload::kRelay) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  notify_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || notify_fd_ < 0) throw std::runtime_error("generator: epoll/eventfd");
  auto watch = [&](int fd, std::uint32_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw std::runtime_error("generator: epoll_ctl");
    }
  };
  watch(notify_fd_, kNotifyTag);
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->sw = stack.switch_fd(c);
    conn->ctl = stack.controller_fd(c);
    conn->revoked_below = scenario.first_churn_cookie();
    for (std::size_t s = 0; s < kMaxSlots; ++s) {
      conn->free_slots.push_back(static_cast<std::uint8_t>(kMaxSlots - 1 - s));
    }
    conn->sw_out.data.reserve(1 << 16);
    conn->ctl_out.data.reserve(1 << 16);
    conn->unsent.reserve(kMaxSlots);
    conn->deletes.reserve(64);
    watch(conn->sw, static_cast<std::uint32_t>(c * 2));
    watch(conn->ctl, static_cast<std::uint32_t>(c * 2 + 1));
    conns_.push_back(std::move(conn));
  }
}

Generator::~Generator() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (notify_fd_ >= 0) ::close(notify_fd_);
}

bool Generator::quiescent() const {
  for (const auto& conn : conns_) {
    if (conn->in_flight != 0 || !conn->deletes.empty() || !conn->replies.empty()) return false;
  }
  return churn_ == Churn::kIdle && loop_failures_.load() == 0 && errors_.empty();
}

void Generator::error(const std::string& what) {
  ++failed_;
  if (errors_.size() < 16) errors_.push_back(what);
  broken_ = true;
}

void Generator::fail_open_ops(const char* why) {
  std::size_t open = 0;
  for (const auto& conn : conns_) open += conn->in_flight;
  error(std::string(why) + " (" + std::to_string(open) + " operations open)");
}

std::uint64_t Generator::failed() const {
  // Once a failure ended the run, every operation still open failed too.
  std::uint64_t open = 0;
  if (broken_) {
    for (const auto& conn : conns_) open += conn->in_flight;
  }
  return failed_ + open;
}

// ------------------------------------------------------------- issuing

void Generator::issue_packet_in(std::size_t c, const PacketInOp& op,
                                const std::uint8_t* flow_mod, bool churn) {
  Conn& k = *conns_[c];
  const std::uint8_t idx = k.free_slots.back();
  k.free_slots.pop_back();
  Slot& s = k.slots[idx];
  s = Slot{};
  s.op_id = ++attempted_;
  s.expect_sw = flow_mod;
  s.expect_sw_len = op.flow_mod.len;
  s.expect_ctl = scenario_.data(op.request);
  s.expect_ctl_len = op.request.len;
  s.need_ctl = op.allow;
  s.cookie = churn && churn_ == Churn::kAdmitting ? cycle_cookie_ : op.cookie;
  s.churn = churn;
  const std::uint8_t* req = scenario_.data(op.request);
  k.sw_out.data.insert(k.sw_out.data.end(), req, req + op.request.len);
  k.unsent.push_back(idx);
  k.await_sw.push(idx);
  if (op.allow) k.await_ctl.push(idx);
  ++k.in_flight;
  ++packet_ins_sent_;
}

void Generator::issue_relay(std::size_t c, const RelayOp& op) {
  Conn& k = *conns_[c];
  const std::uint8_t idx = k.free_slots.back();
  k.free_slots.pop_back();
  Slot& s = k.slots[idx];
  s = Slot{};
  s.op_id = ++attempted_;
  s.expect_sw = scenario_.data(op.at_switch);
  s.expect_sw_len = op.at_switch.len;
  if (op.reply.len != 0) {
    s.reply = scenario_.data(op.reply);
    s.reply_len = op.reply.len;
    s.expect_ctl = scenario_.data(op.at_controller);
    s.expect_ctl_len = op.at_controller.len;
  }
  const std::uint8_t* req = scenario_.data(op.send);
  k.ctl_out.data.insert(k.ctl_out.data.end(), req, req + op.send.len);
  k.unsent.push_back(idx);
  k.await_sw.push(idx);
  ++k.in_flight;
}

bool Generator::issue_next(std::size_t c) {
  Conn& k = *conns_[c];
  if (relay_) {
    if (!issuing_) return false;
    const auto& pool = scenario_.relay(c);
    issue_relay(c, pool[k.next_op++ % pool.size()]);
    return true;
  }
  // Churn flows first: they are part of a cycle that must finish.
  if (churn_to_send_ > 0 && cycle_pattern_ != nullptr && cycle_pattern_->conn == c &&
      (churn_ == Churn::kAdmitting || churn_ == Churn::kRearriving)) {
    const std::uint32_t f = kChurnFlows - churn_to_send_;
    --churn_to_send_;
    ++churn_open_;
    if (churn_ == Churn::kAdmitting) {
      issue_packet_in(c, cycle_set_->admitted[f], cycle_admitted_.data() + cycle_admitted_off_[f],
                      true);
    } else {
      const PacketInOp& op = cycle_set_->rearrival[f];
      issue_packet_in(c, op, scenario_.data(op.flow_mod), true);
    }
    return true;
  }
  if (!issuing_) return false;
  if (mode_ == Mode::kLoaded && scenario_.workload() == Workload::kPolicyChurn &&
      churn_ == Churn::kIdle && regular_issued_ >= next_cycle_at_) {
    post_insert();
  }
  const auto& pool = scenario_.flows(c);
  const PacketInOp& op = pool[k.next_op++ % pool.size()];
  issue_packet_in(c, op, scenario_.data(op.flow_mod), false);
  ++regular_issued_;
  return true;
}

void Generator::refill(std::size_t c) {
  Conn& k = *conns_[c];
  while (k.active && k.in_flight < window_ && issue_next(c)) {
  }
}

void Generator::flush(int fd, std::vector<std::uint8_t>& out, std::size_t& sent_off) {
  while (sent_off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent_off, out.size() - sent_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pending_output_ = true;
      return;
    } else {
      error("stub send failed");
      return;
    }
  }
  out.clear();
  sent_off = 0;
}

void Generator::flush_all() {
  pending_output_ = false;
  for (std::size_t c = 0; c < kConnections; ++c) {
    Conn& k = *conns_[c];
    OutBuf& requests = relay_ ? k.ctl_out : k.sw_out;
    OutBuf& replies = relay_ ? k.sw_out : k.ctl_out;
    if (!k.unsent.empty()) {
      const std::uint64_t now = now_ns();
      for (const std::uint8_t idx : k.unsent) k.slots[idx].t_send = now;
      k.unsent.clear();
    }
    if (!requests.data.empty()) flush(relay_ ? k.ctl : k.sw, requests.data, requests.sent);
    if (!replies.data.empty()) flush(relay_ ? k.sw : k.ctl, replies.data, replies.sent);
  }
}

// ------------------------------------------------------------- receiving

void Generator::complete(std::size_t c, std::uint8_t idx, std::uint64_t now) {
  Conn& k = *conns_[c];
  Slot& s = k.slots[idx];
  --k.in_flight;
  k.free_slots.push_back(idx);
  ++completed_;
  if (lat_sink_ != nullptr) lat_sink_->add(static_cast<double>(now - s.t_send) / 1000.0);
  if (span_sink_ != nullptr && span_sink_->spans().size() < kMaxOpSpans) {
    span_sink_->add(op_span_name_, s.op_id, s.t_send, now);
  }
  if (s.churn && --churn_open_ == 0 && churn_to_send_ == 0) {
    if (churn_ == Churn::kAdmitting) {
      post_revoke();
    } else if (churn_ == Churn::kRearriving) {
      post_logon();
    }
  }
  refill(c);
}

void Generator::on_switch_frame(std::size_t c, const std::uint8_t* data, std::size_t len,
                                std::uint64_t now) {
  Conn& k = *conns_[c];
  if (!k.await_sw.empty()) {
    const std::uint8_t idx = k.await_sw.front();
    Slot& s = k.slots[idx];
    if (len == s.expect_sw_len && std::memcmp(data, s.expect_sw, len) == 0) {
      k.await_sw.pop();
      if (s.cookie >= scenario_.first_churn_cookie() && s.cookie < k.revoked_below) {
        error("switch received a FlowMod carrying a cookie after its revoke DELETE");
        return;
      }
      s.got_sw = true;
      if (s.reply_len != 0) {
        // The switch stub answers the barrier / stats request; the relay
        // operation itself is done, the reply is checked on arrival.
        if (k.replies.size() >= kMaxReplies) {
          error("relay reply backlog overflow");
          return;
        }
        k.sw_out.data.insert(k.sw_out.data.end(), s.reply, s.reply + s.reply_len);
        k.replies.push_back({s.expect_ctl, s.expect_ctl_len, false});
      }
      if (!s.need_ctl || s.got_ctl) complete(c, idx, now);
      return;
    }
  }
  for (std::size_t i = 0; i < k.deletes.size(); ++i) {
    const ExpectedFrame d = k.deletes[i];
    if (len == d.len && std::memcmp(data, d.data, len) == 0) {
      k.deletes.erase(k.deletes.begin() + static_cast<std::ptrdiff_t>(i));
      if (d.revoke) {
        k.revoked_below = cycle_cookie_ + 1;
        on_revoke_delivered(now);
      }
      return;
    }
  }
  error("switch stub " + std::to_string(c) + " received an unexpected or wrong frame (type " +
        std::to_string(len >= 2 ? data[1] : 0) + ", " + std::to_string(len) + " bytes)");
}

void Generator::on_controller_frame(std::size_t c, const std::uint8_t* data, std::size_t len,
                                    std::uint64_t now) {
  Conn& k = *conns_[c];
  if (!k.replies.empty()) {
    const ExpectedFrame reply = k.replies.front();
    if (len == reply.len && std::memcmp(data, reply.data, len) == 0) {
      k.replies.pop_front();
      return;
    }
  }
  if (!k.await_ctl.empty()) {
    const std::uint8_t idx = k.await_ctl.front();
    Slot& s = k.slots[idx];
    if (len == s.expect_ctl_len && std::memcmp(data, s.expect_ctl, len) == 0) {
      k.await_ctl.pop();
      s.got_ctl = true;
      if (s.got_sw) complete(c, idx, now);
      return;
    }
  }
  error("controller stub " + std::to_string(c) + " received an unexpected or wrong frame (type " +
        std::to_string(len >= 2 ? data[1] : 0) + ", " + std::to_string(len) + " bytes)");
}

void Generator::read_fd(std::size_t c, bool switch_side, std::uint64_t now) {
  Conn& k = *conns_[c];
  InBuf& in = switch_side ? k.sw_in : k.ctl_in;
  if (in.data.size() - in.wpos < (1 << 16)) {
    std::memmove(in.data.data(), in.data.data() + in.rpos, in.wpos - in.rpos);
    in.wpos -= in.rpos;
    in.rpos = 0;
  }
  const ssize_t n = ::recv(switch_side ? k.sw : k.ctl, in.data.data() + in.wpos,
                           in.data.size() - in.wpos, MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n <= 0) {
    error("stub connection closed by the proxy");
    return;
  }
  ++progress_;
  in.wpos += static_cast<std::size_t>(n);
  while (!broken_ && in.wpos - in.rpos >= 8) {
    const std::uint8_t* frame = in.data.data() + in.rpos;
    const std::size_t len = static_cast<std::size_t>((frame[2] << 8) | frame[3]);
    if (len < 8) {
      error("corrupt OpenFlow framing at a stub");
      return;
    }
    if (in.wpos - in.rpos < len) break;
    in.rpos += len;
    if (switch_side) {
      on_switch_frame(c, frame, len, now);
    } else {
      on_controller_frame(c, frame, len, now);
    }
  }
}

void Generator::pass(int timeout_ms) {
  epoll_event events[8];
  const int n = ::epoll_wait(epoll_fd_, events, 8, pending_output_ ? 0 : timeout_ms);
  const std::uint64_t now = now_ns();
  for (int i = 0; i < n && !broken_; ++i) {
    const std::uint32_t tag = events[i].data.u32;
    if (tag == kNotifyTag) {
      on_notify();
    } else {
      read_fd(tag / 2, tag % 2 == 0, now);
    }
  }
  flush_all();
}

template <typename Done>
void Generator::pump(Done done) {
  std::uint64_t last_progress = now_ns();
  std::uint64_t seen = progress_;
  while (!broken_ && !done()) {
    pass(20);
    const std::uint64_t now = now_ns();
    if (progress_ != seen) {
      seen = progress_;
      last_progress = now;
    } else if (now - last_progress > kStallNs) {
      fail_open_ops("no answer from the proxy for 10 s");
    }
  }
}

// ---------------------------------------------------------- churn steps

namespace {
void notify(int fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
}
}  // namespace

void Generator::post_insert() {
  if (probing_) {
    cycle_set_ = nullptr;
    cycle_pattern_ = &scenario_.patterns()[inserts_posted_ % scenario_.patterns().size()];
  } else {
    const auto& sets = scenario_.churn_sets();
    cycle_set_ = &sets[cycles_done_ % sets.size()];
    cycle_pattern_ = &scenario_.patterns()[cycle_set_->pattern];
  }
  cycle_cookie_ = scenario_.first_churn_cookie() + inserts_posted_;
  ++inserts_posted_;
  cycle_revoke_delete_ = scenario_.copy(cycle_pattern_->revoke_delete);
  write_cookie(cycle_revoke_delete_.data(), cycle_cookie_);
  if (cycle_set_ != nullptr) {
    cycle_admitted_.clear();
    for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
      cycle_admitted_off_[f] = cycle_admitted_.size();
      const Bytes fm = cycle_set_->admitted[f].flow_mod;
      const std::uint8_t* src = scenario_.data(fm);
      cycle_admitted_.insert(cycle_admitted_.end(), src, src + fm.len);
      write_cookie(cycle_admitted_.data() + cycle_admitted_off_[f], cycle_cookie_);
    }
  }
  for (auto& conn : conns_) {
    for (const Bytes& d : cycle_pattern_->insert_deletes) {
      conn->deletes.push_back({scenario_.data(d), d.len, false});
    }
  }
  churn_ = Churn::kInsertPosted;
  DfiSystem* system = &stack_.system();
  const PolicyRule rule = cycle_pattern_->rule;
  const int fd = notify_fd_;
  stack_.loop().post([this, system, rule, fd] {
    const PolicyRuleId id = system->policy_manager().insert(
        rule, PdpPriority{kChurnPriority}, "perfbench-churn");
    inserted_id_.store(id.value);
    loop_done_.fetch_add(1);
    notify(fd);
  });
}

void Generator::post_revoke() {
  for (auto& conn : conns_) {
    conn->deletes.push_back(
        {cycle_revoke_delete_.data(), static_cast<std::uint32_t>(cycle_revoke_delete_.size()), true});
  }
  churn_ = Churn::kRevokePosted;
  revoke_seen_ = 0;
  DfiSystem* system = &stack_.system();
  const PolicyRuleId id{cycle_cookie_};
  revoke_posted_ns_ = now_ns();
  stack_.loop().post([this, system, id] {
    if (!system->policy_manager().revoke(id)) loop_failures_.fetch_add(1);
  });
}

void Generator::on_revoke_delivered(std::uint64_t now) {
  if (churn_ != Churn::kRevokePosted || ++revoke_seen_ < kConnections) return;
  if (revoke_sink_ != nullptr) {
    revoke_sink_->add(static_cast<double>(now - revoke_posted_ns_) / 1000.0);
  }
  if (probing_) {
    churn_ = Churn::kIdle;
    return;
  }
  churn_ = Churn::kRearriving;
  churn_to_send_ = kChurnFlows;
  refill(cycle_pattern_->conn);
}

void Generator::post_logon() {
  churn_ = Churn::kLogonPosted;
  const BindingEvent off = scenario_.logon_event(cycle_set_->logon_host, true);
  const BindingEvent on = scenario_.logon_event(cycle_set_->logon_host, false);
  DfiSystem* system = &stack_.system();
  const int fd = notify_fd_;
  stack_.loop().post([this, system, off, on, fd] {
    system->erm().apply(off);
    system->erm().apply(on);
    loop_done_.fetch_add(1);
    notify(fd);
  });
}

void Generator::on_notify() {
  std::uint64_t value = 0;
  [[maybe_unused]] const ssize_t n = ::read(notify_fd_, &value, sizeof value);
  ++progress_;
  const std::uint32_t done = loop_done_.load();
  while (loop_done_seen_ < done && !broken_) {
    ++loop_done_seen_;
    if (churn_ == Churn::kInsertPosted) {
      if (inserted_id_.load() != cycle_cookie_) {
        error("insert returned id " + std::to_string(inserted_id_.load()) + ", expected " +
              std::to_string(cycle_cookie_));
        return;
      }
      if (probing_) {
        post_revoke();
      } else {
        churn_ = Churn::kAdmitting;
        churn_to_send_ = kChurnFlows;
        churn_open_ = 0;
        refill(cycle_pattern_->conn);
      }
    } else if (churn_ == Churn::kLogonPosted) {
      churn_ = Churn::kIdle;
      ++cycles_done_;
      next_cycle_at_ = regular_issued_ + kChurnEvery;
    } else {
      error("loop notification in an unexpected churn state");
    }
  }
}

// ---------------------------------------------------------------- phases

void Generator::warm_up(std::uint64_t ops) {
  mode_ = Mode::kLoaded;
  window_ = kWindow;
  issuing_ = true;
  const std::uint64_t target = completed_ + ops;
  for (std::size_t c = 0; c < kConnections; ++c) refill(c);
  flush_all();
  pump([&] { return completed_ >= target; });
}

PhaseResult Generator::loaded(double seconds, SpanRecorder* spans) {
  PhaseResult result;
  lat_samples_.clear();
  lat_sink_ = &lat_samples_;
  revoke_sink_ = &revoke_samples_;
  span_sink_ = spans;
  if (spans != nullptr) op_span_name_ = spans->intern("socket.op");
  mode_ = Mode::kLoaded;
  window_ = kWindow;
  issuing_ = true;
  for (std::size_t c = 0; c < kConnections; ++c) refill(c);
  flush_all();
  const std::uint64_t start_ops = completed_;
  result.cpu_start = read_thread_cpu();
  const std::uint64_t allocs0 = process_allocs() - thread_allocs();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  pump([&] { return now_ns() >= deadline; });
  const std::uint64_t t1 = now_ns();
  result.allocs = process_allocs() - thread_allocs() - allocs0;
  result.cpu_end = read_thread_cpu();
  result.ops = completed_ - start_ops;
  result.seconds = static_cast<double>(t1 - t0) / 1e9;
  lat_sink_ = nullptr;
  revoke_sink_ = nullptr;
  span_sink_ = nullptr;
  result.lat = summarize(lat_samples_);
  // Stop issuing, let a running churn cycle finish, drain.
  issuing_ = false;
  pump([&] { return quiescent(); });
  mode_ = Mode::kIdle;
  return result;
}

PhaseResult Generator::unloaded(std::uint64_t ops, SpanRecorder* spans) {
  PhaseResult result;
  lat_samples_.clear();
  lat_sink_ = &lat_samples_;
  span_sink_ = spans;
  if (spans != nullptr) op_span_name_ = spans->intern("socket.op1");
  mode_ = Mode::kUnloaded;
  window_ = 1;
  conns_[1]->active = false;
  issuing_ = true;
  const std::uint64_t target = completed_ + ops;
  const std::uint64_t t0 = now_ns();
  refill(0);
  flush_all();
  pump([&] { return completed_ >= target; });
  issuing_ = false;
  pump([&] { return quiescent(); });
  result.ops = ops;
  result.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  lat_sink_ = nullptr;
  span_sink_ = nullptr;
  result.lat = summarize(lat_samples_);
  conns_[1]->active = true;
  window_ = kWindow;
  mode_ = Mode::kIdle;
  return result;
}

PhaseResult Generator::revoke_probes(std::uint32_t probes) {
  PhaseResult result;
  revoke_sink_ = &probe_revoke_samples_;
  mode_ = Mode::kProbe;
  issuing_ = false;
  probing_ = true;
  const std::uint64_t t0 = now_ns();
  for (std::uint32_t i = 0; i < probes && !broken_; ++i) {
    post_insert();
    pump([&] { return churn_ == Churn::kIdle; });
  }
  pump([&] { return quiescent(); });
  result.ops = probes;
  result.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  probing_ = false;
  revoke_sink_ = nullptr;
  mode_ = Mode::kIdle;
  return result;
}

}  // namespace perfbench
