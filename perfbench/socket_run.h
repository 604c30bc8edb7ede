// The socket half of the benchmark: a real DfiSystem behind SocketFrontend
// on its own event-loop thread, and one generator thread (the caller) that
// plays both switch stubs and the controller stub over loopback TCP.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bus/message_bus.h"
#include "common.h"
#include "core/dfi_system.h"
#include "core/journal.h"
#include "net/asyncio/event_loop.h"
#include "net/asyncio/frontend.h"
#include "scenario.h"
#include "sim/simulator.h"

namespace perfbench {

// One served system plus the generator's four stub sockets.
class SocketStack {
 public:
  explicit SocketStack(const Scenario& scenario);
  ~SocketStack();
  SocketStack(const SocketStack&) = delete;
  SocketStack& operator=(const SocketStack&) = delete;

  struct SetupTiming {
    double setup_s = 0;
    double recover_s = 0;
  };
  // Fresh DfiSystem, recover_from the compacted image, SocketFrontend::
  // start, loop thread, both switch stubs connected and through HELLO/
  // FEATURES with their controller links up. Throws on any failure.
  SetupTiming setup();
  // Stop the loop thread (the caller becomes the control thread), then
  // close every socket and destroy the system.
  void stop_loop();
  void teardown();

  dfi::DfiSystem& system() { return *system_; }
  dfi::net::EventLoop& loop() { return *loop_; }
  int switch_fd(std::size_t conn) const { return sw_fd_[conn]; }
  int controller_fd(std::size_t conn) const { return ctl_fd_[conn]; }
  int loop_tid() const { return loop_tid_.load(); }

  // Run `fn` on the loop thread and wait for its result. Only between
  // phases: the generator does not drain its sockets meanwhile.
  template <typename F>
  auto call_on_loop(F fn) -> decltype(fn()) {
    std::promise<decltype(fn())> promise;
    auto result = promise.get_future();
    loop_->post([&] { promise.set_value(fn()); });
    return result.get();
  }

  // Loop-thread spans, one per run_once while tracing is on. Read only
  // after stop_loop().
  void set_loop_tracing(bool on) { loop_tracing_.store(on); }
  const SpanRecorder& loop_spans() const { return loop_spans_; }

 private:
  const Scenario& scenario_;
  int ctl_listen_ = -1;
  std::uint16_t ctl_port_ = 0;
  std::unique_ptr<dfi::InMemoryJournalStore> store_;
  std::unique_ptr<dfi::Journal> journal_;
  std::unique_ptr<dfi::Simulator> sim_;
  std::unique_ptr<dfi::MessageBus> bus_;
  std::unique_ptr<dfi::DfiSystem> system_;
  std::unique_ptr<dfi::net::EventLoop> loop_;
  std::unique_ptr<dfi::net::SocketFrontend> frontend_;
  int sw_fd_[kConnections] = {-1, -1};
  int ctl_fd_[kConnections] = {-1, -1};
  std::thread loop_thread_;
  std::atomic<bool> loop_stop_{false};
  std::atomic<bool> loop_tracing_{false};
  std::atomic<int> loop_tid_{0};
  SpanRecorder loop_spans_{1 << 18};
  std::uint32_t run_once_span_ = 0;
};

// Outcome of one measured phase.
struct PhaseResult {
  std::uint64_t ops = 0;         // operations completed inside the phase
  double seconds = 0;            // phase wall time
  Dist lat;                      // per completed operation, us
  std::vector<ThreadCpu> cpu_start, cpu_end;
  std::uint64_t allocs = 0;      // allocations by every thread but the generator
};

// The generator: a single-threaded epoll loop over the four stub sockets
// and a notification eventfd the loop-thread mutations signal.
class Generator {
 public:
  Generator(const Scenario& scenario, SocketStack& stack);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Closed loop on both connections until `ops` operations completed.
  void warm_up(std::uint64_t ops);
  // Closed loop on both connections for `seconds`; then stop issuing,
  // finish any churn cycle and drain. Spans (one per operation) go to
  // `spans` when non-null.
  PhaseResult loaded(double seconds, SpanRecorder* spans);
  // One operation at a time on connection 0, `ops` operations.
  PhaseResult unloaded(std::uint64_t ops, SpanRecorder* spans);
  // Idle revocation probes: insert a churn rule, then time its revoke
  // until both switch stubs hold the cookie's masked DELETE.
  PhaseResult revoke_probes(std::uint32_t probes);
  // Revocation latencies (us) since the generator started: timed under
  // load by loaded() windows (policy_churn cycles), and by idle probes.
  Dist revokes() { return summarize(revoke_samples_); }
  Dist probe_revokes() { return summarize(probe_revoke_samples_); }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const;
  std::uint64_t packet_ins_sent() const { return packet_ins_sent_; }
  std::uint64_t churn_cycles() const { return cycles_done_; }
  std::uint64_t inserts_posted() const { return inserts_posted_; }
  // Everything answered and every expected DELETE delivered.
  bool quiescent() const;
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Slot;
  struct Conn;
  enum class Mode { kIdle, kLoaded, kUnloaded, kProbe };
  enum class Churn { kIdle, kInsertPosted, kAdmitting, kRevokePosted, kRearriving, kLogonPosted };

  // Run the event loop until `done()` holds (checked after every pass) or
  // nothing happens for the stall timeout (fails every open operation).
  template <typename Done>
  void pump(Done done);
  void pass(int timeout_ms);
  void on_switch_frame(std::size_t c, const std::uint8_t* data, std::size_t len,
                       std::uint64_t now);
  void on_controller_frame(std::size_t c, const std::uint8_t* data, std::size_t len,
                           std::uint64_t now);
  void on_notify();
  void complete(std::size_t c, std::uint8_t slot, std::uint64_t now);
  void refill(std::size_t c);
  bool issue_next(std::size_t c);
  void issue_packet_in(std::size_t c, const PacketInOp& op, const std::uint8_t* flow_mod,
                       bool churn);
  void issue_relay(std::size_t c, const RelayOp& op);
  void flush_all();
  void flush(int fd, std::vector<std::uint8_t>& out, std::size_t& sent_off);
  void read_fd(std::size_t c, bool switch_side, std::uint64_t now);
  void error(const std::string& what);
  void fail_open_ops(const char* why);

  // Churn / probe steps.
  void post_insert();
  void post_revoke();
  void post_logon();
  void on_revoke_delivered(std::uint64_t now);

  const Scenario& scenario_;
  SocketStack& stack_;
  bool relay_;
  int epoll_fd_ = -1;
  int notify_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  Mode mode_ = Mode::kIdle;
  std::size_t window_ = kWindow;
  bool issuing_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t packet_ins_sent_ = 0;
  std::vector<std::string> errors_;
  bool broken_ = false;          // a failure ended the run
  std::uint64_t progress_ = 0;   // reads and notifications seen
  bool pending_output_ = false;  // a stub send hit EAGAIN

  // Measurement sinks of the current phase (null: not recorded).
  Reservoir lat_samples_{1 << 20};
  Reservoir revoke_samples_{1 << 16};
  Reservoir probe_revoke_samples_{1 << 16};
  Reservoir* lat_sink_ = nullptr;
  Reservoir* revoke_sink_ = nullptr;
  SpanRecorder* span_sink_ = nullptr;
  std::uint32_t op_span_name_ = 0;

  // Churn state (policy_churn cycles and revoke probes).
  Churn churn_ = Churn::kIdle;
  std::uint64_t regular_issued_ = 0;
  std::uint64_t next_cycle_at_ = kChurnEvery;
  std::uint64_t cycles_done_ = 0;
  std::uint64_t inserts_posted_ = 0;
  std::uint64_t cycle_cookie_ = 0;
  const ChurnSet* cycle_set_ = nullptr;
  const ChurnPattern* cycle_pattern_ = nullptr;
  std::vector<std::uint8_t> cycle_admitted_;  // FlowMods with the cycle's cookie
  std::size_t cycle_admitted_off_[kChurnFlows] = {};
  std::vector<std::uint8_t> cycle_revoke_delete_;
  std::uint32_t churn_to_send_ = 0;
  std::uint32_t churn_open_ = 0;
  bool probing_ = false;
  std::uint64_t revoke_posted_ns_ = 0;
  std::uint32_t revoke_seen_ = 0;
  std::uint64_t revoke_last_ns_ = 0;
  // Written by loop-thread closures, read after a notification.
  std::atomic<std::uint64_t> inserted_id_{0};
  std::atomic<std::uint32_t> loop_done_{0};
  std::uint32_t loop_done_seen_ = 0;
  std::atomic<std::uint32_t> loop_failures_{0};
};

}  // namespace perfbench
