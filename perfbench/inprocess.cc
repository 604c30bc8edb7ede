#include "inprocess.h"

#include <cstring>
#include <stdexcept>

#include "bus/message_bus.h"
#include "core/decision_cache.h"
#include "core/dfi_system.h"
#include "core/journal.h"
#include "core/pcp_decide.h"
#include "openflow/wire.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace dfi;

PoolLatency pool_latency(const PolicyCompilationPoint& pcp) {
  PoolLatency out;
  double p50 = 0, p99 = 0;
  for (std::size_t s = 0; s < pcp.shard_count(); ++s) {
    const SampleStats& stats = pcp.pool().decision_latency_us(s);
    const double n = static_cast<double>(stats.count());
    if (stats.count() == 0) continue;
    p50 += stats.percentile(50.0) * n;
    p99 += stats.percentile(99.0) * n;
    out.samples += stats.count();
  }
  if (out.samples > 0) {
    out.p50_us = p50 / static_cast<double>(out.samples);
    out.p99_us = p99 / static_cast<double>(out.samples);
  }
  return out;
}

namespace {

constexpr std::size_t kBatchRounds = 256;  // batched replay: rounds of kWindow per session
constexpr std::size_t kIsolated = 2000;    // isolated decision-path calls
constexpr std::size_t kBindingPairs = 200;
constexpr std::size_t kPolicyRounds = 32;

// The replay world: one recovered system and one proxy session per switch,
// whose SendFns capture what the socket frontend would write.
class Replay {
 public:
  Replay(const Scenario& scenario, InprocResult& result)
      : scenario_(scenario),
        result_(result),
        spans_(result.spans),
        store_(scenario.compacted()),
        journal_(store_),
        system_(sim_, bus_, Scenario::config()) {
    n_op1_ = spans_.intern("inproc.op");
    n_batch_ = spans_.intern("inproc.batch");
    n_switch_frame_ = spans_.intern("proxy.switch_frame");
    n_controller_frame_ = spans_.intern("proxy.controller_frame");
    n_switch_batch_end_ = spans_.intern("proxy.switch_batch_end");
    n_controller_batch_end_ = spans_.intern("proxy.controller_batch_end");
    n_sim_run_ = spans_.intern("sim.run");
    n_wait_idle_ = spans_.intern("pcp.wait_idle");
    n_flush_egress_ = spans_.intern("proxy.flush_egress");
    n_send_switch_ = spans_.intern("send.to_switch");
    n_send_controller_ = spans_.intern("send.to_controller");
    if (!system_.recover_from(journal_).ok()) throw std::runtime_error("in-process recovery failed");
    for (std::size_t c = 0; c < kConnections; ++c) {
      sessions_[c] = &system_.proxy().create_session(
          [this, c](const std::vector<std::uint8_t>& bytes) {
            ScopedSpan span(&spans_, n_send_switch_, op_);
            to_switch_[c].insert(to_switch_[c].end(), bytes.begin(), bytes.end());
          },
          [this, c](const std::vector<std::uint8_t>& bytes) {
            ScopedSpan span(&spans_, n_send_controller_, op_);
            to_controller_[c].insert(to_controller_[c].end(), bytes.begin(), bytes.end());
          });
    }
    handshake();
  }

  ~Replay() {
    for (auto* session : sessions_) system_.proxy().destroy_session(*session);
  }

  void single_step(std::uint64_t ops);
  void batched();
  void isolated();

 private:
  void handshake();
  void switch_frame(std::size_t c, Bytes frame) {
    const std::uint64_t before = system_.pcp().stats().packet_ins;
    {
      ScopedSpan span(&spans_, n_switch_frame_, op_);
      sessions_[c]->switch_frame(FrameView(scenario_.data(frame), frame.len));
    }
    note_submit(before);
  }
  void controller_frame(std::size_t c, Bytes frame) {
    ScopedSpan span(&spans_, n_controller_frame_, op_);
    sessions_[c]->controller_frame(FrameView(scenario_.data(frame), frame.len));
  }
  void switch_batch_end(std::size_t c) {
    const std::uint64_t before = system_.pcp().stats().packet_ins;
    {
      ScopedSpan span(&spans_, n_switch_batch_end_, op_);
      sessions_[c]->switch_batch_end();
    }
    note_submit(before);
  }
  void controller_batch_end(std::size_t c) {
    ScopedSpan span(&spans_, n_controller_batch_end_, op_);
    sessions_[c]->controller_batch_end();
  }
  // DfiSystem::pump(), one step at a time.
  void pump() {
    {
      ScopedSpan span(&spans_, n_sim_run_, op_);
      sim_.run();
    }
    {
      ScopedSpan span(&spans_, n_wait_idle_, op_);
      system_.pcp().wait_idle();
    }
    {
      ScopedSpan span(&spans_, n_flush_egress_, op_);
      system_.proxy().flush_egress();
    }
    {
      ScopedSpan span(&spans_, n_sim_run_, op_);
      sim_.run();
    }
  }
  void note_submit(std::uint64_t before) {
    const std::uint64_t after = system_.pcp().stats().packet_ins;
    if (after != before) {
      ++submits_;
      items_ += after - before;
    }
  }
  void expect(std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& want,
              const char* what) {
    if (got != want) {
      ++result_.mismatches;
      if (result_.errors.size() < 8) result_.errors.push_back(std::string("in-process ") + what);
    }
    got.clear();
  }
  void append(std::vector<std::uint8_t>& out, Bytes b) const {
    out.insert(out.end(), scenario_.data(b), scenario_.data(b) + b.len);
  }
  PacketInMsg packet_in_of(const PacketInOp& op) const {
    auto decoded = decode(FrameView(scenario_.data(op.request), op.request.len));
    if (!decoded.ok()) throw std::runtime_error("in-process: undecodable Packet-in");
    return std::get<PacketInMsg>(decoded.value().payload);
  }

  const Scenario& scenario_;
  InprocResult& result_;
  SpanRecorder& spans_;
  InMemoryJournalStore store_;
  Journal journal_;
  Simulator sim_;
  MessageBus bus_;
  DfiSystem system_;
  std::array<DfiProxy::Session*, kConnections> sessions_{};
  std::array<std::vector<std::uint8_t>, kConnections> to_switch_, to_controller_;
  std::array<std::size_t, kConnections> cursor_{};
  std::uint64_t op_ = 0;
  std::uint64_t submits_ = 0, items_ = 0;
  std::uint32_t n_op1_, n_batch_, n_switch_frame_, n_controller_frame_, n_switch_batch_end_,
      n_controller_batch_end_, n_sim_run_, n_wait_idle_, n_flush_egress_, n_send_switch_,
      n_send_controller_;
};

void Replay::handshake() {
  const Handshake& hs = scenario_.handshake();
  for (std::size_t c = 0; c < kConnections; ++c) {
    switch_frame(c, hs.switch_hello);
    switch_batch_end(c);
    pump();
    controller_frame(c, hs.controller_hello);
    controller_frame(c, hs.features_request);
    controller_batch_end(c);
    pump();
    switch_frame(c, hs.features_reply[c]);
    switch_batch_end(c);
    pump();
    std::vector<std::uint8_t> want;
    append(want, hs.switch_hello);
    append(want, hs.features_reply_shifted[c]);
    expect(to_controller_[c], want, "handshake (controller side)");
    want.clear();
    append(want, hs.controller_hello);
    append(want, hs.features_request);
    expect(to_switch_[c], want, "handshake (switch side)");
  }
  submits_ = items_ = 0;
}

// (b1) One operation at a time: the in-process turnaround.
void Replay::single_step(std::uint64_t ops) {
  const bool relay = scenario_.workload() == Workload::kRelay;
  std::vector<std::uint8_t> want;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::size_t c = i % kConnections;
    op_ = i + 1;
    const std::size_t open = spans_.open(n_op1_, op_);
    if (relay) {
      const auto& pool = scenario_.relay(c);
      const RelayOp& op = pool[cursor_[c]++ % pool.size()];
      controller_frame(c, op.send);
      controller_batch_end(c);
      pump();
      spans_.close(open);  // a relay operation ends at the switch
      if (op.reply.len != 0) {
        switch_frame(c, op.reply);
        switch_batch_end(c);
        pump();
      }
      want.clear();
      append(want, op.at_switch);
      expect(to_switch_[c], want, "relay shift (switch side)");
      want.clear();
      if (op.reply.len != 0) append(want, op.at_controller);
      expect(to_controller_[c], want, "relay reply (controller side)");
    } else {
      const auto& pool = scenario_.flows(c);
      const PacketInOp& op = pool[cursor_[c]++ % pool.size()];
      switch_frame(c, op.request);
      switch_batch_end(c);
      pump();
      spans_.close(open);
      want.clear();
      append(want, op.flow_mod);
      expect(to_switch_[c], want, "FlowMod");
      want.clear();
      if (op.allow) append(want, op.request);
      expect(to_controller_[c], want, "forwarded Packet-in");
    }
    const Span& span = spans_.spans()[open];
    result_.turnaround_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
  }
}

// (b2) kWindow operations per session per batch, the loaded socket shape.
void Replay::batched() {
  const bool relay = scenario_.workload() == Workload::kRelay;
  double depth_sum = 0;
  std::uint64_t depth_samples = 0;
  std::uint64_t wait_ns = 0, total_ns = 0;
  const std::uint32_t wait_name = n_wait_idle_;
  std::array<std::vector<std::uint8_t>, kConnections> want_sw, want_ctl;
  submits_ = items_ = 0;
  for (std::size_t round = 0; round < kBatchRounds; ++round) {
    op_ = 1000000 + round;
    const std::size_t first_span = spans_.spans().size();
    const std::size_t open = spans_.open(n_batch_, op_);
    std::array<std::vector<const RelayOp*>, kConnections> replies;
    for (std::size_t c = 0; c < kConnections; ++c) {
      for (std::size_t j = 0; j < kWindow; ++j) {
        if (relay) {
          const auto& pool = scenario_.relay(c);
          const RelayOp& op = pool[cursor_[c]++ % pool.size()];
          controller_frame(c, op.send);
          append(want_sw[c], op.at_switch);
          if (op.reply.len != 0) replies[c].push_back(&op);
        } else {
          const auto& pool = scenario_.flows(c);
          const PacketInOp& op = pool[cursor_[c]++ % pool.size()];
          switch_frame(c, op.request);
          append(want_sw[c], op.flow_mod);
          if (op.allow) append(want_ctl[c], op.request);
        }
      }
      if (relay) {
        controller_batch_end(c);
      } else {
        switch_batch_end(c);
      }
      depth_sum += static_cast<double>(system_.pcp().queue_depth());
      ++depth_samples;
    }
    pump();
    if (relay) {
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (replies[c].empty()) continue;
        for (const RelayOp* op : replies[c]) {
          switch_frame(c, op->reply);
          append(want_ctl[c], op->at_controller);
        }
        switch_batch_end(c);
        depth_sum += static_cast<double>(system_.pcp().queue_depth());
        ++depth_samples;
      }
      pump();
    }
    spans_.close(open);
    const auto& all = spans_.spans();
    total_ns += all[open].end_ns - all[open].start_ns;
    for (std::size_t s = first_span; s < all.size(); ++s) {
      if (all[s].name == wait_name) wait_ns += all[s].end_ns - all[s].start_ns;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      expect(to_switch_[c], want_sw[c], "batched replay (switch side)");
      expect(to_controller_[c], want_ctl[c], "batched replay (controller side)");
      want_sw[c].clear();
      want_ctl[c].clear();
    }
  }
  result_.items_per_submit =
      submits_ == 0 ? 0.0 : static_cast<double>(items_) / static_cast<double>(submits_);
  result_.queue_depth_mean =
      depth_samples == 0 ? 0.0 : depth_sum / static_cast<double>(depth_samples);
  result_.wait_idle_share =
      total_ns == 0 ? 0.0 : static_cast<double>(wait_ns) / static_cast<double>(total_ns);
}

// (c) Isolated calls into each decision-path layer.
void Replay::isolated() {
  const std::uint32_t n_submit = spans_.intern("pcp.handle_packet_in");
  const std::uint32_t n_drain = spans_.intern("pcp.isolated_drain");
  const std::uint32_t n_parse = spans_.intern("decide.parse");
  const std::uint32_t n_miss = spans_.intern("decide.miss");
  const std::uint32_t n_hit = spans_.intern("decide.hit");
  const std::uint32_t n_enrich = spans_.intern("erm.enrich");
  const std::uint32_t n_query = spans_.intern("policy.query");
  const std::uint32_t n_erm_apply = spans_.intern("erm.apply");
  const std::uint32_t n_erm_snapshot = spans_.intern("erm.snapshot");
  const std::uint32_t n_insert = spans_.intern("policy.insert");
  const std::uint32_t n_revoke = spans_.intern("policy.revoke");
  const std::uint32_t n_publish = spans_.intern("policy.publish");

  // Inputs: Packet-ins this system has not decided yet.
  std::vector<std::pair<std::size_t, const PacketInOp*>> inputs;
  for (std::size_t i = 0; i < kIsolated; ++i) {
    const std::size_t c = i % kConnections;
    const auto& pool = scenario_.flows(c);
    inputs.emplace_back(c, &pool[cursor_[c]++ % pool.size()]);
  }
  std::vector<std::uint8_t> want;

  // pcp().handle_packet_in: the submit call alone, then its drain.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto [c, op] = inputs[i];
    op_ = 2000000 + i;
    PacketInMsg msg = packet_in_of(*op);
    PolicyCompilationPoint::DecisionCallback done = [](const PcpDecision&) {};
    {
      ScopedSpan span(&spans_, n_submit, op_);
      system_.pcp().handle_packet_in(scenario_.dpid(c), std::move(msg), std::move(done));
    }
    {
      ScopedSpan span(&spans_, n_drain, op_);
      system_.pcp().wait_idle();
      sim_.run();
    }
    want.clear();
    append(want, op->flow_mod);
    expect(to_switch_[c], want, "isolated handle_packet_in FlowMod");
  }

  // decide_on_snapshots with the cache off (miss) and warm (hit), plus the
  // enrichment and policy query it is made of.
  PcpConfig config = Scenario::config().pcp;
  const DecisionSnapshots snapshots{system_.erm().snapshot_view(),
                                    system_.policy_manager().snapshot_view()};
  DecisionCache<PcpDecision> cold(0);
  DecisionCache<PcpDecision> warm(1 << 16);
  const std::uint64_t candidates0 = system_.policy_manager().index_stats().match_candidates;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto [c, op] = inputs[i];
    op_ = 3000000 + i;
    const PacketInMsg msg = packet_in_of(*op);
    DecisionInput input;
    {
      ScopedSpan span(&spans_, n_parse, op_);
      input = make_decision_input(scenario_.dpid(c), msg);
    }
    if (!input.packet.has_value()) throw std::runtime_error("in-process: unparsable flow");
    input.prior_src_location =
        system_.erm().location_of_mac(scenario_.dpid(c), input.packet->eth.src);
    DecisionEffects effects;
    {
      ScopedSpan span(&spans_, n_miss, op_);
      effects = decide_on_snapshots(input, snapshots, cold, config);
    }
    std::vector<std::uint8_t> got = encode(OfMessage{0, effects.decision.installed_rule});
    want.clear();
    append(want, op->flow_mod);
    expect(got, want, "decide_on_snapshots rule");
    decide_on_snapshots(input, snapshots, warm, config);
    {
      ScopedSpan span(&spans_, n_hit, op_);
      effects = decide_on_snapshots(input, snapshots, warm, config);
    }
    EndpointView src;
    src.mac = input.packet->eth.src;
    src.ip = input.packet->ipv4->src;
    {
      ScopedSpan span(&spans_, n_enrich, op_);
      src = system_.erm().enrich(std::move(src));
    }
    {
      ScopedSpan span(&spans_, n_query, op_);
      const PolicyDecision decision = system_.policy_manager().query(effects.decision.flow);
      if (decision.rule_id.value != op->cookie) {
        ++result_.mismatches;
        if (result_.errors.size() < 8) result_.errors.push_back("in-process policy query");
      }
    }
  }
  result_.candidates_per_query =
      static_cast<double>(system_.policy_manager().index_stats().match_candidates - candidates0) /
      static_cast<double>(inputs.size());

  // Mutations: ERM binding pairs and policy insert/revoke, each followed by
  // the publication the next decision would trigger.
  const JournalStats journal0 = journal_.stats();
  for (std::size_t i = 0; i < kBindingPairs; ++i) {
    op_ = 4000000 + i;
    const std::uint32_t host = scenario_.first_host(i % kConnections) +
                               static_cast<std::uint32_t>(i % scenario_.generator().config().hosts_per_switch);
    for (const bool retracted : {true, false}) {
      {
        ScopedSpan span(&spans_, n_erm_apply, op_);
        system_.erm().apply(scenario_.logon_event(host, retracted));
      }
      ScopedSpan span(&spans_, n_erm_snapshot, op_);
      if (system_.erm().snapshot_view().epoch() == 0) ++result_.mismatches;
    }
  }
  const auto& patterns = scenario_.patterns();
  for (std::size_t i = 0; i < kPolicyRounds; ++i) {
    op_ = 5000000 + i;
    const ChurnPattern& pattern = patterns[i % patterns.size()];
    PolicyRuleId id{};
    {
      ScopedSpan span(&spans_, n_insert, op_);
      id = system_.policy_manager().insert(pattern.rule, PdpPriority{kChurnPriority},
                                           "perfbench-churn");
    }
    {
      ScopedSpan span(&spans_, n_publish, op_);
      if (system_.policy_manager().snapshot_view() == nullptr) ++result_.mismatches;
    }
    {
      ScopedSpan span(&spans_, n_revoke, op_);
      if (!system_.policy_manager().revoke(id)) ++result_.mismatches;
    }
    {
      ScopedSpan span(&spans_, n_publish, op_);
      if (system_.policy_manager().snapshot_view() == nullptr) ++result_.mismatches;
    }
    sim_.run();  // deliver the flush DELETEs into the sessions
    for (std::size_t c = 0; c < kConnections; ++c) to_switch_[c].clear();
  }
  const JournalStats& journal1 = journal_.stats();
  const std::uint64_t appends = journal1.appends - journal0.appends;
  result_.journal_bytes_per_mutation =
      appends == 0 ? 0.0
                   : static_cast<double>(journal1.bytes_appended - journal0.bytes_appended) /
                         static_cast<double>(appends);
  system_.pcp().wait_idle();
  result_.pool = pool_latency(system_.pcp());
}

}  // namespace

InprocResult run_inprocess(const Scenario& scenario, std::uint64_t ops) {
  InprocResult result;
  Replay replay(scenario, result);
  replay.single_step(ops);
  replay.batched();
  replay.isolated();
  return result;
}

}  // namespace perfbench
