#include "core/proxy.h"

#include "common/logging.h"
#include "core/health_monitor.h"

namespace dfi {

DfiProxy::DfiProxy(Simulator& sim, PolicyCompilationPoint& pcp, ProxyConfig config,
                   Rng rng)
    : sim_(sim), pcp_(pcp), config_(config), rng_(rng) {
  if (!config_.zero_latency) {
    latency_ =
        LogNormalParams::from_moments(config_.latency_mean_ms, config_.latency_sd_ms);
  }
}

DfiProxy::~DfiProxy() {
  *alive_ = false;
  for (const auto& session : sessions_) {
    // Outstanding deferred deliveries must become no-ops: the sessions and
    // the pool die with the proxy.
    *session->alive_ = false;
    if (session->dpid_.has_value()) pcp_.unregister_switch(*session->dpid_);
  }
}

const ProxyStats& DfiProxy::stats() const {
  // The buffer pool's counters are mirrored on read (perfbench reads them
  // beside the frame counters).
  const FrameBufferPool::Stats pool = pool_.stats();
  stats_.pool_acquires = pool.acquires;
  stats_.pool_reuses = pool.reuses;
  return stats_;
}

DfiProxy::Session& DfiProxy::create_session(SendFn to_switch, SendFn to_controller) {
  sessions_.push_back(
      std::make_unique<Session>(*this, std::move(to_switch), std::move(to_controller)));
  return *sessions_.back();
}

void DfiProxy::destroy_session(Session& session) {
  // Kill outstanding closures first: an in-flight PCP decision callback or
  // deferred delivery may fire after the erase below frees the session.
  *session.alive_ = false;
  // A pending coalesced egress buffer dies with the session — undelivered,
  // but returned to the pool so outstanding-buffer accounting stays exact.
  if (session.pending_egress_active_) {
    session.pending_egress_active_ = false;
    pool_.release(std::move(session.pending_egress_));
  }
  if (session.dpid_.has_value()) pcp_.unregister_switch(*session.dpid_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == &session) {
      sessions_.erase(it);
      return;
    }
  }
}

void DfiProxy::flush_egress() {
  for (const auto& session : sessions_) session->flush_switch_egress();
}

void DfiProxy::after_proxy_delay(std::function<void()> deliver) {
  double delay_ms = 0.0;
  if (!config_.zero_latency) {
    delay_ms = rng_.lognormal(latency_);
    latency_ms_.add(delay_ms);
  }
  sim_.schedule_after(milliseconds(delay_ms), std::move(deliver));
}

DfiProxy::Session::Session(DfiProxy& proxy, SendFn to_switch, SendFn to_controller)
    : proxy_(proxy), to_switch_(std::move(to_switch)),
      to_controller_(std::move(to_controller)) {}

void DfiProxy::Session::send_to_switch(const OfMessage& message) {
  const auto bytes = encode(message);
  to_switch_(bytes);
}

void DfiProxy::Session::send_to_controller(const OfMessage& message) {
  const auto bytes = encode(message);
  to_controller_(bytes);
}

void DfiProxy::Session::defer_to_switch(OfMessage message) {
  if (proxy_.config_.coalesce_egress) {
    // Decided FlowMods (and every other switch-bound message) join the
    // session's pending multi-frame write instead of paying a deferred
    // delivery each. encode_scratch_ keeps its capacity across appends.
    encode_into(message, encode_scratch_);
    append_switch_bytes(encode_scratch_.data(), encode_scratch_.size());
    return;
  }
  std::vector<std::uint8_t> frame = proxy_.pool_.acquire();
  encode_into(message, frame);
  defer_frame_to_switch(std::move(frame));
}

void DfiProxy::Session::defer_to_controller(OfMessage message) {
  std::vector<std::uint8_t> frame = proxy_.pool_.acquire();
  encode_into(message, frame);
  defer_bytes_to_controller(std::move(frame));
}

void DfiProxy::Session::defer_bytes_to_switch(std::vector<std::uint8_t> frame) {
  if (proxy_.config_.coalesce_egress) {
    append_switch_bytes(frame.data(), frame.size());
    proxy_.pool_.release(std::move(frame));
    return;
  }
  defer_frame_to_switch(std::move(frame));
}

void DfiProxy::Session::append_switch_bytes(const std::uint8_t* data,
                                            std::size_t size) {
  if (!pending_egress_active_) {
    pending_egress_ = proxy_.pool_.acquire();
    pending_egress_active_ = true;
  }
  pending_egress_.insert(pending_egress_.end(), data, data + size);
  // Watermark backpressure: one buffer never grows past roughly the
  // configured bound, so a quiet flush_egress() caller still sees bounded
  // per-session memory and the switch sees timely writes under load.
  if (pending_egress_.size() >= proxy_.config_.egress_watermark_bytes) {
    flush_switch_egress();
  }
}

void DfiProxy::Session::flush_switch_egress() {
  if (!pending_egress_active_) return;
  pending_egress_active_ = false;
  std::vector<std::uint8_t> out = std::move(pending_egress_);
  pending_egress_ = {};
  defer_frame_to_switch(std::move(out));
}

void DfiProxy::Session::defer_frame_to_switch(std::vector<std::uint8_t> frame) {
  proxy_.after_proxy_delay([this, proxy = &proxy_, alive = alive_,
                            proxy_alive = proxy_.alive_,
                            out = std::move(frame)]() mutable {
    // Severed session: nothing is delivered. Either way the pooled buffer
    // goes home through the captured proxy pointer, never `this` — the
    // SendFn may request teardown of its own session (the socket frontend's
    // overflow sever), after which `this` is untrusted.
    if (*alive) to_switch_(out);
    if (*proxy_alive) proxy->pool_.release(std::move(out));
  });
}

void DfiProxy::Session::defer_bytes_to_controller(std::vector<std::uint8_t> frame) {
  proxy_.after_proxy_delay([this, proxy = &proxy_, alive = alive_,
                            proxy_alive = proxy_.alive_,
                            out = std::move(frame)]() mutable {
    if (*alive) to_controller_(out);
    if (*proxy_alive) proxy->pool_.release(std::move(out));
  });
}

void DfiProxy::Session::switch_frame(const FrameView& view) {
  ++proxy_.stats_.from_switch;
  // A Packet-in run spans only consecutive table-0 Packet-ins: any other
  // frame, fast-path ones included, submits the run first, so submissions
  // and deferrals keep the order per-frame delivery would give them.
  const bool table0_packet_in = view.type() == OfType::kPacketIn &&
                                view.size() > kPacketInTableOffset &&
                                view.data()[kPacketInTableOffset] == 0;
  if (!table0_packet_in) flush_packet_ins();
  fast_path_from_switch(view);
}

void DfiProxy::Session::controller_frame(const FrameView& view) {
  ++proxy_.stats_.from_controller;
  fast_path_from_controller(view);
}

void DfiProxy::Session::switch_batch_end() {
  // A Packet-in run never outlives its read batch: everything the switch
  // sent in this read is on its way to the PCP before control returns.
  flush_packet_ins();
  // Same rule for the coalesced write side: whatever this read produced for
  // the switch (handshake replies, resync clears, shifted mods) goes out at
  // batch end, not at the next watermark crossing — a below-watermark
  // handshake must not wedge waiting for unrelated traffic.
  flush_switch_egress();
}

void DfiProxy::Session::controller_batch_end() { flush_switch_egress(); }

void DfiProxy::Session::switch_stream_corrupt() {
  ++proxy_.stats_.from_switch;
  ++proxy_.stats_.malformed;
  DFI_WARN << "proxy: malformed frame from switch: frame length < 8";
}

void DfiProxy::Session::controller_stream_corrupt() {
  ++proxy_.stats_.from_controller;
  ++proxy_.stats_.malformed;
  DFI_WARN << "proxy: malformed frame from controller: frame length < 8";
}

void DfiProxy::Session::from_switch(const std::vector<std::uint8_t>& chunk) {
  switch_decoder_.feed(chunk);
  FrameView view;
  for (;;) {
    const FrameStatus status = switch_decoder_.next_frame(view);
    if (status == FrameStatus::kAwait) break;
    if (status == FrameStatus::kCorrupt) {
      switch_stream_corrupt();
      break;  // the decoder reset the stream
    }
    switch_frame(view);
  }
  switch_batch_end();
}

void DfiProxy::Session::from_controller(const std::vector<std::uint8_t>& chunk) {
  controller_decoder_.feed(chunk);
  FrameView view;
  for (;;) {
    const FrameStatus status = controller_decoder_.next_frame(view);
    if (status == FrameStatus::kAwait) break;
    if (status == FrameStatus::kCorrupt) {
      controller_stream_corrupt();
      break;
    }
    controller_frame(view);
  }
  controller_batch_end();
}

void DfiProxy::Session::fast_path_from_switch(const FrameView& view) {
  switch (classify(view, ProxyDirection::kSwitchToController, switch_num_tables_)) {
    case FrameClass::kPassThrough:
      ++proxy_.stats_.frames_fast_path;
      defer_bytes_to_controller(proxy_.pool_.acquire_copy(view.data(), view.size()));
      return;
    case FrameClass::kPatch: {
      if (view.type() == OfType::kFlowRemoved &&
          view.data()[kFlowRemovedTableOffset] == 0) {
        // DFI-internal rule expiry: invisible to the controller, dropped
        // without even a copy.
        ++proxy_.stats_.frames_fast_path;
        return;
      }
      std::vector<std::uint8_t> frame =
          proxy_.pool_.acquire_copy(view.data(), view.size());
      if (!patch_table_refs(frame.data(), frame.size(),
                            ProxyDirection::kSwitchToController)) {
        proxy_.pool_.release(std::move(frame));
        break;  // revalidation failed: slow path decides on the original bytes
      }
      ++proxy_.stats_.frames_patched;
      defer_bytes_to_controller(std::move(frame));
      return;
    }
    case FrameClass::kDecode:
      break;
  }
  ++proxy_.stats_.frames_decoded;
  auto result = decode(view);
  if (!result.ok()) {
    ++proxy_.stats_.malformed;
    DFI_WARN << "proxy: malformed frame from switch: " << result.error().message;
    return;
  }
  handle_switch_message(std::move(result).value());
}

void DfiProxy::Session::fast_path_from_controller(const FrameView& view) {
  switch (classify(view, ProxyDirection::kControllerToSwitch, switch_num_tables_)) {
    case FrameClass::kPassThrough:
      ++proxy_.stats_.frames_fast_path;
      defer_bytes_to_switch(proxy_.pool_.acquire_copy(view.data(), view.size()));
      return;
    case FrameClass::kPatch: {
      std::vector<std::uint8_t> frame =
          proxy_.pool_.acquire_copy(view.data(), view.size());
      if (!patch_table_refs(frame.data(), frame.size(),
                            ProxyDirection::kControllerToSwitch)) {
        proxy_.pool_.release(std::move(frame));
        break;
      }
      ++proxy_.stats_.frames_patched;
      if (view.type() == OfType::kFlowMod) ++proxy_.stats_.flow_mods_shifted;
      defer_bytes_to_switch(std::move(frame));
      return;
    }
    case FrameClass::kDecode:
      break;
  }
  ++proxy_.stats_.frames_decoded;
  auto result = decode(view);
  if (!result.ok()) {
    ++proxy_.stats_.malformed;
    DFI_WARN << "proxy: malformed frame from controller: " << result.error().message;
    return;
  }
  handle_controller_message(std::move(result).value());
}

void DfiProxy::Session::flush_packet_ins() {
  if (pending_pins_.empty()) return;
  proxy_.pcp_.handle_packet_in_batch(pending_pins_);
  for (const auto& item : pending_pins_) {
    if (!item.accepted) {
      // PCP queue full: dropped exactly like a rejected handle_packet_in;
      // the flow re-enters on endpoint retransmission (paper Section V-A).
      ++proxy_.stats_.packet_ins_suppressed;
    }
  }
  pending_pins_.clear();
}

void DfiProxy::Session::handle_switch_message(OfMessage message) {
  // Learn identity from the handshake and register this switch with the
  // PCP; the PCP's writes (Table 0 flow mods) go straight to the switch,
  // not through table shifting.
  if (auto* features = std::get_if<FeaturesReplyMsg>(&message.payload)) {
    dpid_ = features->datapath_id;
    switch_num_tables_ = features->n_tables;
    proxy_.pcp_.register_switch(*dpid_, [this, alive = alive_](const OfMessage& msg) {
      if (*alive) defer_to_switch(msg);
    });
    // Hide DFI's reserved table from the controller.
    FeaturesReplyMsg shifted = *features;
    if (shifted.n_tables > 0) --shifted.n_tables;
    defer_to_controller(OfMessage{message.xid, shifted});
    return;
  }

  if (auto* packet_in = std::get_if<PacketInMsg>(&message.payload)) {
    if (packet_in->table_id == 0) {
      // Miss in DFI's table: this flow has no access-control decision yet.
      // The PCP decides first; only allowed packets reach the controller.
      if (!dpid_.has_value()) {
        ++proxy_.stats_.packet_ins_suppressed;
        DFI_WARN << "proxy: packet-in before handshake completed; dropped";
        return;
      }
      // Degraded-mode gate (DESIGN.md §6): while the control plane is
      // degraded or recovering the PCP's answer cannot be trusted — the
      // store may be mid-replay, shards may be dead. Fail-secure extends
      // default-deny to component failure: the flow is suppressed and
      // re-enters on retransmission once the plane is healthy (invariant
      // I1 holds through the window by construction). Fail-open is the
      // paper-discussed alternative stance, implemented for the ablation:
      // the controller sees the packet undecided.
      if (proxy_.health_ != nullptr && proxy_.health_->gating()) {
        if (proxy_.health_->mode() == DegradedMode::kFailSecure) {
          ++proxy_.stats_.packet_ins_suppressed;
          ++proxy_.stats_.degraded_suppressed;
          return;
        }
        ++proxy_.stats_.degraded_forwarded;
        ++proxy_.stats_.packet_ins_forwarded;
        flush_packet_ins();  // this delivery is not part of the run
        defer_to_controller(OfMessage{message.xid, *packet_in});
        return;
      }
      ++proxy_.stats_.packet_ins_to_pcp;
      // Join the current run; the next other frame or the end of the
      // chunk flushes it to handle_packet_in_batch.
      PolicyCompilationPoint::BatchItem item;
      item.dpid = *dpid_;
      item.done = [this, alive = alive_, xid = message.xid,
                   original = *packet_in](const PcpDecision& decision) {
        // Session torn down while the decision was in flight: nothing
        // to deliver and `this` may be gone — the token is the only
        // safe thing to touch.
        if (!*alive) return;
        if (!decision.allow) {
          ++proxy_.stats_.packet_ins_suppressed;
          return;  // denied: the controller never sees this packet
        }
        ++proxy_.stats_.packet_ins_forwarded;
        // Table 0 in the controller's shifted view is its own first
        // table, so table_id 0 is already correct after the allow.
        defer_to_controller(OfMessage{xid, original});
      };
      item.msg = std::move(*packet_in);  // `original` above holds the copy
      pending_pins_.push_back(std::move(item));
      return;
    }
    // Miss in a controller table: the flow already passed DFI's Table 0.
    PacketInMsg shifted = *packet_in;
    --shifted.table_id;
    defer_to_controller(OfMessage{message.xid, shifted});
    return;
  }

  if (auto* removed = std::get_if<FlowRemovedMsg>(&message.payload)) {
    if (removed->table_id == 0) return;  // DFI-internal; invisible to controller
    FlowRemovedMsg shifted = *removed;
    --shifted.table_id;
    defer_to_controller(OfMessage{message.xid, shifted});
    return;
  }

  if (auto* reply = std::get_if<MultipartReplyMsg>(&message.payload)) {
    MultipartReplyMsg shifted;
    shifted.stats_type = reply->stats_type;
    shifted.port_stats = reply->port_stats;  // port stats carry no table ids
    for (const auto& entry : reply->flow_stats) {
      if (entry.table_id == 0) {
        ++proxy_.stats_.stats_entries_hidden;
        continue;  // DFI rules are not reported to the controller
      }
      FlowStatsEntry adjusted = entry;
      --adjusted.table_id;
      if (adjusted.instructions.goto_table.has_value() &&
          *adjusted.instructions.goto_table > 0) {
        --*adjusted.instructions.goto_table;
      }
      shifted.flow_stats.push_back(std::move(adjusted));
    }
    defer_to_controller(OfMessage{message.xid, std::move(shifted)});
    return;
  }

  // Hello, Echo, Error, Barrier replies: pass through unchanged.
  defer_to_controller(std::move(message));
}

void DfiProxy::Session::handle_controller_message(OfMessage message) {
  if (auto* flow_mod = std::get_if<FlowModMsg>(&message.payload)) {
    FlowModMsg shifted = *flow_mod;
    if (shifted.table_id == 0xff) {
      // OFPTT_ALL is only valid for deletes; it must not touch Table 0.
      // Expand to one delete per controller-visible table.
      if (shifted.command == FlowModCommand::kDelete ||
          shifted.command == FlowModCommand::kDeleteStrict) {
        const std::uint8_t tables = switch_num_tables_ == 0 ? 4 : switch_num_tables_;
        for (std::uint8_t table = 1; table < tables; ++table) {
          FlowModMsg per_table = shifted;
          per_table.table_id = table;
          if (per_table.instructions.goto_table.has_value()) {
            ++*per_table.instructions.goto_table;
          }
          ++proxy_.stats_.flow_mods_shifted;
          defer_to_switch(OfMessage{message.xid, std::move(per_table)});
        }
        return;
      }
      // ADD/MODIFY to ALL is a controller bug; reject.
      ++proxy_.stats_.controller_errors;
      defer_to_controller(OfMessage{
          message.xid, ErrorMsg{/*FLOW_MOD_FAILED*/ 5, /*BAD_TABLE_ID*/ 2, {}}});
      return;
    }
    const std::uint8_t tables = switch_num_tables_ == 0 ? 4 : switch_num_tables_;
    if (shifted.table_id + 1 >= tables) {
      // The controller addressed a table beyond its shifted range.
      ++proxy_.stats_.controller_errors;
      defer_to_controller(OfMessage{
          message.xid, ErrorMsg{/*FLOW_MOD_FAILED*/ 5, /*BAD_TABLE_ID*/ 2, {}}});
      return;
    }
    ++shifted.table_id;
    if (shifted.instructions.goto_table.has_value()) {
      ++*shifted.instructions.goto_table;
    }
    ++proxy_.stats_.flow_mods_shifted;
    defer_to_switch(OfMessage{message.xid, std::move(shifted)});
    return;
  }

  if (auto* request = std::get_if<MultipartRequestMsg>(&message.payload)) {
    MultipartRequestMsg shifted = *request;
    if (shifted.stats_type == kStatsTypeFlow && shifted.flow_request.table_id != 0xff) {
      ++shifted.flow_request.table_id;
    }
    defer_to_switch(OfMessage{message.xid, std::move(shifted)});
    return;
  }

  // Hello, Echo, FeaturesRequest, PacketOut, Barrier: pass through.
  defer_to_switch(std::move(message));
}

}  // namespace dfi
