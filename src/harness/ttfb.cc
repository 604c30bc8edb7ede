#include "harness/ttfb.h"

#include <functional>
#include <memory>

#include "bus/message_bus.h"
#include "common/rng.h"
#include "controller/learning_controller.h"
#include "core/dfi_system.h"
#include "sim/simulator.h"
#include "testbed/network.h"

namespace dfi {

TtfbResult run_ttfb_experiment(const TtfbConfig& config) {
  Simulator sim;
  MessageBus bus;
  Rng rng(config.seed);
  TtfbResult result;

  // Data plane: one switch, prober + responder + background source.
  Network network(sim);
  network.add_switch(Dpid{1});
  Host& prober = network.add_host(Hostname{"prober"},
                                  MacAddress::from_u64(0x020000000001ull), Dpid{1},
                                  PortNo{2});
  Host& responder = network.add_host(Hostname{"responder"},
                                     MacAddress::from_u64(0x020000000002ull), Dpid{1},
                                     PortNo{3});
  network.add_host(Hostname{"background"}, MacAddress::from_u64(0x020000000003ull),
                   Dpid{1}, PortNo{4});

  prober.set_ip(Ipv4Address(10, 0, 0, 1));
  responder.set_ip(Ipv4Address(10, 0, 0, 2));
  (*network.arp())[prober.ip()] = prober.mac();
  (*network.arp())[responder.ip()] = responder.mac();
  responder.open_port(80);

  ControllerConfig controller_config;  // ~2 ms processing: no-DFI TTFB 4-6 ms
  LearningController controller(sim, controller_config, Rng(config.seed ^ 0xc2ull));

  std::unique_ptr<DfiSystem> dfi;
  if (config.with_dfi) {
    DfiConfig dfi_config;
    dfi_config.seed = config.seed;
    dfi_config.pcp.binding_query_mean_ms *= config.e2e_service_scale;
    dfi_config.pcp.binding_query_sd_ms *= config.e2e_service_scale;
    dfi_config.pcp.policy_query_mean_ms *= config.e2e_service_scale;
    dfi_config.pcp.policy_query_sd_ms *= config.e2e_service_scale;
    dfi_config.pcp.other_mean_ms *= config.e2e_service_scale;
    dfi_config.pcp.other_sd_ms *= config.e2e_service_scale;
    dfi = std::make_unique<DfiSystem>(sim, bus, dfi_config);
    network.attach_dfi_control(*dfi, controller);
  } else {
    network.attach_direct_control(controller);
  }
  network.settle();

  if (dfi != nullptr) {
    PolicyRule allow_all;
    allow_all.action = PolicyAction::kAllow;
    dfi->policy_manager().insert(allow_all, PdpPriority{1}, "ttfb-allow-all");
  }

  const SimTime window_end = sim.now() + config.duration;

  // Background: open-loop randomized Ethernet frames, each a fresh flow.
  auto bg_count = std::make_shared<std::uint64_t>(0);
  if (config.background_fps > 0.0) {
    auto bg_rng = std::make_shared<Rng>(rng.fork());
    auto arrival = std::make_shared<std::function<void()>>();
    *arrival = [&sim, &network, bg_rng, bg_count, window_end, arrival,
                fps = config.background_fps]() {
      if (sim.now() >= window_end) return;
      Packet packet;
      packet.eth.src =
          MacAddress::from_u64(0x0e0000000000ull | (bg_rng->next_u64() & 0xffffffffull));
      packet.eth.dst =
          MacAddress::from_u64(0x0e0100000000ull | (bg_rng->next_u64() & 0xffffffffull));
      packet.eth.ether_type = static_cast<std::uint16_t>(EtherType::kExperimental);
      network.inject(Dpid{1}, PortNo{4}, packet.serialize());
      ++*bg_count;
      sim.schedule_after(seconds(bg_rng->exponential(1.0 / fps)), *arrival);
    };
    sim.schedule_after(seconds(0.001), *arrival);
  }

  // Probes: periodic TCP connects; TTFB = SYN -> SYN-ACK (both directions
  // traverse the control plane on their first packet).
  auto probe = std::make_shared<std::function<void()>>();
  ConnectOptions probe_options;
  probe_options.timeout = seconds(2.0);
  probe_options.rto = milliseconds(150);  // SYN retransmit after a drop
  probe_options.max_syn_retries = 8;
  *probe = [&sim, &prober, &responder, &result, probe, probe_options, window_end,
            interval = config.probe_interval]() {
    if (sim.now() >= window_end) return;
    ++result.probes_sent;
    prober.connect(
        responder.ip(), 80,
        [&result](const ConnectResult& outcome) {
          if (outcome.connected) {
            result.ttfb_ms.add(outcome.time_to_first_byte.to_ms());
          } else {
            ++result.probes_failed;
          }
        },
        probe_options);
    sim.schedule_after(interval, *probe);
  };
  sim.schedule_after(milliseconds(10.0), *probe);

  sim.run_until(window_end + seconds(5.0));  // let trailing probes resolve

  result.background_flows = *bg_count;
  if (dfi != nullptr) {
    result.proxy = dfi->proxy().stats();
    result.health = dfi->health().stats();
    result.pcp = dfi->pcp().stats();
  }
  return result;
}

}  // namespace dfi
