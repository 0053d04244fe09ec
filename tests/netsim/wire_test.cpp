#include "netsim/wire.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "netsim/event.hpp"
#include "netsim/fabric.hpp"
#include "netsim/link.hpp"
#include "netsim/switch.hpp"

namespace smt::sim {
namespace {

constexpr std::uint64_t kStream = 3;
constexpr int kPackets = 2000;
// Far above serialisation (~86 ns) + the largest jitter: a switch port
// never has more than one packet in flight, so both owners see each
// packet on an idle wire.
constexpr SimDuration kSpacing = usec(10);

FaultProfile ge_corrupt_jitter() {
  FaultProfile f;
  f.p_good_to_bad = 0.05;
  f.p_bad_to_good = 0.3;
  f.good_loss_rate = 0.01;
  f.bad_loss_rate = 0.6;
  f.corrupt_rate = 0.05;
  f.reorder_rate = 0.2;
  f.reorder_jitter = usec(4);
  f.seed = 77;
  return f;
}

FaultProfile with_flaps(FaultProfile f) {
  f.flap_period = usec(500);
  f.flap_down = usec(100);
  f.flap_offset = usec(50);
  return f;
}

Packet numbered(std::uint64_t id) {
  Packet pkt;
  pkt.hdr.flow.dst_ip = 1;
  pkt.hdr.type = PacketType::data;
  pkt.hdr.msg_id = id;
  pkt.payload.assign(1000, 0x5a);
  return pkt;
}

struct Delivery {
  SimTime arrival = 0;
  bool corrupted = false;
};
using Deliveries = std::map<std::uint64_t, Delivery>;  // by msg_id

Deliveries through_link(const FaultProfile& fault) {
  EventLoop loop;
  LinkConfig config;
  config.fault = fault;
  LinkDirection dir(loop, config, kStream);
  Deliveries out;
  dir.set_receiver([&](Packet pkt) {
    out[pkt.hdr.msg_id] = {loop.now(), pkt.hdr.corrupted};
  });
  for (int i = 0; i < kPackets; ++i) {
    loop.schedule_at(i * kSpacing, [&dir, i] { dir.send(numbered(i)); });
  }
  loop.run();
  return out;
}

Deliveries through_switch_port(const FaultProfile& fault) {
  EventLoop loop;
  Switch sw(loop, SwitchConfig{});
  Deliveries out;
  const std::size_t port = sw.add_port([&](Packet pkt) {
    out[pkt.hdr.msg_id] = {loop.now(), pkt.hdr.corrupted};
  });
  sw.set_route(1, port);
  sw.set_port_latency(port, usec(1));
  sw.set_port_fault(port, fault, kStream);
  for (int i = 0; i < kPackets; ++i) {
    loop.schedule_at(i * kSpacing, [&sw, i] { sw.receive(numbered(i)); });
  }
  loop.run();
  return out;
}

/// Per delivered packet: (extra delay over the no-fault run, corrupted).
std::map<std::uint64_t, std::pair<SimDuration, bool>> fault_effects(
    const Deliveries& faulted, const Deliveries& clean) {
  std::map<std::uint64_t, std::pair<SimDuration, bool>> effects;
  for (const auto& [id, d] : faulted) {
    effects[id] = {d.arrival - clean.at(id).arrival, d.corrupted};
  }
  return effects;
}

TEST(WireTest, LinkAndSwitchPortShareOneFaultModel) {
  // Same profile, same stream, no uniform loss or predicate: the edge
  // link and the fabric-core port must kill the same packets, flag the
  // same packets corrupted, and jitter each survivor by the same amount.
  const FaultProfile fault = ge_corrupt_jitter();
  const Deliveries link_clean = through_link({});
  const Deliveries port_clean = through_switch_port({});
  ASSERT_EQ(link_clean.size(), std::size_t(kPackets));
  ASSERT_EQ(port_clean.size(), std::size_t(kPackets));

  const Deliveries link = through_link(fault);
  const Deliveries port = through_switch_port(fault);
  std::set<std::uint64_t> link_ids, port_ids;
  for (const auto& [id, d] : link) link_ids.insert(id);
  for (const auto& [id, d] : port) port_ids.insert(id);
  EXPECT_EQ(link_ids, port_ids) << "different packets killed";

  const auto effects = fault_effects(link, link_clean);
  EXPECT_EQ(effects, fault_effects(port, port_clean));

  // The profile must actually have exercised all three draws.
  std::size_t corrupted = 0, jittered = 0;
  for (const auto& [id, e] : effects) {
    corrupted += e.second ? 1 : 0;
    jittered += e.first > 0 ? 1 : 0;
  }
  EXPECT_LT(link.size(), std::size_t(kPackets));
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(jittered, 0u);
}

TEST(WireTest, LinkConservesPacketsAcrossDropCauses) {
  EventLoop loop;
  LinkConfig config;
  config.loss_rate = 0.02;
  config.fault = with_flaps(ge_corrupt_jitter());
  LinkDirection dir(loop, config, kStream);
  std::uint64_t delivered = 0, corrupted = 0;
  dir.set_receiver([&](Packet pkt) {
    ++delivered;
    corrupted += pkt.hdr.corrupted ? 1 : 0;
  });
  dir.set_drop_predicate(
      [](const Packet& pkt) { return pkt.hdr.msg_id % 97 == 0; });
  for (int i = 0; i < kPackets; ++i) {
    loop.schedule_at(i * usec(1), [&dir, i] { dir.send(numbered(i)); });
  }
  loop.run();

  EXPECT_EQ(dir.packets_sent(), std::uint64_t(kPackets));
  EXPECT_GT(dir.dropped_by_predicate(), 0u);
  EXPECT_GT(dir.dropped_by_loss(), 0u);
  EXPECT_GT(dir.dropped_by_fault(), 0u);
  EXPECT_EQ(dir.packets_sent(), delivered + dir.dropped_by_predicate() +
                                    dir.dropped_by_loss() +
                                    dir.dropped_by_fault());
  EXPECT_EQ(dir.packets_dropped(), dir.packets_sent() - delivered);
  EXPECT_EQ(dir.packets_corrupted(), corrupted);
}

TEST(WireTest, SwitchPortConservesPacketsAcrossDropCauses) {
  EventLoop loop;
  SwitchConfig c;
  c.queue_capacity_bytes = 4 * numbered(0).wire_size();
  c.trimming_enabled = false;  // overflow drops instead of trimming
  Switch sw(loop, c);
  std::uint64_t delivered = 0;
  const std::size_t port = sw.add_port([&](Packet) { ++delivered; });
  sw.set_route(1, port);
  sw.set_port_fault(port, with_flaps(ge_corrupt_jitter()), kStream);
  // Bursts of 8 into a 4-packet queue: both overflow and fault drops.
  constexpr int kBurst = 8;
  for (int i = 0; i < kPackets; ++i) {
    loop.schedule_at((i / kBurst) * usec(5),
                     [&sw, i] { sw.receive(numbered(i)); });
  }
  loop.run();

  const Switch::Stats& s = sw.stats();
  const Switch::PortStats p = sw.port_stats(port);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.fault_dropped, 0u);
  EXPECT_EQ(std::uint64_t(kPackets), delivered + s.dropped + s.fault_dropped);
  EXPECT_EQ(p.forwarded, delivered + p.fault_dropped);
  EXPECT_EQ(p.dropped, s.dropped);
  EXPECT_EQ(p.fault_dropped, s.fault_dropped);
}

TEST(WireTest, OwnersShareOneValidator) {
  FaultProfile bad_prob;
  bad_prob.corrupt_rate = 1.5;
  EXPECT_EQ(bad_prob.validate().message(),
            "probabilities must be within [0, 1]");
  FaultProfile always_down;
  always_down.flap_period = usec(10);
  always_down.flap_down = usec(10);
  EXPECT_EQ(always_down.validate().code(), Errc::invalid_argument);
  EXPECT_TRUE(with_flaps(ge_corrupt_jitter()).validate().ok());

  SwitchConfig no_probe;
  no_probe.health_dark_threshold = 2;
  no_probe.health_probe_interval = 0;
  EXPECT_EQ(no_probe.validate().code(), Errc::invalid_argument);
  EXPECT_TRUE(SwitchConfig{}.validate().ok());

  // The fabric prefixes the shared messages with its own field names.
  FabricSpec spec;
  spec.fabric_fault = bad_prob;
  EXPECT_EQ(spec.validate().message(),
            "fabric: fabric_fault: probabilities must be within [0, 1]");
  spec.fabric_fault = {};
  spec.switch_config = no_probe;
  EXPECT_EQ(spec.validate().message().rfind("fabric: switch: ", 0), 0u);
}

}  // namespace
}  // namespace smt::sim
