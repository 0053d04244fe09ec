// Determinism regression for the sharded engine driving the full stack:
// an RpcFabric (smt_hw, the richest datapath — TLS records, NIC TX
// offload, coalesced RX, softirq charging) with its two hosts on TWO
// different shards must produce byte-identical counters run-to-run, even
// though the shards execute on concurrent OS threads and every packet
// hop crosses the shard boundary through the mailbox. This locks in the
// cross-shard ordering contract from netsim/shard.hpp: (when, src, seq)
// mailbox delivery between windows, never mid-window.
//
// Also pinned here: a one-shard engine is byte-identical to the plain
// single-loop fabric (the --shards 1 contract), and the exact shape of
// the cross-shard-count guarantee — a 2-shard run performs identical
// WORK to the 1-shard run (same completions, same frames, same bytes,
// same records) even though its micro-schedule may legitimately differ:
// with 24 concurrent channels and interrupt coalescing, same-timestamp
// local/remote ties at a host do occur, and the equal-time tie then
// resolves by insertion order, which sharding changes. That caveat is
// the one docs/determinism.md documents; this test demonstrates it is
// bounded to micro-ordering, never to what the simulation computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "apps/rpc.hpp"

namespace smt::apps {
namespace {

struct HostSnapshot {
  std::uint64_t app_busy_ns = 0;
  std::uint64_t softirq_busy_ns = 0;
  std::uint64_t irq_busy_ns = 0;
  std::vector<sim::RxRingStats> rings;
  sim::NicCounters nic;

  friend bool operator==(const HostSnapshot&, const HostSnapshot&) = default;
};

struct RunSnapshot {
  SimTime last_completion = 0;  // virtual time of the final RPC completion
  std::size_t completed = 0;
  std::uint64_t rtt_sum_ns = 0;
  HostSnapshot client, server;

  friend bool operator==(const RunSnapshot&, const RunSnapshot&) = default;
};

HostSnapshot snapshot_host(stack::Host& host) {
  HostSnapshot snap;
  snap.app_busy_ns = host.total_app_busy_ns();
  snap.softirq_busy_ns = host.total_softirq_busy_ns();
  snap.irq_busy_ns = host.total_irq_busy_ns();
  for (std::size_t r = 0; r < host.nic().rx_ring_count(); ++r) {
    snap.rings.push_back(host.nic().rx_ring_stats(r));
  }
  snap.nic = host.nic().counters();
  return snap;
}

// Closed-loop smt_hw workload. `shards == 0` uses the plain single-loop
// RpcFabric constructor; otherwise the fabric is placed on a ShardedEngine
// with the client on shard 0 and the server on shard `shards - 1` (i.e.
// same shard when shards == 1, a true cross-shard link when shards == 2).
// `inspect`, when set, sees the fabric after the run has quiesced.
RunSnapshot run_workload(
    std::size_t shards,
    const std::function<void(const RpcFabric&)>& inspect = {}) {
  RpcFabricConfig config;
  config.kind = TransportKind::smt_hw;
  config.propagation = usec(2);  // >= engine lookahead, cross-shard safe

  std::optional<sim::ShardedEngine> engine;
  std::unique_ptr<RpcFabric> fabric;
  if (shards == 0) {
    fabric = std::make_unique<RpcFabric>(config);
  } else {
    engine.emplace(shards, config.propagation);
    fabric = std::make_unique<RpcFabric>(config, *engine, 0, shards - 1);
  }

  constexpr std::size_t kConcurrency = 24;
  constexpr std::size_t kOps = 600;
  std::vector<std::unique_ptr<RpcChannel>> channels;
  for (std::size_t i = 0; i < kConcurrency; ++i) {
    channels.push_back(fabric->make_channel(i));
  }
  RunSnapshot snap;
  std::size_t issued = 0;
  std::function<void(std::size_t)> issue = [&](std::size_t slot) {
    if (issued >= kOps) return;
    ++issued;
    channels[slot]->call(Bytes(512, 0x5a), 2048,
                         [&, slot](SimDuration rtt, Bytes) {
                           ++snap.completed;
                           snap.rtt_sum_ns += std::uint64_t(rtt);
                           // loop().now() mid-callback IS the completion
                           // timestamp, valid in sharded and plain runs.
                           snap.last_completion = fabric->loop().now();
                           issue(slot);
                         });
  };
  for (std::size_t i = 0; i < kConcurrency; ++i) issue(i);
  if (engine) {
    engine->run();
  } else {
    fabric->loop().run();
  }

  snap.client = snapshot_host(fabric->client_host());
  snap.server = snapshot_host(fabric->server_host());
  if (inspect) inspect(*fabric);
  return snap;
}

TEST(ShardDeterminism, TwoShardRunToRunByteIdentical) {
  const RunSnapshot first = run_workload(2);
  const RunSnapshot second = run_workload(2);

  ASSERT_EQ(first.completed, 600u);
  // The run must actually cross the shard boundary, or this guards nothing.
  EXPECT_GT(first.server.nic.rx_interrupts, 0u);

  EXPECT_EQ(first.last_completion, second.last_completion);
  EXPECT_EQ(first.rtt_sum_ns, second.rtt_sum_ns);
  EXPECT_TRUE(first.client == second.client) << "client counters diverged";
  EXPECT_TRUE(first.server == second.server) << "server counters diverged";
  EXPECT_TRUE(first == second);
}

TEST(ShardDeterminism, QuiescedHomaTablesAreBounded) {
  // Memory-boundedness audit: once every RPC has completed and the loop
  // has drained (backstop timers included), neither host holds a live
  // Homa message, and the dedup history stays within its limit.
  const std::size_t limit = transport::HomaConfig{}.dedup_history_limit;
  for (const std::size_t shards : {1u, 2u}) {
    const RunSnapshot snap = run_workload(shards, [&](const RpcFabric& fabric) {
      const std::pair<const char*, transport::HomaEndpoint::TableAudit>
          audits[] = {{"client", fabric.client_table_audit(0)},
                      {"server", fabric.server_table_audit()}};
      for (const auto& [side, audit] : audits) {
        EXPECT_EQ(audit.tx_messages, 0u) << side << ", shards " << shards;
        EXPECT_EQ(audit.rx_messages, 0u) << side << ", shards " << shards;
        EXPECT_GT(audit.dedup_entries, 0u) << side << ", shards " << shards;
        EXPECT_LE(audit.dedup_entries, limit) << side << ", shards " << shards;
      }
    });
    EXPECT_EQ(snap.completed, 600u) << "shards " << shards;
  }
}

TEST(ShardDeterminism, OneShardEngineMatchesPlainFabric) {
  // The --shards 1 contract: an engine-hosted fabric with both hosts on
  // the single shard is byte-identical to the engineless fabric — same
  // events, same order, same timestamps, same counters.
  const RunSnapshot plain = run_workload(0);
  const RunSnapshot engine1 = run_workload(1);

  ASSERT_EQ(plain.completed, 600u);
  EXPECT_TRUE(plain == engine1);
}

TEST(ShardDeterminism, TwoShardPerformsIdenticalWorkToOneShard) {
  // Cross-SHARD-COUNT guarantee (weaker than run-to-run determinism,
  // which is exact per shard count): the mailbox delivers every
  // cross-shard packet at exactly the arrival time the single-loop
  // schedule would have used, so the simulation performs identical work —
  // every RPC completes, every frame and record is identical. What MAY
  // shift is micro-ordering: this workload does produce same-timestamp
  // local/remote ties at the hosts (interrupt coalescing + 24 concurrent
  // channels), so batching-sensitive counters (interrupt counts, busy-ns,
  // the final timestamp) can differ by the tie resolution — byte-exact
  // 1-vs-N equality for tie-free scenarios is pinned separately in
  // netsim/shard_test.cpp.
  const RunSnapshot one = run_workload(1);
  const RunSnapshot two = run_workload(2);

  EXPECT_EQ(one.completed, two.completed);
  auto expect_same_work = [](const HostSnapshot& a, const HostSnapshot& b,
                             const char* side) {
    EXPECT_EQ(a.nic.segments, b.nic.segments) << side;
    EXPECT_EQ(a.nic.packets, b.nic.packets) << side;
    EXPECT_EQ(a.nic.records_encrypted, b.nic.records_encrypted) << side;
    EXPECT_EQ(a.nic.out_of_sequence_records, b.nic.out_of_sequence_records)
        << side;
    EXPECT_EQ(a.nic.rx_frames, b.nic.rx_frames) << side;
    EXPECT_EQ(a.nic.rx_delivered, b.nic.rx_delivered) << side;
    EXPECT_EQ(a.nic.rx_dropped, b.nic.rx_dropped) << side;
    EXPECT_EQ(a.nic.context_misses, b.nic.context_misses) << side;
  };
  expect_same_work(one.client, two.client, "client");
  expect_same_work(one.server, two.server, "server");
  // The schedules stay close even where they are not identical: the tie
  // re-orderings shift the final completion by at most a handful of
  // coalescing hold-offs, not by any macroscopic amount.
  const SimTime hi = std::max(one.last_completion, two.last_completion);
  const SimTime lo = std::min(one.last_completion, two.last_completion);
  EXPECT_LT(hi - lo, hi / 100) << "virtual end times diverged by >1%";
}

}  // namespace
}  // namespace smt::apps
