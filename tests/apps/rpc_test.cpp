// Integration tests: the RPC fabric across all seven transport variants.
#include "apps/rpc.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace smt::apps {
namespace {

class RpcFabricTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(RpcFabricTest, SingleEchoCall) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);

  auto channel = fabric.make_channel(0);
  bool done = false;
  SimDuration rtt = 0;
  channel->call(Bytes(64, 0x11), 64, [&](SimDuration d, Bytes response) {
    done = true;
    rtt = d;
    EXPECT_EQ(response.size(), 64u);
  });
  fabric.loop().run();
  ASSERT_TRUE(done);
  EXPECT_GT(rtt, 0);
  EXPECT_LT(rtt, msec(1));  // sane unloaded RTT
}

TEST_P(RpcFabricTest, CustomHandlerPayload) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  fabric.set_handler([](ByteView request) {
    RpcReply reply;
    reply.payload = to_bytes(request);
    std::reverse(reply.payload.begin(), reply.payload.end());
    reply.cpu_cost = usec(1);
    return reply;
  });

  auto channel = fabric.make_channel(0);
  Bytes response;
  channel->call(Bytes{1, 2, 3, 4}, 4,
                [&](SimDuration, Bytes r) { response = std::move(r); });
  fabric.loop().run();
  EXPECT_EQ(response, (Bytes{4, 3, 2, 1}));
}

TEST_P(RpcFabricTest, ManyConcurrentCallsComplete) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);

  constexpr int kChannels = 8;
  constexpr int kCallsPerChannel = 25;
  std::vector<std::unique_ptr<RpcChannel>> channels;
  int completed = 0;
  for (int c = 0; c < kChannels; ++c) {
    channels.push_back(fabric.make_channel(std::size_t(c)));
  }
  for (int c = 0; c < kChannels; ++c) {
    for (int i = 0; i < kCallsPerChannel; ++i) {
      channels[std::size_t(c)]->call(Bytes(128, std::uint8_t(i)), 128,
                                     [&](SimDuration, Bytes) { ++completed; });
    }
  }
  fabric.loop().run();
  EXPECT_EQ(completed, kChannels * kCallsPerChannel);
}

TEST_P(RpcFabricTest, LargeRequestAndResponse) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  auto channel = fabric.make_channel(0);
  bool done = false;
  channel->call(Bytes(65536, 0x22), 65536, [&](SimDuration, Bytes response) {
    done = true;
    EXPECT_EQ(response.size(), 65536u);
  });
  fabric.loop().run();
  EXPECT_TRUE(done);
}

TEST_P(RpcFabricTest, PipelinedCallsOnOneChannel) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  auto channel = fabric.make_channel(0);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    channel->call(Bytes(256, std::uint8_t(i)), 256,
                  [&](SimDuration, Bytes) { ++completed; });
  }
  fabric.loop().run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(channel->inflight(), 0u);
}

TEST_P(RpcFabricTest, ServerBusyAccountingGrows) {
  RpcFabricConfig config;
  config.kind = GetParam();
  RpcFabric fabric(config);
  auto channel = fabric.make_channel(0);
  channel->call(Bytes(1024, 0x01), 1024, [](SimDuration, Bytes) {});
  fabric.loop().run();
  EXPECT_GT(fabric.server_busy_ns(), 0u);
  EXPECT_GT(fabric.client_busy_ns(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, RpcFabricTest,
    ::testing::Values(TransportKind::tcp, TransportKind::ktls_sw,
                      TransportKind::ktls_hw, TransportKind::homa,
                      TransportKind::smt_sw, TransportKind::smt_hw,
                      TransportKind::tcpls),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      std::string name = transport_name(info.param);
      for (char& c : name) {
        if (c == '-' || c == '/') c = '_';
      }
      return name;
    });

TEST(RpcFabricShape, EncryptedCostsMoreThanPlain) {
  // Sanity for the §5 comparisons: with identical traffic, kTLS-sw burns
  // more server CPU than TCP, and SMT-sw more than Homa.
  const auto busy_for = [](TransportKind kind) {
    RpcFabricConfig config;
    config.kind = kind;
    RpcFabric fabric(config);
    auto channel = fabric.make_channel(0);
    int completed = 0;
    for (int i = 0; i < 20; ++i) {
      channel->call(Bytes(4096, 0x01), 4096,
                    [&](SimDuration, Bytes) { ++completed; });
    }
    fabric.loop().run();
    EXPECT_EQ(completed, 20);
    return fabric.server_busy_ns() + fabric.client_busy_ns();
  };
  EXPECT_GT(busy_for(TransportKind::ktls_sw), busy_for(TransportKind::tcp));
  EXPECT_GT(busy_for(TransportKind::smt_sw), busy_for(TransportKind::homa));
}

TEST(RpcFabricShape, HwOffloadSavesCpuVsSoftware) {
  const auto busy_for = [](TransportKind kind) {
    RpcFabricConfig config;
    config.kind = kind;
    RpcFabric fabric(config);
    auto channel = fabric.make_channel(0);
    for (int i = 0; i < 20; ++i) {
      channel->call(Bytes(8192, 0x01), 8192, [](SimDuration, Bytes) {});
    }
    fabric.loop().run();
    // TX-side crypto lives here. IRQ-class time (interrupt servicing,
    // doorbells) is excluded: it is charged to the same cores but its
    // count varies with response arrival spacing, not with where the
    // crypto runs — noise for this hw-vs-sw comparison.
    return fabric.client_busy_ns() - fabric.client_irq_ns();
  };
  EXPECT_LT(busy_for(TransportKind::smt_hw), busy_for(TransportKind::smt_sw));
  EXPECT_LT(busy_for(TransportKind::ktls_hw), busy_for(TransportKind::ktls_sw));
}

// One construction path: the two-host constructor, the sharded one (same
// shard or not) and the topology constructor over perfbench's own copy of
// the two-host build must compute the same run.
enum class Build { two_host, topology, same_shard, two_shards };

struct BuildRun {
  std::vector<SimDuration> rtts;  // in completion order
  sim::NicCounters client_nic;
  sim::NicCounters server_nic;
};

BuildRun run_built(TransportKind kind, Build build) {
  RpcFabricConfig config;
  config.kind = kind;
  std::optional<sim::ShardedEngine> engine;
  std::unique_ptr<stack::Topology> topology;
  std::unique_ptr<RpcFabric> fabric;
  switch (build) {
    case Build::two_host:
      fabric = std::make_unique<RpcFabric>(config);
      break;
    case Build::topology: {
      // As perfbench/src/workloads.cpp builds its two-host testbed.
      engine.emplace(1, config.propagation);
      stack::TopologyBuilder builder(to_scenario(config));
      builder.host_config(0, host_config_of(config, config.client_app_cores));
      builder.host_config(1, host_config_of(config, config.server_app_cores));
      auto built = builder.build(*engine);
      if (!built.ok()) {
        ADD_FAILURE() << built.error().message;
        return {};
      }
      topology = std::move(built).take();
      fabric = std::make_unique<RpcFabric>(config, *topology, 1,
                                           std::vector<std::size_t>{0});
      break;
    }
    case Build::same_shard:
      engine.emplace(2, config.propagation);
      fabric = std::make_unique<RpcFabric>(config, *engine, 1, 1);
      break;
    case Build::two_shards:
      engine.emplace(2, config.propagation);
      fabric = std::make_unique<RpcFabric>(config, *engine, 0, 1);
      break;
  }

  // Two closed-loop channels, 20 calls each.
  constexpr std::size_t kChannels = 2;
  constexpr std::size_t kCalls = 20;
  std::vector<std::unique_ptr<RpcChannel>> channels;
  for (std::size_t c = 0; c < kChannels; ++c) {
    channels.push_back(fabric->make_channel(c));
  }
  BuildRun run;
  std::vector<std::size_t> issued(kChannels, 0);
  std::function<void(std::size_t)> issue = [&](std::size_t c) {
    if (issued[c]++ == kCalls) return;
    channels[c]->call(Bytes(512, 0x5a), 2048, [&, c](SimDuration rtt, Bytes) {
      run.rtts.push_back(rtt);
      issue(c);
    });
  };
  for (std::size_t c = 0; c < kChannels; ++c) issue(c);
  if (engine) {
    engine->run();
  } else {
    fabric->loop().run();
  }
  run.client_nic = fabric->client_host().nic().counters();
  run.server_nic = fabric->server_host().nic().counters();
  return run;
}

class RpcFabricBuildTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(RpcFabricBuildTest, EveryConstructorComputesTheSameRun) {
  const BuildRun base = run_built(GetParam(), Build::two_host);
  ASSERT_EQ(base.rtts.size(), 40u);
  for (const Build build :
       {Build::topology, Build::same_shard, Build::two_shards}) {
    SCOPED_TRACE(int(build));
    const BuildRun run = run_built(GetParam(), build);
    EXPECT_EQ(run.rtts, base.rtts);
    EXPECT_TRUE(run.client_nic == base.client_nic);
    EXPECT_TRUE(run.server_nic == base.server_nic);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EncryptedTransports, RpcFabricBuildTest,
    ::testing::Values(TransportKind::smt_hw, TransportKind::ktls_sw),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return std::string(transport_key(info.param));
    });

TEST(RpcFabricPlacementDeathTest, EachBadPlacementAbortsWithItsMessage) {
  const RpcFabricConfig config;
  sim::EventLoop loop;
  auto built = stack::TopologyBuilder(to_scenario(config)).build(loop);
  ASSERT_TRUE(built.ok());
  stack::Topology& topology = *built.value();
  const auto place = [&](std::size_t server, std::vector<std::size_t> clients) {
    RpcFabric fabric(config, topology, server, std::move(clients));
  };
  EXPECT_DEATH(place(1, {}), "at least one client host is required");
  EXPECT_DEATH(place(2, {0}), "server host 2 out of range");
  EXPECT_DEATH(place(1, {5}), "client host 5 out of range");
  EXPECT_DEATH(place(1, {0, 0}), "client host 0 listed twice");
  EXPECT_DEATH(place(1, {1}), "host 1 cannot be both client and server");
}

}  // namespace
}  // namespace smt::apps
