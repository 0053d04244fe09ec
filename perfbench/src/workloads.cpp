#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <tuple>

#include "netsim/fabric.hpp"
#include "netsim/shard.hpp"
#include "stack/topology.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using smt::apps::RpcChannel;
using smt::apps::RpcFabric;
using smt::apps::RpcFabricConfig;
using smt::apps::TransportKind;

const std::vector<WorkloadSpec>& workloads() {
  // Op counts give every repetition at least 1000 closed-loop samples in
  // the measured window, so the p99 always has ten or more beyond it. They
  // also keep each virtual metric's spread across seeds (interquartile
  // range over median) within a few per cent. That is why incast_fabric
  // and lossy_edge pool several fabrics: one fabric's tail and throughput
  // swing with its ECMP or fault seed by tens of per cent.
  static const std::vector<WorkloadSpec> specs = {
      // Per-RPC fixed cost: event loop, allocator, ordered-map tables, NIC
      // doorbell/IRQ model; AES-GCM is a small share.
      {.name = "rpc_small",
       .kind = TransportKind::smt_hw,
       .request_nominal = 64,
       .response_nominal = 64,
       .outstanding = 200,
       .ops = 12000,
       .serial_ops = 100},
      // TLS 1.3 over TCP with software crypto: record seal/open and stream
      // segmentation/reassembly dominate; few events per byte.
      {.name = "bulk_tls",
       .kind = TransportKind::ktls_sw,
       .request_nominal = 64 * 1024,
       .response_nominal = 64,
       .outstanding = 16,
       .ops = 2000,
       .serial_ops = 200},
      // Clos incast on a 2-shard engine: switch queueing and trimming, Homa
      // recovery, cross-shard windows and mailbox posts. 32 clients x 2.
      {.name = "incast_fabric",
       .kind = TransportKind::smt_hw,
       .request_nominal = 16 * 1024,
       .response_nominal = 64,
       .outstanding = 64,
       .ops = 2560,
       .serial_ops = 40,
       .shards = 2,
       .fabrics = 12,
       .incast = true},
      // Burst loss plus 2 ms link flaps on both edge directions: the link
      // fault model and transport loss recovery do most of the work. Homa
      // gives up on a message after at most ~25 ms (5 sender retries 5 ms
      // apart; 21 receiver resend intervals of 1 ms), so a reply still
      // missing after 100 ms never comes.
      {.name = "lossy_edge",
       .kind = TransportKind::smt_hw,
       .request_nominal = 2048,
       .response_nominal = 512,
       .outstanding = 32,
       .ops = 10000,
       .serial_ops = 2000,
       .fabrics = 8,
       .lossy = true,
       .caller_deadline = smt::msec(100)},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

InputPlan make_plan(const WorkloadSpec& spec, std::uint64_t seed) {
  std::uint64_t name_hash = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char* c = spec.name; *c != '\0'; ++c) {
    name_hash = (name_hash ^ std::uint8_t(*c)) * 0x100000001b3ull;
  }
  return InputPlan(derive_seed(seed, name_hash),
                   spec.fabrics * rpcs_per_fabric(spec),
                   spec.request_nominal, spec.response_nominal);
}

std::vector<std::pair<std::string, double>> VirtualResult::fields() const {
  return {
      {"attempted", double(attempted)},
      {"completed", double(completed)},
      {"failed", double(failed)},
      {"measured_rpcs", double(measured_rpcs)},
      {"window_ns", window_ns},
      {"window_payload_bytes", window_payload_bytes},
      {"rtt_p50_us", rtt_p50_us},
      {"rtt_p99_us", rtt_p99_us},
      {"p99_reportable", p99_reportable ? 1.0 : 0.0},
      {"rtt_samples", double(rtt_samples)},
      {"rtt_p99_beyond", double(rtt_p99_beyond)},
      {"unloaded_rtt_us", unloaded_rtt_us},
      {"unloaded_samples", double(unloaded_samples)},
      {"caller_deadlines", double(caller_deadlines)},
      {"events", double(events)},
      {"windows", double(windows)},
      {"cross_posts", double(cross_posts)},
      {"packets", double(packets)},
      {"segments", double(segments)},
      {"doorbells", double(doorbells)},
      {"rx_frames", double(rx_frames)},
      {"rx_interrupts", double(rx_interrupts)},
      {"records_offloaded", double(records_offloaded)},
      {"resyncs", double(resyncs)},
      {"rx_dropped", double(rx_dropped)},
      {"rx_corrupt_frames", double(rx_corrupt_frames)},
      {"switch_forwarded", double(switch_forwarded)},
      {"switch_trimmed", double(switch_trimmed)},
      {"switch_dropped", double(switch_dropped)},
      {"switch_max_port_queue_bytes", double(switch_max_port_queue_bytes)},
      {"app_busy_ns", double(app_busy_ns)},
      {"softirq_busy_ns", double(softirq_busy_ns)},
      {"irq_busy_ns", double(irq_busy_ns)},
      {"fcm_hits", double(fcm_hits)},
      {"fcm_misses", double(fcm_misses)},
      {"fcm_evictions", double(fcm_evictions)},
  };
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The bench_adversity `burst_flap` profile: Gilbert-Elliott burst loss
/// (1 % entry, mean burst of 10 packets at 50 % loss) plus a 200 us link
/// outage every 2 ms. Only the fault-RNG seed comes from --seed.
smt::sim::FaultProfile burst_flap(std::uint64_t seed) {
  smt::sim::FaultProfile burst;
  burst.p_good_to_bad = 0.01;
  burst.p_bad_to_good = 0.1;
  burst.bad_loss_rate = 0.5;
  burst.flap_period = smt::msec(2);
  burst.flap_down = smt::usec(200);
  burst.flap_offset = smt::usec(500);
  burst.seed = derive_seed(seed, 3);
  return burst;
}

/// The bench_incast default fabric: 8 racks x 16 hosts, 4 spines, 3-tier
/// Clos with 4:1 oversubscription, modest 2+2-core hosts. Only the ECMP
/// seed comes from --seed.
smt::stack::ScenarioConfig incast_scenario(std::uint64_t seed) {
  smt::stack::ScenarioConfig scenario;
  scenario.topology.racks = 8;
  scenario.topology.hosts_per_rack = 16;
  scenario.topology.spines = 4;
  scenario.topology.aggs_per_pod = 2;
  scenario.topology.racks_per_pod = 4;
  scenario.topology.oversubscription = 4.0;
  scenario.topology.ecmp_seed = derive_seed(seed, 2);
  scenario.host.app_cores = 2;
  scenario.host.softirq_cores = 2;
  scenario.workload.transport = "smt_hw";
  return scenario;
}

constexpr std::size_t kIncastClients = 32;

/// Client hosts offset-major across racks (bench_incast's pick_clients),
/// so fan-in always crosses the fabric.
std::vector<std::size_t> incast_clients(const smt::stack::TopologySpec& t,
                                        std::size_t server) {
  std::vector<std::size_t> clients;
  for (std::size_t offset = 0; offset < t.hosts_per_rack; ++offset) {
    for (std::size_t rack = 0; rack < t.racks; ++rack) {
      const std::size_t host = rack * t.hosts_per_rack + offset;
      if (host != server && clients.size() < kIncastClients) {
        clients.push_back(host);
      }
    }
  }
  return clients;
}

struct Completion {
  smt::SimTime at = 0;
  std::size_t index = 0;  // into the input plan
  std::uint64_t payload_bytes = 0;
  smt::SimDuration rtt = 0;
  bool operator<(const Completion& o) const {
    return std::tie(at, index) < std::tie(o.at, o.index);
  }
};

constexpr std::size_t kNotWaiting = ~std::size_t(0);

/// Closed-loop state of one client host. Touched only by the thread that
/// runs that host's shard (and by the driving thread outside run()).
struct ClientState {
  std::size_t host = 0;         // client index in the fabric
  std::size_t first_index = 0;  // plan indices [first, first + quota)
  std::size_t quota = 0;
  std::size_t issued = 0;
  std::vector<Completion> completions;
  std::uint64_t bad_responses = 0;
  // Per quota slot: issue time, whether the reply came, and how long the
  // caller waited before moving on without one (0 = it never moved on).
  std::vector<smt::SimTime> issued_at;
  std::vector<char> replied;
  std::vector<smt::SimDuration> gave_up_after;
  std::uint64_t deadlines = 0;  // callers that moved on past a lost RPC
  std::uint64_t sweeps = 0;     // deadline sweep events run

  void start(std::size_t first, std::size_t n) {
    first_index = first;
    quota = n;
    completions.reserve(n);
    issued_at.assign(n, 0);
    replied.assign(n, 0);
    gave_up_after.assign(n, 0);
  }

  /// How long each RPC with no reply kept its caller waiting: until the
  /// caller moved on or, if it never did, until `drained`.
  void add_failed_waits(smt::SimTime drained,
                        std::vector<double>& waits_us) const {
    for (std::size_t i = 0; i < issued; ++i) {
      if (replied[i] != 0) continue;
      const smt::SimDuration waited =
          gave_up_after[i] > 0 ? gave_up_after[i] : drained - issued_at[i];
      waits_us.push_back(smt::to_usec(waited));
    }
  }
};

void sum_host(smt::stack::Host& host, VirtualResult& v) {
  const smt::sim::NicCounters& c = host.nic().counters();
  v.packets += c.packets;
  v.segments += c.segments;
  v.doorbells += c.doorbells;
  v.rx_frames += c.rx_frames;
  v.rx_interrupts += c.rx_interrupts;
  v.records_offloaded += c.records_encrypted;
  v.resyncs += c.resyncs;
  v.rx_dropped += c.rx_dropped;
  v.rx_corrupt_frames += c.rx_corrupt_frames;
  v.app_busy_ns += host.total_app_busy_ns();
  v.softirq_busy_ns += host.total_softirq_busy_ns();
  v.irq_busy_ns += host.total_irq_busy_ns();
  const auto& fcm = host.flow_contexts().stats();
  v.fcm_hits += fcm.hits;
  v.fcm_misses += fcm.misses;
  v.fcm_evictions += fcm.evictions;
}

void sum_switches(smt::stack::Topology& topology, VirtualResult& v) {
  const smt::sim::Switch::Stats totals = topology.switch_totals();
  v.switch_forwarded += totals.forwarded;
  v.switch_trimmed += totals.trimmed;
  v.switch_dropped +=
      totals.dropped + totals.fault_dropped + totals.dropped_dark;
  smt::sim::Fabric* fabric = topology.fabric();
  if (fabric == nullptr) return;
  const auto visit = [&](smt::sim::Switch& sw) {
    for (std::size_t p = 0; p < sw.port_count(); ++p) {
      v.switch_max_port_queue_bytes =
          std::max<std::uint64_t>(v.switch_max_port_queue_bytes,
                                  sw.port_stats(p).max_queued_bytes);
    }
  };
  for (std::size_t i = 0; i < fabric->tor_count(); ++i) visit(fabric->tor(i));
  for (std::size_t i = 0; i < fabric->agg_count(); ++i) visit(fabric->agg(i));
  for (std::size_t i = 0; i < fabric->spine_count(); ++i) {
    visit(fabric->spine(i));
  }
}

/// Raw outcome of one fabric: what the repetition pools across fabrics.
struct FabricSamples {
  // Closed-loop RTTs in the measured window, plus the wait of every
  // closed-loop RPC that got no reply.
  std::vector<double> rtts_us;
  double serial_rtt_sum_us = 0;
};

/// Builds one fabric, runs its serial and closed-loop phases on plan
/// indices [base, base + per_fabric), and adds its results to `rep`.
void run_fabric(const WorkloadSpec& spec, std::uint64_t fabric_seed,
                const InputPlan& plan, std::size_t base, RepResult& rep,
                FabricSamples& samples) {
  RpcFabricConfig config;
  config.kind = spec.kind;
  if (spec.lossy) config.fault = burst_flap(fabric_seed);

  // --- set-up: topology, fabric (one real TLS 1.3 handshake), channels ---
  auto t0 = std::chrono::steady_clock::now();
  smt::sim::ShardedEngine engine(spec.shards, smt::usec(1));
  std::unique_ptr<smt::stack::Topology> topology;
  std::size_t server_index = 1;
  std::vector<std::size_t> client_indices = {0};
  {
    Span span(Layer::setup_topology);
    smt::Result<std::unique_ptr<smt::stack::Topology>> built = [&] {
      if (spec.incast) {
        const smt::stack::ScenarioConfig scenario =
            incast_scenario(fabric_seed);
        server_index = 0;
        client_indices = incast_clients(scenario.topology, server_index);
        return smt::stack::TopologyBuilder(scenario).build(engine);
      }
      // The classic two-host testbed, exactly as RpcFabric's own two-host
      // constructor builds it: host 0 = client, host 1 = server.
      smt::stack::TopologyBuilder builder(smt::apps::to_scenario(config));
      builder.host_config(
          0, smt::apps::host_config_of(config, config.client_app_cores));
      builder.host_config(
          1, smt::apps::host_config_of(config, config.server_app_cores));
      return builder.build(engine);
    }();
    if (!built.ok()) {
      rep.violations.push_back("topology: " + built.error().message);
      return;
    }
    topology = std::move(built).take();
  }
  rep.topology_s += seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  std::unique_ptr<RpcFabric> fabric;
  {
    Span span(Layer::setup_fabric);
    fabric = std::make_unique<RpcFabric>(config, *topology, server_index,
                                         client_indices);
  }
  std::uint64_t bad_requests = 0;  // server thread only
  fabric->set_handler([&plan, &bad_requests](smt::ByteView request) {
    Span span(Layer::handler);
    if (!plan.request_matches(request)) {
      ++bad_requests;
      return smt::apps::RpcReply{smt::Bytes(1, 0), 0};
    }
    const auto response = plan.response(plan.index_of(request));
    return smt::apps::RpcReply{smt::Bytes(response.begin(), response.end()),
                               0};
  });
  rep.fabric_s += seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const std::size_t n_clients = client_indices.size();
  const std::size_t per_client = spec.outstanding / n_clients;
  std::vector<std::unique_ptr<RpcChannel>> channels;  // client-major
  {
    Span span(Layer::setup_channels);
    for (std::size_t c = 0; c < n_clients; ++c) {
      for (std::size_t k = 0; k < per_client; ++k) {
        channels.push_back(fabric->make_channel(c, k));
      }
    }
  }
  rep.channels_s += seconds_since(t0);

  VirtualResult& v = rep.v;
  const auto run_engine = [&] {
    set_phase(Layer::run);
    const auto start = std::chrono::steady_clock::now();
    {
      Span span(Layer::run);
      v.events += engine.run();
    }
    rep.run_s += seconds_since(start);
    set_phase(Layer::none);
  };

  // Callers, one per closed-loop slot. A caller issues its next request
  // when the previous one completes or, when the workload sets a caller
  // deadline, once the previous one has been outstanding that long. The
  // transports give up well before the deadline, so such an RPC is lost:
  // it is not retried and stays counted as failed.
  struct Caller {
    std::size_t channel = 0;
    ClientState* client = nullptr;
    std::size_t waiting = kNotWaiting;
  };
  std::vector<Caller> callers;
  const auto loop_of = [&](const ClientState& client) -> smt::sim::EventLoop& {
    return fabric->client_host(client.host).loop();
  };
  std::function<void(std::size_t)> issue = [&](std::size_t k) {
    Caller& caller = callers[k];
    ClientState& client = *caller.client;
    caller.waiting = kNotWaiting;
    if (client.issued == client.quota) return;
    const std::size_t slot = client.issued++;
    const std::size_t index = client.first_index + slot;
    caller.waiting = index;
    smt::sim::EventLoop* loop = &loop_of(client);
    client.issued_at[slot] = loop->now();
    Span span(Layer::call);
    channels[caller.channel]->call(
        plan.request(index), plan.plan(index).response_len,
        [&, k, slot, index, loop](smt::SimDuration rtt, smt::Bytes response) {
          Span done(Layer::done);
          ClientState& me = *callers[k].client;
          if (!plan.response_matches(index, response)) ++me.bad_responses;
          me.replied[slot] = 1;
          me.completions.push_back(
              {loop->now(), index,
               plan.plan(index).request_len + response.size(), rtt});
          if (callers[k].waiting == index) issue(k);
        });
  };

  // With a caller deadline, one sweep per client runs every 1/100 of the
  // deadline while any of its callers waits, and moves on each caller that
  // has waited past the deadline. Its events are the benchmark's, so they
  // are not counted in v.events.
  std::function<void(std::size_t, std::size_t)> sweep =
      [&](std::size_t first, std::size_t count) {
        ClientState& client = *callers[first].client;
        smt::sim::EventLoop& loop = loop_of(client);
        ++client.sweeps;
        Span span(Layer::done);
        bool waiting = false;
        for (std::size_t k = first; k < first + count; ++k) {
          const std::size_t index = callers[k].waiting;
          if (index == kNotWaiting) continue;
          const std::size_t slot = index - client.first_index;
          const smt::SimDuration waited = loop.now() - client.issued_at[slot];
          if (waited >= spec.caller_deadline) {
            client.gave_up_after[slot] = waited;
            ++client.deadlines;
            issue(k);
          }
          waiting = waiting || callers[k].waiting != kNotWaiting;
        }
        if (waiting) {
          loop.schedule(spec.caller_deadline / 100,
                        [&sweep, first, count] { sweep(first, count); });
        }
      };
  // Issues the first request of callers [first, first + count), all of one
  // client, and starts that client's sweep.
  const auto start_callers = [&](std::size_t first, std::size_t count) {
    for (std::size_t k = first; k < first + count; ++k) issue(k);
    if (spec.caller_deadline > 0) {
      loop_of(*callers[first].client)
          .schedule(spec.caller_deadline / 100,
                    [&sweep, first, count] { sweep(first, count); });
    }
  };

  // --- serial phase: one RPC outstanding on client 0 ----------------------
  std::vector<ClientState> serial(1);
  serial[0].start(base, kSerialWarmup + spec.serial_ops);
  callers = {Caller{0, &serial[0]}};
  start_callers(0, 1);
  run_engine();

  // --- closed-loop phase ---------------------------------------------------
  std::vector<ClientState> clients(n_clients);
  callers.clear();
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients[c].host = c;
    clients[c].start(base + serial[0].quota + c * (spec.ops / n_clients),
                     spec.ops / n_clients);
    for (std::size_t k = 0; k < per_client; ++k) {
      callers.push_back(Caller{c * per_client + k, &clients[c]});
    }
  }
  for (std::size_t c = 0; c < n_clients; ++c) {
    start_callers(c * per_client, per_client);
  }
  run_engine();

  // --- results --------------------------------------------------------------
  for (const Completion& c : serial[0].completions) {
    if (c.index < base + kSerialWarmup) continue;
    samples.serial_rtt_sum_us += smt::to_usec(c.rtt);
    ++v.unloaded_samples;
  }
  std::vector<Completion> done;
  std::uint64_t bad_responses = serial[0].bad_responses;
  std::uint64_t attempted = serial[0].issued;
  v.caller_deadlines += serial[0].deadlines;
  std::uint64_t sweeps = serial[0].sweeps;
  for (const ClientState& client : clients) {
    attempted += client.issued;
    bad_responses += client.bad_responses;
    v.caller_deadlines += client.deadlines;
    sweeps += client.sweeps;
    done.insert(done.end(), client.completions.begin(),
                client.completions.end());
    client.add_failed_waits(loop_of(client).now(), samples.rtts_us);
  }
  v.events -= sweeps;  // the benchmark's own events
  std::sort(done.begin(), done.end());
  const std::uint64_t completed = done.size() + serial[0].completions.size();
  std::uint64_t failed = 0;
  for (const auto& channel : channels) failed += channel->inflight();
  v.attempted += attempted;
  v.completed += completed;
  v.failed += failed;

  // Measured window: from the 10th to the 90th percentile completion, which
  // leaves out the ramp-up burst and the drain with fewer than all slots
  // busy. Throughput, goodput and the RTT percentiles all use it.
  if (done.size() >= 10) {
    const std::size_t first = done.size() / 10;
    const std::size_t last = done.size() - 1 - done.size() / 10;
    v.window_ns += double(done[last].at - done[first].at);
    v.measured_rpcs += last - first;
    for (std::size_t i = first + 1; i <= last; ++i) {
      v.window_payload_bytes += double(done[i].payload_bytes);
      samples.rtts_us.push_back(smt::to_usec(done[i].rtt));
    }
  }

  for (std::size_t h = 0; h < topology->host_count(); ++h) {
    sum_host(topology->host(h), v);
  }
  v.windows += engine.stats().windows;
  v.cross_posts += engine.stats().cross_posts;
  sum_switches(*topology, v);

  // --- correctness gate -----------------------------------------------------
  if (bad_responses > 0) {
    rep.violations.push_back(std::to_string(bad_responses) +
                             " responses with wrong length or content");
  }
  if (bad_requests > 0) {
    rep.violations.push_back(std::to_string(bad_requests) +
                             " requests with wrong length or content");
  }
  if (completed + failed != attempted) {
    rep.violations.push_back(
        "completed " + std::to_string(completed) + " + failed " +
        std::to_string(failed) + " != attempted " + std::to_string(attempted));
  }
  if (!spec.incast && !spec.lossy) {
    // Clean two-host wire: every frame one NIC sent, the other accepted.
    const smt::sim::NicCounters& a = topology->host(0).nic().counters();
    const smt::sim::NicCounters& b = topology->host(1).nic().counters();
    if (a.rx_frames != b.packets || b.rx_frames != a.packets ||
        a.rx_dropped != 0 || b.rx_dropped != 0) {
      rep.violations.push_back("packet conservation broken on a clean wire");
    }
  }
}

}  // namespace

std::size_t rpcs_per_fabric(const WorkloadSpec& spec) {
  return kSerialWarmup + spec.serial_ops + spec.ops;
}

RepResult run_repetition(const WorkloadSpec& spec, std::uint64_t seed,
                         const InputPlan& plan,
                         const std::function<double()>& after_fabric) {
  RepResult rep;
  FabricSamples samples;
  for (std::size_t f = 0; f < spec.fabrics && rep.violations.empty(); ++f) {
    const double setup_before = rep.setup_s();
    const double run_before = rep.run_s;
    run_fabric(spec, derive_seed(seed, 1000 + f), plan,
               f * rpcs_per_fabric(spec), rep, samples);
    rep.fabric_times.push_back({rep.setup_s() - setup_before,
                                rep.run_s - run_before,
                                after_fabric ? after_fabric() : 0.0});
  }
  if (!rep.violations.empty()) return rep;

  VirtualResult& v = rep.v;
  v.unloaded_rtt_us = v.unloaded_samples == 0
                          ? 0
                          : samples.serial_rtt_sum_us /
                                double(v.unloaded_samples);
  std::vector<double> sorted = std::move(samples.rtts_us);
  std::sort(sorted.begin(), sorted.end());
  const Percentile p50 = percentile(sorted, 0.50);
  const Percentile p99 = percentile(sorted, 0.99);
  v.rtt_p50_us = p50.value;
  v.rtt_p99_us = p99.reportable ? p99.value : 0;
  v.p99_reportable = p99.reportable;
  v.rtt_samples = sorted.size();
  v.rtt_p99_beyond = p99.beyond;
  if (!p99.reportable) {
    rep.violations.push_back("p99 has fewer than 10 samples beyond it (" +
                             std::to_string(p99.beyond) + ")");
  }
  if (v.window_ns <= 0 || v.measured_rpcs == 0) {
    rep.violations.push_back("empty measurement window");
  }
  return rep;
}

}  // namespace perfbench
