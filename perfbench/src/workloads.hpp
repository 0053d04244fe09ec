// The four benchmark workloads and one repetition of each.
//
// A repetition builds the network from scratch (topology, RPC fabric with
// its real TLS 1.3 handshake, channels), runs a leading serial phase with
// one RPC outstanding, then the closed-loop phase, and drains the engine.
// It drives the simulator only through its public API and reads only the
// public stats of Nic, Host, FlowContextManager, Switch and the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/rpc.hpp"
#include "gen.hpp"

namespace perfbench {

struct WorkloadSpec {
  const char* name = "";
  smt::apps::TransportKind kind = smt::apps::TransportKind::smt_hw;
  std::size_t request_nominal = 64;
  std::size_t response_nominal = 64;
  std::size_t outstanding = 1;  // closed-loop slots, all clients together
  std::size_t ops = 0;          // closed-loop RPCs per repetition
  std::size_t serial_ops = 0;   // leading serial RPCs (after kSerialWarmup)
  std::size_t shards = 1;       // 1 = one EventLoop, else a ShardedEngine
  /// Independent fabrics per repetition, each with its own seeds and
  /// inputs; their samples are pooled.
  std::size_t fabrics = 1;
  bool incast = false;          // the bench_incast Clos fabric
  bool lossy = false;           // burst_flap faults on both edge directions
  /// Virtual time after which a caller stops waiting for a reply and
  /// issues its next request (0 = wait forever).
  smt::SimDuration caller_deadline = 0;
};

/// Serial-phase RPCs excluded from the unloaded-RTT mean (connection
/// set-up and cold flow contexts).
constexpr std::size_t kSerialWarmup = 5;

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// Everything a repetition produces that must repeat exactly for a seed:
/// the virtual-time metrics and the layer counters.
struct VirtualResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // attempted with no outcome once drained
  std::uint64_t measured_rpcs = 0;  // completions inside the window
  double window_ns = 0;
  double window_payload_bytes = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  bool p99_reportable = false;
  std::uint64_t rtt_samples = 0;     // closed-loop RTTs (+ failures)
  std::uint64_t rtt_p99_beyond = 0;  // samples ranked after the p99
  double unloaded_rtt_us = 0;
  std::uint64_t unloaded_samples = 0;
  std::uint64_t caller_deadlines = 0;  // callers that moved on past a loss

  // Layer counters, summed over every host / switch.
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t packets = 0;
  std::uint64_t segments = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_interrupts = 0;
  std::uint64_t records_offloaded = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t rx_corrupt_frames = 0;
  std::uint64_t switch_forwarded = 0;
  std::uint64_t switch_trimmed = 0;
  std::uint64_t switch_dropped = 0;  // overflow + fault + dark drops
  std::uint64_t switch_max_port_queue_bytes = 0;
  std::uint64_t app_busy_ns = 0;  // includes the IRQ slice below
  std::uint64_t softirq_busy_ns = 0;
  std::uint64_t irq_busy_ns = 0;
  std::uint64_t fcm_hits = 0;
  std::uint64_t fcm_misses = 0;
  std::uint64_t fcm_evictions = 0;

  /// Every field as (name, value), in a fixed order: what the
  /// determinism check compares and fingerprints.
  std::vector<std::pair<std::string, double>> fields() const;
};

/// Wall times of one fabric of a repetition.
struct FabricTimes {
  double setup_s = 0;
  double run_s = 0;
  double after_s = 0;  // what the repetition's `after_fabric` returned
};

struct RepResult {
  double topology_s = 0;
  double fabric_s = 0;
  double channels_s = 0;
  double run_s = 0;  // both phases of EventLoop/ShardedEngine::run
  std::vector<FabricTimes> fabric_times;
  VirtualResult v;
  std::vector<std::string> violations;  // correctness-gate failures

  double setup_s() const { return topology_s + fabric_s + channels_s; }
};

/// Runs one repetition of `spec` on the inputs `plan` (built by
/// make_plan for the same seed): spec.fabrics fabrics in turn, wall times
/// and counters summed, RTT samples pooled. When set, `after_fabric` runs
/// after each fabric, outside every timed part, and its result is kept.
RepResult run_repetition(const WorkloadSpec& spec, std::uint64_t seed,
                         const InputPlan& plan,
                         const std::function<double()>& after_fabric = {});

InputPlan make_plan(const WorkloadSpec& spec, std::uint64_t seed);

/// Plan entries one fabric uses: warm-up, serial and closed-loop RPCs.
std::size_t rpcs_per_fabric(const WorkloadSpec& spec);

}  // namespace perfbench
