// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Runs repetitions of one workload (each: set-up, serial phase, closed-
// loop phase, drain) until S seconds have passed, and prints as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"};
// "attempted" and "failed" count the RPCs of one repetition.
//
//   --trace 0  end-to-end metrics: wall metrics are medians over the
//              repetitions, in reference seconds (see ref_loop.hpp);
//              virtual metrics come from one repetition and must repeat
//              exactly in every other one.
//   --trace 1  per-layer metrics: untraced and traced repetitions
//              alternate (the difference is the tracing overhead), then
//              the unit-cost replays run once.
//
// Any correctness-gate violation, any difference between two repetitions'
// virtual results, or a broken accounting identity prints the reason on
// stderr, a result with "correct": false, and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "metrics.hpp"
#include "ref_loop.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The seed a run uses when none is given, and the one held out from
/// tuning: a later claim of a gain must also hold on the held-out seed.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 9973;

constexpr std::size_t kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    std::string clean;
    for (const char c : model) {
      if (c != '"' && c != '\\') clean += c;
    }
    return clean;
  }
#endif
  return "unknown";
}

double peak_rss_mib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// 64-bit FNV-1a over the exact text of every virtual field.
std::uint64_t fingerprint(const VirtualResult& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, value] : v.fields()) {
    char text[128];
    const int n =
        std::snprintf(text, sizeof text, "%s=%.17g;", name.c_str(), value);
    for (int i = 0; i < n; ++i) {
      h = (h ^ std::uint8_t(text[i])) * 0x100000001b3ull;
    }
  }
  return h;
}

/// First field where two repetitions disagree, or "" when identical.
std::string first_difference(const VirtualResult& a, const VirtualResult& b) {
  const auto fa = a.fields();
  const auto fb = b.fields();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (std::memcmp(&fa[i].second, &fb[i].second, sizeof(double)) != 0) {
      char text[256];
      std::snprintf(text, sizeof text, "%s: %.17g vs %.17g",
                    fa[i].first.c_str(), fa[i].second, fb[i].second);
      return text;
    }
  }
  return "";
}

void print_meta(const Args& args, const WorkloadSpec& spec, std::size_t reps) {
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": %llu, "
      "\"held_out_seed\": %llu, \"trace\": %d, \"repetitions\": %zu, "
      "\"shards\": %zu, \"nproc\": %u, \"cpu_model\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      spec.name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed), args.trace ? 1 : 0, reps,
      spec.shards, std::thread::hardware_concurrency(), cpu_model().c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? metrics.json().c_str() : "{}");
}

/// Repetitions of one run and the checks that hold across them.
class Session {
 public:
  Session(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed), plan_(make_plan(spec, seed)) {}

  /// Runs one repetition; false on a gate or determinism violation.
  bool repeat(RepResult& rep,
              const std::function<double()>& after_fabric = {}) {
    rep = run_repetition(spec_, seed_, plan_, after_fabric);
    for (const std::string& why : rep.violations) {
      std::fprintf(stderr, "correctness: %s: %s\n", spec_.name, why.c_str());
    }
    if (!rep.violations.empty()) return false;
    if (reps_++ == 0) {
      first_ = rep.v;
      return true;
    }
    const std::string diff = first_difference(first_, rep.v);
    if (!diff.empty()) {
      std::fprintf(stderr,
                   "determinism: %s seed %llu: repetition %zu differs from "
                   "repetition 1 in %s\n",
                   spec_.name, static_cast<unsigned long long>(seed_), reps_,
                   diff.c_str());
      return false;
    }
    return true;
  }

  const WorkloadSpec& spec() const { return spec_; }
  const InputPlan& plan() const { return plan_; }
  const VirtualResult& first() const { return first_; }
  std::size_t reps() const { return reps_; }

 private:
  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  InputPlan plan_;
  VirtualResult first_;
  std::size_t reps_ = 0;
};

/// Wall times of the untraced repetitions, raw and in reference seconds
/// (see ref_loop.hpp): each fabric's set-up and run time divided by how
/// much slower than nominal the host ran the reference loop right after it.
struct HostSpeed {
  std::vector<double> rpc_per_wall_s, setup_wall_s;
  std::vector<double> rpc_per_ref_s, setup_ref_s;
  std::vector<double> ref_loop_s;  // per fabric

  void add(const RepResult& rep) {
    double run_ref = 0, setup_ref = 0;
    for (const FabricTimes& f : rep.fabric_times) {
      const double scale = kRefLoopNominalS / f.after_s;
      run_ref += f.run_s * scale;
      setup_ref += f.setup_s * scale;
      ref_loop_s.push_back(f.after_s);
    }
    const double rpcs = double(rep.v.completed);
    rpc_per_wall_s.push_back(rpcs / rep.run_s);
    setup_wall_s.push_back(rep.setup_s());
    rpc_per_ref_s.push_back(rpcs / run_ref);
    setup_ref_s.push_back(setup_ref);
  }
  void print() const {
    std::printf("# host: wall medians %.1f RPCs/s and set-up %.6f s, "
                "reference loop %.3f ms (nominal %.3f ms)\n",
                median_of(rpc_per_wall_s), median_of(setup_wall_s),
                median_of(ref_loop_s) * 1e3, kRefLoopNominalS * 1e3);
  }
};

double per(double value, std::uint64_t count) {
  return count == 0 ? 0 : value / double(count);
}

void add_end_to_end(MetricSet& m, const VirtualResult& v,
                    const HostSpeed& host) {
  m.add("sim_rpc_per_ref_s", median_of(host.rpc_per_ref_s), "1/s");
  m.add("setup_s", median_of(host.setup_ref_s), "s");
  m.add("virtual_mrpc_per_s", double(v.measured_rpcs) / v.window_ns * 1e3,
        "M/s");
  m.add("virtual_goodput_gbps", v.window_payload_bytes * 8.0 / v.window_ns,
        "Gb/s");
  m.add("virtual_rtt_p50_us", v.rtt_p50_us, "us");
  m.add("virtual_rtt_p99_us", v.rtt_p99_us, "us");
  m.add("virtual_unloaded_rtt_us", v.unloaded_rtt_us, "us");
  m.add("virtual_cpu_us_per_rpc",
        per(double(v.app_busy_ns + v.softirq_busy_ns) / 1e3, v.completed),
        "us");
  m.add("rpc_completed_ratio", per(double(v.completed), v.attempted), "ratio");
}

void print_summary(const Session& s) {
  const VirtualResult& v = s.first();
  std::printf("# %s: %zu repetitions, %llu RPCs attempted, %llu failed per "
              "repetition\n",
              s.spec().name, s.reps(),
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  std::printf("# rtt p50 %.3f us, p99 %.3f us over %llu samples (%llu beyond "
              "p99); unloaded %.3f us over %llu serial RPCs\n",
              v.rtt_p50_us, v.rtt_p99_us,
              static_cast<unsigned long long>(v.rtt_samples),
              static_cast<unsigned long long>(v.rtt_p99_beyond),
              v.unloaded_rtt_us,
              static_cast<unsigned long long>(v.unloaded_samples));
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(fingerprint(v)));
}

// --- traced run --------------------------------------------------------------

/// Span totals of the traced repetitions, the driving thread apart from
/// the shard workers.
struct Ledger {
  std::array<LayerTotals, kLayerCount> main{};
  std::array<LayerTotals, kLayerCount> workers{};
  double wall_ns = 0;  // traced repetitions, end to end
  std::uint64_t completed = 0;

  void add(const RepResult& rep, double rep_wall_ns) {
    for (const ThreadTotals& t : thread_totals()) {
      auto& into = t.main_thread ? main : workers;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        into[l].self_ns += t.layers[l].self_ns;
        into[l].allocs += t.layers[l].allocs;
        into[l].alloc_bytes += t.layers[l].alloc_bytes;
      }
    }
    wall_ns += rep_wall_ns;
    completed += rep.v.completed;
  }

  double self_ns(Layer l) const {
    return double(main[std::size_t(l)].self_ns +
                  workers[std::size_t(l)].self_ns);
  }
  std::uint64_t allocs(Layer l) const {
    return main[std::size_t(l)].allocs + workers[std::size_t(l)].allocs;
  }
  std::uint64_t alloc_bytes(Layer l) const {
    return main[std::size_t(l)].alloc_bytes +
           workers[std::size_t(l)].alloc_bytes;
  }
};

bool add_per_layer(MetricSet& m, const Session& s, const Ledger& ledger,
                   std::size_t traced_reps, double untraced_run_s,
                   double traced_run_s, double untraced_events_per_s,
                   const HostSpeed& host, const UnitCosts& costs) {
  const VirtualResult& v = s.first();
  const double reps = double(traced_reps);
  const std::uint64_t rpcs = ledger.completed;

  // Wall view of the spans. Shard workers run their spans in parallel
  // while netsim.run is open on the driving thread, so each worker span
  // is charged at 1/pool of its thread time, and netsim.run's self time
  // is what remains of its wall time. The wall-view self times then sum
  // to the driving thread's span roots, and the identity
  //   sum(self) + unattributed = wall
  // holds with unattributed the benchmark's own glue (input plans,
  // checks, teardown).
  const double pool = double(std::min<std::size_t>(
      s.spec().shards, std::max(1u, std::thread::hardware_concurrency())));
  std::array<double, kLayerCount> wall_self{};
  double worker_ns = 0;
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    worker_ns += double(ledger.workers[l].self_ns) / pool;
    wall_self[l] = double(ledger.main[l].self_ns) +
                   double(ledger.workers[l].self_ns) / pool;
  }
  wall_self[std::size_t(Layer::run)] =
      double(ledger.main[std::size_t(Layer::run)].self_ns) - worker_ns;
  double attributed = 0;
  std::printf("# identity over %zu traced repetitions, wall ms:", traced_reps);
  for (std::size_t l = 1; l < kLayerCount; ++l) {
    attributed += wall_self[l];
    std::printf(" %s %.3f +", layer_name(Layer(l)), wall_self[l] / 1e6);
  }
  const double unattributed = ledger.wall_ns - attributed;
  std::printf(" unattributed %.3f = %.3f\n", unattributed / 1e6,
              ledger.wall_ns / 1e6);
  if (unattributed < -0.005 * ledger.wall_ns) {
    std::fprintf(stderr, "accounting: spans exceed wall time by %.3f ms\n",
                 -unattributed / 1e6);
    return false;
  }

  m.add("setup.topology_ms", ledger.self_ns(Layer::setup_topology) / reps / 1e6,
        "ms");
  m.add("setup.fabric_ms", ledger.self_ns(Layer::setup_fabric) / reps / 1e6,
        "ms");
  m.add("setup.channels_ms",
        ledger.self_ns(Layer::setup_channels) / reps / 1e6, "ms");
  m.add("apps.call_ns_per_rpc", per(ledger.self_ns(Layer::call), rpcs), "ns");
  m.add("apps.handler_ns_per_rpc", per(ledger.self_ns(Layer::handler), rpcs),
        "ns");
  m.add("apps.done_self_ns_per_rpc", per(ledger.self_ns(Layer::done), rpcs),
        "ns");
  m.add("netsim.run_self_ns_per_rpc",
        per(wall_self[std::size_t(Layer::run)], rpcs), "ns");
  m.add("alloc.call_per_rpc", per(double(ledger.allocs(Layer::call)), rpcs),
        "count");
  m.add("alloc.run_per_rpc", per(double(ledger.allocs(Layer::run)), rpcs),
        "count");
  m.add("alloc.bytes_per_rpc",
        per(double(ledger.alloc_bytes(Layer::run) +
                   ledger.alloc_bytes(Layer::call) +
                   ledger.alloc_bytes(Layer::handler) +
                   ledger.alloc_bytes(Layer::done)),
            rpcs),
        "B");
  m.add("trace.unattributed_share", unattributed / ledger.wall_ns, "ratio");
  m.add("trace.overhead_ratio", traced_run_s / untraced_run_s - 1.0, "ratio");
  m.add("host.ref_loop_ms", median_of(host.ref_loop_s) * 1e3, "ms");

  // Unit-cost replays and the crypto estimate they price.
  m.add("crypto.gcm_seal_ns_per_kib", costs.gcm_seal_ns_per_kib, "ns/KiB");
  m.add("crypto.gcm_open_ns_per_kib", costs.gcm_open_ns_per_kib, "ns/KiB");
  m.add("tls.record_seal_ns", costs.record_seal_ns, "ns");
  m.add("tls.handshake_ms", costs.handshake_ms, "ms");
  m.add("smt.wire_build_ns", costs.wire_build_ns, "ns");
  m.add("netsim.event_ns", costs.event_ns, "ns");
  double protected_kib = 0;
  const std::size_t attempted =
      std::min<std::size_t>(v.attempted, s.plan().size());
  for (std::size_t i = 0; i < attempted; ++i) {
    protected_kib += double(protected_bytes(s.plan().plan(i))) / 1024.0;
  }
  const double crypto_ns = protected_kib * (costs.gcm_seal_ns_per_kib +
                                            costs.gcm_open_ns_per_kib);
  m.add("crypto.est_share_of_run", crypto_ns / (untraced_run_s * 1e9),
        "ratio");

  // Peak resident memory: per-layer, not end-to-end, because on
  // incast_fabric it follows each seed's retransmission backlog (an IQR of
  // about a fifth of the median across seeds), too wide for a bound.
  m.add("process.peak_rss_mib", peak_rss_mib(), "MiB");

  // Deterministic counts from public stats.
  const std::uint64_t n = v.completed;
  m.add("netsim.events_per_rpc", per(double(v.events), n), "count");
  m.add("netsim.events_per_wall_s", untraced_events_per_s, "1/s");
  m.add("netsim.windows", double(v.windows), "count");
  m.add("netsim.cross_posts_per_rpc", per(double(v.cross_posts), n), "count");
  m.add("nic.packets_per_rpc", per(double(v.packets), n), "count");
  m.add("nic.segments_per_rpc", per(double(v.segments), n), "count");
  m.add("nic.doorbells_per_rpc", per(double(v.doorbells), n), "count");
  m.add("nic.rx_interrupts_per_rpc", per(double(v.rx_interrupts), n), "count");
  m.add("nic.records_offloaded_per_rpc", per(double(v.records_offloaded), n),
        "count");
  m.add("nic.resyncs_per_rpc", per(double(v.resyncs), n), "count");
  m.add("nic.rx_dropped", double(v.rx_dropped), "count");
  m.add("nic.rx_corrupt_frames", double(v.rx_corrupt_frames), "count");
  m.add("wire.loss_ratio",
        v.packets == 0 ? 0 : 1.0 - double(v.rx_frames) / double(v.packets),
        "ratio");
  const double arrivals = double(v.switch_forwarded + v.switch_dropped);
  m.add("switch.forwarded_ratio",
        arrivals == 0
            ? 0
            : double(v.switch_forwarded - v.switch_trimmed) / arrivals,
        "ratio");
  m.add("switch.trimmed_per_rpc", per(double(v.switch_trimmed), n), "count");
  m.add("switch.max_port_queue_kib",
        double(v.switch_max_port_queue_bytes) / 1024.0, "KiB");
  m.add("stack.app_busy_ns_per_rpc", per(double(v.app_busy_ns), n), "ns");
  m.add("stack.softirq_busy_ns_per_rpc", per(double(v.softirq_busy_ns), n),
        "ns");
  m.add("stack.irq_busy_ns_per_rpc", per(double(v.irq_busy_ns), n), "ns");
  const double fcm = double(v.fcm_hits + v.fcm_misses);
  m.add("stack.fcm_hit_ratio", fcm == 0 ? 0 : double(v.fcm_hits) / fcm,
        "ratio");
  m.add("stack.fcm_evictions", double(v.fcm_evictions), "count");
  return true;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  Session session(*spec, args.seed);
  MetricSet metrics;
  const auto fail = [&] {
    print_result(false, std::max<std::uint64_t>(1, session.first().attempted),
                 session.first().failed, metrics);
    return 1;
  };

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> run_s, events_per_s;
  HostSpeed host;
  const auto note_untraced = [&](const RepResult& rep) {
    host.add(rep);
    run_s.push_back(rep.run_s);
    events_per_s.push_back(double(rep.v.events) / rep.run_s);
  };

  if (!args.trace) {
    while (session.reps() < kMinReps || elapsed() < args.seconds) {
      RepResult rep;
      if (!session.repeat(rep, run_ref_loop)) return fail();
      note_untraced(rep);
    }
    print_meta(args, *spec, session.reps());
    print_summary(session);
    host.print();
    add_end_to_end(metrics, session.first(), host);
  } else {
    Ledger ledger;
    std::vector<double> traced_run_s;
    std::size_t traced = 0;
    while (traced < 2 || elapsed() < args.seconds) {
      RepResult rep;
      if (!session.repeat(rep, run_ref_loop)) return fail();
      note_untraced(rep);

      reset_totals();
      set_tracing(true);
      const auto rep_start = std::chrono::steady_clock::now();
      const bool ok = session.repeat(rep);
      const double rep_wall_ns =
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - rep_start)
              .count();
      set_tracing(false);
      if (!ok) return fail();
      ledger.add(rep, rep_wall_ns);
      traced_run_s.push_back(rep.run_s);
      ++traced;
    }
    UnitCosts costs;
    if (!replay_unit_costs(*spec, session.plan(), costs)) {
      std::fprintf(stderr, "replay: a layer call failed\n");
      return fail();
    }
    print_meta(args, *spec, session.reps());
    print_summary(session);
    host.print();
    if (!add_per_layer(metrics, session, ledger, traced, median_of(run_s),
                       median_of(traced_run_s), median_of(events_per_s), host,
                       costs)) {
      return fail();
    }
  }
  if (!metrics.ok()) {
    for (const std::string& why : metrics.errors()) {
      std::fprintf(stderr, "metrics: %s\n", why.c_str());
    }
    return fail();
  }
  // One repetition's counts: every repetition repeats them exactly (the
  // determinism check), so they depend on the seed alone, not on how many
  // repetitions fitted into the run.
  print_result(true, session.first().attempted, session.first().failed,
               metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1]\n");
    return 2;
  }
  return perfbench::run(args);
}
