// Figure 8: mini-Redis throughput on YCSB A-D (§5.3).
//
// Paper methodology: single-threaded Redis server, YCSB workloads A
// (update-heavy), B (read-mostly), C (read-only), D (read-latest), value
// sizes 64 B / 1 KB / 4 KB. Expected shape: Homa/SMT beat the TCP/TLS
// family in all cells (application processing keeps rates below the
// transport plateau); SMT-hw adds a few percent over SMT-sw at small
// values where the freed CPU cycles feed the bottleneck thread directly;
// TCP (plaintext) edges closer to Homa at 4 KB values.
//
// "TLS-usr" uses the TCPLS-like software-only profile as a stand-in for
// user-space TLS (extra per-record processing, no offload) — recorded as a
// substitution in ARCHITECTURE.md ("Substitutions").
#include "apps/miniredis.hpp"
#include "apps/ycsb.hpp"
#include "bench_common.hpp"

using namespace smt;
using namespace smt::bench;
using namespace smt::apps;

namespace {

double run_cell(TransportKind kind, YcsbWorkload workload,
                std::size_t value_size) {
  RpcFabricConfig config;
  config.kind = kind;
  config.single_threaded_server = true;  // Redis's threading model
  RpcFabric fabric(config);

  auto redis = std::make_shared<MiniRedis>();
  fabric.set_handler([redis](ByteView request) { return redis->handle(request); });

  YcsbConfig ycsb;
  ycsb.workload = workload;
  ycsb.record_count = 2000;
  ycsb.value_size = value_size;
  YcsbGenerator generator(ycsb);
  for (std::uint64_t i = 0; i < generator.record_count(); ++i) {
    redis->apply(generator.load_request(i));  // preload, unmeasured
  }

  constexpr std::size_t kClients = 16;
  const std::size_t kOps = iters(6000);
  std::vector<std::unique_ptr<RpcChannel>> channels;
  for (std::size_t i = 0; i < kClients; ++i) {
    channels.push_back(fabric.make_channel(i));
  }
  std::size_t issued = 0, completed = 0;
  SimTime start = 0, end = 0;
  std::function<void(std::size_t)> issue = [&](std::size_t slot) {
    if (issued >= kOps) return;
    ++issued;
    channels[slot]->call(generator.next().encode(), 0,
                         [&, slot](SimDuration, Bytes) {
                           ++completed;
                           if (completed == kOps / 10) start = fabric.loop().now();
                           if (completed == kOps) end = fabric.loop().now();
                           issue(slot);
                         });
  };
  for (std::size_t i = 0; i < kClients; ++i) issue(i);
  fabric.loop().run();
  return double(kOps - kOps / 10) / to_sec(end - start);
}

}  // namespace

int main(int argc, char** argv) {
  init(argc, argv);
  const std::vector<TransportKind> kinds = {
      TransportKind::tcp,     TransportKind::tcpls,  TransportKind::ktls_sw,
      TransportKind::ktls_hw, TransportKind::homa,   TransportKind::smt_sw,
      TransportKind::smt_hw};
  const char* kind_names[] = {"TCP",  "TLS-usr", "kTLS-sw", "kTLS-hw",
                              "Homa", "SMT-sw",  "SMT-hw"};

  for (const std::size_t value_size :
       sweep<std::size_t>({64, 1024, 4096})) {
    std::printf("\n== Figure 8: Redis YCSB throughput [K ops/s], %zu B values ==\n",
                value_size);
    std::printf("%-10s", "workload");
    for (const char* name : kind_names) std::printf("%10s", name);
    std::printf("\n");
    for (const YcsbWorkload workload : sweep<YcsbWorkload>(
             {YcsbWorkload::a, YcsbWorkload::b, YcsbWorkload::c,
              YcsbWorkload::d})) {
      std::printf("%-10c", char(workload));
      std::vector<double> row;
      for (const TransportKind kind : kinds) {
        row.push_back(run_cell(kind, workload, value_size) / 1e3);
        std::printf("%10.1f", row.back());
      }
      std::printf("\n");
      // Paper's §5.3 claims for this row.
      const double tls_usr = row[1], ktls_sw = row[2], ktls_hw = row[3],
                   smt_sw = row[5], smt_hw = row[6];
      std::printf("  shape: SMT-sw vs TLS-usr %+5.1f%%, vs kTLS-sw %+5.1f%%; "
                  "SMT-hw vs kTLS-hw %+5.1f%%\n",
                  100.0 * (smt_sw - tls_usr) / tls_usr,
                  100.0 * (smt_sw - ktls_sw) / ktls_sw,
                  100.0 * (smt_hw - ktls_hw) / ktls_hw);
    }
  }
  return 0;
}
