// Unified RPC fabric over every transport the paper compares (§5):
//
//   TCP | kTLS-sw | kTLS-hw | Homa | SMT-sw | SMT-hw | TCPLS-like
//
// One abstraction backs all benches and example applications:
//   * RpcFabric — N client hosts and one server host over a topology, a
//     transport per client/server pair, sessions keyed by a real TLS 1.3
//     handshake, and a server-side request handler. There is one
//     construction path: the two-host constructors only build the DIRECT
//     2-host topology they own (host 0 = client, host 1 = server) and then,
//     like the topology constructor, place the nodes, run the handshake and
//     build one endpoint per node. The server and every client are the
//     same Node: a host, its address, and the one endpoint for the kind.
//   * RpcChannel — a client-side slot issuing request/response calls and
//     reporting virtual-time RTTs.
//
// Wire protocol (identical across transports):
//   request  := corr_id(8) | resp_len(4) | payload
//   response := corr_id(8) | payload(resp_len)
// Stream transports add a 4-byte length prefix per message (the framing
// RPC-over-TCP protocols need, §2); message transports map one message to
// one RPC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/ktls.hpp"
#include "common/flat_map.hpp"
#include "netsim/link.hpp"
#include "netsim/shard.hpp"
#include "smt/endpoint.hpp"
#include "stack/topology.hpp"
#include "tls/engine.hpp"
#include "transport/homa/homa.hpp"
#include "transport/tcp/tcp.hpp"

namespace smt::apps {

enum class TransportKind {
  tcp,       // plaintext TCP (baseline)
  ktls_sw,   // TLS over TCP, software crypto
  ktls_hw,   // TLS over TCP, NIC TX offload
  homa,      // plaintext Homa (baseline)
  smt_sw,    // SMT, software crypto
  smt_hw,    // SMT, NIC TX offload
  tcpls,     // TCPLS-like (software-only, extra per-record cost)
};

const char* transport_name(TransportKind kind) noexcept;
/// Stable lower-case key ("smt_hw") for scenario files and JSON metrics.
const char* transport_key(TransportKind kind) noexcept;
/// Inverse of transport_key (accepts the WorkloadSpec::transport strings).
Result<TransportKind> parse_transport(std::string_view name);
bool is_message_based(TransportKind kind) noexcept;
bool is_encrypted(TransportKind kind) noexcept;

/// The one TLS 1.3 handshake every encrypted fabric runs: CA and server
/// key generation, certificate issue, ECDHE, CertificateVerify, chain and
/// Finished checks, all drawn from one fixed DRBG seed, so every fabric
/// gets the same session keys.
tls::SessionSecrets fabric_handshake();

/// Server request handler: returns the response payload plus the
/// application-level CPU cost to charge (parsing, db lookup, ...).
struct RpcReply {
  Bytes payload;
  SimDuration cpu_cost = 0;
};
using RpcHandler = std::function<RpcReply(ByteView request)>;

/// Asynchronous variant for servers whose completion is event-driven
/// (e.g. the NVMe-oF target waiting on device reads).
using AsyncRpcHandler =
    std::function<void(ByteView request, std::function<void(RpcReply)>)>;

struct RpcFabricConfig {
  TransportKind kind = TransportKind::smt_sw;
  std::size_t client_app_cores = 12;  // paper §5.2
  std::size_t server_app_cores = 12;
  std::size_t softirq_cores = 4;
  std::size_t mtu_payload = 1500;
  bool tso_enabled = true;
  /// NIC TX batching: descriptors drained per doorbell and the fixed cost
  /// of each drain event (doorbell amortisation, see netsim/nic.hpp).
  /// per_doorbell_cost unset keeps the cost model's calibrated default.
  std::size_t tx_burst = 16;
  std::optional<SimDuration> per_doorbell_cost;
  /// NIC RX batching: frames delivered per interrupt, the coalescing
  /// thresholds, and the fixed cost of each interrupt (see netsim/nic.hpp).
  /// per_interrupt_cost unset keeps the cost model's calibrated default.
  std::size_t rx_burst = 16;
  std::size_t rx_coalesce_frames = 16;
  double rx_coalesce_usecs = 0.0;
  std::optional<SimDuration> per_interrupt_cost;
  /// DIM-style adaptive moderation: each RX ring adapts its own hold-off
  /// from the observed per-interrupt frame rate (see netsim/nic.hpp).
  bool adaptive_rx_coalesce = false;
  /// Bounded RX rings (frames per ring, 0 = unbounded): overflow tail-drops.
  std::size_t rx_ring_size = 0;
  /// RSS indirection table entries (ethtool -X; see netsim/nic.hpp).
  std::size_t rss_indirection_size = 128;
  /// irqbalance-style periodic IRQ rebalancing on BOTH hosts (0 = off):
  /// every period the hottest ring's vector migrates to the coldest
  /// softirq core, and a majority-load ring's indirection entries are
  /// spread — the single-flow steering fix (see stack/host.hpp).
  SimDuration irq_rebalance_period = 0;
  /// NIC TLS flow-context table size (finite NIC memory, §4.4.2).
  std::size_t max_flow_contexts = 1024;
  double bandwidth_gbps = 100.0;
  SimDuration propagation = usec(1);
  double loss_rate = 0.0;
  /// Deterministic link impairments (burst loss, corruption, reorder,
  /// flaps) on both directions of the client<->server link — the
  /// scenario loader's [fault] section (see sim::FaultProfile).
  sim::FaultProfile fault;
  /// Serialise all server work onto app core 0 (mini-Redis's
  /// single-threaded model, §5.3).
  bool single_threaded_server = false;
};

/// The single mapping from the flat bench-facing config onto the layered
/// scenario (host template, edge link, workload transport): RpcFabric,
/// benches, and tests all validate through ScenarioConfig::validate().
stack::ScenarioConfig to_scenario(const RpcFabricConfig& config);
/// The per-host template (app cores parameterised: client vs server).
stack::HostConfig host_config_of(const RpcFabricConfig& config,
                                 std::size_t app_cores);

class RpcChannel;

class RpcFabric {
 public:
  explicit RpcFabric(RpcFabricConfig config);

  /// Sharded form: the client host lives on engine.loop(client_shard) and
  /// the server host on engine.loop(server_shard); when the shards differ,
  /// the connecting link's packet hops become cross-shard mailbox posts
  /// (config.propagation must be >= engine.lookahead()). Drive the run
  /// with engine.run() instead of loop().run(). With client_shard ==
  /// server_shard — in particular any --shards 1 engine — the fabric is
  /// byte-identical to the single-loop constructor.
  RpcFabric(RpcFabricConfig config, sim::ShardedEngine& engine,
            std::size_t client_shard, std::size_t server_shard);

  /// N-host form over an externally built topology: `server_index` serves,
  /// every host in `client_indices` runs a client endpoint (many clients
  /// -> one server, the incast shape). The topology's host configuration
  /// wins; only transport/workload knobs of `config` apply.
  RpcFabric(RpcFabricConfig config, stack::Topology& topology,
            std::size_t server_index, std::vector<std::size_t> client_indices);

  ~RpcFabric();

  RpcFabric(const RpcFabric&) = delete;
  RpcFabric& operator=(const RpcFabric&) = delete;

  /// Installs the server-side request handler (echo by default).
  void set_handler(RpcHandler handler) { handler_ = std::move(handler); }

  /// Installs an asynchronous handler (takes precedence when set).
  void set_async_handler(AsyncRpcHandler handler) {
    async_handler_ = std::move(handler);
  }

  /// Creates a client slot pinned to an app core of client 0.
  std::unique_ptr<RpcChannel> make_channel(std::size_t app_core_index);
  /// N-host form: a slot on client `client_index`.
  std::unique_ptr<RpcChannel> make_channel(std::size_t client_index,
                                           std::size_t app_core_index);

  /// Client 0's event loop (the fabric's only loop when not sharded).
  sim::EventLoop& loop() noexcept { return clients_.front().host->loop(); }
  stack::Host& client_host() noexcept { return *clients_.front().host; }
  stack::Host& client_host(std::size_t i) { return *clients_.at(i).host; }
  std::size_t client_count() const noexcept { return clients_.size(); }
  stack::Host& server_host() noexcept { return *server_.host; }
  const RpcFabricConfig& config() const noexcept { return config_; }

  /// Live Homa table sizes of the server and of client `i` (message
  /// transports; all zero for the stream transports). After a quiesced
  /// run tx/rx are empty and dedup stays within its history limit.
  transport::HomaEndpoint::TableAudit server_table_audit() const;
  transport::HomaEndpoint::TableAudit client_table_audit(std::size_t i) const;

  /// Total wall-clock the server spent on app cores + softirq (for §5.2
  /// CPU-usage accounting).
  std::uint64_t server_busy_ns() const {
    return server_.host->total_app_busy_ns() +
           server_.host->total_softirq_busy_ns();
  }
  /// Summed over every client host (one host in the two-host form).
  std::uint64_t client_busy_ns() const {
    std::uint64_t total = 0;
    for (const Node& client : clients_) {
      total += client.host->total_app_busy_ns() +
               client.host->total_softirq_busy_ns();
    }
    return total;
  }
  /// The IRQ-class slice of the busy totals (NIC interrupt servicing +
  /// doorbell MMIO) — subtract it to compare protocol/crypto CPU alone.
  std::uint64_t server_irq_ns() const {
    return server_.host->total_irq_busy_ns();
  }
  std::uint64_t client_irq_ns() const {
    std::uint64_t total = 0;
    for (const Node& client : clients_) {
      total += client.host->total_irq_busy_ns();
    }
    return total;
  }

 private:
  friend class RpcChannel;

  /// The server or one client: a host, its address, and exactly one
  /// endpoint, the one for config_.kind.
  struct Node {
    stack::Host* host = nullptr;
    transport::PeerAddr addr;
    std::unique_ptr<transport::TcpEndpoint> tcp;
    std::unique_ptr<baselines::KtlsEndpoint> ktls;
    std::unique_ptr<transport::HomaEndpoint> homa;
    std::unique_ptr<proto::SmtEndpoint> smt;
    // Client nodes, stream transports: connection -> channel. Per node
    // because connection ids are only unique per endpoint.
    std::map<std::uint64_t, RpcChannel*> stream_channels;

    /// Stream transports (TCP, kTLS): appends framed bytes to `conn`.
    void send_stream(std::uint64_t conn, Bytes framed, stack::CpuCore& core);
    /// Message transports (Homa, SMT): sends one message to `dst`.
    void send_message(transport::PeerAddr dst, Bytes message,
                      stack::CpuCore& core);
    transport::HomaEndpoint::TableAudit table_audit() const;
  };

  struct StreamConnState {
    Bytes rx_buffer;
    std::size_t app_core = 0;
  };

  static std::unique_ptr<stack::Topology> build_two_host(
      const RpcFabricConfig& config, sim::EventLoop& loop,
      sim::ShardedEngine* engine, std::size_t client_shard,
      std::size_t server_shard);
  void init(stack::Topology& topology, std::size_t server_index,
            const std::vector<std::size_t>& client_indices);
  Status init_topology(stack::Topology& topology, std::size_t server_index,
                       const std::vector<std::size_t>& client_indices);
  void establish_keys();
  void build_endpoint(Node& node);
  stack::CpuCore& server_core_for(std::size_t hint);
  void server_handle_message(ByteView message,
                             std::function<void(Bytes)> reply,
                             std::size_t core_hint);
  void on_server_stream_data(std::uint64_t conn, Bytes data);
  void on_server_message(transport::PeerAddr peer, Bytes message);
  void on_client_message(Bytes message);

  RpcFabricConfig config_;
  sim::EventLoop loop_;  // the hosts' loop in the single-loop form
  std::unique_ptr<stack::Topology> owned_topology_;  // two-host forms

  Node server_;
  std::vector<Node> clients_;

  tls::TrafficKeys client_tx_keys_;  // from a real handshake
  tls::TrafficKeys server_tx_keys_;
  tls::CipherSuite suite_ = tls::CipherSuite::aes_128_gcm_sha256;

  RpcHandler handler_ = [](ByteView) { return RpcReply{}; };  // echo
  AsyncRpcHandler async_handler_;
  std::map<std::uint64_t, StreamConnState> server_streams_;
  FlatMap<std::uint64_t, RpcChannel*> channels_;  // by correlation prefix
  std::uint64_t next_channel_id_ = 1;
  std::size_t next_server_core_ = 0;
};

/// One client slot: issues calls and delivers RTT-stamped completions.
class RpcChannel {
 public:
  using DoneCallback = std::function<void(SimDuration rtt, Bytes response)>;

  ~RpcChannel();

  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Issues one RPC: `request` payload, asking for `resp_len` bytes back.
  void call(Bytes request, std::uint32_t resp_len, DoneCallback done);

  std::size_t inflight() const noexcept { return pending_.size(); }

 private:
  friend class RpcFabric;
  RpcChannel(RpcFabric& fabric, std::uint64_t channel_id,
             std::size_t client_index, std::size_t app_core_index);

  void on_response(Bytes message);
  void on_stream_data(Bytes data);

  RpcFabric::Node& node() { return fabric_.clients_[client_]; }

  RpcFabric& fabric_;
  std::uint64_t channel_id_;
  std::size_t client_;   // index into fabric_.clients_
  std::size_t app_core_;
  std::uint64_t next_call_ = 0;

  // Stream transports: this channel's private connection + rx reassembly.
  std::uint64_t stream_conn_ = 0;
  Bytes rx_buffer_;

  struct Pending {
    SimTime issued_at;
    DoneCallback done;
  };
  FlatMap<std::uint64_t, Pending> pending_;  // by correlation id
};

}  // namespace smt::apps
