#include "apps/rpc.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "tls/cert.hpp"

namespace smt::apps {

namespace {

constexpr std::uint16_t kServerPort = 80;
constexpr std::uint16_t kClientPort = 1000;
constexpr std::size_t kRpcHeader = 12;  // corr(8) + resp_len(4)

Bytes frame_message(ByteView message) {
  Bytes out;
  out.reserve(4 + message.size());
  append_u32be(out, std::uint32_t(message.size()));
  append(out, message);
  return out;
}

/// Extracts one complete length-prefixed message, or nullopt.
std::optional<Bytes> extract_frame(Bytes& buffer) {
  if (buffer.size() < 4) return std::nullopt;
  const std::uint32_t len = load_u32be(buffer.data());
  if (buffer.size() < 4 + std::size_t(len)) return std::nullopt;
  Bytes message(buffer.begin() + 4, buffer.begin() + 4 + std::ptrdiff_t(len));
  buffer.erase(buffer.begin(), buffer.begin() + 4 + std::ptrdiff_t(len));
  return message;
}

/// Construction cannot return a Result, and a Release build drops asserts:
/// a failed set-up step aborts, naming the step and the error.
void require(const Status& st, const char* step) {
  if (st.ok()) return;
  std::fprintf(stderr, "RpcFabric %s error: %s\n", step, st.message().c_str());
  std::abort();
}

template <typename T>
T require(Result<T> result, const char* step) {
  if (!result.ok()) require(Status(result.error()), step);
  return std::move(result).take();
}

}  // namespace

const char* transport_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::tcp: return "TCP";
    case TransportKind::ktls_sw: return "kTLS-sw";
    case TransportKind::ktls_hw: return "kTLS-hw";
    case TransportKind::homa: return "Homa";
    case TransportKind::smt_sw: return "SMT-sw";
    case TransportKind::smt_hw: return "SMT-hw";
    case TransportKind::tcpls: return "TCPLS";
  }
  return "?";
}

const char* transport_key(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::tcp: return "tcp";
    case TransportKind::ktls_sw: return "ktls_sw";
    case TransportKind::ktls_hw: return "ktls_hw";
    case TransportKind::homa: return "homa";
    case TransportKind::smt_sw: return "smt_sw";
    case TransportKind::smt_hw: return "smt_hw";
    case TransportKind::tcpls: return "tcpls";
  }
  return "?";
}

Result<TransportKind> parse_transport(std::string_view name) {
  for (const TransportKind kind :
       {TransportKind::tcp, TransportKind::ktls_sw, TransportKind::ktls_hw,
        TransportKind::homa, TransportKind::smt_sw, TransportKind::smt_hw,
        TransportKind::tcpls}) {
    if (name == transport_key(kind)) return kind;
  }
  return make_error(Errc::invalid_argument,
                    "unknown transport '" + std::string(name) +
                        "' (expected one of tcp, ktls_sw, ktls_hw, homa, "
                        "smt_sw, smt_hw, tcpls)");
}

bool is_message_based(TransportKind kind) noexcept {
  return kind == TransportKind::homa || kind == TransportKind::smt_sw ||
         kind == TransportKind::smt_hw;
}

bool is_encrypted(TransportKind kind) noexcept {
  return kind != TransportKind::tcp && kind != TransportKind::homa;
}

stack::HostConfig host_config_of(const RpcFabricConfig& config,
                                 std::size_t app_cores) {
  stack::HostConfig hc;
  hc.app_cores = app_cores;
  hc.softirq_cores = config.softirq_cores;
  hc.nic.mtu_payload = config.mtu_payload;
  hc.nic.tso_enabled = config.tso_enabled;
  // Without TSO the NIC takes only MTU-sized segments (§7 Segmentation).
  hc.nic.max_tso_bytes = config.tso_enabled ? 65536 : config.mtu_payload;
  hc.nic.tx_burst = config.tx_burst;
  hc.nic.rx_burst = config.rx_burst;
  hc.nic.rx_coalesce_frames = config.rx_coalesce_frames;
  hc.nic.rx_coalesce_usecs = config.rx_coalesce_usecs;
  hc.nic.adaptive_rx_coalesce = config.adaptive_rx_coalesce;
  hc.nic.rx_ring_size = config.rx_ring_size;
  hc.nic.rss_indirection_size = config.rss_indirection_size;
  hc.nic.max_flow_contexts = config.max_flow_contexts;
  if (config.per_doorbell_cost) {
    hc.costs.per_doorbell_cost = *config.per_doorbell_cost;
  }
  if (config.per_interrupt_cost) {
    hc.costs.per_interrupt_cost = *config.per_interrupt_cost;
  }
  return hc;
}

stack::ScenarioConfig to_scenario(const RpcFabricConfig& config) {
  stack::ScenarioConfig scen;  // topology defaults to the direct 2-host shape
  scen.host = host_config_of(config, config.client_app_cores);
  scen.edge_link.bandwidth_gbps = config.bandwidth_gbps;
  scen.edge_link.propagation = config.propagation;
  scen.edge_link.loss_rate = config.loss_rate;
  scen.edge_link.fault = config.fault;
  scen.workload.transport = transport_key(config.kind);
  return scen;
}

RpcFabric::RpcFabric(RpcFabricConfig config)
    : config_(std::move(config)),
      owned_topology_(build_two_host(config_, loop_, nullptr, 0, 0)) {
  init(*owned_topology_, 1, {0});
}

RpcFabric::RpcFabric(RpcFabricConfig config, sim::ShardedEngine& engine,
                     std::size_t client_shard, std::size_t server_shard)
    : config_(std::move(config)),
      owned_topology_(build_two_host(config_, loop_, &engine, client_shard,
                                     server_shard)) {
  init(*owned_topology_, 1, {0});
}

RpcFabric::RpcFabric(RpcFabricConfig config, stack::Topology& topology,
                     std::size_t server_index,
                     std::vector<std::size_t> client_indices)
    : config_(std::move(config)) {
  init(topology, server_index, client_indices);
}

RpcFabric::~RpcFabric() = default;

transport::HomaEndpoint::TableAudit RpcFabric::Node::table_audit() const {
  if (smt != nullptr) return smt->table_audit();
  if (homa != nullptr) return homa->table_audit();
  return {};
}

transport::HomaEndpoint::TableAudit RpcFabric::server_table_audit() const {
  return server_.table_audit();
}

transport::HomaEndpoint::TableAudit RpcFabric::client_table_audit(
    std::size_t i) const {
  return clients_.at(i).table_audit();
}

std::unique_ptr<stack::Topology> RpcFabric::build_two_host(
    const RpcFabricConfig& config, sim::EventLoop& loop,
    sim::ShardedEngine* engine, std::size_t client_shard,
    std::size_t server_shard) {
  // The classic two-host testbed is the builder's degenerate direct
  // topology: host 0 = client (ip 1), host 1 = server (ip 2). One knob
  // mapping (to_scenario / host_config_of) and one validation path.
  stack::TopologyBuilder builder(to_scenario(config));
  builder.host_config(0, host_config_of(config, config.client_app_cores));
  builder.host_config(1, host_config_of(config, config.server_app_cores));
  if (config.irq_rebalance_period > 0) {
    builder.irq_rebalance_period(config.irq_rebalance_period);
  }
  if (engine == nullptr) return require(builder.build(loop), "configuration");
  builder.host_shard(0, client_shard).host_shard(1, server_shard);
  return require(builder.build(*engine), "configuration");
}

void RpcFabric::init(stack::Topology& topology, std::size_t server_index,
                     const std::vector<std::size_t>& client_indices) {
  require(init_topology(topology, server_index, client_indices),
          "configuration");
  establish_keys();
  // The server's endpoint first, then the clients' in index order.
  build_endpoint(server_);
  for (Node& client : clients_) build_endpoint(client);
}

Status RpcFabric::init_topology(
    stack::Topology& topology, std::size_t server_index,
    const std::vector<std::size_t>& client_indices) {
  if (client_indices.empty()) {
    return make_error(Errc::invalid_argument,
                      "rpc: at least one client host is required");
  }
  if (server_index >= topology.host_count()) {
    return make_error(Errc::invalid_argument,
                      "rpc: server host " + std::to_string(server_index) +
                          " out of range");
  }
  std::set<std::size_t> seen;
  for (const std::size_t index : client_indices) {
    if (index >= topology.host_count()) {
      return make_error(Errc::invalid_argument,
                        "rpc: client host " + std::to_string(index) +
                            " out of range");
    }
    if (index == server_index) {
      return make_error(Errc::invalid_argument,
                        "rpc: host " + std::to_string(index) +
                            " cannot be both client and server");
    }
    if (!seen.insert(index).second) {
      return make_error(Errc::invalid_argument,
                        "rpc: client host " + std::to_string(index) +
                            " listed twice");
    }
  }

  server_.host = &topology.host(server_index);
  server_.addr = {topology.ip_of(server_index), kServerPort};
  clients_.resize(client_indices.size());
  for (std::size_t i = 0; i < client_indices.size(); ++i) {
    clients_[i].host = &topology.host(client_indices[i]);
    clients_[i].addr = {topology.ip_of(client_indices[i]), kClientPort};
  }
  return Status::success();
}

tls::SessionSecrets fabric_handshake() {
  crypto::HmacDrbg rng(to_bytes(std::string_view("rpc-fabric-seed")));
  auto ca = tls::CertificateAuthority::create("dc-root", rng);
  const auto server_key = crypto::ecdsa_keypair_from_seed(rng.generate(32));
  tls::CertChain chain;
  chain.certs.push_back(ca.issue(
      "server", crypto::encode_point(server_key.public_key), 0, 1u << 30));

  tls::ClientConfig cc;
  cc.server_name = "server";
  cc.trusted_ca = ca.public_key();
  cc.now = 100;
  tls::ServerConfig sc;
  sc.chain = chain;
  sc.sig_key = server_key;
  sc.trusted_ca = ca.public_key();
  sc.now = 100;

  tls::ClientHandshake client_hs(cc, rng);
  tls::ServerHandshake server_hs(sc, rng);
  const Bytes f1 = require(client_hs.start(), "handshake (ClientHello)");
  const Bytes sf = require(server_hs.on_client_flight(f1),
                           "handshake (server flight)");
  const Bytes f2 = require(client_hs.on_server_flight(sf),
                           "handshake (client Finished)");
  require(server_hs.on_client_finished(f2),
          "handshake (server Finished check)");
  return client_hs.secrets();
}

void RpcFabric::establish_keys() {
  if (!is_encrypted(config_.kind)) return;
  // One real TLS 1.3 handshake provides the session keys; connections in
  // the fabric reuse them (the handshake is off the measured path — the
  // paper's benches also run over established sessions, §4.2).
  const tls::SessionSecrets secrets = fabric_handshake();
  suite_ = secrets.suite;
  client_tx_keys_ = secrets.client_keys;
  server_tx_keys_ = secrets.server_keys;
}

void RpcFabric::build_endpoint(Node& node) {
  const bool server = &node == &server_;
  // Without TSO the NIC takes only MTU-sized segments (§7 Segmentation).
  const std::size_t max_tso =
      config_.tso_enabled ? std::size_t{65536} : config_.mtu_payload;
  // The server reassembles and answers requests; a client hands stream
  // bytes to the connection's channel and routes a response message by its
  // correlation prefix.
  auto on_stream = [this, &node](std::uint64_t conn, Bytes data) {
    if (&node == &server_) return on_server_stream_data(conn, std::move(data));
    const auto it = node.stream_channels.find(conn);
    if (it != node.stream_channels.end()) {
      it->second->on_stream_data(std::move(data));
    }
  };
  auto on_message = [this, &node](const auto& meta, Bytes data) {
    if (&node == &server_) return on_server_message(meta.peer, std::move(data));
    on_client_message(std::move(data));
  };

  switch (config_.kind) {
    case TransportKind::tcp: {
      transport::TcpConfig tc;
      tc.max_tso_bytes = max_tso;
      node.tcp = std::make_unique<transport::TcpEndpoint>(*node.host,
                                                          node.addr.port, tc);
      node.tcp->set_on_data(on_stream);
      break;
    }
    case TransportKind::ktls_sw:
    case TransportKind::ktls_hw:
    case TransportKind::tcpls: {
      baselines::KtlsConfig kc;
      // The server never offloads TX: a kTLS-hw server seals every response
      // in software and only client requests use NIC inline crypto. fig6,
      // fig7 and the CPU-usage bench are calibrated on that split;
      // offloading server TX would rebaseline them.
      kc.hw_offload = !server && config_.kind == TransportKind::ktls_hw;
      kc.tcp.max_tso_bytes = max_tso;
      if (!config_.tso_enabled) {
        kc.max_record_payload =
            config_.mtu_payload - tls::record_overhead(suite_);
      }
      if (config_.kind == TransportKind::tcpls) {
        kc.extra_record_cost = nsec(900);
      }
      node.ktls = std::make_unique<baselines::KtlsEndpoint>(
          *node.host, node.addr.port, kc);
      // A client registers its session when a channel connects; the
      // server registers each connection it accepts.
      if (server) {
        node.ktls->set_on_accept([this](std::uint64_t conn) {
          require(server_.ktls->register_session(conn, suite_, server_tx_keys_,
                                                 client_tx_keys_),
                  "server kTLS session");
        });
      }
      node.ktls->set_on_data(on_stream);
      break;
    }
    case TransportKind::homa: {
      transport::HomaConfig hc;
      hc.max_tso_bytes = max_tso;
      node.homa = std::make_unique<transport::HomaEndpoint>(
          *node.host, node.addr.port, hc);
      node.homa->set_on_message(on_message);
      break;
    }
    case TransportKind::smt_sw:
    case TransportKind::smt_hw: {
      proto::SmtConfig pc;
      pc.hw_offload = config_.kind == TransportKind::smt_hw;
      pc.homa.max_tso_bytes = max_tso;
      if (!config_.tso_enabled) {
        // Records must fit a single MTU packet without TSO (§7): the
        // receiver reassembles on TLS record headers.
        pc.max_record_payload =
            config_.mtu_payload - proto::record_block_overhead();
      }
      node.smt = std::make_unique<proto::SmtEndpoint>(*node.host,
                                                      node.addr.port, pc);
      // Every session uses the one handshake's keys: the client's, then
      // the server's session for this client.
      if (!server) {
        require(node.smt->register_session(server_.addr, suite_,
                                           client_tx_keys_, server_tx_keys_),
                "client SMT session");
        require(server_.smt->register_session(node.addr, suite_,
                                              server_tx_keys_, client_tx_keys_),
                "server SMT session");
      }
      node.smt->set_on_message(on_message);
      break;
    }
  }
}

void RpcFabric::Node::send_stream(std::uint64_t conn, Bytes framed,
                                  stack::CpuCore& core) {
  if (tcp != nullptr) return tcp->send(conn, std::move(framed), &core);
  const Status st = ktls->send(conn, std::move(framed), &core);
  assert(st.ok());
  (void)st;
}

void RpcFabric::Node::send_message(transport::PeerAddr dst, Bytes message,
                                   stack::CpuCore& core) {
  const bool sent =
      homa != nullptr ? homa->send_message(dst, std::move(message), &core).ok()
                      : smt->send_message(dst, std::move(message), &core).ok();
  assert(sent);
  (void)sent;
}

void RpcFabric::on_client_message(Bytes message) {
  if (message.size() < 8) return;
  const std::uint64_t corr = load_u64be(message.data());
  if (RpcChannel* const* channel = channels_.find(corr >> 32)) {
    (*channel)->on_response(std::move(message));
  }
}

stack::CpuCore& RpcFabric::server_core_for(std::size_t hint) {
  if (config_.single_threaded_server) return server_.host->app_core(0);
  return server_.host->app_core(hint % server_.host->app_core_count());
}

void RpcFabric::server_handle_message(ByteView message,
                                      std::function<void(Bytes)> reply,
                                      std::size_t core_hint) {
  if (message.size() < kRpcHeader) return;
  const std::uint64_t corr = load_u64be(message.data());
  const std::uint32_t resp_len = load_u32be(message.data() + 8);
  const ByteView payload = message.subspan(kRpcHeader);

  // Completes the RPC once the handler produced a result: charges wakeup +
  // dispatch + handler CPU on a server app thread, then sends the reply
  // from that context.
  auto complete = [this, corr, resp_len, core_hint,
                   reply = std::move(reply)](RpcReply result) mutable {
    Bytes response;
    response.reserve(8 + std::max<std::size_t>(result.payload.size(), resp_len));
    append_u64be(response, corr);
    if (result.payload.empty()) {
      response.resize(8 + resp_len, 0x5a);  // echo server: synthesise bytes
    } else {
      append(response, result.payload);
    }
    stack::CpuCore& core = server_core_for(core_hint);
    const auto& costs = server_.host->costs();
    // Stream transports: the application reassembles messages from the
    // bytestream itself (§5.3 — Redis keeps partial-read state for TCP
    // clients but not for Homa/SMT ones).
    const SimDuration framing =
        is_message_based(config_.kind) ? 0 : costs.stream_app_framing;
    core.run(costs.wakeup + costs.epoll_dispatch + framing + result.cpu_cost,
             [reply = std::move(reply),
              response = std::move(response)]() mutable {
               reply(std::move(response));
             });
  };

  if (async_handler_) {
    async_handler_(payload, std::move(complete));
  } else {
    complete(handler_(payload));
  }
}

void RpcFabric::on_server_stream_data(std::uint64_t conn, Bytes data) {
  auto [it, created] = server_streams_.try_emplace(conn);
  if (created) it->second.app_core = next_server_core_++;
  StreamConnState& state = it->second;
  append(state.rx_buffer, data);

  while (auto message = extract_frame(state.rx_buffer)) {
    const std::size_t core_hint = state.app_core;
    server_handle_message(
        *message,
        [this, conn, core_hint](Bytes response) {
          server_.send_stream(conn, frame_message(response),
                              server_core_for(core_hint));
        },
        core_hint);
  }
}

void RpcFabric::on_server_message(transport::PeerAddr peer, Bytes message) {
  server_handle_message(
      message,
      [this, peer](Bytes response) {
        const std::size_t hint =
            config_.single_threaded_server
                ? 0
                : (next_server_core_ % server_.host->app_core_count());
        server_.send_message(peer, std::move(response), server_core_for(hint));
      },
      next_server_core_++);
}

std::unique_ptr<RpcChannel> RpcFabric::make_channel(
    std::size_t app_core_index) {
  return make_channel(0, app_core_index);
}

std::unique_ptr<RpcChannel> RpcFabric::make_channel(
    std::size_t client_index, std::size_t app_core_index) {
  const std::uint64_t id = next_channel_id_++;
  stack::Host& host = *clients_.at(client_index).host;
  auto channel = std::unique_ptr<RpcChannel>(new RpcChannel(
      *this, id, client_index, app_core_index % host.app_core_count()));
  channels_.try_emplace(id, channel.get());
  return channel;
}

RpcChannel::RpcChannel(RpcFabric& fabric, std::uint64_t channel_id,
                       std::size_t client_index, std::size_t app_core_index)
    : fabric_(fabric),
      channel_id_(channel_id),
      client_(client_index),
      app_core_(app_core_index) {
  if (is_message_based(fabric_.config_.kind)) return;
  RpcFabric::Node& client = node();
  const transport::PeerAddr server = fabric_.server_.addr;
  stream_conn_ = client.tcp != nullptr
                     ? client.tcp->connect(server.ip, server.port)
                     : client.ktls->connect(server.ip, server.port);
  client.stream_channels[stream_conn_] = this;
  if (client.ktls == nullptr) return;
  require(client.ktls->register_session(stream_conn_, fabric_.suite_,
                                        fabric_.client_tx_keys_,
                                        fabric_.server_tx_keys_),
          "client kTLS session");
}

RpcChannel::~RpcChannel() {
  fabric_.channels_.erase(channel_id_);
  if (stream_conn_ != 0) node().stream_channels.erase(stream_conn_);
}

void RpcChannel::call(Bytes request, std::uint32_t resp_len,
                      DoneCallback done) {
  const std::uint64_t corr = (channel_id_ << 32) | (next_call_++ & 0xffffffff);
  Bytes message;
  message.reserve(kRpcHeader + request.size());
  append_u64be(message, corr);
  append_u32be(message, resp_len);
  append(message, request);

  *pending_.try_emplace(corr).first =
      Pending{node().host->loop().now(), std::move(done)};

  stack::CpuCore& core = node().host->app_core(app_core_);
  if (is_message_based(fabric_.config_.kind)) {
    node().send_message(fabric_.server_.addr, std::move(message), core);
  } else {
    node().send_stream(stream_conn_, frame_message(message), core);
  }
}

void RpcChannel::on_stream_data(Bytes data) {
  append(rx_buffer_, data);
  while (auto message = extract_frame(rx_buffer_)) {
    on_response(std::move(*message));
  }
}

void RpcChannel::on_response(Bytes message) {
  if (message.size() < 8) return;
  const std::uint64_t corr = load_u64be(message.data());
  Pending* const found = pending_.find(corr);
  if (found == nullptr) return;
  Pending pending = std::move(*found);
  pending_.erase(corr);

  // Application wakeup on the client thread completes the RPC.
  stack::CpuCore& core = node().host->app_core(app_core_);
  const SimTime issued = pending.issued_at;
  Bytes payload(message.begin() + 8, message.end());
  core.run(node().host->costs().wakeup,
           [this, issued, done = std::move(pending.done),
            payload = std::move(payload)]() mutable {
             done(node().host->loop().now() - issued, std::move(payload));
           });
}

}  // namespace smt::apps
