#include "replay.hpp"

#include <chrono>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/gcm.hpp"
#include "netsim/event.hpp"
#include "smt/wire.hpp"
#include "stats.hpp"
#include "tls/cert.hpp"
#include "tls/engine.hpp"
#include "tls/record.hpp"

namespace perfbench {
namespace {

constexpr int kTrials = 5;
constexpr std::size_t kRpcRequestHeader = 12;  // corr_id(8) + resp_len(4)
constexpr std::size_t kRpcResponseHeader = 8;  // corr_id(8)
constexpr std::size_t kRecordPayload = 16000;  // SMT and kTLS record cut

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Record plaintext sizes of the first RPCs of the plan, both directions,
/// cut where the transports cut records; about 2 MiB in all.
std::vector<std::size_t> record_sizes(const InputPlan& plan) {
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  const auto cut = [&](std::size_t message) {
    while (message > 0) {
      const std::size_t record = std::min(message, kRecordPayload);
      sizes.push_back(record);
      total += record;
      message -= record;
    }
  };
  for (std::size_t i = 0; i < plan.size() && total < (std::size_t(2) << 20);
       ++i) {
    cut(plan.plan(i).request_len + kRpcRequestHeader);
    cut(plan.plan(i).response_len + kRpcResponseHeader);
  }
  return sizes;
}

/// One full TLS 1.3 handshake as RpcFabric runs it: root CA, server key
/// and certificate, then client and server flights.
bool handshake(smt::crypto::HmacDrbg& rng, smt::tls::SessionSecrets& out) {
  auto ca = smt::tls::CertificateAuthority::create("dc-root", rng);
  const auto server_key =
      smt::crypto::ecdsa_keypair_from_seed(rng.generate(32));
  smt::tls::CertChain chain;
  chain.certs.push_back(ca.issue(
      "server", smt::crypto::encode_point(server_key.public_key), 0, 1u << 30));
  smt::tls::ClientConfig cc;
  cc.server_name = "server";
  cc.trusted_ca = ca.public_key();
  cc.now = 100;
  smt::tls::ServerConfig sc;
  sc.chain = chain;
  sc.sig_key = server_key;
  sc.trusted_ca = ca.public_key();
  sc.now = 100;
  smt::tls::ClientHandshake client(cc, rng);
  smt::tls::ServerHandshake server(sc, rng);
  auto f1 = client.start();
  if (!f1.ok()) return false;
  auto sf = server.on_client_flight(f1.value());
  if (!sf.ok()) return false;
  auto f2 = client.on_server_flight(sf.value());
  if (!f2.ok()) return false;
  if (!server.on_client_finished(f2.value()).ok()) return false;
  out = client.secrets();
  return true;
}

}  // namespace

std::size_t protected_bytes(const RpcPlan& plan) {
  return plan.request_len + kRpcRequestHeader + plan.response_len +
         kRpcResponseHeader;
}

bool replay_unit_costs(const WorkloadSpec& spec, const InputPlan& plan,
                       UnitCosts& out) {
  smt::crypto::HmacDrbg rng(smt::to_bytes(std::string_view("perfbench")));

  // --- tls.handshake_ms ---
  smt::tls::SessionSecrets secrets;
  std::vector<double> trials;
  for (int t = 0; t < 3; ++t) {
    const auto start = std::chrono::steady_clock::now();
    if (!handshake(rng, secrets)) return false;
    trials.push_back(elapsed_ns(start) / 1e6);
  }
  out.handshake_ms = median_of(trials);

  // --- crypto.gcm_{seal,open}_ns_per_kib at the workload's record sizes ---
  const std::vector<std::size_t> sizes = record_sizes(plan);
  std::size_t total_bytes = 0;
  for (const std::size_t s : sizes) total_bytes += s;
  const smt::crypto::AesGcm aead(secrets.client_keys.key);
  const smt::Bytes nonce(smt::crypto::AesGcm::kNonceSize, 0x11);
  const smt::Bytes aad(5, 0x17);
  const smt::Bytes source(kRecordPayload, 0xa5);
  std::vector<smt::Bytes> sealed(sizes.size());
  std::vector<double> seal_trials, open_trials;
  for (int t = 0; t < kTrials; ++t) {
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      sealed[i] = aead.seal(nonce, aad,
                            smt::ByteView(source.data(), sizes[i]));
    }
    seal_trials.push_back(elapsed_ns(start));
    start = std::chrono::steady_clock::now();
    for (const smt::Bytes& record : sealed) {
      if (!aead.open(nonce, aad, record).has_value()) return false;
    }
    open_trials.push_back(elapsed_ns(start));
  }
  const double kib = double(total_bytes) / 1024.0;
  out.gcm_seal_ns_per_kib = median_of(seal_trials) / kib;
  out.gcm_open_ns_per_kib = median_of(open_trials) / kib;

  // --- tls.record_seal_ns: one record of the workload's nominal size ---
  const smt::tls::RecordProtection protection(secrets.suite,
                                              secrets.client_keys);
  const std::size_t record = std::min(
      spec.request_nominal + kRpcRequestHeader, kRecordPayload);
  constexpr int kRecords = 256;
  trials.clear();
  for (int t = 0; t < kTrials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRecords; ++i) {
      const smt::Bytes wire = protection.seal(
          std::uint64_t(i), smt::tls::ContentType::application_data,
          smt::ByteView(source.data(), record));
      if (wire.empty()) return false;
    }
    trials.push_back(elapsed_ns(start) / kRecords);
  }
  out.record_seal_ns = median_of(trials);

  // --- smt.wire_build_ns: one request message, the workload's crypto mode ---
  smt::proto::SegmenterConfig segmenter;
  segmenter.hardware_crypto = spec.kind == smt::apps::TransportKind::smt_hw;
  constexpr std::size_t kMessages = 64;
  std::vector<smt::Bytes> requests;
  for (std::size_t i = 0; i < kMessages && i < plan.size(); ++i) {
    requests.push_back(plan.request(i));
  }
  trials.clear();
  for (int t = 0; t < kTrials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto built = smt::proto::build_wire_message(segmenter, protection,
                                                  i + 1, requests[i]);
      if (!built.ok()) return false;
    }
    trials.push_back(elapsed_ns(start) / double(requests.size()));
  }
  out.wire_build_ns = median_of(trials);

  // --- netsim.event_ns: schedule + dispatch with 64 events pending ---
  constexpr std::size_t kEvents = 200000;
  constexpr std::size_t kPending = 64;
  trials.clear();
  for (int t = 0; t < kTrials; ++t) {
    smt::sim::EventLoop loop;
    std::size_t remaining = kEvents;
    std::function<void()> tick = [&] {
      if (remaining == 0) return;
      --remaining;
      loop.schedule(1 + smt::SimDuration(remaining % 7), [&] { tick(); });
    };
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kPending; ++i) tick();
    const std::size_t ran = loop.run();
    trials.push_back(elapsed_ns(start) / double(ran));
  }
  out.event_ns = median_of(trials);
  return true;
}

}  // namespace perfbench
