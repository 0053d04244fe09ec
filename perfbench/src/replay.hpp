// Unit-cost replays: public layer functions called outside the simulator
// with the workload's own sizes, so a traced run can price the counts it
// observed (e.g. crypto share = bytes sealed and opened x ns per byte).
#pragma once

#include <cstddef>

#include "gen.hpp"
#include "workloads.hpp"

namespace perfbench {

struct UnitCosts {
  double gcm_seal_ns_per_kib = 0;  // crypto::AesGcm::seal
  double gcm_open_ns_per_kib = 0;  // crypto::AesGcm::open
  double record_seal_ns = 0;       // tls::RecordProtection::seal, one record
  double handshake_ms = 0;         // full TLS 1.3 handshake incl. CA/keys
  double wire_build_ns = 0;        // proto::build_wire_message, one request
  double event_ns = 0;             // EventLoop schedule + dispatch, no-op
};

/// Median of several timed trials of each replay. Fails (returns false)
/// only when a layer call itself reports an error.
bool replay_unit_costs(const WorkloadSpec& spec, const InputPlan& plan,
                       UnitCosts& out);

/// Application bytes one RPC puts through record protection: the request
/// with its 12-byte RPC header and the response with its 8-byte one.
std::size_t protected_bytes(const RpcPlan& plan);

}  // namespace perfbench
