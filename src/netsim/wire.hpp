// The sender side of one wire direction and its deterministic fault model.
// Edge links (LinkDirection) and switch egress ports each own a Wire, so
// every wire in the fabric, edge or core, behaves the same way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/packet.hpp"

namespace smt::sim {

/// Deterministic wire impairments. All state evolves from `seed` (mixed
/// with the wire's stream index) and virtual time only, so every fault
/// pattern replays byte-identically per shard count. Fields default to
/// "off"; `enabled()` gates the per-packet work.
struct FaultProfile {
  // Gilbert–Elliott burst loss: a two-state Markov chain stepped once per
  // packet. Loss is drawn in the CURRENT state, then the transition — so a
  // burst begins with the packet AFTER the good→bad flip.
  double p_good_to_bad = 0.0;  // per-packet transition probability
  double p_bad_to_good = 1.0;  // per-packet transition probability
  double good_loss_rate = 0.0;
  double bad_loss_rate = 0.0;

  // Corruption: deliver-but-flag. The packet arrives with hdr.corrupted set
  // and is discarded at transport ingress — modelling a frame whose GCM tag
  // or checksum check fails AFTER spending wire and NIC resources.
  double corrupt_rate = 0.0;

  // Bounded reorder/jitter: with probability reorder_rate a packet's
  // arrival is delayed by an extra uniform (0, reorder_jitter], letting
  // later packets overtake it. Jitter only ever ADDS delay, so the
  // cross-shard lookahead contract (arrival >= now + propagation) holds.
  double reorder_rate = 0.0;
  SimDuration reorder_jitter = 0;

  // Scheduled flaps: the wire is DOWN during
  //   [flap_offset + k*flap_period, flap_offset + k*flap_period + flap_down)
  // for k = 0, 1, ... — a pure function of virtual time, no RNG. Every
  // packet sent while down is dropped, and the serialisation cursor resets
  // at the up transition (queued occupancy does not survive an outage).
  SimDuration flap_period = 0;  // 0 => no flaps
  SimDuration flap_down = 0;
  SimDuration flap_offset = 0;

  std::uint64_t seed = 1;  // fault-RNG stream (decorrelated per wire)

  bool ge_enabled() const noexcept {
    return good_loss_rate > 0.0 || bad_loss_rate > 0.0;
  }
  bool flaps_enabled() const noexcept {
    return flap_period > 0 && flap_down > 0;
  }
  bool enabled() const noexcept {
    return ge_enabled() || corrupt_rate > 0.0 ||
           (reorder_rate > 0.0 && reorder_jitter > 0) || flaps_enabled();
  }

  /// Range and shape checks. The message names no owner; callers prefix
  /// it with theirs (`fault`, `fabric_fault`, ...).
  Status validate() const;
};

/// Bandwidth, serialisation cursor, flap phase, Gilbert–Elliott chain and
/// the fault RNG mix_seed(fault.seed, stream). The owner schedules
/// delivery and calls the steps in its own order around its own checks:
/// flap_kills, charge (every packet, killed ones too), draw_faults.
class Wire {
 public:
  explicit Wire(double bandwidth_gbps, const FaultProfile& fault = {},
                std::uint64_t stream = 0)
      : bandwidth_gbps_(bandwidth_gbps) {
    set_fault(fault, stream);
  }

  void set_bandwidth(double gbps) noexcept { bandwidth_gbps_ = gbps; }

  /// Installs a fault profile on its own stream. Wire before run().
  void set_fault(const FaultProfile& fault, std::uint64_t stream) {
    fault_ = fault;
    fault_rng_ = Rng(mix_seed(fault.seed, stream));
    fault_active_ = fault.enabled();
  }

  /// Whether the flap schedule has the wire DOWN at `now` (no RNG).
  bool flap_down_at(SimTime now) const noexcept {
    if (!fault_.flaps_enabled() || now < fault_.flap_offset) return false;
    return (now - fault_.flap_offset) % fault_.flap_period < fault_.flap_down;
  }

  /// True (a counted fault drop) if the wire is down at `now`. An outage
  /// voids the queue: the cursor resets to `now` at the up transition.
  bool flap_kills(SimTime now) noexcept {
    if (!fault_.flaps_enabled()) return false;
    const bool down = flap_down_at(now);
    if (!down && was_down_) next_free_ = now;
    was_down_ = down;
    if (down) ++fault_dropped_;
    return down;
  }

  /// Charges one packet's serialisation slot; returns its end time.
  SimTime charge(SimTime now, std::size_t wire_bytes) noexcept {
    const double bits = double(wire_bytes) * 8.0;
    next_free_ = std::max(now, next_free_) +
                 SimDuration(bits / bandwidth_gbps_);  // ns at N Gb/s
    return next_free_;
  }

  /// GE loss in the current state, GE transition, corruption, jitter.
  /// False (a counted fault drop) if burst loss kills the packet; else it
  /// may flag the packet corrupted and set the caller-zeroed `jitter`.
  bool draw_faults(Packet& packet, SimDuration& jitter) {
    if (!fault_active_) return true;
    const FaultProfile& f = fault_;
    if (f.ge_enabled()) {
      const double rate = ge_bad_ ? f.bad_loss_rate : f.good_loss_rate;
      const bool killed = rate > 0.0 && fault_rng_.chance(rate);
      if (ge_bad_) {
        if (f.p_bad_to_good > 0.0 && fault_rng_.chance(f.p_bad_to_good)) {
          ge_bad_ = false;
        }
      } else if (f.p_good_to_bad > 0.0 && fault_rng_.chance(f.p_good_to_bad)) {
        ge_bad_ = true;
      }
      if (killed) {
        ++fault_dropped_;
        return false;
      }
    }
    if (f.corrupt_rate > 0.0 && fault_rng_.chance(f.corrupt_rate)) {
      packet.hdr.corrupted = true;
      ++corrupted_;
    }
    if (f.reorder_rate > 0.0 && f.reorder_jitter > 0 &&
        fault_rng_.chance(f.reorder_rate)) {
      jitter = SimDuration(1) +
               SimDuration(fault_rng_.next_below(
                   std::uint64_t(f.reorder_jitter)));
    }
    return true;
  }

  /// Burst-loss kills + packets offered into a flap window.
  std::uint64_t fault_dropped() const noexcept { return fault_dropped_; }
  /// Packets delivered with hdr.corrupted set.
  std::uint64_t corrupted() const noexcept { return corrupted_; }

 private:
  double bandwidth_gbps_;
  SimTime next_free_ = 0;
  FaultProfile fault_;
  Rng fault_rng_{0};
  bool fault_active_ = false;  // cached fault_.enabled()
  bool ge_bad_ = false;        // Gilbert–Elliott state (false = good)
  bool was_down_ = false;      // last observed flap state
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace smt::sim
