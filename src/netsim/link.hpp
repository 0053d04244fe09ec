// Point-to-point simulated link with bandwidth, propagation delay, uniform
// loss, and the shared sim::Wire fault model (netsim/wire.hpp), modelling
// both the paper's back-to-back 100 Gb/s topology (§5 "HW&OS") and the
// adversity scenario matrix (WAN-grade impairments, bursty outages).
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/event.hpp"
#include "netsim/packet.hpp"
#include "netsim/wire.hpp"

namespace smt::sim {

struct LinkConfig {
  double bandwidth_gbps = 100.0;
  SimDuration propagation = usec(1);
  double loss_rate = 0.0;       // uniform random drop probability
  std::uint64_t loss_seed = 1;  // deterministic loss pattern
  FaultProfile fault;           // burst loss / corruption / reorder / flaps
};

/// One direction of a link: a sim::Wire (serialisation cursor + fault
/// model) plus propagation, uniform loss, and a test drop predicate.
///
/// RNG streams: the loss RNG and the wire's fault RNG each seed from
/// mix_seed(seed, stream) where `stream` is the direction index (Link uses
/// 0 for a2b, 1 for b2a; fabric uplinks use the host index), so the two
/// directions of a Link — built from one LinkConfig — never draw the same
/// drop pattern. Both streams live on the SENDING endpoint's shard.
///
/// Drop accounting contract: the cursor advances for EVERY packet,
/// including ones killed by the flap window, the drop predicate, uniform
/// loss, or burst loss — a dropped packet still occupied the wire, so loss
/// can never inflate measured link capacity. Checks run in a fixed order
/// (flap, cursor charge, predicate, uniform loss, burst loss, corruption,
/// jitter) and each drop increments exactly one of the split counters.
class LinkDirection {
 public:
  LinkDirection(EventLoop& loop, const LinkConfig& config,
                std::uint64_t stream = 0)
      : loop_(loop),
        config_(config),
        rng_(mix_seed(config.loss_seed, stream)),
        wire_(config.bandwidth_gbps, config.fault, stream) {}

  void set_receiver(PacketHandler handler) { receiver_ = std::move(handler); }

  /// Whether a receiver is already wired (topology builders use this to
  /// reject double-connecting an endpoint).
  bool has_receiver() const noexcept { return receiver_ != nullptr; }

  /// Optional deterministic drop predicate evaluated before the random
  /// loss rate (used by tests to kill specific packets).
  void set_drop_predicate(std::function<bool(const Packet&)> predicate) {
    drop_predicate_ = std::move(predicate);
  }

  /// Marks this direction as CROSS-SHARD: delivery becomes a mailbox post
  /// to the receiver's shard (ShardedEngine::remote_scheduler) stamped
  /// with the arrival time, instead of a local schedule_at. The sender's
  /// serialisation cursor, counters, and loss/fault RNGs stay on THIS
  /// shard; only the receiver callback runs remotely. The lookahead
  /// contract requires config.propagation >= the engine's lookahead (fault
  /// jitter only adds on top). Wire before run(): receiver_ and remote_
  /// are read concurrently afterwards.
  void set_remote_scheduler(RemoteScheduler remote) {
    remote_ = std::move(remote);
  }

  void send(Packet packet) {
    const SimTime now = loop_.now();
    const bool down = wire_.flap_kills(now);
    const SimTime end = wire_.charge(now, packet.wire_size());
    ++packets_sent_;
    if (down) return;  // the wire is dead: slot charged, drop counted

    if (drop_predicate_ && drop_predicate_(packet)) {
      ++dropped_by_predicate_;
      return;
    }
    if (config_.loss_rate > 0.0 && rng_.chance(config_.loss_rate)) {
      ++dropped_by_loss_;
      return;
    }
    SimDuration jitter = 0;
    if (!wire_.draw_faults(packet, jitter)) return;

    const SimTime arrival = end + config_.propagation + jitter;
    auto deliver = [this, pkt = std::move(packet)]() mutable {
      if (receiver_) receiver_(std::move(pkt));
    };
    if (remote_) {
      remote_(arrival, std::move(deliver));  // cross-shard mailbox post
    } else {
      loop_.schedule_at(arrival, std::move(deliver));
    }
  }

  std::uint64_t packets_sent() const noexcept { return packets_sent_; }
  /// Total drops from all causes (source-compatible sum of the split
  /// counters — Switch per-port stats and older tests read this).
  std::uint64_t packets_dropped() const noexcept {
    return dropped_by_predicate_ + dropped_by_loss_ + dropped_by_fault();
  }
  std::uint64_t dropped_by_predicate() const noexcept {
    return dropped_by_predicate_;
  }
  std::uint64_t dropped_by_loss() const noexcept { return dropped_by_loss_; }
  /// Burst-loss kills + packets sent into a flap window.
  std::uint64_t dropped_by_fault() const noexcept {
    return wire_.fault_dropped();
  }
  /// Packets delivered with hdr.corrupted set (counted here at the point of
  /// corruption; the transport counts the matching ingress discards).
  std::uint64_t packets_corrupted() const noexcept {
    return wire_.corrupted();
  }

 private:
  EventLoop& loop_;
  LinkConfig config_;
  Rng rng_;    // uniform loss_rate stream
  Wire wire_;  // cursor + fault model on its own stream
  PacketHandler receiver_;
  RemoteScheduler remote_;  // set => cross-shard delivery
  std::function<bool(const Packet&)> drop_predicate_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t dropped_by_predicate_ = 0;
  std::uint64_t dropped_by_loss_ = 0;
};

/// Full-duplex link: direction a2b and b2a. The directions share one
/// LinkConfig but draw from decorrelated RNG streams (stream index 0 / 1).
class Link {
 public:
  Link(EventLoop& loop, const LinkConfig& config)
      : a2b_(loop, config, 0), b2a_(loop, config, 1) {}

  /// Cross-shard form: each direction's sender-side state (serialisation
  /// cursor, counters, loss/fault RNGs) lives on the SENDING endpoint's
  /// loop, so a Link can span two shards. With a_loop == b_loop this is
  /// identical to the single-loop constructor.
  Link(EventLoop& a_loop, EventLoop& b_loop, const LinkConfig& config)
      : a2b_(a_loop, config, 0), b2a_(b_loop, config, 1) {}

  LinkDirection& a2b() noexcept { return a2b_; }
  LinkDirection& b2a() noexcept { return b2a_; }

 private:
  LinkDirection a2b_;
  LinkDirection b2a_;
};

}  // namespace smt::sim
