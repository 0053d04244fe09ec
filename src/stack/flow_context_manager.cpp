#include "stack/flow_context_manager.hpp"

namespace smt::stack {

Result<FlowContextManager::Lease*> FlowContextManager::acquire(
    const FlowKey& key, tls::CipherSuite suite, const tls::TrafficKeys& keys,
    std::uint64_t first_seq) {
  if (const LruList::iterator* node = entries_.find(key)) {
    ++stats_.hits;
    lru_.splice(lru_.end(), lru_, *node);  // most recently used
    (*node)->lease.fresh = false;
    return &(*node)->lease;
  }

  ++stats_.misses;
  auto created = nic_.create_flow_context(suite, keys, first_seq);
  while (!created.ok()) {
    if (!evict_one_idle()) {
      ++stats_.acquire_failures;
      return created.error();
    }
    created = nic_.create_flow_context(suite, keys, first_seq);
  }

  if (!ever_held_.insert(key).second) ++stats_.reestablished;

  const auto node = lru_.insert(
      lru_.end(), Node{key, Lease{created.value(), first_seq, true}});
  entries_.try_emplace(key, node);
  return &node->lease;
}

// Note: contexts freed while descriptors are in flight (rekey/teardown)
// linger in the NIC table as pending-release zombies until the rings
// drain, transiently shrinking the capacity this eviction loop can
// reclaim. That window is a few descriptor-processing times; within it
// the manager simply evicts the next idle victim (or, if every context
// is busy, fails the acquire).
bool FlowContextManager::evict_one_idle() {
  for (auto node = lru_.begin(); node != lru_.end(); ++node) {
    if (nic_.context_in_flight(node->lease.nic_context_id)) {
      continue;  // descriptors still queued; not a safe victim
    }
    nic_.release_flow_context(node->lease.nic_context_id);
    entries_.erase(node->key);
    lru_.erase(node);
    ++stats_.evictions;
    return true;
  }
  return false;
}

void FlowContextManager::invalidate_session(std::uint64_t session_tag) {
  for (auto node = lru_.begin(); node != lru_.end();) {
    if (node->key.session_tag != session_tag) {
      ++node;
      continue;
    }
    nic_.release_flow_context(node->lease.nic_context_id);
    entries_.erase(node->key);
    node = lru_.erase(node);
  }
  // Forget the session's history too: bounds ever_held_ under endpoint
  // churn and keeps `reestablished` from counting across key epochs (a
  // rekeyed session's first acquire is a fresh establishment, not a
  // re-establishment of the dead epoch's context).
  ever_held_.erase(ever_held_.lower_bound(FlowKey{session_tag, 0}),
                   session_tag == ~std::uint64_t{0}
                       ? ever_held_.end()
                       : ever_held_.lower_bound(FlowKey{session_tag + 1, 0}));
}

void FlowContextManager::invalidate_all() {
  // No release_flow_context calls: this runs after Nic::reset() cleared
  // the device table, so the IDs we hold name nothing (release would be a
  // harmless no-op, but skipping it keeps the semantics honest — the
  // driver is reconciling with a device that lost state, not freeing).
  // ever_held_ survives deliberately: post-reset acquires ARE
  // re-establishments of sessions the host still considers live.
  entries_.clear();
  lru_.clear();
}

}  // namespace smt::stack
