/// \file
/// Consistent-hash ring (DESIGN.md §11): places string keys (session
/// placement keys) onto named shards (backend addresses) such that adding
/// or removing one shard remaps only ~1/N of the key space, instead of
/// reshuffling everything the way `hash(key) % N` does. Each shard owns
/// 64 points (vnodes) on a 64-bit ring; a key maps to the shard owning the
/// first point at or clockwise after the key's hash. The vnode spread is
/// what keeps per-shard load balanced (the property test pins both the
/// balance band and the remap bound).
///
/// Deterministic and insertion-order independent: the same shard set always
/// produces the same ring, so a restarted router re-derives identical
/// placements. Not internally synchronized — the SessionRouter guards it
/// with its own mutex.

#ifndef VERITAS_FLEET_HASH_RING_H_
#define VERITAS_FLEET_HASH_RING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace veritas {

class HashRing {
 public:
  /// Adds a shard (idempotent).
  void AddShard(const std::string& shard);

  /// Removes a shard (no-op when absent). Keys it owned redistribute over
  /// the survivors; every other key keeps its mapping exactly.
  void RemoveShard(const std::string& shard);

  bool Contains(const std::string& shard) const;

  /// The shard owning `key`. kFailedPrecondition on an empty ring.
  Result<std::string> ShardFor(const std::string& key) const;

  size_t shard_count() const { return shards_.size(); }
  bool empty() const { return shards_.empty(); }

  /// Current shard names, sorted.
  std::vector<std::string> shards() const { return shards_; }

 private:
  void Rebuild();

  std::vector<std::string> shards_;  ///< sorted (uniqueness + determinism)
  /// The ring: (point hash, shard) sorted by (hash, shard) — the name
  /// tiebreak makes collisions deterministic regardless of insertion order.
  std::vector<std::pair<uint64_t, std::string>> ring_;
};

}  // namespace veritas

#endif  // VERITAS_FLEET_HASH_RING_H_
