#include "fleet/hash_ring.h"

#include <algorithm>

#include "common/hash.h"

namespace veritas {

namespace {

/// Points per shard. More vnodes = tighter balance, linearly more memory
/// and log-factor lookup cost; 64 keeps per-shard load within a few tens
/// of percent of fair for small fleets.
constexpr size_t kVnodesPerShard = 64;

}  // namespace

void HashRing::AddShard(const std::string& shard) {
  auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it != shards_.end() && *it == shard) return;
  shards_.insert(it, shard);
  Rebuild();
}

void HashRing::RemoveShard(const std::string& shard) {
  auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it == shards_.end() || *it != shard) return;
  shards_.erase(it);
  Rebuild();
}

bool HashRing::Contains(const std::string& shard) const {
  return std::binary_search(shards_.begin(), shards_.end(), shard);
}

Result<std::string> HashRing::ShardFor(const std::string& key) const {
  if (ring_.empty()) {
    return Status::FailedPrecondition("HashRing: no shards");
  }
  const uint64_t h = HashBytes(key, /*seed=*/0);
  // First ring point strictly after the key's hash, wrapping at the top.
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), h,
      [](uint64_t value, const std::pair<uint64_t, std::string>& point) {
        return value < point.first;
      });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

void HashRing::Rebuild() {
  ring_.clear();
  ring_.reserve(shards_.size() * kVnodesPerShard);
  for (const std::string& shard : shards_) {
    for (size_t v = 0; v < kVnodesPerShard; ++v) {
      ring_.emplace_back(HashBytes(shard, /*seed=*/v + 1), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

}  // namespace veritas
