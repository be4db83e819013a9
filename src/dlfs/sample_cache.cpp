#include "dlfs/sample_cache.hpp"

#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"

namespace dlfs::core {

SampleCache::SampleCache(mem::HugePagePool& pool, std::size_t capacity_chunks,
                         std::size_t num_samples)
    : pool_(&pool), capacity_(capacity_chunks), valid_bits_(num_samples, 0) {}

CachePin SampleCache::pin(std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};  // LRU refresh mutates
  auto it = map_.find(sample_id);
  if (it == map_.end()) return {};
  Entry& e = it->second;
  lru_.splice(lru_.begin(), lru_, e.lru_pos);  // refresh recency
  return CachePin{e.pieces, e.spans};
}

void SampleCache::insert(std::size_t sample_id,
                         std::vector<mem::DmaBuffer> pieces,
                         std::vector<std::uint32_t> piece_lens) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  assert(pieces.size() == piece_lens.size());
  if (sample_id >= valid_bits_.size()) {
    throw std::out_of_range("sample id beyond dataset size");
  }
  // An eviction must free whole chunks: the pool-pressure step counts on
  // it, and so does the capacity, which is counted in chunks.
  for (const mem::DmaBuffer& b : pieces) {
    if (b.shared()) {
      throw std::logic_error("SampleCache::insert: a slice shares the chunk");
    }
  }
  if (map_.contains(sample_id)) return;  // already resident (racing reads)
  const std::size_t need = pieces.size();
  if (need > capacity_) return;  // can never fit; don't retain
  evict_until_fits(need);
  if (chunks_used_ + need > capacity_) return;  // everything pinned
  std::vector<std::span<const std::byte>> spans;
  for (std::size_t i = 0; i < need; ++i) {
    spans.push_back(pieces[i].span().subspan(0, piece_lens[i]));
  }
  lru_.push_front(sample_id);
  chunks_used_ += need;
  map_.emplace(sample_id,
               Entry{std::make_shared<const std::vector<mem::DmaBuffer>>(
                         std::move(pieces)),
                     std::move(spans), lru_.begin()});
  valid_bits_[sample_id] = 1;
  if (residency_listener_) residency_listener_(sample_id, true);
}

void SampleCache::evict(std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  auto it = map_.find(sample_id);
  if (it != map_.end() && !it->second.pinned()) erase(it);
}

void SampleCache::erase(Map::iterator it) {
  const std::size_t sample_id = it->first;
  chunks_used_ -= it->second.pieces->size();
  lru_.erase(it->second.lru_pos);
  valid_bits_[sample_id] = 0;
  map_.erase(it);
  if (residency_listener_) residency_listener_(sample_id, false);
}

bool SampleCache::evict_lru_one() {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  // The list is recency-ordered, so the first unpinned entry from the
  // back is the least recently used one that may go.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    auto e = map_.find(*it);
    if (e->second.pinned()) continue;
    erase(e);
    return true;
  }
  return false;
}

void SampleCache::evict_until_fits(std::size_t incoming_chunks) {
  while (chunks_used_ + incoming_chunks > capacity_) {
    if (!evict_lru_one()) return;  // everything pinned
  }
}

// --- PeerCacheDirectory -----------------------------------------------------

PeerCacheDirectory::PeerCacheDirectory(std::uint32_t num_clients)
    : num_clients_(num_clients) {
  if (num_clients == 0) {
    throw std::invalid_argument("peer-cache directory needs >= 1 client");
  }
}

std::uint32_t PeerCacheDirectory::home_client(std::size_t sample_id) const {
  // Rank 0 of the replica-placement probe chain; ranks > 0 are the
  // natural successor chain if homes ever fail over.
  return static_cast<std::uint32_t>(
      probe_slot("peer\x1f" + std::to_string(sample_id), 0, num_clients_));
}

void PeerCacheDirectory::advertise(std::uint32_t holder, std::uint16_t node,
                                   std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  auto& rows = ads_[sample_id];
  for (const Ad& a : rows) {
    if (a.holder == holder) return;  // already advertised
  }
  rows.push_back(Ad{holder, node});
}

void PeerCacheDirectory::retract(std::uint32_t holder, std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  auto it = ads_.find(sample_id);
  if (it == ads_.end()) return;
  std::erase_if(it->second,
                [holder](const Ad& a) { return a.holder == holder; });
  if (it->second.empty()) ads_.erase(it);
}

void PeerCacheDirectory::retract_all(std::uint32_t holder) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  for (auto it = ads_.begin(); it != ads_.end();) {
    std::erase_if(it->second,
                  [holder](const Ad& a) { return a.holder == holder; });
    it = it->second.empty() ? ads_.erase(it) : std::next(it);
  }
}

PeerCacheDirectory::Holder PeerCacheDirectory::find(
    std::size_t sample_id, std::uint32_t asking,
    std::optional<std::uint16_t> node) const {
  dlsim::AccessSlice slice{ledger_, /*write=*/false};
  auto it = ads_.find(sample_id);
  if (it == ads_.end()) return {};
  const Ad* first = nullptr;
  for (const Ad& a : it->second) {
    if (a.holder == asking) continue;
    if (!node || a.node == *node) return Holder{true, a.holder, a.node};
    if (first == nullptr) first = &a;
  }
  if (first == nullptr) return {};
  return Holder{true, first->holder, first->node};
}

}  // namespace dlfs::core
