#include "dlfs/sample_cache.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"

namespace dlfs::core {

SampleCache::SampleCache(mem::HugePagePool& pool, std::size_t capacity_chunks,
                         std::size_t num_samples)
    : pool_(&pool), capacity_(capacity_chunks), valid_bits_(num_samples, 0) {}

std::vector<std::span<const std::byte>> SampleCache::pin(
    std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};  // LRU refresh mutates
  auto it = map_.find(sample_id);
  if (it == map_.end()) return {};
  Entry& e = it->second;
  ++e.pins;
  lru_.splice(lru_.begin(), lru_, e.lru_pos);  // refresh recency
  std::vector<std::span<const std::byte>> out;
  out.reserve(e.pieces.size());
  for (std::size_t i = 0; i < e.pieces.size(); ++i) {
    out.push_back(e.pieces[i].span().subspan(0, e.piece_lens[i]));
  }
  return out;
}

void SampleCache::unpin(std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  auto it = map_.find(sample_id);
  if (it == map_.end()) {
    throw std::logic_error("unpin of non-resident sample");
  }
  if (it->second.pins == 0) throw std::logic_error("unpin without pin");
  --it->second.pins;
}

void SampleCache::insert(std::size_t sample_id,
                         std::vector<mem::DmaBuffer> pieces,
                         std::vector<std::uint32_t> piece_lens) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  assert(pieces.size() == piece_lens.size());
  if (sample_id >= valid_bits_.size()) {
    throw std::out_of_range("sample id beyond dataset size");
  }
  if (map_.contains(sample_id)) return;  // already resident (racing reads)
  const std::size_t need = pieces.size();
  if (need > capacity_) return;  // can never fit; don't retain
  evict_until_fits(need);
  if (chunks_used_ + need > capacity_) return;  // everything pinned
  lru_.push_front(sample_id);
  chunks_used_ += need;
  map_.emplace(sample_id,
               Entry{std::move(pieces), std::move(piece_lens), lru_.begin()});
  valid_bits_[sample_id] = 1;
  if (residency_listener_) residency_listener_(sample_id, true);
}

void SampleCache::evict(std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  auto it = map_.find(sample_id);
  if (it != map_.end() && it->second.pins == 0) erase(it);
}

void SampleCache::erase(Map::iterator it) {
  const std::size_t sample_id = it->first;
  chunks_used_ -= it->second.pieces.size();
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
    if (e->second.pins > 0) continue;
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

// --- PeerCacheIndex ---------------------------------------------------------

void PeerCacheIndex::register_member(std::uint32_t client, SampleCache* cache,
                                     dlsim::CpuCore* core) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  for (const Member& m : members_) {
    if (m.client == client) {
      throw std::logic_error("peer-cache member registered twice");
    }
  }
  members_.push_back(Member{client, cache, core});
}

void PeerCacheIndex::unregister_member(std::uint32_t client) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  std::erase_if(members_,
                [client](const Member& m) { return m.client == client; });
}

const PeerCacheIndex::Member* PeerCacheIndex::find_holder(
    std::size_t sample_id, std::uint32_t asking) const {
  dlsim::AccessSlice slice{ledger_, /*write=*/false};
  for (const Member& m : members_) {
    if (m.client == asking) continue;
    if (m.cache != nullptr && m.cache->valid(sample_id)) return &m;
  }
  return nullptr;
}

const PeerCacheIndex::Member* PeerCacheIndex::member_of(
    std::uint32_t client) const {
  dlsim::AccessSlice slice{ledger_, /*write=*/false};
  for (const Member& m : members_) {
    if (m.client == client) return &m;
  }
  return nullptr;
}

// --- PeerCacheDirectory -----------------------------------------------------

PeerCacheDirectory::PeerCacheDirectory(PeerCacheConfig cfg,
                                       std::uint32_t num_clients)
    : cfg_(cfg), num_clients_(num_clients) {
  if (num_clients == 0) {
    throw std::invalid_argument("peer-cache directory needs >= 1 client");
  }
}

std::uint32_t PeerCacheDirectory::home_client(std::size_t sample_id) const {
  // Same probe discipline as replica placement: hash the key with a
  // '\x1f'-separated probe rank. Only rank 0 (the home) is used today;
  // ranks > 0 are the natural successor chain if homes ever fail over.
  return static_cast<std::uint32_t>(
      hash64("peer\x1f" + std::to_string(sample_id) + "\x1f" + "0") %
      num_clients_);
}

void PeerCacheDirectory::advertise(std::uint32_t holder, std::uint16_t node,
                                   std::size_t sample_id,
                                   std::uint32_t bytes) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  NodeBook& book = books_[node];
  if (cfg_.advertise_budget_bytes != 0 &&
      book.bytes + bytes > cfg_.advertise_budget_bytes) {
    while (book.bytes + bytes > cfg_.advertise_budget_bytes &&
           !book.order.empty()) {
      const auto [old_sample, old_holder] = book.order.front();
      retract_locked(old_holder, old_sample);
      ++budget_retractions_;
    }
    if (book.bytes + bytes > cfg_.advertise_budget_bytes) {
      ++refused_;  // one sample larger than the whole budget
      return;
    }
  }
  auto& rows = ads_[sample_id];
  for (const Ad& a : rows) {
    if (a.holder == holder) return;  // already advertised
  }
  rows.push_back(Ad{holder, node, bytes});
  book.bytes += bytes;
  book.order.emplace_back(sample_id, holder);
}

void PeerCacheDirectory::retract_locked(std::uint32_t holder,
                                        std::size_t sample_id) {
  auto it = ads_.find(sample_id);
  if (it == ads_.end()) return;
  auto& rows = it->second;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].holder != holder) continue;
    NodeBook& book = books_[rows[i].node];
    book.bytes -= rows[i].bytes;
    for (auto oit = book.order.begin(); oit != book.order.end(); ++oit) {
      if (oit->first == sample_id && oit->second == holder) {
        book.order.erase(oit);
        break;
      }
    }
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
    break;
  }
  if (rows.empty()) ads_.erase(it);
}

void PeerCacheDirectory::retract(std::uint32_t holder, std::size_t sample_id) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  retract_locked(holder, sample_id);
}

void PeerCacheDirectory::retract_all(std::uint32_t holder) {
  dlsim::AccessSlice slice{ledger_, /*write=*/true};
  std::vector<std::size_t> samples;
  for (const auto& [sample_id, rows] : ads_) {
    for (const Ad& a : rows) {
      if (a.holder == holder) {
        samples.push_back(sample_id);
        break;
      }
    }
  }
  for (const std::size_t sample_id : samples) {
    retract_locked(holder, sample_id);
  }
}

PeerCacheDirectory::Holder PeerCacheDirectory::find(
    std::size_t sample_id, std::uint32_t asking) const {
  dlsim::AccessSlice slice{ledger_, /*write=*/false};
  auto it = ads_.find(sample_id);
  if (it == ads_.end()) return {};
  for (const Ad& a : it->second) {
    if (a.holder == asking) continue;
    return Holder{true, a.holder, a.node};
  }
  return {};
}

std::uint64_t PeerCacheDirectory::advertised_bytes(std::uint16_t node) const {
  dlsim::AccessSlice slice{ledger_, /*write=*/false};
  auto it = books_.find(node);
  return it == books_.end() ? 0 : it->second.bytes;
}

}  // namespace dlfs::core
