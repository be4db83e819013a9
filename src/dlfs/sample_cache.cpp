#include "dlfs/sample_cache.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"

namespace dlfs::core {

SampleCache::SampleCache(mem::HugePagePool& pool, std::size_t capacity_chunks,
                         std::size_t num_samples)
    : pool_(&pool), capacity_(capacity_chunks), valid_bits_(num_samples, 0) {}

std::size_t SampleCache::resident_samples() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.map.size();
  return n;
}

std::size_t SampleCache::resident_chunks() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.chunks_used;
  return n;
}

std::vector<std::span<const std::byte>> SampleCache::pin(
    std::size_t sample_id) {
  Shard& sh = shard_of(sample_id);
  dlsim::AccessSlice slice{sh.ledger, /*write=*/true};  // LRU refresh mutates
  auto it = sh.map.find(sample_id);
  if (it == sh.map.end()) return {};
  Entry& e = it->second;
  ++e.pins;
  // Refresh recency: shard-list position plus the global stamp.
  sh.lru.erase(e.lru_pos);
  sh.lru.push_front(sample_id);
  e.lru_pos = sh.lru.begin();
  e.last_use = ++tick_;
  std::vector<std::span<const std::byte>> out;
  out.reserve(e.pieces.size());
  for (std::size_t i = 0; i < e.pieces.size(); ++i) {
    out.push_back(e.pieces[i].span().subspan(0, e.piece_lens[i]));
  }
  return out;
}

void SampleCache::unpin(std::size_t sample_id) {
  Shard& sh = shard_of(sample_id);
  dlsim::AccessSlice slice{sh.ledger, /*write=*/true};
  auto it = sh.map.find(sample_id);
  if (it == sh.map.end()) {
    throw std::logic_error("unpin of non-resident sample");
  }
  if (it->second.pins == 0) throw std::logic_error("unpin without pin");
  --it->second.pins;
}

void SampleCache::insert(std::size_t sample_id,
                         std::vector<mem::DmaBuffer> pieces,
                         std::vector<std::uint32_t> piece_lens) {
  Shard& sh = shard_of(sample_id);
  dlsim::AccessSlice slice{sh.ledger, /*write=*/true};
  assert(pieces.size() == piece_lens.size());
  if (sample_id >= valid_bits_.size()) {
    throw std::out_of_range("sample id beyond dataset size");
  }
  if (sh.map.contains(sample_id)) return;  // already resident (racing reads)
  const std::size_t need = pieces.size();
  if (need > capacity_) return;  // can never fit; don't retain
  evict_until_fits(need);
  if (resident_chunks() + need > capacity_) return;  // everything pinned
  Entry e;
  e.pieces = std::move(pieces);
  e.piece_lens = std::move(piece_lens);
  sh.lru.push_front(sample_id);
  e.lru_pos = sh.lru.begin();
  e.last_use = ++tick_;
  sh.chunks_used += need;
  sh.map.emplace(sample_id, std::move(e));
  valid_bits_[sample_id] = 1;
  if (residency_listener_) residency_listener_(sample_id, true);
}

void SampleCache::evict(std::size_t sample_id) {
  Shard& sh = shard_of(sample_id);
  dlsim::AccessSlice slice{sh.ledger, /*write=*/true};
  auto it = sh.map.find(sample_id);
  if (it == sh.map.end() || it->second.pins > 0) return;
  sh.chunks_used -= it->second.pieces.size();
  sh.lru.erase(it->second.lru_pos);
  valid_bits_[sample_id] = 0;
  sh.map.erase(it);
  if (residency_listener_) residency_listener_(sample_id, false);
}

SampleCache::Victim SampleCache::find_global_lru_victim() const {
  // Within one shard the list is recency-ordered, so the first unpinned
  // entry from the back is that shard's oldest unpinned candidate; the
  // globally oldest is the stamp-minimum across the shard candidates.
  Victim v;
  std::uint64_t oldest = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& sh = shards_[s];
    dlsim::AccessSlice slice{sh.ledger, /*write=*/false};
    for (auto it = sh.lru.rbegin(); it != sh.lru.rend(); ++it) {
      const Entry& e = sh.map.at(*it);
      if (e.pins > 0) continue;
      if (!v.found || e.last_use < oldest) {
        v.found = true;
        v.shard = s;
        v.sample_id = *it;
        oldest = e.last_use;
      }
      break;
    }
  }
  return v;
}

void SampleCache::evict_from_shard(std::size_t shard_idx,
                                   std::size_t sample_id) {
  Shard& sh = shards_[shard_idx];
  dlsim::AccessSlice slice{sh.ledger, /*write=*/true};
  auto it = sh.map.find(sample_id);
  assert(it != sh.map.end() && it->second.pins == 0);
  sh.chunks_used -= it->second.pieces.size();
  sh.lru.erase(it->second.lru_pos);
  valid_bits_[sample_id] = 0;
  sh.map.erase(it);
  if (residency_listener_) residency_listener_(sample_id, false);
}

bool SampleCache::evict_lru_one() {
  const Victim v = find_global_lru_victim();
  if (!v.found) return false;
  evict_from_shard(v.shard, v.sample_id);
  return true;
}

void SampleCache::evict_until_fits(std::size_t incoming_chunks) {
  while (resident_chunks() + incoming_chunks > capacity_) {
    const Victim v = find_global_lru_victim();
    if (!v.found) return;  // everything pinned
    evict_from_shard(v.shard, v.sample_id);
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
