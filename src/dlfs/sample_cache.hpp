#pragma once

// SampleCache: the huge-page-backed sample cache of §III-C.1, plus the
// per-instance V-bit sidecar; and PeerCacheDirectory, the fleet-wide
// record of which instance's cache holds which sample.
//
// "We allocate the sample cache on huge pages to store the data read from
// local/remote NVMe devices ... the cache is divided into many fixed-size
// chunks (256 KB by default)."
//
// Completed sample reads are retained in an LRU keyed by sample id; the
// V bit of a sample is on exactly while a copy is resident here, so a
// dlfs_read can serve a hit with a memcpy and no device I/O. An entry
// some CachePin holds is never evicted. Capacity is counted in pool
// chunks, mirroring how the real cache is carved.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/hugepage_pool.hpp"
#include "sim/check.hpp"

namespace dlfs::core {

/// Cooperative peer sample cache configuration (nested in DlfsConfig).
/// The dataset is immutable after mount, so serving another instance's
/// cached bytes is coherence-free by construction — the only policy
/// knob is whether to cooperate at all.
struct PeerCacheConfig {
  bool enabled = false;
};

/// A pin on one resident cache entry, as a value: the entry's bytes and
/// their spans, in order. The entry is not evicted while any pin to it
/// lives, and the bytes outlive the cache, so a pin a suspended frame
/// holds at teardown touches no destroyed cache. A default pin (the
/// sample was not resident) holds nothing.
struct CachePin {
  std::shared_ptr<const std::vector<mem::DmaBuffer>> bytes;
  std::vector<std::span<const std::byte>> spans;
};

class SampleCache {
 public:
  /// `capacity_chunks` bounds the resident set; the pool is where chunk
  /// memory comes from (shared with in-flight I/O buffers).
  SampleCache(mem::HugePagePool& pool, std::size_t capacity_chunks,
              std::size_t num_samples);

  SampleCache(const SampleCache&) = delete;
  SampleCache& operator=(const SampleCache&) = delete;

  /// The per-instance V bit (paper: tracked in the sample entry; here a
  /// sidecar because entries are shared between in-process nodes).
  [[nodiscard]] bool valid(std::size_t sample_id) const {
    return valid_bits_[sample_id] != 0;
  }

  /// A pin on a resident sample's bytes; refreshes LRU recency. An empty
  /// pin if the sample is not resident.
  [[nodiscard]] CachePin pin(std::size_t sample_id);

  /// Inserts a completed read: takes ownership of the chunk buffers
  /// holding the sample (piece i holds bytes [piece_len[i]] of it).
  /// Evicts LRU victims (clearing their V bits) to stay within capacity;
  /// if everything is pinned the insert is skipped (the data still
  /// reaches the application; it just isn't retained). Throws
  /// std::logic_error on a buffer whose chunk another slice shares.
  void insert(std::size_t sample_id, std::vector<mem::DmaBuffer> pieces,
              std::vector<std::uint32_t> piece_lens);

  /// Drops a resident sample (no-op if absent or pinned).
  void evict(std::size_t sample_id);

  /// Evicts the least-recently-used unpinned entry; returns false if
  /// nothing can be evicted. The I/O engine calls this under huge-page
  /// pool pressure — the cache and in-flight DMA buffers share the pool,
  /// so a full cache must yield chunks back to keep I/O flowing.
  bool evict_lru_one();

  [[nodiscard]] std::size_t resident_samples() const { return map_.size(); }
  [[nodiscard]] std::size_t resident_chunks() const { return chunks_used_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  void note_hit() { ++hits_; }
  void note_miss() { ++misses_; }

  /// Residency listener: fired synchronously with (sample_id, resident)
  /// every time this cache's V bit flips. The cooperative peer cache
  /// uses it to advertise/retract residency in the cluster cache
  /// directory. Must be suspension-free — it runs inside cache slices.
  void set_residency_listener(std::function<void(std::size_t, bool)> fn) {
    residency_listener_ = std::move(fn);
  }

 private:
  struct Entry {
    // Shared with every live CachePin to the entry.
    std::shared_ptr<const std::vector<mem::DmaBuffer>> pieces;
    std::vector<std::span<const std::byte>> spans;
    std::list<std::size_t>::iterator lru_pos;

    [[nodiscard]] bool pinned() const { return pieces.use_count() > 1; }
  };
  using Map = std::unordered_map<std::size_t, Entry>;

  /// Removes an unpinned entry and clears its V bit. The caller holds a
  /// write slice.
  void erase(Map::iterator it);
  void evict_until_fits(std::size_t incoming_chunks);

  mem::HugePagePool* pool_;
  std::size_t capacity_;
  std::vector<std::uint8_t> valid_bits_;
  // map_, lru_ and chunks_used_ form one suspension-free slice; the
  // ledger enforces that should a co_await ever creep in.
  mutable dlsim::AccessLedger ledger_{"sample-cache"};
  Map map_;
  std::list<std::size_t> lru_;  // front = most recently used
  std::size_t chunks_used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::function<void(std::size_t, bool)> residency_listener_;
};

/// PeerCacheDirectory: the one record of which client instances hold
/// which sample in DRAM, fleet-wide, with each holder's node. Residency
/// deltas are published synchronously by the SampleCache residency
/// listener — the model's stand-in for piggybacking them on existing
/// metadata traffic. A holder on the asker's own node is a co-located
/// hit (a shared-DRAM copy); any other holder is reached through the
/// sample's consistent-hash home (see the DlfsInstance peer-read path,
/// which charges the fabric and CPU cost). The object itself is
/// cost-free bookkeeping.
class PeerCacheDirectory {
 public:
  explicit PeerCacheDirectory(std::uint32_t num_clients);

  /// Home client of a sample — the consistent-hash probe discipline the
  /// replica placement uses (hash of the key with a '\x1f'-separated
  /// probe rank; rank 0 is the home, the degenerate k=1 chain). The home
  /// answers or forwards peer-read requests for the sample.
  [[nodiscard]] std::uint32_t home_client(std::size_t sample_id) const;

  /// Client `holder` (on `node`) now holds `sample_id`.
  void advertise(std::uint32_t holder, std::uint16_t node,
                 std::size_t sample_id);
  void retract(std::uint32_t holder, std::size_t sample_id);
  void retract_all(std::uint32_t holder);

  struct Holder {
    bool found = false;
    std::uint32_t client = 0;
    std::uint16_t node = 0;
  };
  /// An advertised holder of `sample_id` other than `asking`: the first
  /// one on `node` when there is one, else the first advertised.
  [[nodiscard]] Holder find(std::size_t sample_id, std::uint32_t asking,
                            std::optional<std::uint16_t> node = {}) const;

 private:
  struct Ad {
    std::uint32_t holder = 0;
    std::uint16_t node = 0;
  };

  std::uint32_t num_clients_;
  mutable dlsim::AccessLedger ledger_{"peer-cache-directory"};
  std::unordered_map<std::size_t, std::vector<Ad>> ads_;  // advertise order
};

}  // namespace dlfs::core
