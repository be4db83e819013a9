#pragma once

// Opportunistic batching (§III-D): the planner behind dlfs_sequence and
// dlfs_bread.
//
// BatchPlan carves the mounted dataset into *read units*:
//   - chunk-level batching: one unit per cell of a fixed chunk grid
//     (256 KB default), delivering every sample fully contained in the
//     cell, plus one unit per *edge sample* that crosses a chunk boundary
//     (the paper's data-chunk access list and edge-sample access list).
//     A chunk unit's extent is trimmed to [first contained sample, end of
//     the last one), so edge-sample bytes are read once, by their edge
//     unit — the paper fetches whole chunks instead;
//   - sample-level batching (and the unbatched DLFS-Base): one unit per
//     sample.
//
// EpochSequence is the per-epoch global random order: every node seeds
// the same RNG (dlfs_sequence's shared seed), derives the same shuffled
// unit list with zero communication, and reads only its strided share —
// "every node only reads its assigned portion on the list" (§III-D.1).
// The delivered sample order under chunk batching is random-chunk /
// sequential-within-chunk; Fig. 13 validates that this relaxation does
// not hurt training accuracy.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace dlfs::core {

enum class BatchingMode {
  kNone,         // DLFS-Base: synchronous per-sample reads
  kSampleLevel,  // batch many per-sample requests up to the queue depth
  kChunkLevel,   // aggregate small samples into data chunks
};

/// Where a sample lives after mount.
struct SampleLocation {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
};

/// One sample delivered by a read unit.
struct UnitSample {
  std::uint32_t sample_id = 0;
  std::uint32_t offset_in_unit = 0;
  std::uint32_t len = 0;
};

/// One device extent the backend fetches as a whole.
struct ReadUnit {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  bool is_chunk = false;
  std::vector<UnitSample> samples;
};

class BatchPlan {
 public:
  /// `layout[i]` locates sample i. For chunk mode, samples are grouped by
  /// the chunk grid of each node's device (offset 0 upward); each chunk
  /// unit then spans only the bytes of the samples it delivers.
  BatchPlan(const std::vector<SampleLocation>& layout,
            std::uint64_t chunk_bytes, BatchingMode mode);

  [[nodiscard]] const std::vector<ReadUnit>& units() const { return units_; }
  [[nodiscard]] std::size_t num_samples() const { return num_samples_; }
  [[nodiscard]] std::size_t num_chunk_units() const { return chunk_units_; }
  [[nodiscard]] std::size_t num_edge_units() const { return edge_units_; }

 private:
  std::vector<ReadUnit> units_;
  std::size_t num_samples_ = 0;
  std::size_t chunk_units_ = 0;
  std::size_t edge_units_ = 0;
};

/// One client's walk through an epoch's shuffled unit list.
class EpochSequence {
 public:
  /// All clients pass the same seed (the dlfs_sequence contract) and get
  /// the same global shuffle; client c of k takes units c, c+k, c+2k, ...
  EpochSequence(const BatchPlan& plan, std::uint64_t seed,
                std::uint32_t client_idx, std::uint32_t num_clients);

  [[nodiscard]] std::size_t remaining_samples() const {
    return total_samples_ - consumed_samples_;
  }

  /// A contiguous run of picks from one unit.
  struct UnitPicks {
    const ReadUnit* unit = nullptr;
    std::size_t unit_slot = 0;       // index into this client's unit order
    std::uint32_t first_sample = 0;  // index into unit->samples
    std::uint32_t count = 0;
  };

  /// Advances the cursor by up to n samples; the final bread of an epoch
  /// may return fewer.
  [[nodiscard]] std::vector<UnitPicks> take(std::size_t n);

  /// Unit pointer for a slot (for fetch bookkeeping in the instance).
  [[nodiscard]] const ReadUnit* unit_at(std::size_t slot) const {
    return order_.at(slot);
  }

  /// Units in this client's share of the epoch.
  [[nodiscard]] std::size_t num_units() const { return order_.size(); }

 private:
  std::vector<const ReadUnit*> order_;
  std::size_t total_samples_ = 0;
  std::size_t consumed_samples_ = 0;
  std::size_t cur_unit_ = 0;
  std::uint32_t cur_sample_ = 0;
};

}  // namespace dlfs::core
