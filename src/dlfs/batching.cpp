#include "dlfs/batching.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace dlfs::core {

BatchPlan::BatchPlan(const std::vector<SampleLocation>& layout,
                     std::uint64_t chunk_bytes, BatchingMode mode)
    : num_samples_(layout.size()) {
  if (chunk_bytes == 0) throw std::invalid_argument("chunk_bytes must be > 0");

  if (mode != BatchingMode::kChunkLevel) {
    units_.reserve(layout.size());
    for (std::size_t i = 0; i < layout.size(); ++i) {
      const SampleLocation& s = layout[i];
      ReadUnit u;
      u.nid = s.nid;
      u.offset = s.offset;
      u.len = s.len;
      u.is_chunk = false;
      u.samples.push_back(
          UnitSample{static_cast<std::uint32_t>(i), 0, s.len});
      units_.push_back(std::move(u));
    }
    edge_units_ = units_.size();
    return;
  }

  // Chunk-level: group samples per node, walk the chunk grid. Samples
  // fully inside one chunk join that chunk's unit; boundary-crossers
  // become edge units.
  struct ChunkKey {
    std::uint16_t nid;
    std::uint64_t chunk;
    bool operator<(const ChunkKey& o) const {
      return nid != o.nid ? nid < o.nid : chunk < o.chunk;
    }
  };
  std::map<ChunkKey, ReadUnit> chunks;

  for (std::size_t i = 0; i < layout.size(); ++i) {
    const SampleLocation& s = layout[i];
    const std::uint64_t first_chunk = s.offset / chunk_bytes;
    const std::uint64_t last_chunk = (s.offset + s.len - 1) / chunk_bytes;
    if (first_chunk == last_chunk) {
      ReadUnit& u = chunks[ChunkKey{s.nid, first_chunk}];
      u.nid = s.nid;
      u.offset = first_chunk * chunk_bytes;
      u.is_chunk = true;
      u.samples.push_back(UnitSample{
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(s.offset - u.offset), s.len});
    } else {
      ReadUnit u;
      u.nid = s.nid;
      u.offset = s.offset;
      u.len = s.len;
      u.is_chunk = false;
      u.samples.push_back(
          UnitSample{static_cast<std::uint32_t>(i), 0, s.len});
      units_.push_back(std::move(u));
      ++edge_units_;
    }
  }
  for (auto& [key, u] : chunks) {
    // Trim the chunk to the bytes its samples deliver: the head and tail
    // of an edge sample (and any space past the data end) belong to
    // other units, so reading them here would fetch them twice.
    std::uint32_t begin = u.samples.front().offset_in_unit;
    std::uint32_t end = begin;
    for (const UnitSample& s : u.samples) {
      begin = std::min(begin, s.offset_in_unit);
      end = std::max(end, s.offset_in_unit + s.len);
    }
    for (UnitSample& s : u.samples) s.offset_in_unit -= begin;
    u.offset += begin;
    u.len = end - begin;
    units_.push_back(std::move(u));
    ++chunk_units_;
  }
}

EpochSequence::EpochSequence(const BatchPlan& plan, std::uint64_t seed,
                             std::uint32_t client_idx,
                             std::uint32_t num_clients) {
  if (num_clients == 0 || client_idx >= num_clients) {
    throw std::invalid_argument("bad client index");
  }
  // Identical shuffle on every client (same seed, same deterministic RNG).
  Rng rng(seed);
  auto perm = rng.permutation(plan.units().size());
  order_.reserve(perm.size() / num_clients + 1);
  for (std::size_t i = client_idx; i < perm.size(); i += num_clients) {
    const ReadUnit* u = &plan.units()[perm[i]];
    order_.push_back(u);
    total_samples_ += u->samples.size();
  }
}

std::vector<EpochSequence::UnitPicks> EpochSequence::take(std::size_t n) {
  std::vector<UnitPicks> out;
  std::size_t need = std::min(n, remaining_samples());
  while (need > 0) {
    const ReadUnit* u = order_[cur_unit_];
    const std::uint32_t avail =
        static_cast<std::uint32_t>(u->samples.size()) - cur_sample_;
    const std::uint32_t take_now =
        static_cast<std::uint32_t>(std::min<std::size_t>(avail, need));
    out.push_back(UnitPicks{u, cur_unit_, cur_sample_, take_now});
    cur_sample_ += take_now;
    consumed_samples_ += take_now;
    need -= take_now;
    if (cur_sample_ == u->samples.size()) {
      ++cur_unit_;
      cur_sample_ = 0;
    }
  }
  return out;
}

}  // namespace dlfs::core
