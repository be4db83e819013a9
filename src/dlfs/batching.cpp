#include "dlfs/batching.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "dlfs/sample_cache.hpp"

namespace dlfs::core {

BatchPlan::BatchPlan(const std::vector<SampleLocation>& layout,
                     std::uint64_t chunk_bytes, BatchingMode mode)
    : mode_(mode), num_samples_(layout.size()) {
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

EpochUnitProvider::EpochUnitProvider(const EpochSequence& seq,
                                     std::uint32_t group,
                                     const SampleCache* cache,
                                     RouteResolver routes, PeerProbe peers)
    : seq_(&seq),
      group_(std::max<std::uint32_t>(group, 1)),
      cache_(cache),
      routes_(std::move(routes)),
      peers_(std::move(peers)) {}

std::size_t EpochUnitProvider::num_units() const {
  return (seq_->num_units() + group_ - 1) / group_;
}

std::vector<UnitExtent> EpochUnitProvider::unit_extents(
    std::size_t slot) const {
  std::vector<UnitExtent> out;
  const std::size_t begin = slot * group_;
  const std::size_t end =
      std::min<std::size_t>(begin + group_, seq_->num_units());
  out.reserve(end - begin);
  for (std::size_t s = begin; s < end; ++s) {
    const ReadUnit* u = seq_->unit_at(s);
    if (u->is_chunk) {
      // Chunk units are keyed by the epoch slot and fetch their whole
      // (trimmed) extent even when some of their samples are resident:
      // the chunk path always consumes every sample of the unit.
      out.push_back(UnitExtent{u->nid, u->offset, u->len, s});
      continue;
    }
    // Single-sample extents (sample-level units and chunk-mode edge
    // samples), keyed by sample id. With a cache attached, resident
    // samples are served from it at consume time — don't re-read them.
    const std::uint32_t id = u->samples.front().sample_id;
    if (cache_ != nullptr && cache_->valid(id)) continue;
    // Peer-resident samples are likewise elided: the consume path serves
    // them from a co-located or remote peer cache instead of the device.
    if (peers_ && peers_(id)) continue;
    UnitExtent x{u->nid, u->offset, u->len, id};
    if (routes_) x.routes = routes_(id);
    out.push_back(std::move(x));
  }
  return out;
}

}  // namespace dlfs::core
