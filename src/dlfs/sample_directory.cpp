#include "dlfs/sample_directory.hpp"

#include <stdexcept>

namespace dlfs::core {

SampleDirectory::SampleDirectory(std::uint32_t num_nodes)
    : trees_(num_nodes),
      node_available_(num_nodes, 1),
      shard_counts_(num_nodes, 0),
      replica_counts_(num_nodes, 0) {
  if (num_nodes == 0 || num_nodes > SampleEntry::kMaxNid + 1) {
    throw std::invalid_argument("node count must be in [1, 65536]");
  }
}

void SampleDirectory::insert(std::size_t sample_id, std::string_view name,
                             std::uint16_t nid, std::uint64_t offset,
                             std::uint32_t len) {
  const std::uint64_t full = hash64(name);
  if (nid != static_cast<std::uint16_t>(full % trees_.size())) {
    // Lookups derive the tree from the name hash; placement must agree.
    throw std::invalid_argument("sample '" + std::string(name) +
                                "' inserted on node " + std::to_string(nid) +
                                " but partitions to node " +
                                std::to_string(full % trees_.size()));
  }
  std::uint64_t key = full & SampleEntry::kKeyMask;
  Tree& tree = trees_.at(nid);

  if (!tree.insert(key, SampleEntry(nid, key, offset, len))) {
    // 48-bit collision within this node's tree: linear probing.
    std::uint64_t probe = key;
    for (;;) {
      probe = (probe + 1) & SampleEntry::kKeyMask;
      if (probe == key) {
        throw std::overflow_error("sample directory tree is full");
      }
      if (tree.insert(probe, SampleEntry(nid, probe, offset, len))) break;
    }
    if (collision_keys_.contains(full)) {
      // Same 64-bit hash for two distinct names: astronomically unlikely;
      // refuse rather than silently alias two samples.
      throw std::runtime_error("64-bit name-hash collision on '" +
                               std::string(name) + "'");
    }
    collision_keys_.emplace(full, probe);
    key = probe;
  }

  if (id_index_.size() <= sample_id) id_index_.resize(sample_id + 1);
  id_index_[sample_id] = IdLoc{nid, key};
  ++shard_counts_.at(nid);
}

const SampleEntry* SampleDirectory::lookup(std::string_view name) const {
  const std::uint64_t full = hash64(name);
  std::uint64_t key = full & SampleEntry::kKeyMask;
  if (auto it = collision_keys_.find(full); it != collision_keys_.end()) {
    key = it->second;
  }
  const std::uint16_t nid =
      static_cast<std::uint16_t>(full % trees_.size());
  return trees_[nid].find(key);
}

void SampleDirectory::add_replica(std::size_t sample_id, std::uint16_t nid,
                                  std::uint64_t offset) {
  if (nid >= trees_.size()) {
    throw std::invalid_argument("replica nid out of range");
  }
  if (offset > SampleEntry::kMaxOffset) {
    throw std::invalid_argument("replica offset exceeds 40 bits (1 TiB)");
  }
  if (sample_id >= id_index_.size() || id_index_[sample_id].nid == 0xffff) {
    throw std::invalid_argument("replica added for unknown sample id " +
                                std::to_string(sample_id));
  }
  if (replica_index_.size() <= sample_id) replica_index_.resize(sample_id + 1);
  replica_index_[sample_id].push_back(RouteHop{nid, offset});
  ++replica_counts_.at(nid);
  if (route_versions_.size() <= sample_id) {
    route_versions_.resize(sample_id + 1, 0);
  }
  ++route_versions_[sample_id];
  ++route_epoch_;
}

std::size_t SampleDirectory::drop_replicas_on(std::uint16_t nid) {
  if (nid >= trees_.size()) {
    throw std::invalid_argument("drop_replicas_on: nid out of range");
  }
  std::size_t dropped = 0;
  for (std::size_t id = 0; id < replica_index_.size(); ++id) {
    const auto removed = std::erase_if(
        replica_index_[id], [nid](const RouteHop& h) { return h.nid == nid; });
    if (removed > 0) {
      if (route_versions_.size() <= id) route_versions_.resize(id + 1, 0);
      ++route_versions_[id];
    }
    dropped += removed;
  }
  if (dropped > 0) ++route_epoch_;
  replica_counts_.at(nid) -= dropped;
  return dropped;
}

const std::vector<RouteHop>& SampleDirectory::replicas(
    std::size_t sample_id) const {
  static const std::vector<RouteHop> kNone;
  if (sample_id >= replica_index_.size()) return kNone;
  return replica_index_[sample_id];
}

const SampleEntry* SampleDirectory::lookup_id(std::size_t sample_id) const {
  if (sample_id >= id_index_.size()) return nullptr;
  const IdLoc& loc = id_index_[sample_id];
  if (loc.nid == 0xffff) return nullptr;
  return trees_.at(loc.nid).find(loc.key);
}

}  // namespace dlfs::core
