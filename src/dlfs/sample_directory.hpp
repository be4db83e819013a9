#pragma once

// SampleDirectory: the in-memory tree-based sample directory (§III-B).
//
// The directory is an array of AVL trees, one per storage node; tree i
// holds the entries of every sample stored on node i's NVMe device. Each
// node builds the tree for its own shard at mount and the trees are
// all-gathered so every node holds the complete directory. Samples are
// assigned to storage nodes by name hash (the paper: "partitioned ...
// according to the file name and the number of storage nodes").
//
// Keys are the low 48 bits of a 64-bit name hash (the entry format only
// has 48 key bits). 48-bit collisions are real at paper scale (50M
// samples), so colliding keys are linearly probed at insert and the
// full-hash -> probed-key mapping is kept in a (tiny) side table consulted
// on name lookups. The paper does not describe its collision story; this
// is the minimal scheme that keeps the 128-bit entry intact.
//
// Deviation from the paper noted in DESIGN.md: entries here are shared
// between in-process "nodes" instead of replicated per node (identical
// copies either way), so the per-node V bit lives in a per-instance
// sidecar bitmap (see SampleCache), not in the shared entry.

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "dlfs/avl_tree.hpp"
#include "dlfs/sample_entry.hpp"

namespace dlfs::core {

class SampleDirectory {
 public:
  using Tree = AvlTree<std::uint64_t, SampleEntry>;

  explicit SampleDirectory(std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(trees_.size());
  }

  /// Storage node a sample name is assigned to (partition function used
  /// both to place data at mount and to pick the tree at lookup).
  [[nodiscard]] std::uint16_t owner_of(std::string_view name) const {
    return static_cast<std::uint16_t>(hash64(name) % trees_.size());
  }

  /// Inserts a sample during mount. `sample_id` is the dataset index;
  /// (nid, offset, len) locate the bytes on nid's device. Throws if the
  /// name duplicates an existing sample.
  void insert(std::size_t sample_id, std::string_view name, std::uint16_t nid,
              std::uint64_t offset, std::uint32_t len);

  /// Name-based lookup (the dlfs_open path). Returns nullptr if absent.
  [[nodiscard]] const SampleEntry* lookup(std::string_view name) const;

  /// Id-based lookup (the dlfs_sequence/bread path): resolves the stored
  /// (nid, key) for the sample and searches that AVL tree — the same tree
  /// walk a name lookup performs, so the charged cost is identical.
  [[nodiscard]] const SampleEntry* lookup_id(std::size_t sample_id) const;

  // --- replica placement ---------------------------------------------------
  // k-way deterministic replication: the primary stays at `hash % N`
  // (owner_of); replica r lives on node `hash(name ‖ r) % N`, skipping
  // nodes already holding a copy. Replicas are *alternate routes*, not
  // directory entries: each is a (nid, offset) recorded against the
  // sample id, moved with the shard in the mount-time allgather, and
  // consulted only when a read must fail over. Order = failover order.

  /// Records one replica of `sample_id`. Must be called after insert().
  void add_replica(std::size_t sample_id, std::uint16_t nid,
                   std::uint64_t offset);

  /// Alternate placements of a sample, in failover order (empty when the
  /// dataset was mounted without replication).
  [[nodiscard]] const std::vector<RouteHop>& replicas(
      std::size_t sample_id) const;

  /// Drops every replica hop hosted on `nid` (all samples). Called when a
  /// node is declared permanently dead: its routes are stale the moment the
  /// declaration lands, and the repair engine restores the replication
  /// factor elsewhere. Reads holding an already-issued route snapshot are
  /// unaffected (snapshots copy); new issues stop seeing the node at once —
  /// this is the "atomic publication" half of hop mutation. Returns the
  /// number of hops dropped.
  std::size_t drop_replicas_on(std::uint16_t nid);

  /// Monotone per-sample route-set version: bumped whenever the hop set
  /// of `sample_id` changes (add_replica / drop_replicas_on). Cached
  /// directory rows stamp the version they were filled at; a mismatch
  /// means the repair daemon republished the sample since the row was
  /// cached and the row must not be served (see DirectoryView).
  [[nodiscard]] std::uint32_t route_version(std::size_t sample_id) const {
    return sample_id < route_versions_.size() ? route_versions_[sample_id] : 0;
  }

  /// Coarse whole-directory route epoch: bumped once per mutation call
  /// that changed any hop set. Name-keyed cache rows (which cannot name
  /// a sample id) validate against this instead.
  [[nodiscard]] std::uint64_t route_epoch() const { return route_epoch_; }

  [[nodiscard]] std::size_t num_samples() const { return id_index_.size(); }

  /// Owner storage slot of a sample id — an O(1) read of the id-index
  /// row (partition metadata), not a tree walk. The sharded
  /// DirectoryView routes lazy lookups with it.
  [[nodiscard]] std::uint16_t owner_slot_of(std::size_t sample_id) const {
    return id_index_.at(sample_id).nid;
  }
  [[nodiscard]] const Tree& tree(std::uint16_t nid) const {
    return trees_.at(nid);
  }

  // Serialized row sizes — the single source of truth for directory
  // memory/transfer accounting. Used by shard_bytes() for the full
  // allgather figure and by DirectoryView to account resident shards,
  // partition-map rows and lookup-cache entries in the sharded mount.
  static constexpr std::uint64_t kEntryBytes = 16;     // packed SampleEntry
  static constexpr std::uint64_t kIdRowBytes = 12;     // id -> (nid, key)
  static constexpr std::uint64_t kRouteRowBytes = 12;  // one replica hop

  /// Serialized size of node `nid`'s shard — what the mount-time
  /// allgather moves per node (16 B entry + 12 B id-index row, plus a
  /// 12 B route row for every replica hosted on this node).
  [[nodiscard]] std::uint64_t shard_bytes(std::uint16_t nid) const {
    return shard_counts_.at(nid) * (kEntryBytes + kIdRowBytes) +
           replica_counts_.at(nid) * kRouteRowBytes;
  }

  /// Sample entries in node `nid`'s shard (mount-time insert count).
  [[nodiscard]] std::uint64_t shard_entries(std::uint16_t nid) const {
    return shard_counts_.at(nid);
  }

  // --- node availability ---------------------------------------------------
  // Wholesale V-bit state for one node's tree: when a storage node's
  // reconnect budget is exhausted the I/O engine clears its availability
  // here, and bread/prefetch skip its samples until a reprobe restores it.
  // (The per-sample V bits live in the per-instance SampleCache sidecar;
  // this is the per-*node* fault-domain analog.)
  void set_node_available(std::uint16_t nid, bool up) {
    node_available_.at(nid) = up ? 1 : 0;
  }
  [[nodiscard]] bool node_available(std::uint16_t nid) const {
    return nid < node_available_.size() && node_available_[nid] != 0;
  }

 private:
  struct IdLoc {
    std::uint16_t nid = 0xffff;
    std::uint64_t key = 0;
  };

  std::vector<Tree> trees_;
  std::vector<std::uint8_t> node_available_;  // index = nid; 1 = serving
  std::vector<IdLoc> id_index_;          // sample id -> (nid, key)
  std::vector<std::uint64_t> shard_counts_;
  std::vector<std::vector<RouteHop>> replica_index_;  // sample id -> routes
  std::vector<std::uint64_t> replica_counts_;  // replicas hosted per nid
  std::vector<std::uint32_t> route_versions_;  // sample id -> hop-set version
  std::uint64_t route_epoch_ = 0;              // any-route mutation counter
  // full 64-bit name hash -> probed key, for the rare 48-bit collisions.
  std::unordered_map<std::uint64_t, std::uint64_t> collision_keys_;
};

}  // namespace dlfs::core
