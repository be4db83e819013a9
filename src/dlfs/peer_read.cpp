#include "dlfs/dlfs.hpp"

#include <algorithm>

namespace dlfs::core {

// ---------------------------------------------------------------------------
// Cooperative peer cache (read side)

DlfsInstance::PeerServe DlfsInstance::peer_route(
    std::uint32_t sample_id) const {
  using enum PeerServe;
  if (!fleet_->config_.peer_cache.enabled) return kNone;
  const PeerCacheDirectory::Holder h =
      fleet_->peer_directory_->find(sample_id, client_idx_, peer_node());
  if (!h.found) return kNone;
  if (h.node == peer_node()) return kLocal;
  // A pull lands in one pool chunk; a larger sample reads its device.
  const std::uint64_t len = fleet_->layout_[sample_id].len;
  return len <= fleet_->config_.chunk_bytes ? kPull : kNone;
}

dlsim::Task<bool> DlfsInstance::pull_from_peer(std::uint32_t sample_id,
                                               std::uint32_t len,
                                               mem::DmaBuffer* into) {
  // Ask the sample's consistent-hash home for a holder, then pull the
  // bytes from the holder's DRAM over the fabric. The engine's pump took
  // this pull's QoS grant: every refusal before the bulk send (no holder,
  // dropped leg, raced eviction) hands it back and counts a miss, and the
  // engine then reads the device.
  const std::shared_ptr<TenantHandle>& tenant = fleet_->tenant_;
  const auto refuse = [&] {
    if (tenant) tenant->cancel_admit(len);
    ++stats_.peer_misses;
    return false;
  };
  const PeerCacheDirectory& dir = *fleet_->peer_directory_;
  hw::Fabric& fabric = fleet_->cluster_->fabric();
  const hw::NodeId me = fleet_->client_nodes_[client_idx_];
  const std::uint32_t home = dir.home_client(sample_id);
  const hw::NodeId home_node = fleet_->client_nodes_[home];
  if (home != client_idx_) {
    // Request hop (skipped when this client is the home — the directory
    // slice is then local memory).
    const bool asked =
        co_await fabric.send(me, home_node, hw::kControlMessageBytes);
    if (!asked) co_return refuse();
  }
  const PeerCacheDirectory::Holder h = dir.find(sample_id, client_idx_);
  if (!h.found) {
    if (home != client_idx_) {
      // Miss reply from the home.
      co_await fabric.transfer(home_node, me, hw::kControlMessageBytes);
    }
    co_return refuse();
  }
  const hw::NodeId holder_node = fleet_->client_nodes_[h.client];
  if (h.client != home) {
    // Forward hop: the home passes the request on to the holder
    // (loopback when they share a node).
    const bool forwarded =
        co_await fabric.send(home_node, holder_node, hw::kControlMessageBytes);
    if (!forwarded) co_return refuse();
  }
  // Pin the holder's entry until the pull returns. The fabric hops above
  // suspended, so the holder may have evicted (and retracted) meanwhile —
  // an empty pin is that race, answered with a miss reply.
  DlfsInstance& holder = *fleet_->instances_[h.client];
  const std::vector<mem::DmaBuffer> pin = holder.cache_->pin(sample_id);
  if (pin.empty()) {
    co_await fabric.transfer(holder_node, me, hw::kControlMessageBytes);
    co_return refuse();
  }
  // Holder-side serve (verbs recv + RDMA post), queued behind the
  // holder's earlier serves; the data path itself is one-sided, so there
  // is no holder-side copy.
  const DlfsCosts& costs = fleet_->config_.calibration.dlfs;
  dlsim::Simulator& sim = node_->simulator();
  holder.peer_serve_free_ =
      std::max(sim.now(), holder.peer_serve_free_) + costs.peer_serve;
  holder.io_core_->charge(costs.peer_serve);
  co_await sim.delay(holder.peer_serve_free_ - sim.now());
  const bool delivered = co_await fabric.send(holder_node, me, len);
  if (tenant) tenant->on_complete(len);
  if (delivered) {
    // The one-sided bulk send wrote the requester's chunk: place the
    // bytes there (no CPU charge on either side).
    std::byte* out = into->data();
    for (const mem::DmaBuffer& b : pin) {
      out = std::copy_n(b.data(), b.size(), out);
    }
  } else {
    ++stats_.peer_misses;
  }
  co_return delivered;
}

}  // namespace dlfs::core
