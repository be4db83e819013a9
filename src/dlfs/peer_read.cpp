#include "dlfs/dlfs.hpp"

#include <algorithm>

namespace dlfs::core {

// ---------------------------------------------------------------------------
// Cooperative peer cache (read side)

bool DlfsInstance::peer_resident(std::uint32_t sample_id) const {
  if (!fleet_->config_.peer_cache.enabled) return false;
  return fleet_->peer_directory_->find(sample_id, client_idx_).found;
}

dlsim::Task<bool> DlfsInstance::try_peer_read(std::uint32_t sample_id,
                                              std::uint32_t len,
                                              std::byte* dst) {
  if (!fleet_->config_.peer_cache.enabled) co_return false;
  // Intra-node first: a holder on this node has its resident copy one
  // pin plus one DRAM copy away — no fabric, and no tenant admission
  // (same treatment as own-cache hits: host-memory copies never compete
  // with other tenants for the devices or the wire). Otherwise one
  // cross-node pull, posted and finished in place.
  PeerPull p{sample_id, len};
  const PeerCacheDirectory::Holder h =
      fleet_->peer_directory_->find(sample_id, client_idx_, peer_node());
  SampleCache* local = nullptr;
  if (h.found && h.node == peer_node()) {
    local = fleet_->instances_[h.client]->cache_.get();
    p.views = local->pin(sample_id);
  }
  if (!p.views.empty()) {
    co_await io_core_->compute(fleet_->config_.calibration.dlfs.peer_serve);
    p.holder = local;
    p.local = true;
  } else {
    co_await post_peer_pull(&p);
  }
  co_return co_await finish_peer_pull(&p, dst);
}

dlsim::Task<void> DlfsInstance::post_peer_pull(PeerPull* p) {
  // Ask the sample's consistent-hash home for a holder, then pull the
  // bytes from the holder's DRAM over the fabric. Every refusal along
  // the way (no holder, dropped leg, raced eviction) unwinds to a miss
  // and hands back a grant the engine's pump took; the caller then falls
  // back to the replica read path.
  const std::shared_ptr<TenantHandle>& tenant = fleet_->tenant_;
  const auto refuse = [&] {
    if (p->admitted) tenant->cancel_admit(p->len);
  };
  const PeerCacheDirectory& dir = *fleet_->peer_directory_;
  hw::Fabric& fabric = fleet_->cluster_->fabric();
  const hw::NodeId me = fleet_->client_nodes_[client_idx_];
  const std::uint32_t home = dir.home_client(p->sample_id);
  const hw::NodeId home_node = fleet_->client_nodes_[home];
  if (home != client_idx_) {
    // Request hop (skipped when this client is the home — the directory
    // slice is then local memory).
    const bool asked =
        co_await fabric.send(me, home_node, hw::kControlMessageBytes);
    if (!asked) co_return refuse();
  }
  const PeerCacheDirectory::Holder h = dir.find(p->sample_id, client_idx_);
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
  // Pin the holder's entry. The fabric hops above suspended, so the
  // holder may have evicted (and retracted) meanwhile — an empty pin is
  // that race, answered with a miss reply.
  DlfsInstance& holder = *fleet_->instances_[h.client];
  std::vector<std::span<const std::byte>> views =
      holder.cache_->pin(p->sample_id);
  if (views.empty()) {
    co_await fabric.transfer(holder_node, me, hw::kControlMessageBytes);
    co_return refuse();
  }
  // The bulk transfer is charged to the requesting tenant exactly like a
  // device read of the same bytes — a peer read must not let a capped
  // job dodge its QoS share.
  const DlfsCosts& costs = fleet_->config_.calibration.dlfs;
  if (tenant && !p->admitted) {
    while (!tenant->try_admit(p->len)) {
      co_await io_core_->compute(costs.poll_iteration);
    }
  }
  // Holder-side serve (verbs recv + RDMA post), queued behind the
  // holder's earlier serves; the data path itself is one-sided, so there
  // is no holder-side copy.
  dlsim::Simulator& sim = node_->simulator();
  holder.peer_serve_free_ =
      std::max(sim.now(), holder.peer_serve_free_) + costs.peer_serve;
  holder.io_core_->charge(costs.peer_serve);
  co_await sim.delay(holder.peer_serve_free_ - sim.now());
  const bool delivered = co_await fabric.send(holder_node, me, p->len);
  if (tenant) tenant->on_complete(p->len);
  if (!delivered) {
    holder.cache_->unpin(p->sample_id);
    co_return;
  }
  p->holder = holder.cache_.get();
  p->views = std::move(views);
}

dlsim::Task<bool> DlfsInstance::finish_peer_pull(PeerPull* p,
                                                 std::byte* dst) {
  if (p->holder == nullptr) {
    ++peer_misses_;
    co_return false;
  }
  // Requester-side placement of the landed bytes (real memcpy: delivery
  // stays byte-identical to the device path).
  CopyJob job;
  job.views = std::move(p->views);
  job.dst = dst;
  co_await engine_->run_copy_inline(*io_core_, std::move(job));
  std::exchange(p->holder, nullptr)->unpin(p->sample_id);
  ++(p->local ? peer_hits_local_ : peer_hits_remote_);
  peer_bytes_ += p->len;
  co_return true;
}

dlsim::Task<bool> DlfsInstance::pull_ahead(std::uint32_t sample_id,
                                           std::uint32_t len,
                                           mem::DmaBuffer* into) {
  PeerPull p{sample_id, len, /*admitted=*/fleet_->tenant_ != nullptr};
  co_await post_peer_pull(&p);
  if (p.holder == nullptr) {
    ++peer_misses_;
    co_return false;
  }
  // The one-sided bulk send wrote the requester's chunk: place the bytes
  // there (no CPU charge on either side) and release the holder's pin.
  std::byte* out = into->data();
  for (const auto& v : p.views) out = std::copy(v.begin(), v.end(), out);
  p.holder->unpin(sample_id);
  co_return true;
}

}  // namespace dlfs::core
