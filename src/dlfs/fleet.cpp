#include "dlfs/dlfs.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/units.hpp"

namespace dlfs::core {

using namespace dlfs::byte_literals;

// ---------------------------------------------------------------------------
// DlfsFleet

DlfsFleet::DlfsFleet(cluster::Cluster& cluster, cluster::Pfs& pfs,
                     const dataset::Dataset& ds, DlfsConfig config,
                     std::vector<hw::NodeId> client_nodes,
                     std::vector<hw::NodeId> storage_nodes)
    : cluster_(&cluster),
      pfs_(&pfs),
      dataset_(&ds),
      config_(config),
      client_nodes_(std::move(client_nodes)),
      storage_nodes_(std::move(storage_nodes)),
      directory_(storage_nodes_.empty() ? cluster.size()
                                        : static_cast<std::uint32_t>(
                                              storage_nodes_.size())),
      upload_barrier_(cluster.simulator(),
                      storage_nodes_.empty() ? cluster.size()
                                             : storage_nodes_.size()),
      allgather_barrier_(cluster.simulator(),
                         storage_nodes_.empty() ? cluster.size()
                                                : storage_nodes_.size()),
      ready_barrier_(cluster.simulator(), 1) {
  if (config_.tenant.governor) {
    tenant_ = config_.tenant.governor->register_tenant(config_.tenant);
  }
  if (client_nodes_.empty()) {
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      client_nodes_.push_back(i);
    }
  }
  if (storage_nodes_.empty()) {
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      storage_nodes_.push_back(i);
    }
  }
  ready_barrier_ = cluster::Barrier(cluster.simulator(), participants());

  // Deterministic layout: every sample is owned by hash(name) % S; shards
  // pack samples back-to-back, one raw extent per sample, in dataset
  // order.
  const std::size_t n = dataset_->num_samples();
  layout_.resize(n);
  shard_samples_.resize(storage_nodes_.size());
  name_to_id_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& spec = dataset_->sample(i);
    const std::uint16_t slot = directory_.owner_of(spec.name);
    shard_samples_[slot].push_back(static_cast<std::uint32_t>(i));
    name_to_id_.emplace(hash64(spec.name), static_cast<std::uint32_t>(i));
  }
  // device_base lets several fleets (tenants) pack disjoint regions on the
  // same physical devices; each fleet's shards start at its own base.
  std::vector<std::uint64_t> next_offset(storage_nodes_.size(),
                                         config_.device_base);
  for (std::uint16_t slot = 0; slot < storage_nodes_.size(); ++slot) {
    for (const std::uint32_t id : shard_samples_[slot]) {
      const std::uint32_t size = dataset_->sample(id).size;
      layout_[id] = SampleLocation{slot, next_offset[slot], size};
      next_offset[slot] += size;
    }
  }
  // Replica placement (replication > 1): sample i's copy r lives on
  // hash(name ‖ r) % S, skipping nodes that already hold one; a bounded
  // linear fallback guarantees k distinct nodes when the hash keeps
  // colliding. Replica bytes are raw per-sample extents appended after
  // each slot's primary region, so primary offsets — and therefore every
  // healthy run — stay byte-identical to replication = 1.
  const std::uint32_t reps = std::min<std::uint32_t>(
      std::max<std::uint32_t>(config_.fault.replication.k, 1),
      static_cast<std::uint32_t>(storage_nodes_.size()));
  effective_reps_ = reps;
  if (reps > 1) {
    replica_layout_.resize(n);
    shard_replicas_.resize(storage_nodes_.size());
    const std::uint32_t hash_probes = 8 * reps + 32;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& spec = dataset_->sample(i);
      const std::uint16_t primary = layout_[i].nid;
      std::vector<std::uint16_t> chosen{primary};
      for (std::uint32_t r = 1; chosen.size() < reps; ++r) {
        const auto cand = static_cast<std::uint16_t>(probe_slot(
            spec.name, r, storage_nodes_.size(), hash_probes, primary));
        if (std::find(chosen.begin(), chosen.end(), cand) != chosen.end()) {
          continue;
        }
        chosen.push_back(cand);
        const std::uint64_t off = next_offset[cand];
        next_offset[cand] += layout_[i].len;
        shard_replicas_[cand].push_back(
            ReplicaRow{static_cast<std::uint32_t>(i), off});
        replica_layout_[i].push_back(RouteHop{cand, off});
      }
    }
  }
  for (std::uint16_t s = 0; s < storage_nodes_.size(); ++s) {
    const auto cap =
        cluster_->node(storage_nodes_[s]).device().capacity();
    if (next_offset[s] > cap) {
      throw std::invalid_argument(
          "dataset shard exceeds device capacity on storage slot " +
          std::to_string(s));
    }
  }
  plan_ = std::make_unique<BatchPlan>(layout_, config_.chunk_bytes,
                                      config_.batching);
  targets_.resize(storage_nodes_.size());
  instances_.resize(client_nodes_.size());
  // Self-healing replication: remember where each slot's data region ends
  // so repair extents can be allocated after it, and start with no slot
  // declared dead.
  declared_dead_.assign(storage_nodes_.size(), 0);
  repair_next_offset_ = std::move(next_offset);
  if (config_.peer_cache.enabled) {
    // Cooperative peer cache: one cluster-wide consistent-hash directory
    // of advertised residency.
    peer_directory_ = std::make_unique<PeerCacheDirectory>(
        static_cast<std::uint32_t>(client_nodes_.size()));
  }
}

DlfsFleet::~DlfsFleet() = default;

std::optional<std::uint32_t> DlfsFleet::sample_id_of(
    std::string_view name) const {
  auto it = name_to_id_.find(hash64(name));
  if (it == name_to_id_.end()) return std::nullopt;
  return it->second;
}

dlsim::Task<void> DlfsFleet::mount_participant(std::uint32_t p) {
  auto& sim = cluster_->simulator();

  // --- storage role: upload shard, build directory slice ------------------
  if (p < storage_nodes_.size()) {
    cluster::Node& node = cluster_->node(storage_nodes_[p]);
    const auto& ids = shard_samples_[p];
    std::uint64_t shard_bytes = 0;
    for (auto id : ids) shard_bytes += layout_[id].len;
    // Replica rows hosted on this slot ride the same PFS stream.
    static const std::vector<ReplicaRow> kNoReplicas;
    const auto& replicas =
        p < shard_replicas_.size() ? shard_replicas_[p] : kNoReplicas;
    for (const auto& row : replicas) shard_bytes += layout_[row.sample_id].len;

    // One streamed PFS request for the whole shard.
    co_await pfs_->stream_samples(ids.empty() ? 0 : ids.front(),
                                  ids.size() + replicas.size(), shard_bytes);

    // Write the shard to the local device in 1 MiB segments, pipelined at
    // queue depth 8. Contents are generated from the dataset's content
    // function into a staging buffer (functionally real bytes).
    {
      auto qp = node.device().create_qpair(8);
      constexpr std::uint64_t kSegment = 1_MiB;
      std::vector<std::byte> staging(kSegment);
      // Device offset of the staged segment: the shard starts at this
      // fleet's base, where the layout placed it.
      std::uint64_t seg_start = config_.device_base;
      std::uint64_t seg_fill = 0;
      auto flush = [&]() -> dlsim::Task<void> {
        if (seg_fill == 0) co_return;
        while (qp->outstanding() >= qp->depth()) {
          co_await qp->wait_for_completion();
          (void)qp->poll();
        }
        const auto st =
            qp->submit(hw::IoOp::kWrite, seg_start,
                       std::span<std::byte>(staging.data(), seg_fill), 0);
        if (st != hw::IoStatus::kOk) {
          throw std::runtime_error("device write failed during mount");
        }
        seg_start += seg_fill;
        seg_fill = 0;
      };
      auto emit = [&](std::span<const std::byte> bytes) -> dlsim::Task<void> {
        std::size_t done = 0;
        while (done < bytes.size()) {
          if (seg_fill == kSegment) co_await flush();
          const std::uint64_t ncopy = std::min<std::uint64_t>(
              bytes.size() - done, kSegment - seg_fill);
          std::memcpy(staging.data() + seg_fill, bytes.data() + done, ncopy);
          seg_fill += ncopy;
          done += ncopy;
        }
      };
      std::vector<std::byte> scratch;
      for (auto id : ids) {
        const SampleLocation& loc = layout_[id];
        scratch.resize(loc.len);
        dataset_->fill_content(id, 0, scratch);
        co_await emit(scratch);
      }
      // Replica region: the rows were assigned contiguous offsets right
      // after the primary region in this exact order, so the sequential
      // emit stream lands each copy at its planned offset.
      for (const auto& row : replicas) {
        scratch.resize(layout_[row.sample_id].len);
        dataset_->fill_content(row.sample_id, 0, scratch);
        co_await emit(scratch);
      }
      co_await flush();
      while (qp->outstanding() > 0) {
        co_await qp->wait_for_completion();
        (void)qp->poll();
      }
    }

    // Build this node's AVL slice (host-side insert; ~300 ns/sample of
    // simulated CPU — tree construction is pointer chasing + rebalance).
    for (auto id : ids) {
      const SampleLocation& loc = layout_[id];
      directory_.insert(id, dataset_->sample(id).name, loc.nid, loc.offset,
                        loc.len);
      // The primary owner registers the sample's replica hops (its
      // insert just created the id-index row they attach to); every
      // registration lands before the upload barrier, so the allgather
      // slices below already account the replica rows.
      if (!replica_layout_.empty()) {
        for (const RouteHop& h : replica_layout_[id]) {
          directory_.add_replica(id, h.nid, h.offset);
        }
      }
    }
    co_await node.core(0).compute(
        300ull * std::max<std::size_t>(ids.size(), 1));

    co_await upload_barrier_.arrive();
    if (config_.directory.mode == DirectoryMode::kSharded) {
      // Sharded mount: only the partition map (one fixed-size row per
      // node) crosses the fabric; shard trees stay on their owners and
      // foreign samples resolve lazily through the metadata RPC.
      co_await cluster::ring_allgather_rows(
          sim, cluster_->fabric(), allgather_barrier_, p,
          static_cast<std::uint32_t>(storage_nodes_.size()),
          DirectoryView::kPartitionRowBytes);
    } else {
      // Full mount: all-gather every directory slice (data is shared
      // in-process; the ring models the communication time of moving
      // every slice to every node).
      std::vector<std::uint64_t> slice_bytes(storage_nodes_.size());
      for (std::uint16_t s = 0; s < storage_nodes_.size(); ++s) {
        slice_bytes[s] = directory_.shard_bytes(s);
      }
      co_await cluster::ring_allgather(sim, cluster_->fabric(),
                                       allgather_barrier_, p, slice_bytes);
    }
  }

  co_await ready_barrier_.arrive();

  // --- client role: build the instance and its queues ---------------------
  if (p < client_nodes_.size()) {
    cluster::Node& node = cluster_->node(client_nodes_[p]);
    // One I/O thread per client, pinned to the next free core of its node.
    // client_core_base shifts the whole range so co-located fleets
    // (multi-tenant runs) do not time-share a core.
    std::size_t ordinal = config_.client_core_base;
    for (std::uint32_t q = 0; q < p; ++q) {
      if (client_nodes_[q] == client_nodes_[p]) ++ordinal;
    }
    auto inst = std::unique_ptr<DlfsInstance>(
        new DlfsInstance(*this, p, node, node.core(ordinal)));
    for (std::uint16_t s = 0; s < storage_nodes_.size(); ++s) {
      cluster::Node& snode = cluster_->node(storage_nodes_[s]);
      std::unique_ptr<spdk::IoQueue> q;
      if (storage_nodes_[s] == client_nodes_[p]) {
        inst->driver_->attach(snode.device());
        q = inst->driver_->create_io_queue(snode.device(),
                                           config_.queue_depth);
      } else {
        if (!targets_[s]) {
          targets_[s] = std::make_unique<spdk::NvmfTarget>(
              sim, cluster_->fabric(), storage_nodes_[s], snode.device());
        }
        q = targets_[s]->connect(client_nodes_[p], *inst->pool_,
                                 config_.queue_depth, config_.fault.nvmf);
      }
      inst->engine_->attach_target(s, std::move(q));
    }
    instances_[p] = std::move(inst);
  }
  mounted_ = true;
}

void DlfsFleet::mount() {
  dlsim::Simulator& sim = cluster_->simulator();
  for (std::uint32_t p = 0; p < participants(); ++p) {
    sim.spawn(mount_participant(p));
  }
  sim.run();
  sim.rethrow_failures();
  if (!mounted_) {
    throw std::runtime_error(
        "DlfsFleet::mount: collective did not complete (a participant "
        "blocked before the ready barrier)");
  }
}

}  // namespace dlfs::core
