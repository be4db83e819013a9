#include "dlfs/dlfs.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "common/units.hpp"
#include "dataset/record_file.hpp"

namespace dlfs::core {

namespace {
using namespace dlfs::byte_literals;

/// Spans of a [offset, offset+len) window across an ordered list of
/// fixed-size pieces (the chunk-split buffers of one read unit).
std::vector<std::span<const std::byte>> window_views(
    const std::vector<mem::DmaBuffer>& pieces, std::uint64_t piece_size,
    std::uint64_t offset, std::uint32_t len) {
  std::vector<std::span<const std::byte>> out;
  std::uint64_t pos = offset;
  std::uint32_t left = len;
  while (left > 0) {
    const std::size_t idx = static_cast<std::size_t>(pos / piece_size);
    const std::uint64_t in_piece = pos % piece_size;
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, piece_size - in_piece));
    out.push_back(pieces.at(idx).span().subspan(in_piece, n));
    pos += n;
    left -= n;
  }
  return out;
}

/// Piece lengths of a `len`-byte extent split at the chunk size — the
/// split start_extents performs; prefetched buffers come back in exactly
/// these pieces.
std::vector<std::uint32_t> piece_lens_of(std::uint32_t len,
                                         std::uint64_t chunk_bytes) {
  std::vector<std::uint32_t> lens;
  std::uint32_t left = len;
  while (left > 0) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, chunk_bytes));
    lens.push_back(n);
    left -= n;
  }
  return lens;
}

/// Metadata-RPC reply payload for the sharded directory: one packed
/// entry plus its id-index row — what the owning node returns for a
/// (positive or negative) lookup.
constexpr std::uint64_t kLookupReplyBytes =
    SampleDirectory::kEntryBytes + SampleDirectory::kIdRowBytes;

/// True when the stored extent error is a node-level fault (survivable:
/// skip the samples); false for media and unknown errors (fatal).
bool is_node_fault(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const IoError& e) {
    return e.kind != IoErrorKind::kMedia;
  } catch (...) {
    return false;
  }
}

}  // namespace

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
    tenant_ = config_.tenant.governor->register_tenant(
        TenantQos{config_.tenant.name, config_.tenant.weight,
                  config_.tenant.priority, config_.tenant.max_inflight});
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
  // pack samples back-to-back from device offset 0 in dataset order —
  // either raw (one extent per sample) or grouped into TFRecord-style
  // batched files of record_file_samples each (8-byte header per record;
  // the sample entry points at the payload, so the directory gives
  // direct access to any sample inside a batched file).
  const std::size_t n = dataset_->num_samples();
  layout_.resize(n);
  shard_samples_.resize(storage_nodes_.size());
  record_files_.resize(storage_nodes_.size());
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
  const std::uint32_t per_file = config_.record_file_samples;
  for (std::uint16_t slot = 0; slot < storage_nodes_.size(); ++slot) {
    auto& files = record_files_[slot];
    for (std::size_t k = 0; k < shard_samples_[slot].size(); ++k) {
      const std::uint32_t id = shard_samples_[slot][k];
      const std::uint32_t size = dataset_->sample(id).size;
      if (per_file > 0) {
        if (k % per_file == 0) {
          files.push_back(RecordFileInfo{
              "rf" + std::to_string(slot) + "_" +
                  std::to_string(files.size()),
              next_offset[slot], 0, {}});
        }
        next_offset[slot] += 8;  // record header
        files.back().sample_ids.push_back(id);
      }
      layout_[id] = SampleLocation{slot, next_offset[slot], size};
      next_offset[slot] += size;
      if (per_file > 0) {
        auto& f = files.back();
        const std::uint64_t len = next_offset[slot] - f.offset;
        if (len > core::SampleEntry::kMaxLen) {
          throw std::invalid_argument(
              "record_file_samples groups more than 8 MiB per file; the "
              "23-bit length field cannot address it");
        }
        f.len = static_cast<std::uint32_t>(len);
      }
    }
  }
  // Replica placement (replication > 1): sample i's copy r lives on
  // hash(name ‖ r) % S, skipping nodes that already hold one; a bounded
  // linear fallback guarantees k distinct nodes when the hash keeps
  // colliding. Replica bytes are always raw per-sample extents (no
  // record headers — replica reads return exactly the payload) appended
  // after each slot's primary region, so primary offsets — and therefore
  // every healthy run — stay byte-identical to replication = 1.
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
        const auto cand = static_cast<std::uint16_t>(
            r <= hash_probes
                ? hash64(std::string(spec.name) + '\x1f' +
                         std::to_string(r)) %
                      storage_nodes_.size()
                : (primary + r) % storage_nodes_.size());
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
    // of advertised residency. The per-node member indexes grow lazily
    // (peer_index_for) as instances mount, like the prefetch arbiters.
    peer_directory_ = std::make_shared<PeerCacheDirectory>(
        config_.peer_cache, static_cast<std::uint32_t>(client_nodes_.size()));
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
        if (config_.record_file_samples > 0) {
          // TFRecord-style header: length | crc32(payload).
          std::array<std::byte, 8> header;
          dataset::write_record_header(header, loc.len,
                                       dataset::crc32(scratch));
          co_await emit(header);
        }
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
    // File-oriented entries for the batched record files on this node.
    for (const auto& f : record_files_[p]) {
      directory_.insert_file(f.name, p, f.offset, f.len);
    }
    co_await node.core(0).compute(
        300ull * std::max<std::size_t>(ids.size() + record_files_[p].size(),
                                       1));

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

void DlfsFleet::mount(const MountOptions& opts) {
  dlsim::Simulator& sim = cluster_->simulator();
  for (std::uint32_t p = 0; p < participants(); ++p) {
    sim.spawn(mount_participant(p));
  }
  if (!opts.run_to_completion) return;
  sim.run();
  sim.rethrow_failures();
  if (!mounted_) {
    throw std::runtime_error(
        "DlfsFleet::mount: collective did not complete (a participant "
        "blocked before the ready barrier)");
  }
}

// ---------------------------------------------------------------------------
// DlfsInstance

DlfsInstance::DlfsInstance(DlfsFleet& fleet, std::uint32_t client_idx,
                           cluster::Node& node, dlsim::CpuCore& core)
    : fleet_(&fleet),
      client_idx_(client_idx),
      node_(&node),
      io_core_(&core) {
  const DlfsConfig& cfg = fleet.config_;
  pool_ = std::make_unique<mem::HugePagePool>(cfg.pool_bytes,
                                              cfg.chunk_bytes);
  pool_->set_scribble_on_free(cfg.scribble_on_free);
  cache_ = std::make_unique<SampleCache>(*pool_, cfg.cache_chunks,
                                         fleet.dataset_->num_samples());
  driver_ = std::make_unique<spdk::NvmeDriver>(node.simulator(), *pool_);
  IoEngineConfig ecfg;
  ecfg.chunk_bytes = cfg.chunk_bytes;
  ecfg.copy_threads = cfg.copy_threads;
  ecfg.retry_backoff = cfg.fault.io_retry_backoff;
  ecfg.reprobe_interval = cfg.fault.reprobe_interval;
  engine_ = std::make_unique<IoEngine>(node.simulator(), *pool_, *cache_,
                                       cfg.calibration, ecfg);
  // Multi-tenant QoS: every queue this instance owns submits through the
  // fleet's tenant handle, so one governor arbitrates all of the job's
  // traffic against co-located jobs.
  engine_->set_tenant(fleet.tenant_);
  if (cfg.directory.mode == DirectoryMode::kSharded) {
    // Resident shards are the slots co-located with this client's node
    // (their trees are in local memory anyway); everything else resolves
    // lazily through the owner's metadata RPC.
    std::vector<std::uint8_t> resident(fleet.storage_nodes_.size(), 0);
    for (std::size_t s = 0; s < fleet.storage_nodes_.size(); ++s) {
      if (fleet.storage_nodes_[s] == fleet.client_nodes_[client_idx]) {
        resident[s] = 1;
      }
    }
    view_ = std::make_unique<DirectoryView>(fleet.directory_, cfg.directory,
                                            std::move(resident));
  }
  // Node fault domain: when a storage node's reconnect budget is
  // exhausted the engine reports it down and the shared directory's
  // wholesale V bit clears, so every path fails over (or skips) its
  // samples; a successful reprobe — epoch-boundary or the mid-epoch
  // probe daemon — restores it and retries read-ahead that failed while
  // the node was down.
  engine_->set_node_down_handler([this](std::uint16_t nid, bool up) {
    fleet_->directory_.set_node_available(nid, up);
    if (up && prefetcher_) (void)prefetcher_->reissue_failed();
    // Failure detector + late-rejoin reconciliation ride the same
    // transition (suspect timer on down, undeclare on up).
    on_node_transition(nid, up);
  });
  if (cfg.fault.replication.k > 1) {
    // Background re-replication: one daemon per instance, parked on
    // repair_wake_ until a permanent-loss declaration (or a rejoin)
    // creates work. Its own core — repairs never steal frontend cycles;
    // the traffic budget bounds how hard they compete for the fabric.
    repair_wake_ = std::make_unique<dlsim::Event>(node.simulator());
    repair_core_ = std::make_unique<dlsim::CpuCore>(
        node.simulator(), "dlfs-repair-" + std::to_string(client_idx));
    node.simulator().spawn_daemon(
        repair_loop(repair_alive_),
        "dlfs-repair-" + std::to_string(client_idx));
  }
  if (cfg.prefetch.enabled) {
    prefetcher_ = std::make_unique<Prefetcher>(
        node.simulator(), *engine_, *pool_, cfg.chunk_bytes, cfg.prefetch,
        "dlfs-prefetch-" + std::to_string(client_idx));
    engine_->set_pressure_reliever(
        [this] { return prefetcher_->relieve_pressure(); });
    if (fleet.tenant_) {
      // The arbiter splits a node's prefetch budget by weight × window
      // target, so a tenant's read-ahead share follows its QoS weight.
      prefetcher_->set_share_weight(
          TenantGovernor::effective_weight(fleet.tenant_->qos()));
    }
    if (cfg.prefetch.shared_arbiter) {
      arbiter_ = fleet.arbiter_for(fleet.client_nodes_[client_idx]);
      prefetcher_->set_arbiter(arbiter_);
    }
  }
  if (cfg.peer_cache.enabled) {
    // Cooperative peer cache: join the node's member index so co-located
    // instances can serve out of this cache, and mirror V-bit flips into
    // the cluster directory so remote ones can find it. The listener runs
    // inside cache slices, so it must stay suspension-free — directory
    // updates are plain bookkeeping (the model's stand-in for residency
    // deltas piggybacked on existing metadata traffic).
    peer_index_ = fleet.peer_index_for(fleet.client_nodes_[client_idx]);
    peer_index_->register_member(client_idx_, cache_.get(), io_core_);
    cache_->set_residency_listener(
        [this, pnode = static_cast<std::uint16_t>(
                   fleet.client_nodes_[client_idx])](std::size_t id,
                                                     bool resident) {
          PeerCacheDirectory* dir = fleet_->peer_directory_.get();
          if (dir == nullptr) return;
          if (resident) {
            dir->advertise(client_idx_, pnode, id,
                           fleet_->layout_[id].len);
          } else {
            dir->retract(client_idx_, id);
          }
        });
  }
}

std::shared_ptr<PrefetchArbiter> DlfsFleet::arbiter_for(hw::NodeId nid) {
  auto& a = arbiters_[nid];
  if (!a) a = std::make_shared<PrefetchArbiter>();
  return a;
}

std::shared_ptr<PeerCacheIndex> DlfsFleet::peer_index_for(hw::NodeId nid) {
  auto& idx = peer_indexes_[nid];
  if (!idx) idx = std::make_shared<PeerCacheIndex>();
  return idx;
}

// ---------------------------------------------------------------------------
// Self-healing replication (fleet side)

void DlfsFleet::declare_dead(std::uint16_t slot) {
  if (slot >= storage_nodes_.size()) {
    throw std::invalid_argument("declare_dead: storage slot out of range");
  }
  if (declared_dead_[slot] != 0) return;
  declared_dead_[slot] = 1;
  // Atomic route retirement: one call, no suspension — route snapshots
  // already issued are unaffected, every new issue stops seeing the slot.
  (void)directory_.drop_replicas_on(slot);
  // A declaration can come from a test before any transport transition
  // cleared the V bit; reads must stop targeting the slot either way.
  directory_.set_node_available(slot, false);
  for (auto& inst : instances_) {
    if (inst) inst->note_declared_dead();
  }
}

void DlfsFleet::undeclare(std::uint16_t slot) {
  if (slot >= storage_nodes_.size()) {
    throw std::invalid_argument("undeclare: storage slot out of range");
  }
  if (declared_dead_[slot] == 0) return;
  declared_dead_[slot] = 0;
  // Fresh rejoin: the slot's primary shard serves again (the dataset is
  // immutable, so its on-device bytes are still valid) and it is a repair
  // target again. Hops dropped at declaration stay dropped — repair
  // re-converges instead; samples repaired meanwhile are merely
  // over-replicated, which is harmless for an immutable dataset. Reads
  // still require the per-instance transport to agree the node answers
  // (node_up() ANDs the engine state with this V bit).
  directory_.set_node_available(slot, true);
  for (auto& inst : instances_) {
    if (inst) inst->note_rejoined();
  }
}

std::uint32_t DlfsFleet::live_copies(std::uint32_t sample_id) const {
  std::uint32_t live = declared_dead_[layout_[sample_id].nid] == 0 ? 1u : 0u;
  for (const RouteHop& h : directory_.replicas(sample_id)) {
    if (declared_dead_[h.nid] == 0) ++live;
  }
  return live;
}

std::vector<std::uint32_t> DlfsFleet::repair_backlog() const {
  std::vector<std::uint32_t> out;
  if (effective_reps_ <= 1) return out;
  const std::uint32_t alive_slots =
      static_cast<std::uint32_t>(storage_nodes_.size()) - num_declared_dead();
  const std::uint32_t target = std::min(effective_reps_, alive_slots);
  for (std::uint32_t id = 0; id < layout_.size(); ++id) {
    if (live_copies(id) < target) out.push_back(id);
  }
  return out;
}

std::optional<RouteHop> DlfsFleet::claim_repair_target(
    std::uint32_t sample_id, const std::function<bool(std::uint16_t)>& usable) {
  const auto& spec = dataset_->sample(sample_id);
  const SampleLocation& loc = layout_[sample_id];
  const auto num_slots = static_cast<std::uint32_t>(storage_nodes_.size());
  // The mount-time probe chain, continued: replica r of a sample lives at
  // hash(name ‖ r) % S with a linear tail. Walking the same chain here
  // (skipping dead/occupied/unusable slots) makes the replacement
  // deterministic — every instance, and every rerun of the same seed,
  // picks the same node for the same loss.
  const std::uint32_t hash_probes = 8 * effective_reps_ + 32;
  for (std::uint32_t r = 1; r <= hash_probes + num_slots; ++r) {
    const auto cand = static_cast<std::uint16_t>(
        r <= hash_probes
            ? hash64(std::string(spec.name) + '\x1f' + std::to_string(r)) %
                  num_slots
            : (loc.nid + r) % num_slots);
    if (declared_dead_[cand] != 0 || cand == loc.nid) continue;
    bool holds = false;
    for (const RouteHop& h : directory_.replicas(sample_id)) {
      if (h.nid == cand) {
        holds = true;
        break;
      }
    }
    if (holds) continue;
    if (usable && !usable(cand)) continue;
    const std::uint64_t off = repair_next_offset_[cand];
    if (off + loc.len >
            cluster_->node(storage_nodes_[cand]).device().capacity() ||
        off > SampleEntry::kMaxOffset) {
      continue;  // slot full; keep probing
    }
    repair_next_offset_[cand] += loc.len;
    return RouteHop{cand, off};
  }
  return std::nullopt;
}

void DlfsFleet::publish_repair(std::uint32_t sample_id, RouteHop hop) {
  directory_.add_replica(sample_id, hop.nid, hop.offset);
}

DlfsInstance::~DlfsInstance() {
  // Invalidate the repair daemon and any pending death timers. Do NOT set
  // repair_wake_: a frame parked on it would resume into a destroyed
  // member; the alive token (checked after every suspension) is the only
  // teardown signal.
  *repair_alive_ = false;
  // Leave the cooperative cache before members start dying: co-located
  // instances must stop probing this cache, and advertised residency
  // must vanish from the cluster directory (the cache tears entries down
  // without firing the listener).
  if (peer_index_) peer_index_->unregister_member(client_idx_);
  if (fleet_->peer_directory_) {
    fleet_->peer_directory_->retract_all(client_idx_);
  }
  if (cache_) cache_->set_residency_listener({});
}

dlsim::Task<void> DlfsInstance::charge_lookup() {
  lookup_time_total_ += fleet_->config_.calibration.dlfs.dir_lookup;
  co_await io_core_->compute(fleet_->config_.calibration.dlfs.dir_lookup);
}

dlsim::Task<void> DlfsInstance::charge_remote_lookup(std::uint16_t slot) {
  const dlsim::SimDuration walk = fleet_->config_.calibration.dlfs.dir_lookup;
  lookup_time_total_ += walk;
  spdk::NvmfTarget* t =
      slot < fleet_->targets_.size() ? fleet_->targets_[slot].get() : nullptr;
  if (t != nullptr && t->accepting()) {
    const bool replied = co_await t->metadata_rpc(
        fleet_->client_nodes_[client_idx_], walk, kLookupReplyBytes);
    if (replied) co_return;
  }
  // No transport path (the owner slot is co-located with another client
  // and never grew a target, the target is down, or a leg dropped): fall
  // back to a local-rate walk so lookups never stall on a fault — the
  // read path's skip/failover semantics decide the sample's fate.
  co_await io_core_->compute(walk);
}

dlsim::Task<const SampleEntry*> DlfsInstance::resolve_id_sharded(
    std::uint32_t sample_id) {
  DirectoryView::Resolution r = view_->resolve_id(sample_id);
  if (r.served == DirectoryView::Served::kRemote) {
    co_await charge_remote_lookup(r.owner_slot);
    const SampleEntry* e = fleet_->directory_.lookup_id(sample_id);
    view_->complete_remote(r, e);
    co_return e;
  }
  // Resident shards did the real tree walk inside resolve_id; cache hits
  // charge the same local rate (the RPC round trip is the saving, not
  // the probe).
  co_await charge_lookup();
  co_return r.entry;
}

std::uint64_t DlfsInstance::directory_bytes() const {
  return view_ ? view_->resident_bytes() : fleet_->full_directory_bytes();
}

dlsim::Task<void> DlfsInstance::maybe_reprobe() {
  if (!reprobe_pending_) co_return;
  reprobe_pending_ = false;
  if (engine_->nodes_down() == 0) co_return;
  const std::uint32_t recovered =
      co_await engine_->reprobe_down_nodes(*io_core_);
  // Read-ahead issued while the node was down carries baked-in
  // failures; retry it now that the node answers again.
  if (recovered > 0 && prefetcher_) (void)prefetcher_->reissue_failed();
}

std::vector<RouteHop> DlfsInstance::sample_routes(
    std::uint32_t sample_id) const {
  return fleet_->directory_.replicas(sample_id);
}

bool DlfsInstance::node_up(std::uint16_t nid) const {
  return engine_->node_available(nid) &&
         fleet_->directory_.node_available(nid);
}

bool DlfsInstance::sample_reachable(std::uint32_t sample_id) const {
  if (node_up(fleet_->layout_[sample_id].nid)) return true;
  for (const RouteHop& h : fleet_->directory_.replicas(sample_id)) {
    if (node_up(h.nid)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Cooperative peer cache (read side)

bool DlfsInstance::peer_resident(std::uint32_t sample_id) const {
  if (!fleet_->config_.peer_cache.enabled) return false;
  if (peer_index_ != nullptr &&
      peer_index_->find_holder(sample_id, client_idx_) != nullptr) {
    return true;
  }
  PeerCacheDirectory* dir = fleet_->peer_directory_.get();
  return dir != nullptr && dir->find(sample_id, client_idx_).found;
}

dlsim::Task<bool> DlfsInstance::try_peer_read(std::uint32_t sample_id,
                                              std::uint32_t len,
                                              std::byte* dst) {
  if (!fleet_->config_.peer_cache.enabled) co_return false;
  const DlfsCosts& costs = fleet_->config_.calibration.dlfs;

  // Intra-node first: a co-located instance's resident copy is one pin
  // plus one DRAM copy away — no fabric, and no tenant admission (same
  // treatment as own-cache hits: host-memory copies never compete with
  // other tenants for the devices or the wire).
  if (peer_index_ != nullptr) {
    const PeerCacheIndex::Member* m =
        peer_index_->find_holder(sample_id, client_idx_);
    if (m != nullptr) {
      auto views = m->cache->pin(sample_id);
      if (!views.empty()) {
        co_await io_core_->compute(costs.peer_serve);
        CopyJob job;
        job.views = std::move(views);
        job.dst = dst;
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
        m->cache->unpin(sample_id);
        ++peer_hits_local_;
        peer_bytes_ += len;
        co_return true;
      }
    }
  }

  // Cross-node: ask the sample's consistent-hash home for a holder, then
  // pull the bytes from the holder's DRAM over the fabric. Every refusal
  // along the way (no holder, dropped leg, raced eviction) unwinds to a
  // miss; the caller falls back to the normal replica read path.
  PeerCacheDirectory* dir = fleet_->peer_directory_.get();
  if (dir == nullptr) {
    ++peer_misses_;
    co_return false;
  }
  hw::Fabric& fabric = fleet_->cluster_->fabric();
  const hw::NodeId me = fleet_->client_nodes_[client_idx_];
  const std::uint32_t home = dir->home_client(sample_id);
  const hw::NodeId home_node = fleet_->client_nodes_[home];
  if (home != client_idx_) {
    // Request hop (skipped when this client is the home — the directory
    // slice is then local memory).
    const bool asked =
        co_await fabric.send(me, home_node, hw::kControlMessageBytes);
    if (!asked) {
      ++peer_misses_;
      co_return false;
    }
  }
  const PeerCacheDirectory::Holder h = dir->find(sample_id, client_idx_);
  if (!h.found) {
    if (home != client_idx_) {
      // Miss reply from the home.
      co_await fabric.transfer(home_node, me, hw::kControlMessageBytes);
    }
    ++peer_misses_;
    co_return false;
  }
  const hw::NodeId holder_node = fleet_->client_nodes_[h.client];
  if (h.client != home) {
    // Forward hop: the home passes the request on to the holder
    // (loopback when they share a node).
    const bool forwarded =
        co_await fabric.send(home_node, holder_node, hw::kControlMessageBytes);
    if (!forwarded) {
      ++peer_misses_;
      co_return false;
    }
  }
  // Pin the holder's entry. The fabric hops above suspended, so the
  // holder may have evicted (and retracted) meanwhile — an empty pin is
  // that race, answered with a miss reply.
  PeerCacheIndex* hidx = fleet_->peer_index(holder_node);
  const PeerCacheIndex::Member* m =
      hidx != nullptr ? hidx->member_of(h.client) : nullptr;
  std::vector<std::span<const std::byte>> views;
  if (m != nullptr) views = m->cache->pin(sample_id);
  if (views.empty()) {
    co_await fabric.transfer(holder_node, me, hw::kControlMessageBytes);
    ++peer_misses_;
    co_return false;
  }
  // The bulk transfer is charged to the requesting tenant exactly like a
  // device read of the same bytes — a peer read must not let a capped
  // job dodge its QoS share.
  if (fleet_->tenant_) {
    while (!fleet_->tenant_->try_admit(len)) {
      co_await io_core_->compute(costs.poll_iteration);
    }
  }
  // Holder-side serve (verbs recv + RDMA post) on the holder's core; the
  // data path itself is one-sided, so there is no holder-side copy.
  co_await m->core->compute(costs.peer_serve);
  const bool delivered = co_await fabric.send(holder_node, me, len);
  if (!delivered) {
    m->cache->unpin(sample_id);
    if (fleet_->tenant_) fleet_->tenant_->on_complete(len);
    ++peer_misses_;
    co_return false;
  }
  // Requester-side placement of the landed bytes (real memcpy: delivery
  // stays byte-identical to the device path).
  CopyJob job;
  job.views = std::move(views);
  job.dst = dst;
  co_await engine_->run_copy_inline(*io_core_, std::move(job));
  m->cache->unpin(sample_id);
  if (fleet_->tenant_) fleet_->tenant_->on_complete(len);
  ++peer_hits_remote_;
  peer_bytes_ += len;
  co_return true;
}

// ---------------------------------------------------------------------------
// Self-healing replication (instance side)

void DlfsInstance::note_declared_dead() {
  ++nodes_declared_dead_;
  if (repair_wake_) repair_wake_->set();
}

void DlfsInstance::note_rejoined() {
  // A rejoined slot is a fresh repair target; re-walk the backlog.
  if (repair_wake_) repair_wake_->set();
}

void DlfsInstance::on_node_transition(std::uint16_t nid, bool up) {
  if (down_epoch_.size() <= nid) down_epoch_.resize(nid + 1, 0);
  ++down_epoch_[nid];
  if (!up) {
    // Suspect: arm the one-shot promotion timer. A transient fault heals
    // before it fires (the transition bumps the epoch and disarms it).
    const dlsim::SimDuration deadline =
        fleet_->config_.fault.replication.declare_dead_after;
    if (deadline > 0 && !fleet_->declared_dead(nid)) {
      node_->simulator().spawn_daemon(
          death_timer(nid, down_epoch_[nid], repair_alive_),
          "dlfs-death-timer");
    }
    return;
  }
  // Up transition of a declared-dead node: late rejoin — reconcile it as
  // a fresh node.
  if (fleet_->declared_dead(nid)) fleet_->undeclare(nid);
}

dlsim::Task<void> DlfsInstance::death_timer(std::uint16_t nid,
                                            std::uint64_t epoch,
                                            std::shared_ptr<bool> alive) {
  co_await node_->simulator().delay(
      fleet_->config_.fault.replication.declare_dead_after);
  if (!*alive) co_return;
  // Promote only if this exact outage is still in progress: any
  // transition meanwhile bumped the epoch — the node bounced, which is a
  // transient link fault, not permanent loss.
  if (nid >= down_epoch_.size() || down_epoch_[nid] != epoch) co_return;
  if (node_up(nid)) co_return;
  fleet_->declare_dead(nid);
}

dlsim::Task<void> DlfsInstance::repair_loop(std::shared_ptr<bool> alive) {
  for (;;) {
    {
      // Park until membership changes. The wait is hoisted to its own
      // statement (never inside a condition) per the repo's coroutine
      // conventions.
      dlsim::Task<void> parked = repair_wake_->wait();
      co_await std::move(parked);
    }
    if (!*alive) co_return;
    repair_wake_->reset();
    // Walk the backlog until a full pass makes no progress. Samples that
    // cannot be repaired right now — no live source, no viable target,
    // or a transient op failure — wait for the next membership
    // transition: every transition sets the wake, so parking loses
    // nothing, and a parked daemon holds no timers, so the simulator can
    // quiesce once churn stops.
    bool progress = true;
    while (progress) {
      progress = false;
      const std::vector<std::uint32_t> backlog = fleet_->repair_backlog();
      for (const std::uint32_t id : backlog) {
        if (fleet_->repair_claims_.contains(id)) continue;
        fleet_->repair_claims_.insert(id);
        const bool repaired = co_await repair_one(id, alive);
        if (!*alive) co_return;  // fleet_ may be mid-destruction
        fleet_->repair_claims_.erase(id);
        if (repaired) progress = true;
      }
    }
  }
}

dlsim::Task<bool> DlfsInstance::repair_one(std::uint32_t sample_id,
                                           std::shared_ptr<bool> alive) {
  // Recheck under-replication at run time: the backlog snapshot may be
  // stale by the time this sample's turn comes (a rejoin, or another
  // instance's repair, may already have restored it).
  const std::uint32_t alive_slots =
      fleet_->num_storage() - fleet_->num_declared_dead();
  const std::uint32_t target =
      std::min(fleet_->effective_reps_, alive_slots);
  if (fleet_->live_copies(sample_id) >= target) co_return false;

  // Source: every copy on a non-dead node this instance can reach, in
  // failover order (first is the read target, the rest ride as routes).
  const SampleLocation& loc = fleet_->layout_[sample_id];
  std::vector<RouteHop> sources;
  if (!fleet_->declared_dead(loc.nid) && node_up(loc.nid)) {
    sources.push_back(RouteHop{loc.nid, loc.offset});
  }
  for (const RouteHop& h : fleet_->directory_.replicas(sample_id)) {
    if (!fleet_->declared_dead(h.nid) && node_up(h.nid)) sources.push_back(h);
  }
  if (sources.empty()) co_return false;
  const std::optional<RouteHop> dst = fleet_->claim_repair_target(
      sample_id, [this](std::uint16_t nid) { return node_up(nid); });
  if (!dst) co_return false;

  // Traffic budget: pace repairs to repair_bytes_per_sec so they never
  // starve demand reads of fabric/device bandwidth.
  const std::uint64_t budget =
      fleet_->config_.fault.replication.repair_bytes_per_sec;
  if (budget > 0) {
    auto& sim = node_->simulator();
    const dlsim::SimTime now = sim.now();
    if (repair_next_allowed_ > now) {
      ++repair_throttles_;
      co_await sim.delay(repair_next_allowed_ - now);
      if (!*alive) co_return false;
    }
    const dlsim::SimTime start = std::max(repair_next_allowed_, now);
    repair_next_allowed_ =
        start + static_cast<dlsim::SimDuration>(
                    loc.len * 1'000'000'000ull / budget);
  }

  // Stream the bytes from a surviving copy through the shared engine —
  // same pump, tag space and queue-depth budget as demand reads.
  std::vector<mem::DmaBuffer> pieces;
  ReadExtent x;
  x.nid = sources.front().nid;
  x.offset = sources.front().offset;
  x.len = loc.len;
  x.out_buffers = &pieces;
  x.routes.assign(sources.begin() + 1, sources.end());
  const ExtentOpPtr rop = engine_->start_extent(std::move(x));
  co_await engine_->await_op(*repair_core_, rop, 0);
  if (!*alive) co_return false;
  if (rop->error()) co_return false;  // next membership wake retries

  const ExtentOpPtr wop = engine_->start_write(
      dst->nid, dst->offset, std::move(pieces),
      piece_lens_of(loc.len, fleet_->config_.chunk_bytes));
  co_await engine_->await_op(*repair_core_, wop, 0);
  if (!*alive) co_return false;
  if (wop->error()) co_return false;  // allocated extent is wasted, not wrong

  // Atomic publication: one directory call, no suspension — failover,
  // the prefetcher's RouteResolver and advance_route see the new hop on
  // their next issue, mid-epoch.
  fleet_->publish_repair(sample_id, *dst);
  ++samples_rereplicated_;
  repair_bytes_ += loc.len;
  co_return true;
}

void DlfsInstance::spawn_injected(dlsim::CountdownLatch* done) {
  if (injected_ <= 0) {
    done->count_down();
    return;
  }
  // Injected poll-loop compute (Fig. 7b) runs concurrently with the
  // fetches — the daemon keeps pumping I/O meanwhile, so the compute
  // hides under the batch's stalls exactly as it hid under the
  // synchronous pump's poll loop.
  node_->simulator().spawn(
      [](dlsim::CpuCore* core, dlsim::SimDuration d,
         dlsim::CountdownLatch* latch) -> dlsim::Task<void> {
        co_await core->compute(d);
        latch->count_down();
      }(io_core_, injected_, done));
}

dlsim::Task<void> DlfsInstance::charge_frontend(
    std::span<const EpochSequence::UnitPicks> picks) {
  std::size_t total = 0;
  std::size_t local = 0;  // resolutions served at the local walk rate
  for (const auto& pk : picks) {
    total += pk.count;
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const std::uint32_t id = pk.unit->samples[pk.first_sample + i].sample_id;
      if (view_ == nullptr) {
        (void)fleet_->directory_.lookup_id(id);  // real tree walk
        ++local;
        continue;
      }
      // Sharded mount: resident/cached ids stay at the local rate;
      // foreign ids pay one metadata RPC and fill the lookup cache, so
      // a steady epoch's bread converges to mostly cache hits.
      DirectoryView::Resolution r = view_->resolve_id(id);
      if (r.served == DirectoryView::Served::kRemote) {
        co_await charge_remote_lookup(r.owner_slot);
        view_->complete_remote(r, fleet_->directory_.lookup_id(id));
      } else {
        ++local;
      }
    }
  }
  lookup_time_total_ += local * fleet_->config_.calibration.dlfs.dir_lookup;
  co_await io_core_->compute(
      local * fleet_->config_.calibration.dlfs.dir_lookup +
      total * fleet_->config_.calibration.dlfs.bread_per_sample);
}

dlsim::Task<void> DlfsInstance::recover_chunk_slot(
    std::size_t slot, std::span<const EpochSequence::UnitPicks> picks,
    bool use_pf, std::unordered_set<std::uint32_t>* skipped,
    std::exception_ptr* fatal) {
  if (use_pf) prefetcher_->discard(slot);
  const EpochSequence::UnitPicks* pick = nullptr;
  for (const auto& pk : picks) {
    if (pk.unit_slot == slot) {
      pick = &pk;
      break;
    }
  }
  if (pick == nullptr) {
    // Pure read-ahead slot: forget it so a later bread re-fetches the
    // chunk unit once the node recovers — unless a live ViewBatch still
    // pins it: erasing would recycle (and under scribble_on_free poison)
    // huge-page chunks the application is reading through views. The
    // pinned unit stays; release_views() runs maybe_release_unit as usual.
    auto it = fetched_.find(slot);
    if (it == fetched_.end() || it->second.view_pins == 0) {
      fetched_.erase(slot);
    }
    co_return;
  }
  // The degraded entry persists across breads (a unit can span batch
  // boundaries); re-entry fills the newly-picked samples only. Empty
  // `buffers` is the degraded marker every consumer branches on.
  FetchedUnit& fu = fetched_[slot];
  if (fu.view_pins > 0 && !fu.buffers.empty()) {
    // Node crashed mid-batch while this unit's chunks are view-pinned.
    // The resident bytes are still valid client memory — dropping them
    // would yank data out from under live views — so the unit stays
    // resident and nothing needs recovering.
    co_return;
  }
  fu.buffers.clear();
  for (std::uint32_t i = 0; i < pick->count; ++i) {
    const auto& us = pick->unit->samples[pick->first_sample + i];
    const std::uint32_t id = us.sample_id;
    if (fu.per_sample.contains(id)) continue;
    if (!sample_reachable(id)) {
      skipped->insert(id);
      continue;
    }
    const SampleLocation& loc = fleet_->layout_[id];
    std::vector<mem::DmaBuffer> pieces;
    auto op = engine_->start_extent(ReadExtent{loc.nid, loc.offset, loc.len,
                                               nullptr, std::nullopt, &pieces,
                                               {}, sample_routes(id)});
    co_await engine_->await_op(*io_core_, op, 0);
    if (op->error()) {
      // Media/unknown faults stay fatal; the caller rethrows after its
      // latch settles. Either way this sample has nothing to deliver.
      if (!is_node_fault(op->error()) && !*fatal) *fatal = op->error();
      skipped->insert(id);
      continue;
    }
    fu.per_sample.emplace(id, std::move(pieces));
  }
}

dlsim::Task<void> DlfsInstance::fetch_chunk_units(
    std::span<const EpochSequence::UnitPicks> picks, bool use_pf,
    std::unordered_set<std::uint32_t>* skipped, std::exception_ptr* fatal,
    std::function<void(std::size_t)> on_unit_ready) {
  auto ready = [&on_unit_ready](std::size_t slot) {
    if (on_unit_ready) on_unit_ready(slot);
  };
  // Recovery runs once per slot per call; later picks of a slot already
  // handled this batch fall straight through to ready().
  std::unordered_set<std::size_t> degraded;

  if (use_pf) {
    // The daemon keeps a window of units in flight between bread calls;
    // here we only make sure every unit this batch needs has been issued
    // (the window may be shallower than the batch), then consume them in
    // slot order. ready() fires the moment a unit settles, while later
    // units are still in flight.
    prefetcher_->ensure_issued_through(picks.back().unit_slot);
    dlsim::CountdownLatch inj_done(node_->simulator(), 1);
    spawn_injected(&inj_done);
    for (const auto& pk : picks) {
      const std::size_t slot = pk.unit_slot;
      if (degraded.contains(slot)) {
        ready(slot);
        continue;
      }
      auto fit = fetched_.find(slot);
      if (fit != fetched_.end() && fit->second.buffers.empty()) {
        // Degraded in an earlier batch: recover this batch's picks too.
        co_await recover_chunk_slot(slot, picks, use_pf, skipped, fatal);
        degraded.insert(slot);
        ready(slot);
        continue;
      }
      if (fit == fetched_.end()) {
        bool recover = false;
        if (!node_up(pk.unit->nid)) {
          recover = true;
        } else {
          AcquiredUnit au = co_await prefetcher_->acquire(slot, *io_core_);
          if (std::exception_ptr err = au.first_error()) {
            // Read-ahead faults surface here, on the bread that owns the
            // unit: media errors stay fatal (the slot settles empty so
            // the caller's latch still drains before the rethrow);
            // node-level faults degrade to per-sample replica recovery.
            if (!is_node_fault(err)) {
              if (!*fatal) *fatal = err;
              fetched_[slot].buffers.clear();
              degraded.insert(slot);
              ready(slot);
              continue;
            }
            recover = true;
          } else if (au.extents.empty()) {  // cannot happen for chunk units
            recover = true;
          } else {
            fetched_[slot].buffers = std::move(au.extents.front().buffers);
          }
        }
        if (recover) {
          co_await recover_chunk_slot(slot, picks, use_pf, skipped, fatal);
          degraded.insert(slot);
          ready(slot);
          continue;
        }
      }
      ready(slot);
    }
    co_await inj_done.wait();
    co_return;
  }

  // Legacy synchronous path: one extent per unit this batch needs plus
  // initial_units of read-ahead, all overlapped; picked units fire
  // ready() from on_buffers_ready so copies start while later chunks
  // are still in flight.
  std::vector<ReadExtent> extents;
  std::vector<std::size_t> extent_slots;  // parallel to extents
  std::unordered_set<std::size_t> slots_fetching;
  auto add_fetch = [&](std::size_t slot, const ReadUnit* unit) {
    if (fetched_.contains(slot)) return false;
    if (!slots_fetching.insert(slot).second) return false;
    auto& fu = fetched_[slot];  // stable address (node-based map)
    extents.push_back(ReadExtent{unit->nid, unit->offset, unit->len, nullptr,
                                 std::nullopt, &fu.buffers, {}});
    extent_slots.push_back(slot);
    return true;
  };
  for (const auto& pk : picks) {
    const std::size_t slot = pk.unit_slot;
    if (degraded.contains(slot)) continue;
    auto fit = fetched_.find(slot);
    if (fit != fetched_.end() && fit->second.buffers.empty() &&
        !slots_fetching.contains(slot)) {
      // Degraded in an earlier batch: recover this batch's picks too.
      co_await recover_chunk_slot(slot, picks, use_pf, skipped, fatal);
      degraded.insert(slot);
      ready(slot);
      continue;
    }
    if (fit == fetched_.end() && !node_up(pk.unit->nid)) {
      co_await recover_chunk_slot(slot, picks, use_pf, skipped, fatal);
      degraded.insert(slot);
      ready(slot);
      continue;
    }
    if (add_fetch(slot, pk.unit)) {
      // `on_unit_ready` lives in this coroutine's frame until every
      // extent has been awaited below, so the pointer capture is safe.
      extents.back().on_buffers_ready = [cb = &on_unit_ready, slot] {
        if (*cb) (*cb)(slot);
      };
    } else if (fetched_.contains(slot) && !fetched_.at(slot).buffers.empty()) {
      // Already resident from earlier read-ahead: settled right away.
      ready(slot);
    }
  }
  // Synchronous read-ahead: fetch the next initial_units units along
  // with this batch so the device pipeline stays full across bread
  // calls (legacy mode; the async prefetcher replaces this).
  const std::size_t ra_end =
      std::min(seq_->num_units(),
               seq_->cursor_unit() + fleet_->config_.prefetch.initial_units);
  for (std::size_t slot = seq_->cursor_unit(); slot < ra_end; ++slot) {
    const ReadUnit* u = seq_->unit_at(slot);
    if (!node_up(u->nid)) continue;  // no point read-ahead to a dead node
    (void)add_fetch(slot, u);
  }
  if (extents.empty()) co_return;
  auto ops = engine_->start_extents(std::move(extents));
  dlsim::SimDuration inj = injected_;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    co_await engine_->await_op(*io_core_, ops[i], inj);
    inj = 0;
    if (!ops[i]->error()) continue;
    bool needs_recovery = false;
    bool settled_fatal = false;
    try {
      std::rethrow_exception(ops[i]->error());
    } catch (const IoError& e) {
      if (e.kind == IoErrorKind::kMedia) {
        if (!*fatal) *fatal = ops[i]->error();
        settled_fatal = true;
      } else {
        needs_recovery = true;  // co_await is illegal in a handler
      }
    } catch (...) {
      if (!*fatal) *fatal = ops[i]->error();
      settled_fatal = true;
    }
    const std::size_t slot = extent_slots[i];
    if (needs_recovery) {
      co_await recover_chunk_slot(slot, picks, use_pf, skipped, fatal);
      degraded.insert(slot);
      ready(slot);
    } else if (settled_fatal) {
      // The slot settles empty (possibly partially-filled buffers are
      // dropped) so the caller's latch drains before the rethrow.
      fetched_[slot].buffers.clear();
      degraded.insert(slot);
      ready(slot);
    }
  }
}

dlsim::Task<SampleHandle> DlfsInstance::open(std::string_view name) {
  const SampleEntry* e = nullptr;
  if (view_) {
    DirectoryView::Resolution r = view_->resolve_name(name);
    if (r.served == DirectoryView::Served::kRemote) {
      co_await charge_remote_lookup(r.owner_slot);
      e = fleet_->directory_.lookup(name);
      view_->complete_remote(r, e);
    } else {
      // kLocal / kCached / kNegative all answer from client-held state;
      // a negative hit in particular spares the repeat RPC for a name
      // the owner already reported absent.
      co_await charge_lookup();
      e = r.entry;
    }
  } else {
    co_await charge_lookup();
    e = fleet_->directory_.lookup(name);
  }
  if (e == nullptr) {
    throw std::invalid_argument("dlfs_open: no such sample '" +
                                std::string(name) + "'");
  }
  const auto id = fleet_->sample_id_of(name);
  assert(id.has_value());
  co_return SampleHandle{*id, e};
}

dlsim::Task<SampleHandle> DlfsInstance::open_id(std::uint32_t sample_id) {
  const SampleEntry* e = nullptr;
  if (view_ && sample_id < fleet_->directory_.num_samples()) {
    e = co_await resolve_id_sharded(sample_id);
  } else {
    // Out-of-range ids keep the classic path (and its error) in both
    // modes: the partition map cannot route an id it has no row for.
    co_await charge_lookup();
    e = fleet_->directory_.lookup_id(sample_id);
  }
  if (e == nullptr) {
    throw std::invalid_argument("dlfs_open: bad sample id " +
                                std::to_string(sample_id));
  }
  co_return SampleHandle{sample_id, e};
}

dlsim::Task<SampleHandle> DlfsInstance::open_file(std::string_view name) {
  co_await charge_lookup();
  const SampleEntry* e = fleet_->directory_.lookup_file(name);
  if (e == nullptr) {
    throw std::invalid_argument("dlfs_open: no such batched file '" +
                                std::string(name) + "'");
  }
  co_return SampleHandle{SampleHandle::kNoSample, e};
}

dlsim::Task<void> DlfsInstance::read(const SampleHandle& h,
                                     std::span<std::byte> dst) {
  const SampleEntry& e = *h.entry;
  if (dst.size() < e.len()) {
    throw std::invalid_argument("dlfs_read: destination too small");
  }
  if (h.sample_id == SampleHandle::kNoSample) {
    // File-oriented read, no sample cache. When the handle is the next
    // file of the installed streaming order (sequence_files), the
    // prefetch daemon already has its extent in flight — consume it;
    // out-of-order / unsequenced file reads go straight through the
    // engine as before.
    if (prefetcher_ && file_seq_active_ &&
        file_cursor_ < file_extents_.size() &&
        file_extents_[file_cursor_].nid == e.nid() &&
        file_extents_[file_cursor_].offset == e.offset() &&
        file_extents_[file_cursor_].len == e.len()) {
      const std::size_t slot = file_cursor_;
      ++file_cursor_;
      AcquiredUnit au = co_await prefetcher_->acquire(slot, *io_core_);
      if (!au.extents.empty() && au.extents.front().error) {
        std::rethrow_exception(au.extents.front().error);
      }
      if (au.extents.empty()) {
        co_await engine_->read_one(*io_core_, e.nid(), e.offset(), e.len(),
                                   dst.data());
      } else {
        CopyJob job;
        job.owned_pieces = std::move(au.extents.front().buffers);
        job.piece_lens =
            piece_lens_of(e.len(), fleet_->config_.chunk_bytes);
        job.dst = dst.data();
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
      }
    } else {
      co_await engine_->read_one(*io_core_, e.nid(), e.offset(), e.len(),
                                 dst.data());
    }
    ++samples_delivered_;
    bytes_delivered_ += e.len();
    co_return;
  }
  if (cache_->valid(h.sample_id)) {
    cache_->note_hit();
    auto views = cache_->pin(h.sample_id);
    CopyJob job;
    job.views = std::move(views);
    job.dst = dst.data();
    co_await engine_->run_copy_inline(*io_core_, std::move(job));
    cache_->unpin(h.sample_id);
  } else {
    cache_->note_miss();
    // A cooperating peer's DRAM beats any device: try it first, fall
    // back to the normal (replica-routed) read on a peer miss.
    const bool peer_served =
        co_await try_peer_read(h.sample_id, e.len(), dst.data());
    if (!peer_served) {
      co_await engine_->read_one(*io_core_, e.nid(), e.offset(), e.len(),
                                 dst.data(), h.sample_id,
                                 sample_routes(h.sample_id));
    }
  }
  ++samples_delivered_;
  bytes_delivered_ += e.len();
}

void DlfsInstance::sequence(std::uint64_t seed) {
  for (const auto& [slot, fu] : fetched_) {
    if (fu.view_pins > 0) {
      throw std::logic_error(
          "dlfs_sequence: zero-copy batches from the previous epoch are "
          "still pinned; release_views() them first");
    }
  }
  seq_.emplace(*fleet_->plan_, seed, client_idx_, fleet_->num_clients());
  fetched_.clear();
  acq_units_.clear();
  file_seq_active_ = false;
  reprobe_pending_ = true;  // epoch boundary: revalidate down nodes once
  if (prefetcher_) {
    // Chunk mode prefetches 1 unit = 1 chunk/edge extent (a chunk extent
    // is trimmed to its samples and fetched in full); sample-level and
    // unbatched modes fuse group_samples consecutive per-sample slots
    // into one unit and elide extents whose sample is already
    // cache-resident.
    const bool chunk = fleet_->config_.batching == BatchingMode::kChunkLevel;
    // With replication, per-sample extents (sample-level/unbatched units
    // and chunk-mode edge samples) carry their replica failover list so
    // read-ahead re-routes inside the engine instead of failing.
    EpochUnitProvider::RouteResolver routes;
    if (fleet_->config_.fault.replication.k > 1) {
      routes = [this](std::uint32_t id) { return sample_routes(id); };
    }
    // Peer-resident samples are elided from read-ahead like cache hits:
    // the consume path pulls them from the peer instead of the device.
    // Chunk units fetch their full extent regardless (their samples never
    // populate the sample cache), so chunk mode takes no probe.
    EpochUnitProvider::PeerProbe peers;
    if (fleet_->config_.peer_cache.enabled && !chunk) {
      peers = [this](std::uint32_t id) { return peer_resident(id); };
    }
    epoch_provider_ = std::make_unique<EpochUnitProvider>(
        *seq_, chunk ? 1u : fleet_->config_.prefetch.group_samples,
        chunk ? nullptr : cache_.get(), std::move(routes),
        std::move(peers));
    prefetcher_->start_epoch(epoch_provider_.get());
  }
}

const std::vector<std::string>& DlfsInstance::sequence_files(
    std::uint64_t seed) {
  const auto& per_slot = fleet_->record_files_;
  std::vector<const DlfsFleet::RecordFileInfo*> all;
  std::vector<std::uint16_t> owner;
  for (std::uint16_t s = 0; s < per_slot.size(); ++s) {
    for (const auto& f : per_slot[s]) {
      all.push_back(&f);
      owner.push_back(s);
    }
  }
  if (all.empty()) {
    throw std::logic_error(
        "sequence_files: fleet mounted without record_file_samples");
  }
  // Same contract as sequence(): every client passes the same seed, gets
  // the same global shuffle, and streams its strided share.
  Rng rng(seed);
  auto perm = rng.permutation(all.size());
  file_order_.clear();
  file_extents_.clear();
  file_cursor_ = 0;
  for (std::size_t i = client_idx_; i < perm.size();
       i += fleet_->num_clients()) {
    const DlfsFleet::RecordFileInfo* f = all[perm[i]];
    file_extents_.push_back(UnitExtent{owner[perm[i]], f->offset, f->len,
                                       file_extents_.size()});
    file_order_.push_back(f->name);
  }
  file_seq_active_ = true;
  if (prefetcher_) {
    file_provider_ = std::make_unique<ExtentListProvider>(file_extents_);
    prefetcher_->start_epoch(file_provider_.get());
  }
  return file_order_;
}

dlsim::Task<Batch> DlfsInstance::bread(std::size_t max_samples,
                                       std::span<std::byte> arena) {
  if (!seq_) {
    throw std::logic_error("dlfs_bread: call dlfs_sequence(seed) first");
  }
  co_await maybe_reprobe();
  const auto mode = fleet_->config_.batching;
  if (mode == BatchingMode::kNone) {
    co_return co_await bread_unbatched(max_samples, arena);
  }

  Batch batch;
  auto picks = seq_->take(max_samples);
  batch.end_of_epoch = picks.empty();
  if (picks.empty()) co_return batch;
  // The daemon serves whatever order was installed last; a record-file
  // streaming order (sequence_files) means bread fetches on demand.
  const bool use_pf = prefetcher_ != nullptr && !file_seq_active_;
  // Skip accounting: one entry per unreachable sample, no matter how
  // many paths (per-request fault, unit-level skip, precheck) notice it.
  std::unordered_set<std::uint32_t> skipped;

  // Frontend: directory lookups for every sample in the mini-batch.
  std::size_t total = 0;
  for (const auto& pk : picks) total += pk.count;
  co_await charge_frontend(picks);

  // Arena layout: samples packed in pick order.
  std::uint64_t arena_pos = 0;
  auto place = [&](std::uint32_t sample_id, std::uint32_t len)
      -> std::uint32_t {
    if (arena_pos + len > arena.size()) {
      throw std::invalid_argument("dlfs_bread: arena too small for batch");
    }
    const auto off = static_cast<std::uint32_t>(arena_pos);
    batch.samples.push_back(BatchSample{
        sample_id, fleet_->dataset_->sample(sample_id).class_id, off, len});
    arena_pos += len;
    return off;
  };

  if (mode == BatchingMode::kSampleLevel && use_pf) {
    // Route the batch through the prefetch daemon: misses come out of the
    // acquired read units (fused groups of per-sample extents, issued
    // ahead of the cursor between bread calls) and copy through the SCQ
    // pool; cache hits copy inline exactly as in the demand path — so
    // delivery order and bytes are identical with the daemon on or off.
    prefetcher_->ensure_issued_through(
        epoch_provider_->unit_of(picks.back().unit_slot));
    dlsim::CountdownLatch copy_latch(node_->simulator(), total);
    // Injected poll-loop compute (Fig. 7b) runs concurrently with the
    // acquires — the daemon keeps pumping I/O meanwhile.
    dlsim::CountdownLatch inj_done(node_->simulator(), 1);
    spawn_injected(&inj_done);
    std::exception_ptr fatal;
    for (const auto& pk : picks) {
      for (std::uint32_t i = 0; i < pk.count; ++i) {
        const auto& us = pk.unit->samples[pk.first_sample + i];
        const SampleLocation& loc = fleet_->layout_[us.sample_id];
        const std::size_t uslot = epoch_provider_->unit_of(pk.unit_slot);
        auto pu = acq_units_.find(uslot);
        if (pu == acq_units_.end()) {
          PendingUnit fresh;
          fresh.unit = co_await prefetcher_->acquire(uslot, *io_core_);
          const std::size_t begin = uslot * epoch_provider_->group();
          fresh.slots_left = static_cast<std::uint32_t>(
              std::min<std::size_t>(begin + epoch_provider_->group(),
                                    seq_->num_units()) -
              begin);
          pu = acq_units_.emplace(uslot, std::move(fresh)).first;
        }
        PendingUnit& pun = pu->second;
        AcquiredExtent* ax = nullptr;
        for (auto& x : pun.unit.extents) {
          if (x.key == us.sample_id) {
            ax = &x;
            break;
          }
        }
        if (cache_->valid(us.sample_id)) {
          // Hit: memcpy out of the cache; a prefetched duplicate (the
          // sample became resident after issue) just drops with the unit.
          cache_->note_hit();
          const auto off = place(us.sample_id, loc.len);
          CopyJob job;
          job.views = cache_->pin(us.sample_id);
          job.dst = arena.data() + off;
          co_await engine_->run_copy_inline(*io_core_, std::move(job));
          cache_->unpin(us.sample_id);
          copy_latch.count_down();
        } else if (ax != nullptr && !ax->error) {
          cache_->note_miss();
          const auto off = place(us.sample_id, loc.len);
          CopyJob job;
          job.owned_pieces = std::move(ax->buffers);
          job.piece_lens =
              piece_lens_of(loc.len, fleet_->config_.chunk_bytes);
          job.dst = arena.data() + off;
          job.cache_sample_id = us.sample_id;
          job.latch = &copy_latch;
          if (fleet_->config_.copy_threads == 0) {
            co_await engine_->run_copy_inline(*io_core_, std::move(job));
          } else {
            co_await engine_->enqueue_copy(std::move(job));
          }
        } else if (ax != nullptr && !is_node_fault(ax->error)) {
          // Read-ahead media/unknown errors surface on the bread that
          // owns the sample and stay fatal (after the latches settle).
          if (!fatal) fatal = ax->error;
          copy_latch.count_down();
        } else if (!fleet_->config_.peer_cache.enabled &&
                   !sample_reachable(us.sample_id)) {
          // No live copy anywhere: degrade by skipping just this sample.
          // (With the peer cache on, an unreachable sample may still be
          // servable from a peer's DRAM — decided below.)
          skipped.insert(us.sample_id);
          copy_latch.count_down();
        } else {
          // Elided at issue time (the sample was cache- or peer-resident
          // then but evicted since), or its read-ahead died on a node
          // fault while a replica — or the recovered primary — can still
          // serve it: serve from a peer if one holds it, else
          // demand-fetch with the failover route attached. The skipped
          // set keeps accounting exactly-once even when a sample falls
          // through both the peer and the replica attempts.
          if (arena_pos + loc.len > arena.size()) {
            throw std::invalid_argument(
                "dlfs_bread: arena too small for batch");
          }
          cache_->note_miss();
          const bool peer_served = co_await try_peer_read(
              us.sample_id, loc.len, arena.data() + arena_pos);
          if (peer_served) {
            (void)place(us.sample_id, loc.len);
          } else if (!sample_reachable(us.sample_id)) {
            skipped.insert(us.sample_id);
          } else {
            try {
              co_await engine_->read_one(*io_core_, loc.nid, loc.offset,
                                         loc.len, arena.data() + arena_pos,
                                         us.sample_id,
                                         sample_routes(us.sample_id));
              (void)place(us.sample_id, loc.len);
            } catch (const IoError& e) {
              if (e.kind == IoErrorKind::kMedia) {
                if (!fatal) fatal = std::current_exception();
              } else {
                skipped.insert(us.sample_id);
              }
            }
          }
          copy_latch.count_down();
        }
        if (--pun.slots_left == 0) acq_units_.erase(pu);
      }
    }
    co_await inj_done.wait();
    co_await copy_latch.wait();
    if (fatal) std::rethrow_exception(fatal);
  } else if (mode == BatchingMode::kSampleLevel) {
    // One request per sample, overlapped up to the queue depth; cache hits
    // are served with a memcpy only. Samples on an unavailable node are
    // skipped (cache hits still serve); per-request node faults surfacing
    // mid-batch drop just their sample.
    std::vector<ReadExtent> extents;
    std::vector<std::uint32_t> extent_samples;  // parallel: sample ids
    extents.reserve(total);
    for (const auto& pk : picks) {
      for (std::uint32_t i = 0; i < pk.count; ++i) {
        const auto& us = pk.unit->samples[pk.first_sample + i];
        const SampleLocation& loc = fleet_->layout_[us.sample_id];
        if (cache_->valid(us.sample_id)) {
          cache_->note_hit();
          const auto off = place(us.sample_id, loc.len);
          CopyJob job;
          job.views = cache_->pin(us.sample_id);
          job.dst = arena.data() + off;
          co_await engine_->run_copy_inline(*io_core_, std::move(job));
          cache_->unpin(us.sample_id);
        } else if (!fleet_->config_.peer_cache.enabled &&
                   !sample_reachable(us.sample_id)) {
          skipped.insert(us.sample_id);
        } else {
          cache_->note_miss();
          bool peer_served = false;
          if (fleet_->config_.peer_cache.enabled) {
            if (arena_pos + loc.len > arena.size()) {
              throw std::invalid_argument(
                  "dlfs_bread: arena too small for batch");
            }
            peer_served = co_await try_peer_read(us.sample_id, loc.len,
                                                 arena.data() + arena_pos);
          }
          if (peer_served) {
            (void)place(us.sample_id, loc.len);
          } else if (!sample_reachable(us.sample_id)) {
            // Peer miss and no live replica: skip exactly once.
            skipped.insert(us.sample_id);
          } else {
            const auto off = place(us.sample_id, loc.len);
            extents.push_back(ReadExtent{loc.nid, loc.offset, loc.len,
                                         arena.data() + off, us.sample_id,
                                         nullptr, {},
                                         sample_routes(us.sample_id)});
            extent_samples.push_back(us.sample_id);
          }
        }
      }
    }
    if (!extents.empty()) {
      auto ops = engine_->start_extents(std::move(extents));
      dlsim::SimDuration inj = injected_;
      std::exception_ptr fatal;
      std::unordered_set<std::uint32_t> failed_ids;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        co_await engine_->await_op(*io_core_, ops[i], inj);
        inj = 0;
        if (!ops[i]->error()) continue;
        try {
          std::rethrow_exception(ops[i]->error());
        } catch (const IoError& e) {
          if (e.kind == IoErrorKind::kMedia) {
            if (!fatal) fatal = ops[i]->error();
          } else {
            failed_ids.insert(extent_samples[i]);
          }
        } catch (...) {
          if (!fatal) fatal = ops[i]->error();
        }
      }
      if (fatal) std::rethrow_exception(fatal);
      if (!failed_ids.empty()) {
        skipped.insert(failed_ids.begin(), failed_ids.end());
        std::erase_if(batch.samples, [&](const BatchSample& s) {
          return failed_ids.contains(s.sample_id);
        });
      }
    }
  } else {
    // Chunk-level: fetch data chunks (and edge-sample extents); as
    // each chunk lands, its picked samples start copying out immediately
    // (copy threads run while later chunks are still in flight).
    dlsim::CountdownLatch latch(node_->simulator(), total);

    // Arena placement happens up front, in pick order, so sample offsets
    // are known before the copies are scheduled.
    struct PendingCopy {
      const UnitSample* us;
      std::uint32_t arena_off;
    };
    std::unordered_map<std::size_t, std::vector<PendingCopy>> copies_by_slot;
    for (const auto& pk : picks) {
      auto& list = copies_by_slot[pk.unit_slot];
      for (std::uint32_t i = 0; i < pk.count; ++i) {
        const auto& us = pk.unit->samples[pk.first_sample + i];
        list.push_back(PendingCopy{&us, place(us.sample_id, us.len)});
      }
    }

    // With a copy pool, a settled unit's copies are scheduled as a
    // detached process (channel pushes never stall the I/O loop) and run
    // on the copy threads while later chunks are still in flight. Without
    // a pool the frontend core itself copies — serially, after the fetch
    // (it cannot poll and memcpy at once). Degraded units copy out of
    // their per-sample replica buffers; samples with nothing recovered
    // (unreachable, or fatal faults pending rethrow) settle their latch
    // slots here so the wait below always drains.
    std::vector<std::pair<std::size_t, std::vector<PendingCopy>>> inline_work;
    auto schedule_copies = [this, &arena, &latch, &inline_work](
                               std::size_t slot,
                               std::vector<PendingCopy> list) {
      FetchedUnit& fu = fetched_.at(slot);
      fu.delivered += static_cast<std::uint32_t>(list.size());
      std::erase_if(list, [&](const PendingCopy& pc) {
        const bool gone = fu.buffers.empty() &&
                          !fu.per_sample.contains(pc.us->sample_id);
        if (gone) latch.count_down();
        return gone;
      });
      if (list.empty()) return;
      if (fleet_->config_.copy_threads == 0) {
        inline_work.emplace_back(slot, std::move(list));
        return;
      }
      node_->simulator().spawn_daemon(
          [](DlfsInstance* self, FetchedUnit* fu,
             std::vector<PendingCopy> list, std::span<std::byte> arena,
             dlsim::CountdownLatch* latch) -> dlsim::Task<void> {
            const std::uint64_t chunk = self->fleet_->config_.chunk_bytes;
            for (const auto& pc : list) {
              CopyJob job;
              job.views =
                  fu->buffers.empty()
                      ? window_views(fu->per_sample.at(pc.us->sample_id),
                                     chunk, 0, pc.us->len)
                      : window_views(fu->buffers, chunk,
                                     pc.us->offset_in_unit, pc.us->len);
              job.dst = arena.data() + pc.arena_off;
              job.latch = latch;
              job.origin = self->io_core_;
              co_await self->engine_->enqueue_copy(std::move(job));
            }
          }(this, &fu, std::move(list), arena, &latch),
          "bread-copies");
    };

    // Shared batch assembly (also backs bread_views): every picked unit
    // settles — chunk buffers resident, or degraded with surviving
    // samples recovered into per-sample replica buffers — and fires its
    // copies the moment it does.
    std::exception_ptr fatal;
    auto on_ready = [&](std::size_t slot) {
      auto it = copies_by_slot.find(slot);
      if (it == copies_by_slot.end() || it->second.empty()) return;
      auto list = std::move(it->second);
      it->second.clear();
      schedule_copies(slot, std::move(list));
    };
    co_await fetch_chunk_units(picks, use_pf, &skipped, &fatal, on_ready);
    for (auto& [slot, list] : inline_work) {
      FetchedUnit& fu = fetched_.at(slot);
      for (const auto& pc : list) {
        CopyJob job;
        job.views =
            fu.buffers.empty()
                ? window_views(fu.per_sample.at(pc.us->sample_id),
                               fleet_->config_.chunk_bytes, 0, pc.us->len)
                : window_views(fu.buffers, fleet_->config_.chunk_bytes,
                               pc.us->offset_in_unit, pc.us->len);
        job.dst = arena.data() + pc.arena_off;
        job.latch = &latch;
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
      }
    }
    co_await latch.wait();
    if (fatal) std::rethrow_exception(fatal);
    // Release fully-consumed units.
    for (const auto& pk : picks) maybe_release_unit(pk.unit_slot);
    if (!skipped.empty()) {
      std::erase_if(batch.samples, [&](const BatchSample& s) {
        return skipped.contains(s.sample_id);
      });
    }
  }

  batch.bytes = arena_pos;
  batch.samples_skipped = skipped.size();
  if (batch.samples_skipped > 0) {
    // Skipped samples left holes in the arena; the batch's byte count is
    // what was actually delivered.
    batch.bytes = 0;
    for (const auto& s : batch.samples) batch.bytes += s.len;
    samples_skipped_ += batch.samples_skipped;
  }
  samples_delivered_ += batch.samples.size();
  bytes_delivered_ += batch.bytes;
  co_return batch;
}

void DlfsInstance::maybe_release_unit(std::size_t slot) {
  auto it = fetched_.find(slot);
  if (it == fetched_.end()) return;
  const ReadUnit* unit = seq_ ? seq_->unit_at(slot) : nullptr;
  if (unit == nullptr) return;
  if (it->second.view_pins == 0 &&
      it->second.delivered == unit->samples.size()) {
    fetched_.erase(it);
  }
}

dlsim::Task<ViewBatch> DlfsInstance::bread_views(std::size_t max_samples) {
  if (!seq_) {
    throw std::logic_error("dlfs_bread: call dlfs_sequence(seed) first");
  }
  if (fleet_->config_.batching != BatchingMode::kChunkLevel) {
    throw std::logic_error(
        "bread_views requires chunk-level batching (samples must live in "
        "resident data chunks)");
  }
  co_await maybe_reprobe();
  ViewBatch batch;
  auto picks = seq_->take(max_samples);
  batch.end_of_epoch = picks.empty();
  if (picks.empty()) co_return batch;
  const bool use_pf = prefetcher_ != nullptr && !file_seq_active_;

  co_await charge_frontend(picks);

  // One entry per unreachable sample (never double-counted between the
  // unit-level and per-sample paths).
  std::unordered_set<std::uint32_t> skipped;
  // Shared batch assembly (also backs bread): every picked unit settles —
  // chunk buffers resident, or degraded with surviving samples recovered
  // into per-sample replica buffers. No per-unit callback: views are
  // handed out after everything settles (handing out a span costs no
  // CPU, so there is nothing to overlap).
  std::exception_ptr fatal;
  co_await fetch_chunk_units(picks, use_pf, &skipped, &fatal, {});
  // Fatal (media/unknown) read-ahead faults abort the batch before any
  // unit is pinned, exactly like the copy path's post-latch rethrow.
  if (fatal) std::rethrow_exception(fatal);

  // Degraded samples are the only ones that copy on the views path:
  // their replica bytes move into one batch-owned buffer so the handed-
  // out spans survive release of the DMA buffers. Pre-size it before
  // the first span is taken — growth would invalidate earlier views.
  std::size_t fallback_bytes = 0;
  for (const auto& pk : picks) {
    const FetchedUnit& fu = fetched_.at(pk.unit_slot);
    if (!fu.buffers.empty()) continue;
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const auto& us = pk.unit->samples[pk.first_sample + i];
      if (fu.per_sample.contains(us.sample_id)) fallback_bytes += us.len;
    }
  }
  batch.fallback_storage.resize(fallback_bytes);
  std::size_t fallback_pos = 0;

  for (const auto& pk : picks) {
    FetchedUnit& fu = fetched_.at(pk.unit_slot);
    ++fu.view_pins;
    if (fu.view_pins == 1 && prefetcher_) {
      // First pin: the unit's chunks now sit outside the prefetcher's
      // window but still occupy the pool; tell the arbiter.
      prefetcher_->note_view_pins(
          static_cast<std::int64_t>(fu.buffers.size()));
    }
    batch.pinned_slots.push_back(pk.unit_slot);
    fu.delivered += pk.count;
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const auto& us = pk.unit->samples[pk.first_sample + i];
      ViewSample vs;
      vs.sample_id = us.sample_id;
      vs.class_id = fleet_->dataset_->sample(us.sample_id).class_id;
      vs.len = us.len;
      if (!fu.buffers.empty()) {
        vs.pieces = window_views(fu.buffers, fleet_->config_.chunk_bytes,
                                 us.offset_in_unit, us.len);
        bytes_zero_copy_ += us.len;
      } else {
        // Degraded unit: samples with no reachable copy were already
        // counted; recovered ones copy into the batch-owned fallback
        // (charged like any inline copy) and free their DMA buffers.
        auto rec = fu.per_sample.find(us.sample_id);
        if (rec == fu.per_sample.end()) continue;
        CopyJob job;
        job.owned_pieces = std::move(rec->second);
        job.piece_lens = piece_lens_of(us.len, fleet_->config_.chunk_bytes);
        job.dst = batch.fallback_storage.data() + fallback_pos;
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
        fu.per_sample.erase(rec);
        vs.pieces = {std::span<const std::byte>(
            batch.fallback_storage.data() + fallback_pos, us.len)};
        fallback_pos += us.len;
      }
      batch.bytes += us.len;
      batch.samples.push_back(std::move(vs));
      // Handing out a view costs no extra CPU: the frontend's
      // bread_per_sample charge already covers per-sample accounting, and
      // span construction replaces the copy-job setup included there.
    }
  }
  batch.samples_skipped = skipped.size();
  batch.token = 1;
  samples_delivered_ += batch.samples.size();
  samples_skipped_ += batch.samples_skipped;
  bytes_delivered_ += batch.bytes;
  co_return batch;
}

void DlfsInstance::release_views(ViewBatch& batch) {
  if (batch.token == 2) {
    throw std::logic_error("release_views: batch already released");
  }
  if (batch.token == 0) return;  // empty batch (end of epoch)
  batch.token = 2;
  for (std::size_t slot : batch.pinned_slots) {
    auto it = fetched_.find(slot);
    if (it == fetched_.end()) continue;
    if (it->second.view_pins == 0) {
      throw std::logic_error("release_views: pin underflow");
    }
    if (--it->second.view_pins == 0 && prefetcher_) {
      // Last pin gone: the chunks leave the view-pinned pool share
      // (whether or not the unit itself is released below).
      prefetcher_->note_view_pins(
          -static_cast<std::int64_t>(it->second.buffers.size()));
    }
    maybe_release_unit(slot);
  }
  batch.pinned_slots.clear();
  batch.samples.clear();
  batch.fallback_storage.clear();
  batch.fallback_storage.shrink_to_fit();
}

dlsim::Task<Batch> DlfsInstance::bread_unbatched(std::size_t max_samples,
                                                 std::span<std::byte> arena) {
  // DLFS-Base: each sample is a synchronous dlfs_read. With the daemon
  // on, the reads themselves still land one at a time in epoch order —
  // but the device works ahead of the cursor between them, so the
  // per-sample wait collapses to a memcpy once the window is warm.
  Batch batch;
  auto picks = seq_->take(max_samples);
  batch.end_of_epoch = picks.empty();
  const bool use_pf = prefetcher_ != nullptr && !file_seq_active_;
  if (use_pf && !picks.empty()) {
    prefetcher_->ensure_issued_through(
        epoch_provider_->unit_of(picks.back().unit_slot));
  }
  std::uint64_t arena_pos = 0;
  // One entry per unreachable sample, whichever path notices it.
  std::unordered_set<std::uint32_t> skipped;
  for (const auto& pk : picks) {
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const auto& us = pk.unit->samples[pk.first_sample + i];
      const SampleLocation& loc = fleet_->layout_[us.sample_id];
      if (arena_pos + loc.len > arena.size()) {
        throw std::invalid_argument("dlfs_bread: arena too small for batch");
      }
      PendingUnit* pun = nullptr;
      if (use_pf) {
        const std::size_t uslot = epoch_provider_->unit_of(pk.unit_slot);
        auto pu = acq_units_.find(uslot);
        if (pu == acq_units_.end()) {
          PendingUnit fresh;
          fresh.unit = co_await prefetcher_->acquire(uslot, *io_core_);
          const std::size_t begin = uslot * epoch_provider_->group();
          fresh.slots_left = static_cast<std::uint32_t>(
              std::min<std::size_t>(begin + epoch_provider_->group(),
                                    seq_->num_units()) -
              begin);
          pu = acq_units_.emplace(uslot, std::move(fresh)).first;
        }
        pun = &pu->second;
      }
      AcquiredExtent* ax = nullptr;
      if (pun != nullptr) {
        for (auto& x : pun->unit.extents) {
          if (x.key == us.sample_id) {
            ax = &x;
            break;
          }
        }
      }
      bool served = false;
      if (cache_->valid(us.sample_id)) {
        SampleHandle h{us.sample_id,
                       fleet_->directory_.lookup_id(us.sample_id)};
        co_await charge_lookup();
        co_await read(h, arena.subspan(arena_pos, loc.len));
        served = true;
      } else if (ax != nullptr && !ax->error) {
        // The daemon already read this sample: the "read" is the
        // directory walk plus a memcpy out of the prefetched chunks.
        (void)fleet_->directory_.lookup_id(us.sample_id);
        co_await charge_lookup();
        cache_->note_miss();
        CopyJob job;
        job.owned_pieces = std::move(ax->buffers);
        job.piece_lens = piece_lens_of(loc.len, fleet_->config_.chunk_bytes);
        job.dst = arena.data() + arena_pos;
        job.cache_sample_id = us.sample_id;
        co_await engine_->run_copy_inline(*io_core_, std::move(job));
        ++samples_delivered_;
        bytes_delivered_ += loc.len;
        served = true;
      } else if (ax != nullptr && !is_node_fault(ax->error)) {
        std::rethrow_exception(ax->error);
      } else if (!sample_reachable(us.sample_id) &&
                 !peer_resident(us.sample_id)) {
        skipped.insert(us.sample_id);
      } else {
        // Demand read (never prefetched, elided for a peer, or read-ahead
        // died on a node fault while a live copy remains): read() tries
        // the peer cache first and carries the replica failover route. A
        // peer-resident but unreachable sample that then loses the peer
        // race fails the engine read with a node fault — caught below, so
        // the skipped set still counts it exactly once.
        SampleHandle h{us.sample_id,
                       fleet_->directory_.lookup_id(us.sample_id)};
        co_await charge_lookup();
        try {
          co_await read(h, arena.subspan(arena_pos, loc.len));
          served = true;
        } catch (const IoError& e) {
          if (e.kind == IoErrorKind::kMedia) throw;
          skipped.insert(us.sample_id);
        }
      }
      if (pun != nullptr && --pun->slots_left == 0) {
        acq_units_.erase(epoch_provider_->unit_of(pk.unit_slot));
      }
      if (!served) continue;
      batch.samples.push_back(BatchSample{
          us.sample_id, fleet_->dataset_->sample(us.sample_id).class_id,
          static_cast<std::uint32_t>(arena_pos), loc.len});
      arena_pos += loc.len;
    }
  }
  batch.bytes = arena_pos;
  batch.samples_skipped = skipped.size();
  samples_skipped_ += batch.samples_skipped;
  // read() / the inline copies above already counted samples/bytes.
  co_return batch;
}

}  // namespace dlfs::core
