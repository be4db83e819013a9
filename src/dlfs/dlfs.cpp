#include "dlfs/dlfs.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace dlfs::core {

namespace {

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

/// Sample-level prefetch: consecutive epoch slots fused into one read
/// unit, so tiny per-sample extents amortize the window bookkeeping
/// (chunk mode is always 1 unit = 1 chunk).
constexpr std::uint32_t kSampleGroup = 8;

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
    if (up) (void)prefetcher_->reissue_failed();
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
  prefetcher_ = std::make_unique<Prefetcher>(
      node.simulator(), *engine_, *pool_, cfg.chunk_bytes, cfg.prefetch,
      "dlfs-prefetch-" + std::to_string(client_idx));
  engine_->set_pressure_reliever(
      [this] { return prefetcher_->relieve_pressure(); });
  if (cfg.peer_cache.enabled) {
    engine_->set_peer_puller(
        [this](std::uint32_t id, std::uint32_t len, mem::DmaBuffer* into) {
          return pull_from_peer(id, len, into);
        });
    // Cooperative peer cache: mirror V-bit flips into the fleet's cache
    // directory so other instances, co-located or remote, can find this
    // cache. The listener runs inside cache slices, so it must stay
    // suspension-free — directory updates are plain bookkeeping (the
    // model's stand-in for residency deltas piggybacked on existing
    // metadata traffic).
    cache_->set_residency_listener(
        [this, node = peer_node()](std::size_t id, bool resident) {
          if (resident) {
            fleet_->peer_directory_->advertise(client_idx_, node, id);
          } else {
            fleet_->peer_directory_->retract(client_idx_, id);
          }
        });
  }
}

DlfsInstance::~DlfsInstance() {
  // Invalidate the repair daemon and any pending death timers. Do NOT set
  // repair_wake_: a frame parked on it would resume into a destroyed
  // member; the alive token (checked after every suspension) is the only
  // teardown signal.
  *repair_alive_ = false;
  // Leave the cooperative cache before members start dying: advertised
  // residency must vanish from the fleet directory, so no other instance
  // probes this cache again (the cache tears entries down without firing
  // the listener).
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
  if (recovered > 0) (void)prefetcher_->reissue_failed();
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

void DlfsInstance::start_injected() {
  // Injected poll-loop compute (Fig. 7b) overlaps the fetches — the
  // daemon keeps pumping I/O meanwhile, so the compute hides under the
  // batch's stalls exactly as it hid under the synchronous pump's poll
  // loop.
  io_core_->charge(injected_);
  injected_end_ = node_->simulator().now() + injected_;
}

void DlfsInstance::occupy_io_core(dlsim::SimDuration d) {
  if (node_->simulator().now() < injected_end_) injected_end_ += d;
}

dlsim::Task<void> DlfsInstance::injected_done() {
  dlsim::Simulator& sim = node_->simulator();
  if (sim.now() < injected_end_) co_await sim.delay(injected_end_ - sim.now());
}

dlsim::Task<std::vector<dlsim::SimDuration>> DlfsInstance::resolve_frontend(
    std::span<const EpochSequence::UnitPicks> picks) {
  const dlsim::SimDuration walk = fleet_->config_.calibration.dlfs.dir_lookup;
  const dlsim::SimDuration per_sample =
      fleet_->config_.calibration.dlfs.bread_per_sample;
  std::vector<dlsim::SimDuration> cpu;
  for (const auto& pk : picks) {
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const std::uint32_t id = pk.unit->samples[pk.first_sample + i].sample_id;
      bool local = true;  // resolved at the local walk rate
      if (view_ == nullptr) {
        (void)fleet_->directory_.lookup_id(id);  // real tree walk
      } else {
        // Sharded mount: resident/cached ids stay at the local rate;
        // foreign ids pay one metadata RPC and fill the lookup cache, so
        // a steady epoch's bread converges to mostly cache hits.
        DirectoryView::Resolution r = view_->resolve_id(id);
        if (r.served == DirectoryView::Served::kRemote) {
          co_await charge_remote_lookup(r.owner_slot);
          view_->complete_remote(r, fleet_->directory_.lookup_id(id));
          local = false;
        }
      }
      if (local) lookup_time_total_ += walk;
      cpu.push_back((local ? walk : 0) + per_sample);
    }
  }
  co_return cpu;
}

dlsim::Task<void> DlfsInstance::charge_frontend(dlsim::SimDuration cpu) {
  occupy_io_core(cpu);
  co_await io_core_->compute(cpu);
}

/// Faults one batched read noticed while settling its units.
struct DlfsInstance::BatchFaults {
  std::uint64_t skipped = 0;  // samples with no reachable copy
  // The first media/unknown fault, rethrown once the batch's copies drain.
  std::exception_ptr fatal{};

  /// Node faults skip the sample; media and unknown faults are fatal.
  void note(const std::exception_ptr& err) {
    if (is_node_fault(err)) {
      ++skipped;
    } else if (!fatal) {
      fatal = err;
    }
  }
};

dlsim::Task<DlfsInstance::HeldUnit*> DlfsInstance::acquire_pick(
    EpochSequence::UnitPicks pk, BatchFaults* faults) {
  const bool chunk_mode =
      fleet_->config_.batching == BatchingMode::kChunkLevel;
  const std::size_t slot = unit_of(pk.unit_slot);
  auto [it, fresh] = held_.try_emplace(slot);
  HeldUnit* hu = &it->second;
  if (fresh) {
    const std::size_t begin = slot * group_;
    const std::size_t end =
        std::min<std::size_t>(begin + group_, seq_->num_units());
    for (std::size_t s = begin; s < end; ++s) {
      hu->remaining +=
          static_cast<std::uint32_t>(seq_->unit_at(s)->samples.size());
    }
    if (chunk_mode && !node_up(pk.unit->nid)) {
      // The chunk's node is down: drop its read-ahead, recover below.
      prefetcher_->discard(slot);
    } else {
      std::vector<ExtentOpPtr> ops =
          co_await prefetcher_->acquire(slot, *io_core_);
      std::vector<std::uint32_t> issued;
      // Read-ahead faults surface here, on the bread that owns the unit.
      // A node fault leaves the bytes to recovery (chunk units) or to the
      // demand read (samples); a media error stays fatal, and a chunk
      // unit that hit one settles empty.
      for (ExtentOpPtr& op : ops) {
        issued.push_back(static_cast<std::uint32_t>(op->extent.key));
        if (op->error() && is_node_fault(op->error())) continue;
        if (!chunk_mode) {
          hu->samples.emplace(issued.back(), std::move(op));
        } else if (op->error()) {
          faults->note(op->error());
          co_return hu;
        } else {
          hu->chunk = op->take_buffers();
        }
      }
      if (!chunk_mode) co_await read_elided(begin, end, std::move(issued), hu);
    }
  }
  if (!chunk_mode || !hu->chunk.empty()) co_return hu;
  // Degraded chunk unit (now or in an earlier batch): re-read this
  // pick's samples from their replicas or the recovered primary, all of
  // them posted before any is awaited.
  std::vector<ReadExtent> reads;
  for (std::uint32_t i = 0; i < pk.count; ++i) {
    const std::uint32_t id = pk.unit->samples[pk.first_sample + i].sample_id;
    if (!sample_reachable(id)) {
      ++faults->skipped;
      continue;
    }
    reads.push_back(sample_read(id, PeerServe::kNone));
  }
  std::vector<ExtentOpPtr> ops = co_await read_together(std::move(reads));
  for (ExtentOpPtr& op : ops) {
    if (op->error()) {
      faults->note(op->error());
    } else {
      hu->samples.emplace(static_cast<std::uint32_t>(op->extent.key),
                          std::move(op));
    }
  }
  co_return hu;
}

dlsim::Task<std::vector<ExtentOpPtr>> DlfsInstance::read_together(
    std::vector<ReadExtent> reads) {
  std::vector<ExtentOpPtr> ops = engine_->start_extents(std::move(reads));
  for (const ExtentOpPtr& op : ops) co_await engine_->await_op(*io_core_, op);
  co_return ops;
}

dlsim::Task<void> DlfsInstance::read_elided(std::size_t begin,
                                            std::size_t end,
                                            std::vector<std::uint32_t> issued,
                                            HeldUnit* hu) {
  // Read-ahead skipped a sample the cache or a co-located holder had at
  // issue time. One the cache still holds stays pinned until its pick;
  // one that is gone now gets its sample_read, and every such read is
  // posted before any is awaited.
  using enum PeerServe;
  std::vector<ReadExtent> reads;
  for (std::size_t s = begin; s < end; ++s) {
    const std::uint32_t id = seq_->unit_at(s)->samples.front().sample_id;
    if (std::ranges::find(issued, id) != issued.end()) continue;
    if (cache_->valid(id)) {
      hu->cached.emplace(id, cache_->pin(id));
      continue;
    }
    const PeerServe peer = peer_route(id);
    if (peer == kLocal || (peer == kNone && !sample_reachable(id))) continue;
    reads.push_back(sample_read(id, peer));
  }
  if (reads.empty()) co_return;
  std::vector<ExtentOpPtr> ops = co_await read_together(std::move(reads));
  for (ExtentOpPtr& op : ops) {
    // As for read-ahead, a node fault is left to the demand read, and a
    // failed op's landed chunks go back to the pool.
    if (op->error()) {
      if (is_node_fault(op->error())) continue;
      (void)op->take_buffers();
    }
    hu->samples.emplace(static_cast<std::uint32_t>(op->extent.key),
                        std::move(op));
  }
}

std::vector<std::span<const std::byte>> DlfsInstance::held_views(
    const HeldUnit& hu, const UnitSample& us) const {
  const std::uint64_t chunk = fleet_->config_.chunk_bytes;
  if (!hu.chunk.empty()) {
    return window_views(hu.chunk, chunk, us.offset_in_unit, us.len);
  }
  auto x = hu.samples.find(us.sample_id);
  if (x == hu.samples.end()) return {};
  return window_views(x->second->buffers(), chunk, 0, us.len);
}

dlsim::Task<bool> DlfsInstance::demand_read(std::uint32_t sample_id,
                                            std::byte* dst) {
  if (cache_->valid(sample_id)) {
    cache_->note_hit();
    CopyJob job;
    job.views = cache_->pin(sample_id);
    job.unpin_sample_id = sample_id;
    job.dst = dst;
    occupy_io_core(engine_->copy_cost(job));
    co_await engine_->run_copy_inline(*io_core_, std::move(job));
    co_return true;
  }
  // The cost-free probe first: with no peer to serve it and no live copy
  // there is nothing to read.
  using enum PeerServe;
  const PeerServe peer = peer_route(sample_id);
  if (peer == kNone && !sample_reachable(sample_id)) co_return false;
  cache_->note_miss();
  const SampleLocation& loc = fleet_->layout_[sample_id];
  if (peer == kLocal) {
    // A holder on this node has its resident copy one pin plus one DRAM
    // copy away: no fabric, and no tenant admission (same treatment as
    // own-cache hits: host-memory copies never compete with other tenants
    // for the devices or the wire).
    const std::uint32_t h =
        fleet_->peer_directory_->find(sample_id, client_idx_, peer_node())
            .client;
    SampleCache& holder = *fleet_->instances_[h]->cache_;
    CopyJob job;
    job.views = holder.pin(sample_id);
    job.dst = dst;
    assert(!job.views.empty());
    const dlsim::SimDuration serve =
        fleet_->config_.calibration.dlfs.peer_serve;
    occupy_io_core(serve + engine_->copy_cost(job));
    co_await io_core_->compute(serve);
    co_await engine_->run_copy_inline(*io_core_, std::move(job));
    holder.unpin(sample_id);
    ++peer_hits_local_;
    peer_bytes_ += loc.len;
    co_return true;
  }
  // Otherwise the extent read-ahead would issue: a pull from the remote
  // holder, then the device, then its replicas — or the device and its
  // replicas — with every failover inside the engine.
  ExtentOpPtr op = engine_->start_extent(sample_read(sample_id, peer));
  co_await engine_->await_op(*io_core_, op);
  if (op->error()) std::rethrow_exception(op->error());
  // A landed pull is a run of one sample.
  dlsim::CountdownLatch copied(node_->simulator(), 0);
  CopyJob run;
  co_await deliver(std::move(op), dst, &copied, &run);
  co_await enqueue_run(&run, &copied);
  co_await copied.wait();
  co_return true;
}

dlsim::Task<void> DlfsInstance::deliver(ExtentOpPtr x, std::byte* dst,
                                        dlsim::CountdownLatch* copies,
                                        CopyJob* run) {
  const auto id = static_cast<std::uint32_t>(x->extent.key);
  const std::uint32_t len = fleet_->layout_[id].len;
  CopyJob job;
  job.owned_pieces = x->take_buffers();
  job.piece_lens = piece_lens_of(len, fleet_->config_.chunk_bytes);
  job.dst = dst;
  if (x->extent.cls == HopClass::kPeer) {
    // A landed pull is never cached, so the hit mix holds; its landing
    // chunk returns to the pool after the copy. It joins the caller's open
    // run, whose samples sit side by side in the arena, and the caller
    // sends the run to the copy stage as one job.
    if (run->owned_pieces.empty()) {
      *run = std::move(job);
    } else {
      assert(run->dst + std::accumulate(run->piece_lens.begin(),
                                        run->piece_lens.end(),
                                        std::uint64_t{0}) ==
             dst);
      std::move(job.owned_pieces.begin(), job.owned_pieces.end(),
                std::back_inserter(run->owned_pieces));
      run->piece_lens.insert(run->piece_lens.end(), job.piece_lens.begin(),
                             job.piece_lens.end());
      ++run->samples;
    }
    ++peer_hits_remote_;
    peer_bytes_ += len;
    co_return;
  }
  job.cache_sample_id = id;
  co_await copy_out(std::move(job), copies);
}

dlsim::Task<void> DlfsInstance::enqueue_run(CopyJob* run,
                                            dlsim::CountdownLatch* copies) {
  if (run->owned_pieces.empty()) co_return;
  co_await copy_out(std::exchange(*run, CopyJob()), copies);
}

dlsim::Task<void> DlfsInstance::copy_out(CopyJob job,
                                         dlsim::CountdownLatch* copies) {
  if (fleet_->config_.copy_threads == 0) {
    occupy_io_core(engine_->copy_cost(job));
    co_await engine_->run_copy_inline(*io_core_, std::move(job));
    co_return;
  }
  job.origin = io_core_;
  job.latch = copies;
  copies->add(1);
  co_await engine_->enqueue_copy(std::move(job));
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

dlsim::Task<void> DlfsInstance::read(const SampleHandle& h,
                                     std::span<std::byte> dst) {
  const SampleEntry& e = *h.entry;
  if (dst.size() < e.len()) {
    throw std::invalid_argument("dlfs_read: destination too small");
  }
  const bool served = co_await demand_read(h.sample_id, dst.data());
  if (!served) throw IoError(e.nid(), e.offset(), IoErrorKind::kNodeDown);
  ++samples_delivered_;
  bytes_delivered_ += e.len();
}

void DlfsInstance::sequence(std::uint64_t seed) {
  for (const auto& [slot, hu] : held_) {
    if (hu.view_pins > 0) {
      throw std::logic_error(
          "dlfs_sequence: zero-copy batches from the previous epoch are "
          "still pinned; release_views() them first");
    }
  }
  seq_.emplace(*fleet_->plan_, seed, client_idx_, fleet_->num_clients());
  for (auto& [slot, hu] : held_) unpin_cached(hu);
  held_.clear();
  reprobe_pending_ = true;  // epoch boundary: revalidate down nodes once
  if (fleet_->config_.batching == BatchingMode::kNone) {
    // DLFS-Base is a synchronous read() per sample: the daemon gets no
    // epoch order, so nothing is read ahead of the cursor.
    prefetcher_->start_epoch(0, {});
    return;
  }
  // Chunk mode prefetches 1 unit = 1 chunk/edge extent; sample-level mode
  // fuses kSampleGroup consecutive per-sample slots into one unit.
  group_ = fleet_->config_.batching == BatchingMode::kSampleLevel
               ? kSampleGroup
               : 1;
  prefetcher_->start_epoch(
      (seq_->num_units() + group_ - 1) / group_,
      [this](std::size_t slot) { return unit_reads(slot); });
}

ReadExtent DlfsInstance::sample_read(std::uint32_t id, PeerServe peer) const {
  const SampleLocation& loc = fleet_->layout_[id];
  return ReadExtent{loc.nid, loc.offset, loc.len, id, sample_routes(id),
                    peer == PeerServe::kPull ? HopClass::kPeer
                                             : HopClass::kStorage};
}

std::vector<ReadExtent> DlfsInstance::unit_reads(std::size_t slot) const {
  const bool chunk = fleet_->config_.batching == BatchingMode::kChunkLevel;
  const std::size_t begin = slot * group_;
  const std::size_t end =
      std::min<std::size_t>(begin + group_, seq_->num_units());
  std::vector<ReadExtent> out;
  out.reserve(end - begin);
  for (std::size_t s = begin; s < end; ++s) {
    const ReadUnit* u = seq_->unit_at(s);
    if (u->is_chunk) {
      // A chunk unit fetches its whole (trimmed) extent even when some of
      // its samples are resident: the chunk path consumes every sample of
      // the unit, and its samples never enter the sample cache.
      out.push_back(ReadExtent{u->nid, u->offset, u->len, s});
      continue;
    }
    const std::uint32_t id = u->samples.front().sample_id;
    if (chunk) {
      out.push_back(sample_read(id, PeerServe::kNone));
      continue;
    }
    // A resident sample is served from the cache at pick time, and one a
    // co-located peer holds is copied from it: don't read either ahead.
    if (cache_->valid(id)) continue;
    const PeerServe peer = peer_route(id);
    if (peer == PeerServe::kLocal) continue;
    out.push_back(sample_read(id, peer));
  }
  return out;
}

dlsim::Task<Batch> DlfsInstance::bread(std::size_t max_samples,
                                       std::span<std::byte> arena) {
  if (!seq_) {
    throw std::logic_error("dlfs_bread: call dlfs_sequence(seed) first");
  }
  co_await maybe_reprobe();
  Batch batch;
  auto picks = seq_->take(max_samples);
  batch.end_of_epoch = picks.empty();
  if (picks.empty()) co_return batch;
  // The whole batch must fit before the first read or copy is issued: a
  // copy job already queued for an earlier sample would otherwise write
  // into the caller's arena after the throw.
  std::uint64_t batch_len = 0;
  for (const auto& pk : picks) {
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      batch_len += pk.unit->samples[pk.first_sample + i].len;
    }
  }
  if (batch_len > arena.size()) {
    throw std::invalid_argument("dlfs_bread: arena too small for batch");
  }
  if (fleet_->config_.batching == BatchingMode::kNone) {
    co_return co_await bread_unbatched(picks, arena);
  }
  const bool chunk_mode =
      fleet_->config_.batching == BatchingMode::kChunkLevel;

  // Frontend: the batch's ids resolve before its first acquire, so a
  // sharded mount's metadata RPCs come first (spread between the copies,
  // they split batch latency into two modes; DESIGN §5f). Each sample's
  // frontend CPU is charged just before that sample is delivered, so the
  // copy threads drain earlier samples while later ones are charged.
  const std::vector<dlsim::SimDuration> frontend =
      co_await resolve_frontend(picks);
  auto frontend_cpu = frontend.begin();

  // Arena layout: a sample takes space once it has bytes, so delivered
  // samples pack densely in pick order.
  auto place = [&](std::uint32_t sample_id, std::uint32_t len) {
    std::byte* dst = arena.data() + batch.bytes;
    batch.samples.push_back(
        BatchSample{sample_id, fleet_->dataset_->sample(sample_id).class_id,
                    static_cast<std::uint32_t>(batch.bytes), len});
    batch.bytes += len;
    return dst;
  };

  prefetcher_->ensure_issued_through(unit_of(picks.back().unit_slot));
  start_injected();
  dlsim::CountdownLatch copies(node_->simulator(), 0);
  // Sample-level: the open run of landed pulls, consecutive in the arena
  // and within one read-ahead unit, sent to copy_out as one job.
  CopyJob run;
  std::size_t run_unit = unit_of(picks.front().unit_slot);
  BatchFaults faults;
  std::exception_ptr escaped;
  try {
    for (const auto& pk : picks) {
      if (unit_of(pk.unit_slot) != run_unit) {
        co_await enqueue_run(&run, &copies);
        run_unit = unit_of(pk.unit_slot);
      }
      // A pick's unit is acquired after its first sample's frontend.
      HeldUnit* hu = nullptr;
      for (std::uint32_t i = 0; i < pk.count; ++i) {
        co_await charge_frontend(*frontend_cpu++);
        if (hu == nullptr) {
          hu = co_await acquire_pick(pk, &faults);
          hu->remaining -= pk.count;
        }
        const UnitSample& us = pk.unit->samples[pk.first_sample + i];
        if (chunk_mode) {
          CopyJob job;
          job.views = held_views(*hu, us);
          if (job.views.empty()) continue;
          job.dst = place(us.sample_id, us.len);
          co_await copy_out(std::move(job), &copies);
          continue;
        }
        // Sample-level (a pick is one sample): a sample the cache held at
        // the unit's acquire is copied from its pin, and a landed extent
        // goes through the delivery step; a sample with neither (a
        // co-located holder's, or one whose node failed) is a demand read.
        // A sample delivered any way but as a landed pull ends the open
        // run.
        if (auto c = hu->cached.find(us.sample_id); c != hu->cached.end()) {
          co_await enqueue_run(&run, &copies);
          cache_->note_hit();
          CopyJob job;
          job.views = std::move(c->second);
          job.unpin_sample_id = us.sample_id;
          job.dst = place(us.sample_id, us.len);
          hu->cached.erase(c);
          co_await copy_out(std::move(job), &copies);
          continue;
        }
        auto x = hu->samples.find(us.sample_id);
        if (x != hu->samples.end() && !cache_->valid(us.sample_id)) {
          if (x->second->error()) {
            faults.note(x->second->error());
            continue;
          }
          cache_->note_miss();
          if (x->second->extent.cls != HopClass::kPeer) {
            co_await enqueue_run(&run, &copies);
          }
          co_await deliver(std::move(x->second), place(us.sample_id, us.len),
                           &copies, &run);
          continue;
        }
        co_await enqueue_run(&run, &copies);
        try {
          const bool served =
              co_await demand_read(us.sample_id, arena.data() + batch.bytes);
          if (served) {
            (void)place(us.sample_id, us.len);
          } else {
            ++faults.skipped;
          }
        } catch (const IoError&) {
          faults.note(std::current_exception());
        }
      }
    }
  } catch (...) {
    escaped = std::current_exception();
  }
  // The last run, or one a throw left open: its copy drains with the rest.
  co_await enqueue_run(&run, &copies);
  co_await injected_done();
  co_await copies.wait();
  if (escaped) std::rethrow_exception(escaped);
  if (faults.fatal) std::rethrow_exception(faults.fatal);
  for (const auto& pk : picks) {
    maybe_release_unit(unit_of(pk.unit_slot));
  }
  batch.samples_skipped = faults.skipped;
  samples_skipped_ += batch.samples_skipped;
  samples_delivered_ += batch.samples.size();
  bytes_delivered_ += batch.bytes;
  co_return batch;
}

void DlfsInstance::unpin_cached(HeldUnit& hu) {
  for (const auto& [id, views] : hu.cached) cache_->unpin(id);
  hu.cached.clear();
}

void DlfsInstance::maybe_release_unit(std::size_t slot) {
  auto it = held_.find(slot);
  if (it != held_.end() && it->second.remaining == 0 &&
      it->second.view_pins == 0) {
    // A pick a throw cut short leaves its later samples' pins behind.
    unpin_cached(it->second);
    held_.erase(it);
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

  const std::vector<dlsim::SimDuration> frontend =
      co_await resolve_frontend(picks);
  co_await charge_frontend(
      std::accumulate(frontend.begin(), frontend.end(), dlsim::SimDuration{0}));

  // The same acquire step as bread. Views are handed out after every
  // unit settles: handing out a span costs no CPU, so there is nothing
  // to overlap.
  prefetcher_->ensure_issued_through(picks.back().unit_slot);
  start_injected();
  BatchFaults faults;
  for (const auto& pk : picks) (void)co_await acquire_pick(pk, &faults);
  co_await injected_done();
  // Fatal (media/unknown) read-ahead faults abort the batch before any
  // unit is pinned, exactly like the copy path's post-latch rethrow.
  if (faults.fatal) std::rethrow_exception(faults.fatal);

  for (const auto& pk : picks) {
    HeldUnit& hu = held_.at(pk.unit_slot);
    ++hu.view_pins;
    batch.pinned_slots.push_back(pk.unit_slot);
    hu.remaining -= pk.count;
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const UnitSample& us = pk.unit->samples[pk.first_sample + i];
      ViewSample vs;
      vs.pieces = held_views(hu, us);
      if (vs.pieces.empty()) continue;  // skipped: no reachable copy
      vs.sample_id = us.sample_id;
      vs.class_id = fleet_->dataset_->sample(us.sample_id).class_id;
      vs.len = us.len;
      bytes_zero_copy_ += us.len;
      batch.bytes += us.len;
      batch.samples.push_back(std::move(vs));
      // Handing out a view costs no extra CPU: the frontend's
      // bread_per_sample charge already covers per-sample accounting, and
      // span construction replaces the copy-job setup included there.
    }
  }
  batch.samples_skipped = faults.skipped;
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
    auto it = held_.find(slot);
    if (it == held_.end()) continue;
    HeldUnit& hu = it->second;
    if (hu.view_pins == 0) {
      throw std::logic_error("release_views: pin underflow");
    }
    --hu.view_pins;
    maybe_release_unit(slot);
  }
  batch.pinned_slots.clear();
  batch.samples.clear();
}

dlsim::Task<Batch> DlfsInstance::bread_unbatched(
    std::span<const EpochSequence::UnitPicks> picks,
    std::span<std::byte> arena) {
  // DLFS-Base: exactly the application's own open_id() + read() loop over
  // the epoch order. read() counts the samples and bytes it delivers.
  Batch batch;
  for (const auto& pk : picks) {
    for (std::uint32_t i = 0; i < pk.count; ++i) {
      const UnitSample& us = pk.unit->samples[pk.first_sample + i];
      const SampleHandle h = co_await open_id(us.sample_id);
      try {
        co_await read(h, arena.subspan(batch.bytes, us.len));
      } catch (const IoError& e) {
        if (e.kind == IoErrorKind::kMedia) throw;
        ++batch.samples_skipped;  // no reachable copy
        continue;
      }
      batch.samples.push_back(BatchSample{
          us.sample_id, fleet_->dataset_->sample(us.sample_id).class_id,
          static_cast<std::uint32_t>(batch.bytes), us.len});
      batch.bytes += us.len;
    }
  }
  samples_skipped_ += batch.samples_skipped;
  co_return batch;
}

}  // namespace dlfs::core
