#include "dlfs/prefetcher.hpp"

#include <algorithm>

#include "common/units.hpp"

namespace dlfs::core {

// ---------------------------------------------------------------------------
// PrefetchArbiter

void PrefetchArbiter::register_member(Prefetcher& p) {
  auto m = members_.write();
  if (std::find(m->begin(), m->end(), &p) == m->end()) m->push_back(&p);
}

void PrefetchArbiter::unregister_member(Prefetcher& p) {
  std::erase(*members_.write(), &p);
}

std::uint64_t PrefetchArbiter::chunk_allowance(const Prefetcher& p) const {
  // Node-wide budget: every member's pool headroom beyond its reserve,
  // plus what is already committed to read-ahead (so a full window is
  // not counted as vanished budget). Split proportionally to the
  // adaptive window targets — the daemons that stall grow their target
  // and thereby their share.
  // Each member's claim is weight × target: the tenant QoS weight scales
  // the adaptive target, so co-located jobs of unequal priority split the
  // node's read-ahead budget by their bandwidth shares.
  std::uint64_t budget = 0;
  double total_claim = 0;
  for (const Prefetcher* m : *members_.read()) {
    budget += m->readahead_chunks() + m->pool_headroom_chunks();
    total_claim += m->share_weight() * m->window_target();
  }
  const double claim = p.share_weight() * p.window_target();
  std::uint64_t share =
      total_claim > 0
          ? static_cast<std::uint64_t>(static_cast<double>(budget) * claim /
                                       total_claim)
          : budget;
  // The share can never exceed what p's own pool actually holds (pools
  // are per-instance; a neighbour's free chunks are not allocatable
  // here), and never starves below one unit's worth.
  share = std::min(share, p.readahead_chunks() + p.pool_headroom_chunks());
  // Chunks of acquired units still pinned by live ViewBatches are
  // read-ahead output the consumer has not returned: they occupy p's
  // pool but are no longer in ra_chunks_, so without this deduction the
  // same huge pages would be counted once as "held by p" and once as
  // window headroom — and a co-located daemon's share computed against a
  // budget p cannot actually honour.
  const std::uint64_t pinned = p.view_pinned_chunks();
  share = share > pinned ? share - pinned : 0;
  return std::max<std::uint64_t>(share, 1);
}

// ---------------------------------------------------------------------------
// Prefetcher

Prefetcher::Prefetcher(dlsim::Simulator& sim, IoEngine& engine,
                       mem::HugePagePool& pool, std::uint64_t chunk_bytes,
                       PrefetcherConfig config, const std::string& name)
    : sim_(&sim),
      engine_(&engine),
      pool_(&pool),
      chunk_bytes_(chunk_bytes),
      cfg_(config),
      wake_(sim) {
  cfg_.max_units = std::max(cfg_.max_units, cfg_.min_units);
  window_target_ =
      std::clamp(cfg_.initial_units, cfg_.min_units, cfg_.max_units);
  stats_.window_target = window_target_;
  core_ = std::make_unique<dlsim::CpuCore>(sim, name);
  sim.spawn_daemon(daemon_loop(), name);
}

Prefetcher::~Prefetcher() {
  if (arbiter_) arbiter_->unregister_member(*this);
  shutdown_ = true;
  wake_.set();
}

void Prefetcher::set_arbiter(std::shared_ptr<PrefetchArbiter> arbiter) {
  if (arbiter_) arbiter_->unregister_member(*this);
  arbiter_ = std::move(arbiter);
  if (arbiter_) arbiter_->register_member(*this);
}

void Prefetcher::set_share_weight(double w) {
  share_weight_ = w > 0 ? w : 1.0;
}

std::uint64_t Prefetcher::pool_headroom_chunks() const {
  const std::uint64_t free = pool_->free_chunks();
  return free > cfg_.reserve_chunks ? free - cfg_.reserve_chunks : 0;
}

std::size_t Prefetcher::window_size() const {
  std::size_t n = 0;
  for (const WindowShard& s : window_shards_) n += s.read()->size();
  return n;
}

void Prefetcher::start_epoch(const ReadUnitProvider* provider) {
  // Extents cannot be cancelled: unfinished read-ahead from the previous
  // epoch keeps draining on the daemon and its buffers drop on arrival.
  // Finished entries release their chunks right here, with the ops.
  for (WindowShard& s : window_shards_) {
    auto w = s.write();
    for (auto& e : *w) {
      for (auto& x : e.extents) {
        if (!x.op->finished()) draining_.push_back(x.op);
      }
    }
    w->clear();
  }
  ra_chunks_ = 0;
  provider_ = provider;
  next_issue_ = 0;
  demand_floor_ = 0;
  total_units_ = provider ? provider->num_units() : 0;
  wake_.set();
}

std::uint64_t Prefetcher::extents_chunks(const std::vector<UnitExtent>& xs,
                                         std::uint64_t chunk_bytes) {
  std::uint64_t n = 0;
  for (const auto& x : xs) n += ceil_div(x.len, chunk_bytes);
  return n;
}

void Prefetcher::issue_entry(std::size_t slot, std::vector<UnitExtent> xs,
                             bool front) {
  Entry e;
  e.slot = slot;
  e.chunks = extents_chunks(xs, chunk_bytes_);
  e.extents.reserve(xs.size());
  for (auto& x : xs) {
    Extent ex;
    ex.key = x.key;
    ex.op = engine_->start_extent(ReadExtent{x.nid, x.offset, x.len, nullptr,
                                             std::nullopt, nullptr,
                                             std::move(x.routes)});
    e.extents.push_back(std::move(ex));
  }
  ra_chunks_ += e.chunks;
  {
    auto w = shard_for(slot).write();
    if (front) {
      w->push_front(std::move(e));
    } else {
      w->push_back(std::move(e));
    }
  }
  ++stats_.units_issued;
  stats_.in_flight_hwm = std::max(
      stats_.in_flight_hwm, static_cast<std::uint32_t>(window_size()));
  wake_.set();
}

void Prefetcher::ensure_issued_through(std::size_t slot) {
  if (provider_ == nullptr) return;
  demand_floor_ = std::max(demand_floor_, slot + 1);
  while (next_issue_ <= slot && next_issue_ < total_units_) {
    issue_entry(next_issue_, provider_->unit_extents(next_issue_),
                /*front=*/false);
    ++next_issue_;
  }
}

void Prefetcher::top_up() {
  if (provider_ == nullptr) return;
  // The target is read-ahead depth beyond the demanded batch: demand
  // issues never count against it, so the device keeps working on future
  // units even while the consumer drains the current batch.
  const std::size_t limit = std::min<std::size_t>(
      total_units_, demand_floor_ + window_target_);
  while (next_issue_ < limit) {
    auto xs = provider_->unit_extents(next_issue_);
    const std::uint64_t need = extents_chunks(xs, chunk_bytes_);
    const bool pool_blocked =
        pool_->free_chunks() < need + cfg_.reserve_chunks;
    const bool arbiter_blocked =
        arbiter_ != nullptr && need > 0 &&
        ra_chunks_ + view_pinned_chunks_ + need >
            arbiter_->chunk_allowance(*this);
    if (pool_blocked || arbiter_blocked) {
      // No headroom for more read-ahead — locally (pool) or node-wide
      // (arbiter share): adapt the target down to the depth actually
      // sustained instead of thrashing.
      if (arbiter_blocked) ++stats_.arbiter_throttles;
      const auto depth = static_cast<std::uint32_t>(
          next_issue_ > demand_floor_ ? next_issue_ - demand_floor_ : 0);
      const auto floor_target =
          std::clamp(depth, cfg_.min_units, window_target_);
      if (window_target_ > floor_target) {
        window_target_ = floor_target;
        ++stats_.window_shrinks;
        stats_.window_target = window_target_;
      }
      return;
    }
    issue_entry(next_issue_, std::move(xs), /*front=*/false);
    ++next_issue_;
  }
}

ExtentOpPtr Prefetcher::oldest_unfinished() {
  for (const auto& op : draining_) {
    if (!op->finished()) return op;
  }
  // Shards are individually slot-ordered; the globally oldest entry with
  // an unfinished op is the slot-minimum of the per-shard firsts.
  ExtentOpPtr best;
  std::size_t best_slot = 0;
  for (const WindowShard& s : window_shards_) {
    auto w = s.read();
    for (const auto& e : *w) {
      ExtentOpPtr found;
      for (const auto& x : e.extents) {
        if (!x.op->finished()) {
          found = x.op;
          break;
        }
      }
      if (!found) continue;
      if (!best || e.slot < best_slot) {
        best = std::move(found);
        best_slot = e.slot;
      }
      break;
    }
  }
  return best;
}

bool Prefetcher::relieve_pressure() {
  // Shed the farthest resident, unconsumed unit: its chunks unblock
  // demand I/O now, and the consumer demand-fetches it again when the
  // cursor gets there. Entries being awaited (pinned) and unfinished ones
  // (chunks still in flight) cannot yield memory. Per shard, the first
  // candidate from the back is that shard's farthest; the global farthest
  // is the slot-maximum across shards.
  auto is_candidate = [](const Entry& e) {
    if (e.pinned || e.chunks == 0) return false;
    return std::all_of(e.extents.begin(), e.extents.end(),
                       [](const Extent& x) {
                         return x.op->finished() && !x.op->error();
                       });
  };
  bool found = false;
  std::size_t victim_slot = 0;
  for (const WindowShard& s : window_shards_) {
    auto w = s.read();
    for (auto it = w->rbegin(); it != w->rend(); ++it) {
      if (!is_candidate(*it)) continue;
      if (!found || it->slot > victim_slot) {
        found = true;
        victim_slot = it->slot;
      }
      break;
    }
  }
  if (!found) return false;
  auto w = shard_for(victim_slot).write();
  auto it = std::find_if(
      w->begin(), w->end(),
      [victim_slot](const Entry& e) { return e.slot == victim_slot; });
  for (auto& x : it->extents) {
    (void)x.op->take_buffers();  // DmaBuffers drop -> chunks freed
  }
  ++stats_.units_dropped;
  if (window_target_ > cfg_.min_units) {
    --window_target_;
    ++stats_.window_shrinks;
    stats_.window_target = window_target_;
  }
  ra_chunks_ -= it->chunks;
  w->erase(it);
  return true;
}

void Prefetcher::discard(std::size_t slot) {
  demand_floor_ = std::max(demand_floor_, slot + 1);
  // Never issued yet: just skip past it so top_up doesn't fetch a unit
  // nobody will consume.
  if (slot >= next_issue_) {
    next_issue_ = std::max(next_issue_, slot + 1);
    wake_.set();
    return;
  }
  auto w = shard_for(slot).write();
  auto it = std::find_if(w->begin(), w->end(),
                         [slot](const Entry& e) { return e.slot == slot; });
  if (it == w->end() || it->pinned) return;
  for (auto& x : it->extents) {
    if (!x.op->finished()) {
      draining_.push_back(x.op);
    } else if (!x.op->error()) {
      (void)x.op->take_buffers();  // DmaBuffers drop -> chunks freed
    }
  }
  ra_chunks_ -= it->chunks;
  w->erase(it);
  wake_.set();
}

std::uint32_t Prefetcher::reissue_failed() {
  if (provider_ == nullptr) return 0;
  std::uint32_t n = 0;
  for (WindowShard& s : window_shards_) {
    auto w = s.write();
    for (auto& e : *w) {
      if (e.pinned) continue;
      for (auto& x : e.extents) {
        if (!x.op->error()) continue;
        // An op can carry an error while pieces still drain; those buffers
        // cannot be reused, so the old op keeps draining off to the side.
        if (!x.op->finished()) draining_.push_back(x.op);
        // The failed op's extent already consumed the routes it tried, so
        // rx.routes holds exactly the untried alternates: the reissue
        // resumes the failover walk instead of restarting it. A reissue
        // after the node *recovered* simply succeeds on rx.nid directly.
        const ReadExtent& rx = x.op->extent;
        x.op = engine_->start_extent(ReadExtent{rx.nid, rx.offset, rx.len,
                                                nullptr, std::nullopt, nullptr,
                                                rx.routes});
        ++stats_.units_reissued;
        ++n;
      }
    }
  }
  if (n > 0) wake_.set();
  return n;
}

dlsim::Task<AcquiredUnit> Prefetcher::acquire(
    std::size_t slot, dlsim::CpuCore& consumer_core) {
  if (daemon_error_) std::rethrow_exception(daemon_error_);
  demand_floor_ = std::max(demand_floor_, slot + 1);
  auto find_entry = [slot](std::deque<Entry>& w) {
    return std::find_if(w.begin(), w.end(),
                        [slot](const Entry& e) { return e.slot == slot; });
  };
  // First slice: locate (or demand-issue) the unit and decide whether we
  // must stall. The shard guard is scoped to end *before* the awaits —
  // the daemon legitimately tops the window up while we are parked. Only
  // slot's own shard is touched, so a concurrent top-up of another shard
  // never even shares this slice's ledger.
  std::vector<ExtentOpPtr> ops;  // non-empty => the stall path was taken
  {
    auto w = shard_for(slot).write();
    auto it = find_entry(*w);
    if (it == w->end()) {
      if (slot >= next_issue_) {
        ensure_issued_through(slot);
      } else {
        // The unit was shed under pool pressure; demand re-fetch it. With
        // in-order consumption every windowed slot in this shard is
        // larger, so it goes back to the front.
        issue_entry(slot, provider_->unit_extents(slot), /*front=*/true);
      }
      it = find_entry(*w);
    }
    const bool resident = std::all_of(
        it->extents.begin(), it->extents.end(),
        [](const Extent& x) { return x.op->finished(); });
    if (resident) {
      ++stats_.units_resident_at_pick;
    } else {
      // The window was not deep enough to cover this consumer's
      // inter-arrival time — stall (pumping the engine on the consumer's
      // core, like a demand fetch) and deepen the window.
      ++stats_.units_stalled;
      if (window_target_ < cfg_.max_units) {
        ++window_target_;
        ++stats_.window_grows;
        stats_.window_target = window_target_;
      }
      it->pinned = true;
      // Snapshot the ops: the window may shift while awaiting.
      ops.reserve(it->extents.size());
      for (const auto& x : it->extents) ops.push_back(x.op);
    }
  }
  if (!ops.empty()) {
    const dlsim::SimTime t0 = sim_->now();
    for (const auto& op : ops) {
      if (op->finished()) continue;
      co_await engine_->await_op(consumer_core, op);
    }
    stats_.stall_ns += sim_->now() - t0;
  }
  // Second slice: hand the unit over and release its window entry.
  AcquiredUnit unit;
  {
    auto w = shard_for(slot).write();
    auto it = find_entry(*w);
    unit.extents.reserve(it->extents.size());
    for (auto& x : it->extents) {
      AcquiredExtent ax;
      ax.key = x.key;
      ax.error = x.op->error();
      if (!ax.error) ax.buffers = x.op->take_buffers();
      unit.extents.push_back(std::move(ax));
    }
    ra_chunks_ -= it->chunks;
    w->erase(it);
  }
  wake_.set();  // window space freed; the daemon can read further ahead
  co_return unit;
}

dlsim::Task<void> Prefetcher::daemon_loop() {
  for (;;) {
    wake_.reset();
    if (shutdown_) co_return;
    try {
      top_up();
      if (ExtentOpPtr op = oldest_unfinished()) {
        co_await engine_->await_op(*core_, op);
        std::erase_if(draining_,
                      [](const ExtentOpPtr& o) { return o->finished(); });
        continue;
      }
    } catch (...) {
      // Engine-level failures (pool livelock) are stored and rethrown to
      // the next consumer; a daemon must never take the simulation down.
      daemon_error_ = std::current_exception();
      co_return;
    }
    co_await wake_.wait();
  }
}

}  // namespace dlfs::core
