#include "dlfs/prefetcher.hpp"

#include <algorithm>

#include "common/units.hpp"

namespace dlfs::core {

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
  pull_depth_ = window_target_;
  stats_.window_target = window_target_;
  core_ = std::make_unique<dlsim::CpuCore>(sim, name);
  sim.spawn_daemon(daemon_loop(), name);
}

Prefetcher::~Prefetcher() {
  shutdown_ = true;
  wake_.set();
}

void Prefetcher::start_epoch(std::size_t units, UnitReads reads) {
  // Extents cannot be cancelled: unfinished read-ahead from the previous
  // epoch keeps draining on the daemon and its buffers drop on arrival.
  // Finished entries release their chunks right here, with the ops.
  {
    auto w = window_.write();
    for (auto& e : *w) {
      for (const ExtentOpPtr& op : e.ops) {
        if (!op->finished()) draining_.push_back(op);
      }
    }
    w->clear();
  }
  reads_ = std::move(reads);
  next_issue_ = 0;
  demand_floor_ = 0;
  total_units_ = reads_ ? units : 0;
  wake_.set();
}

std::uint64_t Prefetcher::extents_chunks(const std::vector<ReadExtent>& xs,
                                         std::uint64_t chunk_bytes) {
  std::uint64_t n = 0;
  for (const auto& x : xs) {
    if (x.cls != HopClass::kCache) n += ceil_div(x.len, chunk_bytes);
  }
  return n;
}

void Prefetcher::issue_entry(std::size_t slot, std::vector<ReadExtent> xs) {
  Entry e;
  e.slot = slot;
  e.ops = engine_->start_extents(std::move(xs));
  {
    // Read-ahead lands at the back; a shed unit demanded again lands at
    // the front, since consumption is in slot order.
    auto w = window_.write();
    w->insert(std::upper_bound(w->begin(), w->end(), slot,
                               [](std::size_t s, const Entry& x) {
                                 return s < x.slot;
                               }),
              std::move(e));
  }
  ++stats_.units_issued;
  stats_.in_flight_hwm =
      std::max<std::uint64_t>(stats_.in_flight_hwm, window_size());
  wake_.set();
}

void Prefetcher::ensure_issued_through(std::size_t slot) {
  if (!reads_) return;
  demand_floor_ = std::max(demand_floor_, slot + 1);
  while (next_issue_ <= slot && next_issue_ < total_units_) {
    issue_entry(next_issue_, reads_(next_issue_));
    ++next_issue_;
  }
}

void Prefetcher::top_up() {
  if (!reads_) return;
  // The target is read-ahead depth beyond the demanded batch: demand
  // issues never count against it, so the device keeps working on future
  // units even while the consumer drains the current batch.
  const std::size_t limit = std::min<std::size_t>(
      total_units_, demand_floor_ + window_target_);
  while (next_issue_ < limit) {
    auto xs = reads_(next_issue_);
    const bool pulls = std::ranges::any_of(
        xs, [](const ReadExtent& x) { return x.cls == HopClass::kPeer; });
    if (pulls && next_issue_ >= demand_floor_ + pull_depth_) return;
    const std::uint64_t need = extents_chunks(xs, chunk_bytes_);
    if (pool_->free_chunks() < need + kReserveChunks) {
      // No pool headroom for more read-ahead: adapt the target down to
      // the depth actually sustained instead of thrashing.
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
    issue_entry(next_issue_, std::move(xs));
    ++next_issue_;
  }
}

ExtentOpPtr Prefetcher::oldest_unfinished() {
  // A pull in flight needs no pump until its refusal queues a device
  // read, and the engine's refusal handler wakes the daemon then.
  auto pumpable = [](const ExtentOpPtr& op) {
    return !op->finished() && !op->pulling();
  };
  for (const auto& op : draining_) {
    if (pumpable(op)) return op;
  }
  auto w = window_.read();
  for (const auto& e : *w) {
    for (const ExtentOpPtr& op : e.ops) {
      if (pumpable(op)) return op;
    }
  }
  return nullptr;
}

bool Prefetcher::relieve_pressure() {
  // Shed the farthest resident, unconsumed unit: its chunks, and the
  // cache entries its pins held, unblock demand I/O now, and the consumer
  // demand-fetches it again when the cursor gets there. Entries being
  // awaited (pinned) and unfinished ones (chunks still in flight) cannot
  // yield memory.
  auto is_candidate = [](const Entry& e) {
    if (e.pinned || e.ops.empty()) return false;
    return std::ranges::all_of(e.ops, [](const ExtentOpPtr& op) {
      return op->finished() && !op->error();
    });
  };
  auto w = window_.write();
  auto rit = std::find_if(w->rbegin(), w->rend(), is_candidate);
  if (rit == w->rend()) return false;
  for (const ExtentOpPtr& op : rit->ops) {
    (void)op->take_buffers();  // chunks freed, cache pins dropped
  }
  ++stats_.units_dropped;
  if (window_target_ > cfg_.min_units) {
    --window_target_;
    ++stats_.window_shrinks;
    stats_.window_target = window_target_;
  }
  w->erase(std::next(rit).base());
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
  auto w = window_.write();
  auto it = std::find_if(w->begin(), w->end(),
                         [slot](const Entry& e) { return e.slot == slot; });
  if (it == w->end() || it->pinned) return;
  for (const ExtentOpPtr& op : it->ops) {
    if (!op->finished()) {
      draining_.push_back(op);
    } else if (!op->error()) {
      (void)op->take_buffers();  // DmaBuffers drop -> chunks freed
    }
  }
  w->erase(it);
  wake_.set();
}

std::uint32_t Prefetcher::reissue_failed() {
  if (!reads_) return 0;
  std::uint32_t n = 0;
  auto w = window_.write();
  for (auto& e : *w) {
    if (e.pinned) continue;
    for (ExtentOpPtr& op : e.ops) {
      if (!op->error()) continue;
      // An op can carry an error while pieces still drain; those buffers
      // cannot be reused, so the old op keeps draining off to the side.
      if (!op->finished()) draining_.push_back(op);
      // The failed op's extent already consumed the routes it tried, so
      // its routes hold exactly the untried alternates: the restart
      // resumes the failover walk instead of restarting it, under the
      // same key. A restart after the node *recovered* simply succeeds on
      // its nid directly. A pull only fails after its refusal made it a
      // device read, so the restart is a device read, never a second pull.
      op = engine_->start_extent(op->extent);
      ++stats_.units_reissued;
      ++n;
    }
  }
  if (n > 0) wake_.set();
  return n;
}

dlsim::Task<std::vector<ExtentOpPtr>> Prefetcher::acquire(
    std::size_t slot, dlsim::CpuCore& consumer_core) {
  if (daemon_error_) std::rethrow_exception(daemon_error_);
  demand_floor_ = std::max(demand_floor_, slot + 1);
  auto find_entry = [slot](std::deque<Entry>& w) {
    return std::find_if(w.begin(), w.end(),
                        [slot](const Entry& e) { return e.slot == slot; });
  };
  // First slice: locate (or demand-issue) the unit and decide whether we
  // must stall. The window guard is scoped to end *before* the awaits —
  // the daemon legitimately tops the window up while we are parked.
  std::vector<ExtentOpPtr> ops;  // non-empty => the stall path was taken
  {
    auto w = window_.write();
    auto it = find_entry(*w);
    if (it == w->end()) {
      if (slot >= next_issue_) {
        ensure_issued_through(slot);
      } else {
        // The unit was shed under pool pressure; demand re-fetch it.
        issue_entry(slot, reads_(slot));
      }
      it = find_entry(*w);
    }
    const bool resident = std::ranges::all_of(
        it->ops, [](const ExtentOpPtr& op) { return op->finished(); });
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
      ops = it->ops;
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
  // Second slice: hand the unit's ops over and release its window entry.
  {
    auto w = window_.write();
    auto it = find_entry(*w);
    ops = std::move(it->ops);
    w->erase(it);
  }
  // A failed op's landed chunks go back to the pool now.
  for (const ExtentOpPtr& op : ops) {
    if (op->error()) (void)op->take_buffers();
  }
  wake_.set();  // window space freed; the daemon can read further ahead
  co_return ops;
}

dlsim::Task<void> Prefetcher::daemon_loop() {
  for (;;) {
    wake_.reset();
    if (shutdown_) co_return;
    try {
      top_up();
      // Pump, never join a pull: an acquire that frees window space must
      // find the daemon on its wake event, so it tops the window up while
      // earlier pulls fly.
      if (ExtentOpPtr op = oldest_unfinished()) {
        co_await engine_->pump(*core_, op);
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
