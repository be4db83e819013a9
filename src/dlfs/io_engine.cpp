#include "dlfs/io_engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/units.hpp"

namespace dlfs::core {

IoEngine::IoEngine(dlsim::Simulator& sim, mem::HugePagePool& pool,
                   SampleCache& cache, const Calibration& cal,
                   const IoEngineConfig& config)
    : sim_(&sim), pool_(&pool), cache_(&cache), cal_(&cal), config_(config) {
  scq_ = std::make_unique<dlsim::Channel<CopyJob>>(sim, kScqCapacity);
  for (std::uint32_t i = 0; i < config_.copy_threads; ++i) {
    copy_cores_.push_back(
        std::make_unique<dlsim::CpuCore>(sim, "copy-" + std::to_string(i)));
    sim.spawn_daemon(copy_thread_loop(i), "dlfs-copy-" + std::to_string(i));
  }
  if (config_.reprobe_interval > 0) {
    probe_core_ = std::make_unique<dlsim::CpuCore>(sim, "probe");
    probe_wake_ = std::make_unique<dlsim::Event>(sim);
    sim.spawn_daemon(probe_loop(alive_), "dlfs-reprobe");
  }
}

IoEngine::~IoEngine() {
  *alive_ = false;
  scq_->close();
}

dlsim::Task<void> IoEngine::probe_loop(std::shared_ptr<bool> alive) {
  // Deadline-driven recovery: a node that heals mid-epoch comes back
  // within one interval, instead of staying "down" until the next epoch
  // boundary. The alive token is taken by value and re-checked after
  // every suspension (the engine may be destroyed while we sleep).
  // Event-gated: the daemon parks on probe_wake_ while the cluster is
  // healthy and only ticks timers while a node is down, so a healthy
  // simulator still quiesces.
  for (;;) {
    co_await probe_wake_->wait();
    if (!*alive) co_return;
    probe_wake_->reset();
    while (*alive && nodes_down() > 0) {
      co_await sim_->delay(config_.reprobe_interval);
      if (!*alive) co_return;
      if (nodes_down() == 0) break;
      const std::uint32_t recovered = co_await reprobe_down_nodes(*probe_core_);
      if (!*alive) co_return;
      (void)recovered;  // transitions are reported through node_handler_
    }
    if (!*alive) co_return;
  }
}

void IoEngine::attach_target(std::uint16_t nid,
                             std::unique_ptr<spdk::IoQueue> queue) {
  if (targets_.size() <= nid) targets_.resize(nid + 1);
  targets_[nid] = std::move(queue);
}

dlsim::SimDuration IoEngine::copy_cost(const CopyJob& job) const {
  std::uint64_t bytes = 0;
  for (const mem::DmaBuffer& b : job.src) bytes += b.size();
  return cal_->dlfs.completion_handling +
         dlsim::transfer_time(bytes, cal_->dlfs.copy_bw_bytes_per_sec);
}

void IoEngine::do_copy(CopyJob& job) {
  std::byte* out = job.dst;
  for (const mem::DmaBuffer& b : job.src) {
    if (out != nullptr) out = std::copy_n(b.data(), b.size(), out);
    bytes_copied_ += b.size();
  }
  // The bytes are copied: the job's buffers enter the cache or drop.
  if (job.cache_sample_id && !job.src.empty()) {
    cache_->insert(*job.cache_sample_id, std::move(job.src));
  }
  job.src.clear();
  if (job.latch != nullptr) job.latch->count_down();
}

dlsim::Task<void> IoEngine::copy_thread_loop(std::size_t idx) {
  dlsim::CpuCore& core = *copy_cores_[idx];
  for (;;) {
    auto job = co_await scq_->pop();
    if (!job) co_return;
    co_await run_copy_inline(core, std::move(*job));
  }
}

dlsim::Task<void> IoEngine::enqueue_copy(CopyJob job) {
  assert(config_.copy_threads > 0);
  co_await scq_->push(std::move(job));
}

dlsim::Task<void> IoEngine::drain_copies(dlsim::CpuCore& core) {
  for (;;) {
    std::optional<CopyJob> job = scq_->try_pop();
    if (!job) co_return;
    co_await run_copy_inline(core, std::move(*job));
  }
}

dlsim::Task<void> IoEngine::run_copy_inline(dlsim::CpuCore& core,
                                            CopyJob job) {
  dlsim::SimDuration cost = copy_cost(job);
  if (job.origin != nullptr && job.origin != &core) {
    core.note_cross_core_handoff();
    cost += cal_->dlfs.cross_core_handoff;
  }
  co_await core.compute(cost);
  do_copy(job);
}

dlsim::Task<void> IoEngine::wait_any(dlsim::CpuCore& core) {
  // Busy-polling: all waiting time is CPU time (SPDK semantics). If every
  // outstanding queue is a local device queue the completion time is
  // knowable and we jump straight there; any remote queue forces quantum
  // polling.
  std::optional<dlsim::SimTime> known;
  bool any_unknown = false;
  for (const auto& q : targets_) {
    if (!q || q->outstanding() == 0) continue;
    if (auto t = q->next_completion_at()) {
      known = known ? std::min(*known, *t) : *t;
    } else {
      any_unknown = true;
    }
  }
  if (!known && !any_unknown && !delayed_.empty()) {
    // Nothing in flight — only backed-off retries. Spin until the
    // earliest one is due.
    dlsim::AccessSlice slice{pieces_ledger_, /*write=*/false};
    dlsim::SimTime due = delayed_.front().not_before;
    for (const Piece& p : delayed_) due = std::min(due, p.not_before);
    known = due;
  }
  const dlsim::SimTime now = sim_->now();
  if (!any_unknown && known && *known > now) {
    co_await core.compute(*known - now);
  } else {
    co_await core.compute(kPollQuantum);
  }
}

void IoEngine::fail_op(ExtentOp& op, std::exception_ptr e) {
  op.error_ = std::move(e);
  op.finished_ = true;
}

void IoEngine::mark_node_down(std::uint16_t nid) {
  if (node_down_.size() <= nid) node_down_.resize(nid + 1, 0);
  if (node_down_[nid] != 0) return;
  node_down_[nid] = 1;
  if (probe_wake_) probe_wake_->set();
  if (node_handler_) node_handler_(nid, false);
}

bool IoEngine::advance_route(ReadExtent& x) {
  while (!x.routes.empty()) {
    const RouteHop hop = x.routes.front();
    x.routes.erase(x.routes.begin());
    if (hop.nid < targets_.size() && targets_[hop.nid] != nullptr &&
        node_available(hop.nid)) {
      x.nid = hop.nid;
      x.offset = hop.offset;
      return true;
    }
  }
  return false;
}

bool IoEngine::reroute_piece(Piece& p) {
  ReadExtent& x = p.op->extent;
  // "The op already moved on": a sibling piece re-routed the extent to a
  // node that is still up — just requeue, the posting loop follows the
  // extent's current route. Otherwise consume the next live alternate.
  const bool follow = p.nid != x.nid && node_available(x.nid);
  if (!follow && !advance_route(x)) return false;
  p.attempts = 0;  // fresh retry budget on the new node
  p.not_before = 0;
  to_post_.push_back(std::move(p));
  return true;
}

std::uint32_t IoEngine::nodes_down() const {
  std::uint32_t n = 0;
  for (const std::uint8_t d : node_down_) n += d;
  return n;
}

dlsim::Task<std::uint32_t> IoEngine::reprobe_down_nodes(dlsim::CpuCore& core) {
  std::uint32_t recovered = 0;
  for (std::uint16_t nid = 0; nid < node_down_.size(); ++nid) {
    if (node_down_[nid] == 0) continue;
    if (nid >= targets_.size() || targets_[nid] == nullptr) continue;
    co_await core.compute(cal_->dlfs.prep_request);
    // Hoisted await (repo convention). The node_down_ re-check matters:
    // the epoch-boundary reprobe and the probe_loop daemon can race on
    // the same node, and only the first one back may fire the handler.
    const bool up = co_await targets_[nid]->reprobe();
    if (up && node_down_[nid] != 0) {
      node_down_[nid] = 0;
      ++recovered;
      if (node_handler_) node_handler_(nid, true);
    }
  }
  co_return recovered;
}

spdk::IoQueueStats IoEngine::transport_stats() const {
  spdk::IoQueueStats total;
  for (const auto& q : targets_) {
    if (!q) continue;
    const spdk::IoQueueStats s = q->transport_stats();
    total.timeouts += s.timeouts;
    total.connections_lost += s.connections_lost;
    total.reconnects += s.reconnects;
    total.replays += s.replays;
  }
  return total;
}

void IoEngine::promote_delayed() {
  if (delayed_.empty()) return;
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  const dlsim::SimTime now = sim_->now();
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (it->not_before <= now) {
      to_post_.push_back(std::move(*it));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<ExtentOpPtr> IoEngine::start_extents(
    std::vector<ReadExtent> extents, std::vector<mem::DmaBuffer> land) {
  if (!land.empty() && land.size() != extents.size()) {
    throw std::logic_error("start_extents: one landing slot per extent");
  }
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  std::vector<ExtentOpPtr> ops;
  ops.reserve(extents.size());
  for (std::size_t i = 0; i < extents.size(); ++i) {
    ReadExtent& x = extents[i];
    mem::DmaBuffer landing =
        land.empty() ? mem::DmaBuffer{} : std::move(land[i]);
    if (landing.valid() &&
        (x.len > landing.size() || x.len > config_.chunk_bytes)) {
      throw std::logic_error("start_extents: extent overruns its landing");
    }
    if (x.cls == HopClass::kCache) {
      auto op = std::make_shared<ExtentOp>(std::move(x));
      op->buffers_ = cache_->pin(op->extent.key);
      assert(!op->buffers_.empty());
      op->finished_ = true;
      ops.push_back(std::move(op));
      continue;
    }
    if (x.cls == HopClass::kPeer) {
      assert(peer_puller_ && x.len <= config_.chunk_bytes);
    } else if (x.nid >= targets_.size() || targets_[x.nid] == nullptr) {
      throw std::logic_error("start_extents: no queue for storage node " +
                             std::to_string(x.nid));
    } else if (!node_available(x.nid) && !advance_route(x)) {
      // The node is known-down and no replica route survives: fail fast
      // instead of queueing pieces that would only burn a timeout each.
      // Callers route on the error kind.
      auto op = std::make_shared<ExtentOp>(std::move(x));
      fail_op(*op, std::make_exception_ptr(IoError(
                       op->extent.nid, op->extent.offset,
                       IoErrorKind::kNodeDown)));
      ops.push_back(std::move(op));
      continue;
    }
    auto op = std::make_shared<ExtentOp>(std::move(x));
    std::uint64_t off = op->extent.offset;
    std::uint32_t left = op->extent.len;
    std::uint32_t idx = 0;
    while (left > 0) {
      const std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(left, config_.chunk_bytes));
      // A landed extent is one piece: it posts into its landing slice.
      to_post_.push_back(Piece{op, idx++, off, n, std::move(landing)});
      off += n;
      left -= n;
    }
    op->pieces_total_ = idx;
    op->buffers_.resize(idx);
    op->finished_ = idx == 0;  // zero-length extent: trivially done
    ops.push_back(std::move(op));
  }
  return ops;
}

dlsim::Task<void> IoEngine::run_pull(Piece p) {
  const auto id = static_cast<std::uint32_t>(p.op->extent.key);
  const bool landed = co_await peer_puller_(id, p.len, &p.buffer);
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  ExtentOp& op = *p.op;
  --pulls_;
  op.pull_.reset();
  if (landed) {
    op.buffers_[0] = std::exchange(p.buffer, {}).slice(0, p.len);
    op.finished_ = true;
    co_return;
  }
  // Refused: the piece, chunk and all, reads the extent's device
  // placement, which the posting loop fails over to a replica if its
  // node is down.
  op.extent.cls = HopClass::kStorage;
  to_post_.push_back(std::move(p));
  if (refusal_handler_) refusal_handler_();
}

ExtentOpPtr IoEngine::start_extent(ReadExtent extent) {
  std::vector<ReadExtent> one;
  one.push_back(std::move(extent));
  return start_extents(std::move(one)).front();
}

ExtentOpPtr IoEngine::start_write(std::uint16_t nid, std::uint64_t offset,
                                  std::vector<mem::DmaBuffer> pieces) {
  if (nid >= targets_.size() || targets_[nid] == nullptr) {
    throw std::logic_error("start_write: no queue for storage node " +
                           std::to_string(nid));
  }
  ReadExtent x;
  x.nid = nid;
  x.offset = offset;
  x.write = true;
  for (const mem::DmaBuffer& b : pieces) {
    x.len += static_cast<std::uint32_t>(b.size());
  }
  dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
  auto op = std::make_shared<ExtentOp>(std::move(x));
  if (!node_available(nid)) {
    // Writes do not fail over: the placement was chosen against live
    // membership, so a down target means the plan is stale — surface it.
    fail_op(*op, std::make_exception_ptr(
                     IoError(nid, offset, IoErrorKind::kNodeDown)));
    return op;
  }
  op->pieces_total_ = static_cast<std::uint32_t>(pieces.size());
  op->buffers_.resize(pieces.size());
  std::uint64_t off = offset;
  for (std::uint32_t i = 0; i < pieces.size(); ++i) {
    const auto n = static_cast<std::uint32_t>(pieces[i].size());
    to_post_.push_back(Piece{op, i, off, n, std::move(pieces[i])});
    off += n;
  }
  op->finished_ = pieces.empty();
  return op;
}

bool IoEngine::make_room() {
  if (pool_->free_chunks() > 0) return true;
  // The sample cache shares the pool: it yields an LRU entry, then the
  // prefetcher sheds read-ahead (a shed unit frees its chunks, or unpins
  // cache entries).
  bool freed = cache_->evict_lru_one();
  while (!freed && pressure_reliever_ && pressure_reliever_()) {
    freed = pool_->free_chunks() > 0 || cache_->evict_lru_one();
  }
  if (freed) return true;
  // Neither can free a chunk: I/O in flight may, and so may a piece
  // another pumper holds or a queued piece that holds its buffer; with
  // none of them the read can never make progress — fail loudly instead
  // of livelocking.
  if (in_flight_.empty() && in_hand_ == 0 && scq_->empty() &&
      delayed_.empty() && pulls_ == 0 && !queued_buffer()) {
    throw std::runtime_error(
        "huge-page pool exhausted: cache pinned + nothing in flight");
  }
  return false;
}

template <typename Done>
dlsim::Task<void> IoEngine::pump_until(dlsim::CpuCore& core, Done done) {
  // The pump serves the whole engine, not just its caller: any queued or
  // in-flight piece (another bread's demand fetch, a prefetched unit) is
  // posted and harvested by whichever coroutine is pumping.
  while (!done()) {
    bool progress = false;
    promote_delayed();  // backed-off retries whose delay has elapsed

    // Post while targets have queue space and the pool has chunks (or
    // the piece has its buffer already: a retry, or a landing slice).
    // Pieces rotated to the back this pass: behind a reconnecting queue,
    // or without a chunk.
    std::size_t rotated = 0;
    while (!to_post_.empty()) {
      Piece p;
      spdk::IoQueue* q = nullptr;
      {
        // Suspension-free slice: claim (or reject) the head piece before
        // the prep/post compute charge suspends this pumper.
        dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
        if (to_post_.front().op->error_) {
          // The extent already failed; drop its remaining queued pieces.
          to_post_.pop_front();
          progress = true;
          continue;
        }
        std::uint16_t nid = to_post_.front().op->extent.nid;
        // A pull has no queue: it needs only a chunk and a grant.
        const bool pull = to_post_.front().op->extent.cls == HopClass::kPeer;
        if (!pull && !node_available(nid)) {
          // The current route is down: re-point the extent at the first
          // live replica before giving up on its pieces.
          if (advance_route(to_post_.front().op->extent)) {
            nid = to_post_.front().op->extent.nid;
          } else {
            Piece dead = std::move(to_post_.front());
            to_post_.pop_front();
            fail_op(*dead.op, std::make_exception_ptr(IoError(
                                  nid, dead.offset, IoErrorKind::kNodeDown)));
            progress = true;
            continue;
          }
        }
        q = pull ? nullptr : targets_[nid].get();
        if (q != nullptr && q->outstanding() >= q->depth()) {
          // A healthy full queue frees slots via the poll phase below —
          // stop posting. A full queue that is reconnecting must not
          // head-block work for healthy nodes: rotate the piece to the
          // back. One full pass without a post means every queue left is
          // full — stop then too.
          if (q->connected()) break;
          if (rotated >= to_post_.size()) break;
          ++rotated;
          to_post_.push_back(std::move(to_post_.front()));
          to_post_.pop_front();
          continue;
        }
        if (!to_post_.front().buffer.valid() && !make_room()) {
          // No chunk for the head piece: the queued pieces that hold
          // their buffer post past it, as past a reconnecting queue.
          if (rotated >= to_post_.size() || !queued_buffer()) break;
          ++rotated;
          to_post_.push_back(std::move(to_post_.front()));
          to_post_.pop_front();
          continue;
        }
        if (tenant_ && !tenant_->try_admit(to_post_.front().len)) {
          // Tenant QoS deferred us: another job owns this share of the
          // devices right now. Completions (ours or theirs, seen via the
          // governor) advance the fairness floor; the poll phase below
          // keeps time moving until admission reopens.
          ++qos_deferrals_;
          break;
        }
        p = std::move(to_post_.front());
        to_post_.pop_front();
        // Bind the piece to the extent's *current* route at post time (it
        // may have been re-routed since the piece was queued). Pieces are
        // chunk-aligned splits, so piece k starts at offset + k * chunk.
        // Write extents never re-route, so their queued offsets stand.
        p.nid = nid;
        if (!p.op->extent.write) {
          p.offset = p.op->extent.offset +
                     static_cast<std::uint64_t>(p.idx) * config_.chunk_bytes;
        }
      }
      if (!p.buffer.valid()) p.buffer = pool_->allocate();  // retry keeps its
      if (q == nullptr) {  // a pull: its own process, no prep or post charge
        ++pulls_;
        ExtentOp& op = *p.op;
        op.pull_ = sim_->spawn(run_pull(std::move(p)), "peer-pull");
        progress = true;
        continue;
      }
      ++p.attempts;
      ++in_hand_;
      co_await core.compute(cal_->dlfs.prep_request + cal_->dlfs.sq_post);
      --in_hand_;
      const std::uint64_t tag = next_tag_++;
      const auto st = q->submit(
          p.op->extent.write ? spdk::IoOp::kWrite : spdk::IoOp::kRead,
          p.offset, p.buffer.span().subspan(0, p.len), tag);
      if (st == spdk::IoStatus::kQueueFull) {
        // The command never reached the device; hand the QoS grant back.
        if (tenant_) tenant_->cancel_admit(p.len);
        dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
        if (q->connected()) {
          // A concurrent pumper filled the queue while we were prepping.
          to_post_.push_front(std::move(p));
          break;
        }
        // The queue slipped into reconnecting, full, mid-prep: park the
        // piece at the back so healthy nodes keep posting; its route
        // advances when the node is declared down.
        to_post_.push_back(std::move(p));
        continue;
      }
      if (st == spdk::IoStatus::kConnectionLost) {
        // The queue's reconnect budget is spent (or the local controller
        // died): the whole node is gone, not just this piece. Fail over
        // to a surviving replica in place when the extent has one.
        if (tenant_) tenant_->cancel_admit(p.len);  // never left the host
        mark_node_down(p.nid);
        {
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          if (!reroute_piece(p)) {
            fail_op(*p.op, std::make_exception_ptr(IoError(
                               p.nid, p.offset, IoErrorKind::kNodeDown)));
          }
        }
        progress = true;
        continue;
      }
      if (st != spdk::IoStatus::kOk) {
        throw std::runtime_error("unexpected submit failure in the pump");
      }
      ++posted_;
      {
        dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
        in_flight_.emplace(tag, std::move(p));
      }
      progress = true;
    }

    // Poll every queue with work outstanding.
    std::uint64_t polled = 0;
    for (const auto& target : targets_) {
      if (!target || target->outstanding() == 0) continue;
      ++polled;
    }
    if (polled > 0) {
      co_await core.compute(cal_->dlfs.poll_iteration * polled);
    }
    for (const auto& target : targets_) {
      if (!target) continue;
      const std::vector<spdk::IoCompletion> comps = target->poll();
      if (comps.empty()) continue;
      // Batched completion drain: every piece this poll harvested is
      // claimed under ONE ledger acquisition (the real SCQ is drained
      // with one lock hold, not one per completion), and the handling
      // cost for the whole batch is charged as a single compute slice.
      // Status routing below still processes completions in harvest
      // order, so retry/failover behaviour per piece is unchanged.
      std::vector<std::pair<spdk::IoCompletion, Piece>> ready;
      ready.reserve(comps.size());
      {
        dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
        for (const spdk::IoCompletion& c : comps) {
          auto it = in_flight_.find(c.user_tag);
          assert(it != in_flight_.end());
          ready.emplace_back(c, std::move(it->second));
          in_flight_.erase(it);
        }
      }
      in_hand_ += ready.size();
      co_await core.compute(cal_->dlfs.completion_handling * ready.size());
      in_hand_ -= ready.size();
      for (auto& [c, p] : ready) {
        progress = true;
        // Every harvested completion frees one QoS grant, whatever its
        // status — a retry re-admits when it is re-posted.
        if (tenant_) tenant_->on_complete(p.len);
        if (p.op->error_) continue;  // failed extent: buffer just drops
        if (c.status == spdk::IoStatus::kConnectionLost) {
          // Transport gave up on the node. Re-route the piece to a
          // surviving replica in place; queued siblings follow the
          // extent's new route in the posting loop above.
          mark_node_down(p.nid);
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          if (!reroute_piece(p)) {
            fail_op(*p.op, std::make_exception_ptr(IoError(
                               p.nid, p.offset, IoErrorKind::kNodeDown)));
          }
          continue;
        }
        if (c.status == spdk::IoStatus::kMediaError ||
            c.status == spdk::IoStatus::kTimeout) {
          // Transient fault: re-post the same piece (same cache chunk)
          // until the retry budget runs out, backing off per attempt so
          // retries don't hot-loop the device queue.
          if (p.attempts > kMaxRetries) {
            if (c.status == spdk::IoStatus::kTimeout) {
              // Timeout budget spent: before declaring the read failed,
              // try a replica — the node may be slow or partitioned while
              // a sibling copy is healthy. Media errors stay sample-fatal
              // (the application must hear about bad bytes).
              dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
              if (reroute_piece(p)) continue;
            }
            fail_op(*p.op,
                    std::make_exception_ptr(IoError(
                        p.nid, p.offset,
                        c.status == spdk::IoStatus::kTimeout
                            ? IoErrorKind::kTimeout
                            : IoErrorKind::kMedia)));
            continue;
          }
          ++retries_;
          const dlsim::SimDuration backoff =
              kRetryBackoff << std::min<std::uint32_t>(p.attempts - 1, 10);
          dlsim::AccessSlice slice{pieces_ledger_, /*write=*/true};
          p.not_before = sim_->now() + backoff;
          delayed_.push_back(std::move(p));
          continue;
        }
        ++harvested_;
        ExtentOp& op = *p.op;
        // The op keeps exactly the piece's bytes of its chunk.
        op.buffers_[p.idx] = std::exchange(p.buffer, {}).slice(0, p.len);
        if (++op.pieces_done_ == op.pieces_total_) op.finished_ = true;
      }
    }

    if (!progress && !done()) {
      co_await wait_any(core);
    }
  }
}

dlsim::Task<void> IoEngine::pump(dlsim::CpuCore& core, ExtentOpPtr until) {
  // Stops as soon as `until` has all its pieces, or its pull is in flight.
  co_await pump_until(
      core, [&until] { return until->finished_ || until->pulling(); });
}

dlsim::Task<mem::DmaBuffer> IoEngine::take_chunk(dlsim::CpuCore& core) {
  co_await pump_until(core, [this] {
    dlsim::AccessSlice slice{pieces_ledger_, /*write=*/false};
    return make_room();
  });
  co_return pool_->allocate();
}

dlsim::Task<void> IoEngine::await_op(dlsim::CpuCore& core, ExtentOpPtr op) {
  co_await pump(core, op);
  while (op->pull_) {  // park on the pull: no poll loop while it flies
    const dlsim::Process pull = *op->pull_;
    co_await pull.join();
    co_await pump(core, op);  // the device route, if it failed over
  }
}

dlsim::SimDuration IoEngine::copy_busy_ns() const {
  dlsim::SimDuration total = 0;
  for (const auto& c : copy_cores_) total += c->busy_ns();
  return total;
}

std::uint64_t IoEngine::cross_core_handoffs() const {
  std::uint64_t total = 0;
  for (const auto& c : copy_cores_) total += c->cross_core_handoffs();
  return total;
}

}  // namespace dlfs::core
