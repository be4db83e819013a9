#pragma once

// Asynchronous epoch-aware prefetcher.
//
// dlfs_sequence hands every client the *entire* epoch access order up
// front, so — exactly as clairvoyant prefetching systems (NoPFS) exploit
// — there is nothing speculative about read-ahead: the next read units
// are known. Appending them to the blocking fetch the consumer waits on
// would inflate bread latency instead of hiding it.
//
// The Prefetcher is a per-instance daemon coroutine (own CpuCore, like
// the SCQ copy threads) that walks a *read-unit* order ahead of the
// consumer cursor and keeps a window of units in flight *across* bread
// calls. The daemon knows only the epoch's unit count and how to list a
// unit's extents (UnitReads); a unit is one data chunk (chunk-level
// batching) or a group of consecutive per-sample extents (sample-level
// batching), so one windowed daemon serves every batched bread. While
// the trainer computes between breads, the daemon pumps the shared
// IoEngine and upcoming units land in huge-page chunks; bread then finds
// its units already resident (acquire() returns without stalling) and
// awaits only what is genuinely missing. The daemon waits only on its
// wake event, never on a peer pull in flight, so the window is topped up
// as soon as an acquire frees space in it.
//
// Window policy (adaptive):
//   * the target is the read-ahead depth *beyond* the highest slot the
//     consumer has demanded so far — units of the current batch do not
//     count against it, so the daemon keeps reading ahead of the batch
//     even while the consumer is busy acquiring it;
//   * target starts at clamp(initial_units, min, max) and grows by one
//     on every acquire() that had to stall — a stall means the window was
//     not deep enough to cover the consumer's inter-arrival time;
//   * a unit with a peer pull reads ahead no deeper than the starting
//     target: the fabric books whole messages FIFO per NIC pipe, so every
//     bulk pull booked into this client's ingress delays later control hops;
//   * it shrinks when the huge-page pool cannot hold more read-ahead
//     (top_up blocked with less than kReserveChunks of headroom), and when
//     the engine invokes the pressure reliever — pool exhausted and
//     SampleCache::evict_lru_one() found nothing to yield — in which case
//     the farthest resident, unconsumed unit is dropped and its chunks
//     returned, or the cache entries its pins held made evictable.
//
// Failure model: a prefetched extent's IoError is stored on its ExtentOp
// and handed back *per op* by acquire() — the daemon never dies on a
// bad read-ahead, and the consumer routes each extent's error exactly as
// it would a synchronous fetch failure (media fatal, node faults skip
// just the affected samples).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dlfs/io_engine.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/check.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace dlfs::core {

/// Window policy of the per-instance prefetch daemon, which serves every
/// batched bread.
struct PrefetcherConfig {
  std::uint32_t min_units = 1;      // adaptive window lower bound
  std::uint32_t max_units = 32;     // adaptive window upper bound
  std::uint32_t initial_units = 4;  // starting window target
};

struct PrefetchStats {
  std::uint64_t units_issued = 0;            // read-ahead + demand issues
  std::uint64_t units_resident_at_pick = 0;  // finished before acquire()
  std::uint64_t units_stalled = 0;           // acquire() had to wait
  dlsim::SimDuration stall_ns = 0;           // total wait on needed units
  std::uint64_t in_flight_hwm = 0;           // window depth high-water mark
  std::uint64_t window_grows = 0;
  std::uint64_t window_shrinks = 0;
  std::uint64_t units_dropped = 0;   // shed under pool pressure
  std::uint64_t units_reissued = 0;  // retried after a node came back
  std::uint64_t window_target = 0;   // current adaptive target
};

class Prefetcher {
 public:
  Prefetcher(dlsim::Simulator& sim, IoEngine& engine, mem::HugePagePool& pool,
             std::uint64_t chunk_bytes, PrefetcherConfig config,
             const std::string& name);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// The extents of read unit `slot` worth fetching at call time, each
  /// keyed by the consumer's name for it.
  using UnitReads = std::function<std::vector<ReadExtent>(std::size_t slot)>;

  /// Installs a new read-unit order of `units` units (an empty `reads`:
  /// none, nothing is read ahead). Unfinished read-ahead from the previous
  /// order keeps draining in the background (extents cannot be cancelled)
  /// and its buffers are dropped on completion.
  void start_epoch(std::size_t units, UnitReads reads);

  /// Demand-issues every unit up to and including `slot` that is not
  /// already in the window — bread calls this for its whole pick list
  /// before awaiting anything, so a batch larger than the window still
  /// fetches all its units concurrently.
  void ensure_issued_through(std::size_t slot);

  /// Hands over unit `slot`'s finished ops (buffers in on-device order,
  /// or a stored error; a failed op's landed chunks are dropped), waiting
  /// — and pumping the engine on `consumer_core` — only if the unit is
  /// not fully resident yet. Consumption must be in slot order. Extents
  /// `reads` elided at issue time (samples a co-located peer holds) are
  /// simply absent.
  [[nodiscard]] dlsim::Task<std::vector<ExtentOpPtr>> acquire(
      std::size_t slot, dlsim::CpuCore& consumer_core);

  /// Engine pressure callback: drops the farthest resident unconsumed
  /// unit and shrinks the window. Returns true if it dropped one: its
  /// chunks are free, and the cache entries it pinned are evictable.
  bool relieve_pressure();

  /// Engine refusal callback: a refused pull's device read needs the
  /// daemon's pump.
  void wake() { wake_.set(); }

  /// Forgets unit `slot` without consuming it — bread skips a unit whose
  /// storage node is unavailable and tells the window to drop it. A
  /// still-unfinished op keeps draining on the daemon (extents cannot be
  /// cancelled); resident buffers are freed immediately.
  void discard(std::size_t slot);

  /// Re-issues every unconsumed window extent whose op failed — called
  /// after a down node is revalidated, so read-ahead issued while the node
  /// was unavailable is retried instead of surfacing stale errors. Returns
  /// the number of extents reissued.
  std::uint32_t reissue_failed();

  [[nodiscard]] const PrefetchStats& stats() const { return stats_; }
  [[nodiscard]] const dlsim::CpuCore& core() const { return *core_; }

 private:
  // Pool chunks kept free for demand fetches and the sample cache when
  // sizing read-ahead (a cache pin takes none); top_up never takes the
  // pool below this.
  static constexpr std::uint64_t kReserveChunks = 8;

  struct Entry {
    std::size_t slot = 0;
    // A kCache op holds its cache pin, so dropping the entry (a shed
    // unit, a new epoch) releases it.
    std::vector<ExtentOpPtr> ops;
    bool pinned = false;  // a consumer is awaiting it; reliever must skip
  };

  [[nodiscard]] static std::uint64_t extents_chunks(
      const std::vector<ReadExtent>& xs, std::uint64_t chunk_bytes);
  [[nodiscard]] std::size_t window_size() const {
    return window_.read()->size();
  }
  /// Issues unit `slot` into the window at its slot position
  /// (self-guarded; reentrant from a caller already holding the window's
  /// guard — same-task slices nest).
  void issue_entry(std::size_t slot, std::vector<ReadExtent> xs);
  void top_up();
  [[nodiscard]] ExtentOpPtr oldest_unfinished();
  dlsim::Task<void> daemon_loop();

  dlsim::Simulator* sim_;
  IoEngine* engine_;
  mem::HugePagePool* pool_;
  std::uint64_t chunk_bytes_;
  PrefetcherConfig cfg_;
  std::unique_ptr<dlsim::CpuCore> core_;
  dlsim::Event wake_;
  UnitReads reads_;  // empty: no unit order installed
  // The in-flight window in slot order, front = next to consume. Every
  // touch is one suspension-free slice on its ledger.
  dlsim::Checked<std::deque<Entry>> window_{"prefetch-window"};
  std::vector<ExtentOpPtr> draining_;  // abandoned epochs' unfinished ops
  std::size_t next_issue_ = 0;
  std::size_t demand_floor_ = 0;  // one past the highest demanded slot
  std::size_t total_units_ = 0;
  std::uint32_t window_target_;
  std::uint32_t pull_depth_;  // the starting target, for units with pulls
  PrefetchStats stats_;
  std::exception_ptr daemon_error_{};
  bool shutdown_ = false;
};

}  // namespace dlfs::core
