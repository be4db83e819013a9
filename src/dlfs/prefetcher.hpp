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
// calls. A read unit is whatever the installed ReadUnitProvider says it
// is — one data chunk (chunk-level batching), a group of consecutive
// per-sample extents (sample-level batching), or one whole record file
// (the open_file() streaming path) — so one windowed daemon serves every
// batched bread and the file-oriented API. While the trainer
// computes between breads, the daemon pumps the shared IoEngine and
// upcoming units land in huge-page chunks; bread then finds its units
// already resident (acquire() returns without stalling) and awaits only
// what is genuinely missing.
//
// Window policy (adaptive):
//   * the target is the read-ahead depth *beyond* the highest slot the
//     consumer has demanded so far — units of the current batch do not
//     count against it, so the daemon keeps reading ahead of the batch
//     even while the consumer is busy acquiring it;
//   * target starts at clamp(initial_units, min, max) and grows by one
//     on every acquire() that had to stall — a stall means the window was
//     not deep enough to cover the consumer's inter-arrival time;
//   * it shrinks when the huge-page pool cannot hold more read-ahead
//     (top_up blocked with less than `reserve_chunks` headroom), when the
//     engine invokes the pressure reliever — pool exhausted and
//     SampleCache::evict_lru_one() found nothing to yield — in which case
//     the farthest resident, unconsumed unit is dropped and its chunks
//     returned, and when a shared PrefetchArbiter caps this instance's
//     read-ahead below what it wanted (co-located daemons competing for
//     one node's huge pages).
//
// Failure model: a prefetched extent's IoError is stored on its ExtentOp
// and handed back *per extent* by acquire() — the daemon never dies on a
// bad read-ahead, and the consumer routes each extent's error exactly as
// it would a synchronous fetch failure (media fatal, node faults skip
// just the affected samples).

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dlfs/batching.hpp"
#include "dlfs/io_engine.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/check.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace dlfs::core {

class Prefetcher;

/// Divides one node's read-ahead budget among the co-located instances'
/// prefetch daemons. Each daemon, before topping its window up, asks for
/// its chunk allowance: the node-wide headroom (every member pool's free
/// chunks beyond its reserve, plus chunks already held as read-ahead)
/// split proportionally to the members' adaptive window targets — an
/// instance that stalls often grows its target and thereby its share,
/// while an instance coasting on a shallow window yields huge pages to
/// its neighbours instead of each daemon shrinking blindly on local
/// pool pressure alone. An instance's allowance never exceeds what its
/// own pool can actually hold, and never starves below one unit.
class PrefetchArbiter {
 public:
  PrefetchArbiter() = default;
  PrefetchArbiter(const PrefetchArbiter&) = delete;
  PrefetchArbiter& operator=(const PrefetchArbiter&) = delete;

  void register_member(Prefetcher& p);
  void unregister_member(Prefetcher& p);
  [[nodiscard]] std::size_t members() const { return members_.read()->size(); }

  /// Chunks `p` may hold as read-ahead right now.
  [[nodiscard]] std::uint64_t chunk_allowance(const Prefetcher& p) const;

 private:
  // Checked: the membership list is read by every co-located daemon's
  // top-up and mutated from instance setup/teardown; the ledger proves
  // no daemon is suspended mid-budget-split while the fleet mutates it.
  dlsim::Checked<std::vector<Prefetcher*>> members_{"prefetch-arbiter"};
};

/// Window policy of the per-instance prefetch daemon, which serves every
/// batched bread and the record-file path.
struct PrefetcherConfig {
  std::uint32_t min_units = 1;      // adaptive window lower bound
  std::uint32_t max_units = 32;     // adaptive window upper bound
  std::uint32_t initial_units = 4;  // starting window target
  // Pool chunks kept free for demand fetches and the sample cache when
  // sizing read-ahead; top_up never takes the pool below this.
  std::uint32_t reserve_chunks = 8;
  // Sample-level mode: consecutive epoch slots fused into one read
  // unit, so tiny per-sample extents amortize the window bookkeeping
  // (chunk mode is always 1 unit = 1 chunk).
  std::uint32_t group_samples = 8;
  // Register with the fleet's per-node PrefetchArbiter so co-located
  // instances share the node's read-ahead budget.
  bool shared_arbiter = false;
};

struct PrefetchStats {
  std::uint64_t units_issued = 0;            // read-ahead + demand issues
  std::uint64_t units_resident_at_pick = 0;  // finished before acquire()
  std::uint64_t units_stalled = 0;           // acquire() had to wait
  dlsim::SimDuration stall_ns = 0;           // total wait on needed units
  std::uint32_t in_flight_hwm = 0;           // window depth high-water mark
  std::uint64_t window_grows = 0;
  std::uint64_t window_shrinks = 0;
  std::uint64_t units_dropped = 0;   // shed under pool pressure
  std::uint64_t units_reissued = 0;  // retried after a node came back
  std::uint64_t arbiter_throttles = 0;  // top-ups capped by the arbiter
  std::uint32_t window_target = 0;   // current adaptive target
};

/// One extent of an acquired read unit, identified by the provider's
/// key. `error` is the stored IoError of a failed read-ahead (buffers
/// empty); the consumer routes it exactly like a demand-fetch failure.
struct AcquiredExtent {
  std::uint64_t key = 0;
  std::vector<mem::DmaBuffer> buffers;
  std::exception_ptr error{};
};

struct AcquiredUnit {
  std::vector<AcquiredExtent> extents;
  [[nodiscard]] std::exception_ptr first_error() const {
    for (const auto& x : extents) {
      if (x.error) return x.error;
    }
    return {};
  }
};

class Prefetcher {
 public:
  Prefetcher(dlsim::Simulator& sim, IoEngine& engine, mem::HugePagePool& pool,
             std::uint64_t chunk_bytes, PrefetcherConfig config,
             const std::string& name);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Joins / leaves a shared per-node arbiter (unregisters on destruction).
  void set_arbiter(std::shared_ptr<PrefetchArbiter> arbiter);

  /// Tenant QoS weight applied to this instance's arbiter share: the
  /// budget splits by weight × window target, so a high-priority job's
  /// read-ahead window follows its bandwidth share instead of competing
  /// symmetrically with a background job on the same node.
  void set_share_weight(double w);
  [[nodiscard]] double share_weight() const { return share_weight_; }

  /// Installs a new read-unit order. Unfinished read-ahead from the
  /// previous order keeps draining in the background (extents cannot be
  /// cancelled) and its buffers are dropped on completion.
  void start_epoch(const ReadUnitProvider* provider);

  /// Demand-issues every unit up to and including `slot` that is not
  /// already in the window — bread calls this for its whole pick list
  /// before awaiting anything, so a batch larger than the window still
  /// fetches all its units concurrently.
  void ensure_issued_through(std::size_t slot);

  /// Hands over unit `slot`'s extents (buffers in on-device order, or a
  /// stored error per failed extent), waiting — and pumping the engine on
  /// `consumer_core` — only if the unit is not fully resident yet.
  /// Consumption must be in slot order (the provider contract). Extents
  /// the provider elided at issue time (e.g. already cache-resident
  /// samples) are simply absent.
  [[nodiscard]] dlsim::Task<AcquiredUnit> acquire(
      std::size_t slot, dlsim::CpuCore& consumer_core);

  /// Engine pressure callback: drops the farthest resident unconsumed
  /// unit and shrinks the window. Returns true if chunks were freed.
  bool relieve_pressure();

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
  [[nodiscard]] dlsim::CpuCore& core() { return *core_; }
  [[nodiscard]] const dlsim::CpuCore& core() const { return *core_; }
  [[nodiscard]] std::size_t window_size() const;
  [[nodiscard]] std::uint32_t window_target() const { return window_target_; }
  // Arbiter inputs: chunks currently held by the window as read-ahead,
  // and this instance's pool headroom beyond its configured reserve.
  [[nodiscard]] std::uint64_t readahead_chunks() const { return ra_chunks_; }
  [[nodiscard]] std::uint64_t pool_headroom_chunks() const;

  /// Zero-copy consumers: pool chunks of already-acquired units that live
  /// ViewBatches still pin. They are read-ahead *output* the instance has
  /// not given back, so they count against its arbiter share — otherwise
  /// a co-located daemon would size its window as if those huge pages
  /// were reclaimable by consumption.
  void note_view_pins(std::int64_t delta_chunks) {
    view_pinned_chunks_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(view_pinned_chunks_) + delta_chunks);
  }
  [[nodiscard]] std::uint64_t view_pinned_chunks() const {
    return view_pinned_chunks_;
  }

 private:
  struct Extent {
    std::uint64_t key = 0;
    ExtentOpPtr op;
  };
  struct Entry {
    std::size_t slot = 0;
    std::vector<Extent> extents;
    std::uint64_t chunks = 0;  // pool chunks this unit's extents occupy
    bool pinned = false;  // a consumer is awaiting it; reliever must skip
  };

  // The in-flight window, sharded by slot. Each shard is its own Checked
  // deque (slot order within a shard; shard front = next to consume), so
  // the daemon's top-up touching slot s and a consumer acquiring slot t
  // form disjoint critical slices whenever s % kWindowShards !=
  // t % kWindowShards — only same-shard overlap would trip the ledger.
  // Operations that need a cross-window view (farthest entry, oldest
  // unfinished, total size) visit the shards one guard at a time.
  static constexpr std::size_t kWindowShards = 4;
  using WindowShard = dlsim::Checked<std::deque<Entry>>;

  [[nodiscard]] WindowShard& shard_for(std::size_t slot) {
    return window_shards_[slot % kWindowShards];
  }

  [[nodiscard]] static std::uint64_t extents_chunks(
      const std::vector<UnitExtent>& xs, std::uint64_t chunk_bytes);
  /// Issues unit `slot` into its shard (self-guarded; reentrant from a
  /// caller already holding that shard's guard — same-task slices nest).
  void issue_entry(std::size_t slot, std::vector<UnitExtent> xs, bool front);
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
  const ReadUnitProvider* provider_ = nullptr;
  std::shared_ptr<PrefetchArbiter> arbiter_;
  std::array<WindowShard, kWindowShards> window_shards_{
      WindowShard{"prefetch-window-0"}, WindowShard{"prefetch-window-1"},
      WindowShard{"prefetch-window-2"}, WindowShard{"prefetch-window-3"}};
  std::vector<ExtentOpPtr> draining_;  // abandoned epochs' unfinished ops
  std::size_t next_issue_ = 0;
  std::size_t demand_floor_ = 0;  // one past the highest demanded slot
  std::size_t total_units_ = 0;
  std::uint64_t ra_chunks_ = 0;  // sum of window entries' chunks
  std::uint64_t view_pinned_chunks_ = 0;  // held by live ViewBatches
  std::uint32_t window_target_;
  double share_weight_ = 1.0;  // tenant QoS weight for the arbiter split
  PrefetchStats stats_;
  std::exception_ptr daemon_error_{};
  bool shutdown_ = false;
};

}  // namespace dlfs::core
