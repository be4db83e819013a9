#pragma once

// IoEngine: DLFS's backend layer (§III-C) — the prep/post/poll/copy
// pipeline over SPDK queue pairs.
//
//   prep  — build one SPDK request per data chunk of the extent (requests
//           larger than the chunk size split into multiple, each with its
//           own cache chunk, exactly as §III-C.1 describes)
//   post  — submit to the target's queue pair, bounded by queue depth
//   poll  — busy-poll completion queues; every harvested piece lands in
//           its extent's pool chunk
//   copy  — a pool of copy threads drains the shared completion queue
//           (SCQ), one job per pop, and memcpys sample data from the
//           huge-page chunks to the application buffer; the core that
//           queued the jobs may drain them too (drain_copies)
//
// Reads are modeled as *extent operations* (ExtentOp): start_extents()
// splits each extent into chunk-sized pieces and queues them; await_op()
// drives the shared post/poll pump from the awaiting coroutine's core
// until that one extent's chunks are in. Every ExtentOp carries its own
// completion state, so independent consumers — demand reads and the
// asynchronous prefetcher's read-ahead — share one engine, one tag space
// and one queue-depth budget, and each awaits only the extents it
// actually needs while the rest complete in the background. The engine
// only fetches: a consumer takes a landed extent's chunks
// (ExtentOp::take_buffers) and queues its own copy (enqueue_copy, or
// run_copy_inline without copy threads).
//
// The pump runs *in the awaiting coroutine* (the paper drives DLFS with
// one I/O thread on one core; that core is charged for all prep, post,
// poll and completion-handling work it performs). Copy threads are
// separate daemons with their own cores; a copy job pays the cross-core
// handoff only when a core other than the one that queued it runs it.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/calibration.hpp"
#include "dlfs/qos.hpp"
#include "dlfs/sample_cache.hpp"
#include "dlfs/sample_entry.hpp"
#include "sim/check.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "spdk/io_queue.hpp"

namespace dlfs::core {

struct IoEngineConfig {
  std::uint64_t chunk_bytes = 256 * 1024;  // request split size (paper default)
  std::uint32_t copy_threads = 2;
  // Mid-epoch reprobe: when > 0, a background daemon revalidates down
  // nodes every `reprobe_interval` on its own core, instead of waiting
  // for the caller's epoch-boundary reprobe. 0 = epoch-boundary only.
  // The daemon only schedules timers while a node is down (it parks on
  // an event otherwise), so the simulator can quiesce once the cluster
  // is healthy; a node that never recovers keeps the timer wheel alive,
  // so such runs must be bounded with run_until/run_watchdog.
  dlsim::SimDuration reprobe_interval = 0;
};

/// Why a read ultimately failed — callers route on this: media errors are
/// sample-fatal (surface to the application), node-level faults are
/// survivable (skip the samples, finish the epoch degraded).
enum class IoErrorKind : std::uint8_t {
  kMedia,     // device returned kMediaError past the retry budget
  kTimeout,   // command deadlines kept expiring past the retry budget
  kNodeDown,  // the storage node's reconnect budget is exhausted
};

/// A read failed even after IoEngine::kMaxRetries re-posts.
class IoError : public std::runtime_error {
 public:
  IoError(std::uint16_t nid, std::uint64_t offset,
          IoErrorKind kind = IoErrorKind::kMedia)
      : std::runtime_error(
            std::string(kind == IoErrorKind::kNodeDown
                            ? "storage node down: node "
                            : (kind == IoErrorKind::kTimeout
                                   ? "I/O timed out on storage node "
                                   : "unrecoverable I/O error on storage "
                                     "node ")) +
            std::to_string(nid) + " at offset " + std::to_string(offset)),
        nid(nid),
        offset(offset),
        kind(kind) {}
  std::uint16_t nid;
  std::uint64_t offset;
  IoErrorKind kind;
};

/// One extent to fetch into pool chunks, which land on the ExtentOp for
/// take_buffers(). It carries a read from issue to delivery.
struct ReadExtent {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  // The consumer's name for the extent: the sample id of a per-sample
  // extent, the epoch slot of a chunk unit. The engine reads it only as
  // a pull's sample.
  std::uint64_t key = 0;
  // Alternate placements of the same bytes (replica failover order). The
  // engine consumes hops from the front as it re-routes, so at any moment
  // the list holds exactly the untried alternates: when (nid, offset)
  // stops being reachable the extent is re-pointed at the first hop whose
  // node is up and the read restarts there instead of failing kNodeDown.
  std::vector<RouteHop> routes{};
  // kPeer: a pull of sample `key` out of a peer's DRAM into one pool
  // chunk, whose refusal turns the extent into a read of (nid, offset).
  // kCache: a pin of sample `key` in the engine's cache, taken at issue.
  HopClass cls = HopClass::kStorage;
  // Direction. Write extents (start_write) carry their payload in the
  // piece buffers instead of allocating them at post time; they have no
  // failover routes — a write targets one specific placement, and a dead
  // target fails the op with kNodeDown for the caller to re-plan.
  bool write = false;
};

/// Shared state of one in-flight extent read. Created by start_extents();
/// finished() turns true when the extent's chunks are all in or when it
/// failed — check error() before touching the data. Failures are
/// *stored*, never thrown from the pump, so a read-ahead error surfaces on
/// whichever consumer eventually needs the extent instead of killing the
/// prefetch daemon.
class ExtentOp {
 public:
  explicit ExtentOp(ReadExtent x) : extent(std::move(x)) {}

  ReadExtent extent;

  [[nodiscard]] bool finished() const { return finished_; }
  /// A pull of the extent is in flight: it needs no pump until it lands,
  /// or until its refusal queues the device read.
  [[nodiscard]] bool pulling() const { return pull_.has_value(); }
  [[nodiscard]] std::exception_ptr error() const { return error_; }

  /// The extent's chunk buffers, in on-device order, left on the op.
  [[nodiscard]] const std::vector<mem::DmaBuffer>& buffers() const {
    return buffers_;
  }

  /// The extent's chunk buffers, in on-device order. Transfers
  /// ownership; call once, once finished() without an error.
  [[nodiscard]] std::vector<mem::DmaBuffer> take_buffers() {
    return std::move(buffers_);
  }

  /// A kCache extent's pin, held from issue until taken or the op drops.
  /// Transfers ownership; call once.
  [[nodiscard]] CachePin take_pin() { return std::move(pin_); }

 private:
  friend class IoEngine;
  bool finished_ = false;
  std::optional<dlsim::Process> pull_{};  // engaged while a pull runs
  std::exception_ptr error_{};
  std::uint32_t pieces_total_ = 0;
  std::uint32_t pieces_done_ = 0;
  std::vector<mem::DmaBuffer> buffers_;  // placed by piece index
  CachePin pin_{};
};

using ExtentOpPtr = std::shared_ptr<ExtentOp>;

/// Work item on the shared completion queue: the copy of one sample to
/// `dst`, one completed request as the paper's copy stage has it.
struct CopyJob {
  // Either owned pieces (sample-level reads) ...
  std::vector<mem::DmaBuffer> owned_pieces;
  std::vector<std::uint32_t> piece_lens;
  // ... or borrowed views (copies out of a resident data chunk).
  std::vector<std::span<const std::byte>> views;
  std::byte* dst = nullptr;
  std::optional<std::size_t> cache_sample_id{};
  // What keeps `views`' bytes alive, when the job must (a CachePin's
  // bytes): dropped as soon as they are copied.
  std::shared_ptr<const void> hold{};
  dlsim::CountdownLatch* latch = nullptr;
  // Core that produced the job. A core other than this one that runs the
  // job (a copy thread) pays the cross-core handoff cost (cache-line
  // transfer of the job + first-touch misses on the data) once and counts
  // the event, so locality shows up in CPU results instead of being free.
  const dlsim::CpuCore* origin = nullptr;
};

/// Piece lengths of a `len`-byte extent split at the chunk size — the
/// split start_extents performs; prefetched buffers come back in exactly
/// these pieces.
inline std::vector<std::uint32_t> piece_lens_of(std::uint32_t len,
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

class IoEngine {
 public:
  IoEngine(dlsim::Simulator& sim, mem::HugePagePool& pool, SampleCache& cache,
           const Calibration& cal, const IoEngineConfig& config);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Registers the queue used to reach storage node `nid`.
  void attach_target(std::uint16_t nid, std::unique_ptr<spdk::IoQueue> queue);

  /// Splits the extents into chunk-sized pieces and queues them for
  /// posting. Nothing is submitted until some coroutine drives the pump
  /// via await_op() — posting, polling and completion handling are
  /// charged to whichever cores await. A kCache extent is pinned in the
  /// cache, which must hold its sample, and finishes at once. `land`,
  /// when not empty, holds one buffer per extent: an extent with a valid
  /// one is a single piece that lands in it (a slice of a chunk several
  /// extents share, from take_chunk) instead of a chunk of its own.
  [[nodiscard]] std::vector<ExtentOpPtr> start_extents(
      std::vector<ReadExtent> extents, std::vector<mem::DmaBuffer> land = {});
  [[nodiscard]] ExtentOpPtr start_extent(ReadExtent extent);

  /// Queues a write of `pieces` (pool-owned buffers, `lens[i]` bytes each,
  /// chunk-aligned splits of one device extent) to node `nid` starting at
  /// `offset`. Rides the same posting/poll pump, queue-depth budget and
  /// fault machinery as reads — the re-replication engine uses this to
  /// stream repaired bytes to a replacement node without a second I/O
  /// path. The buffers stay owned by the op until it completes.
  [[nodiscard]] ExtentOpPtr start_write(std::uint16_t nid,
                                        std::uint64_t offset,
                                        std::vector<mem::DmaBuffer> pieces,
                                        std::vector<std::uint32_t> lens);

  /// One free pool chunk, for extents that land in slices of it, taken
  /// through the pump's pool-pressure step: a cache eviction, then shed
  /// read-ahead. While only I/O in flight can free one, pumps on `core`
  /// until it does; throws as the pump does on pool livelock.
  [[nodiscard]] dlsim::Task<mem::DmaBuffer> take_chunk(dlsim::CpuCore& core);

  /// Drives the shared pump on `core` until `until` completes (chunks in
  /// or failed) or its pull is in flight. Extent failures are recorded on
  /// the op, not thrown; pool livelock (exhausted + nothing evictable +
  /// nothing in flight) still throws.
  [[nodiscard]] dlsim::Task<void> pump(dlsim::CpuCore& core,
                                       ExtentOpPtr until);
  /// pump, then waits out a pull in flight without polling, and pumps the
  /// device read a refusal queued: returns once `op` completes.
  [[nodiscard]] dlsim::Task<void> await_op(dlsim::CpuCore& core,
                                           ExtentOpPtr op);

  /// Enqueues a copy of landed or resident bytes on the copy-thread pool,
  /// which must exist (copy_threads > 0). The latch is counted down after
  /// the memcpy; a job has by then dropped its `hold`, and one with
  /// `cache_sample_id` has retained its owned pieces in the sample cache
  /// (V bit set).
  [[nodiscard]] dlsim::Task<void> enqueue_copy(CopyJob job);

  /// Runs queued copy jobs on `core` until the SCQ is empty; a job a copy
  /// thread already holds is left to it. The I/O core calls this once a
  /// batch has queued its last job, so it copies instead of idling on the
  /// batch's latch. Without copy threads the SCQ is always empty.
  [[nodiscard]] dlsim::Task<void> drain_copies(dlsim::CpuCore& core);
  /// The one step that runs a copy job on `core`, for the copy threads,
  /// drain_copies and the copies made without the SCQ: copy_cost, plus
  /// the cross-core handoff when `core` is not the job's origin.
  [[nodiscard]] dlsim::Task<void> run_copy_inline(dlsim::CpuCore& core,
                                                  CopyJob job);
  /// CPU time of one job, inline or on a copy thread before any handoff:
  /// completion_handling plus the memcpy.
  [[nodiscard]] dlsim::SimDuration copy_cost(const CopyJob& job) const;

  /// Called when the pool is exhausted, the sample cache has nothing
  /// evictable, and a read still needs chunks. Returns true if the
  /// callback shed something (the prefetcher's farthest read-ahead unit:
  /// its chunks, or the cache pins it held), and the pool-pressure step
  /// tries the pool and the cache again; false lets it fall through to
  /// the livelock guard.
  void set_pressure_reliever(std::function<bool()> reliever) {
    pressure_reliever_ = std::move(reliever);
  }

  /// Called when a peer refuses a pull and its piece is queued for the
  /// device: the read needs a pumper, and the pull's waiters may all have
  /// moved on (the prefetch daemon does not wait on a pull in flight).
  void set_refusal_handler(std::function<void()> handler) {
    refusal_handler_ = std::move(handler);
  }

  /// Multi-tenant QoS: when set, every piece must be admitted by the
  /// tenant's governor before it is posted (and the grant is returned on
  /// completion). All engines of one job share one handle, so the
  /// in-flight cap and the fair-share clock are job-wide. Null = no QoS
  /// (standalone job), zero overhead.
  void set_tenant(std::shared_ptr<TenantHandle> tenant) {
    tenant_ = std::move(tenant);
  }
  /// Posting-loop stalls caused by QoS admission (not queue depth).
  [[nodiscard]] std::uint64_t qos_deferrals() const { return qos_deferrals_; }

  /// Pulls sample `sample_id` (`len` bytes) from a peer's DRAM into
  /// `into`; false is a refusal. The pump admits a pull like a device
  /// piece (a chunk, then a grant the puller returns, or cancels on a
  /// refusal before the bulk send) and spawns it.
  using PeerPuller = std::function<dlsim::Task<bool>(
      std::uint32_t sample_id, std::uint32_t len, mem::DmaBuffer* into)>;
  void set_peer_puller(PeerPuller p) { peer_puller_ = std::move(p); }

  // --- node fault domain ---------------------------------------------------
  /// Fired on availability transitions of a storage node: (nid, false)
  /// when its reconnect budget is exhausted, (nid, true) when a reprobe
  /// brings it back. DLFS wires this to the sample directory's V bits.
  void set_node_down_handler(std::function<void(std::uint16_t, bool)> fn) {
    node_handler_ = std::move(fn);
  }
  [[nodiscard]] bool node_available(std::uint16_t nid) const {
    return nid >= node_down_.size() || node_down_[nid] == 0;
  }
  [[nodiscard]] std::uint32_t nodes_down() const;
  /// One revalidation pass over every down node (paced by the caller —
  /// DLFS runs it at epoch start). Returns how many nodes came back.
  [[nodiscard]] dlsim::Task<std::uint32_t> reprobe_down_nodes(
      dlsim::CpuCore& core);
  /// Aggregated transport counters across all attached queues.
  [[nodiscard]] spdk::IoQueueStats transport_stats() const;

  [[nodiscard]] std::uint64_t requests_posted() const { return posted_; }
  [[nodiscard]] std::uint64_t completions_harvested() const {
    return harvested_;
  }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  /// Aggregate busy time of the copy-thread pool.
  [[nodiscard]] dlsim::SimDuration copy_busy_ns() const;
  /// Copy jobs executed on a different core than the one that produced
  /// them (aggregated over the copy-thread pool).
  [[nodiscard]] std::uint64_t cross_core_handoffs() const;

 private:
  static constexpr std::uint32_t kScqCapacity = 4096;
  // Busy-poll quantum used when waiting on event-driven (remote) queues.
  static constexpr dlsim::SimDuration kPollQuantum = 500;
  // Transient media errors are re-posted this many times before the read
  // fails (NVMe drivers retry retryable statuses the same way).
  static constexpr std::uint32_t kMaxRetries = 3;
  // First-retry delay; doubles per attempt. Keeps a faulting device from
  // being hammered with re-posts within the same poll quantum.
  static constexpr dlsim::SimDuration kRetryBackoff = 10'000;  // 10 us

  struct Piece {
    ExtentOpPtr op;
    std::uint32_t idx = 0;  // position within the extent
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    mem::DmaBuffer buffer;
    std::uint32_t attempts = 0;
    dlsim::SimTime not_before = 0;  // retry backoff gate
    // Node this piece was last *posted* to. The extent may be re-routed
    // by a sibling piece while this one is in flight, so failure handling
    // compares p.nid against op->extent.nid to tell "my route died" from
    // "the op already moved on — just follow it".
    std::uint16_t nid = 0;
  };

  /// The pool-pressure step, for a piece's chunk and take_chunk alike:
  /// true once the pool has a free chunk, after evicting the cache's LRU
  /// entry and then shedding read-ahead as needed. False while only I/O
  /// in flight can free one; throws when none is (pool livelock). Must
  /// run inside a pieces_ledger_ slice.
  bool make_room();
  /// Drives the shared pump on `core` until `done()`: each pass posts
  /// what it can, then polls and harvests every queue, and a pass that
  /// moves nothing waits for the next completion.
  template <typename Done>
  dlsim::Task<void> pump_until(dlsim::CpuCore& core, Done done);
  void mark_node_down(std::uint16_t nid);
  /// Re-points `x` at the first routed replica whose node is attached and
  /// up, consuming hops from the front. False when no alternate remains.
  bool advance_route(ReadExtent& x);
  /// Failure handling for a piece whose posted route (p.nid) stopped
  /// working: follows the op if a sibling already re-routed it, otherwise
  /// advances to the next live replica; requeues the piece with a fresh
  /// retry budget. False = no route left, the caller fails the op. Must
  /// run inside a pieces_ledger_ write slice.
  bool reroute_piece(Piece& p);
  /// One admitted pull: lands it, or fails the extent over to the device.
  dlsim::Task<void> run_pull(Piece p);
  dlsim::Task<void> probe_loop(std::shared_ptr<bool> alive);
  void promote_delayed();
  static void fail_op(ExtentOp& op, std::exception_ptr e);
  dlsim::Task<void> copy_thread_loop(std::size_t idx);
  void do_copy(CopyJob& job);
  dlsim::Task<void> wait_any(dlsim::CpuCore& core);

  dlsim::Simulator* sim_;
  mem::HugePagePool* pool_;
  SampleCache* cache_;
  const Calibration* cal_;
  IoEngineConfig config_;
  std::vector<std::unique_ptr<spdk::IoQueue>> targets_;  // index = nid
  std::unique_ptr<dlsim::Channel<CopyJob>> scq_;
  std::vector<std::unique_ptr<dlsim::CpuCore>> copy_cores_;
  // Mid-epoch reprobe daemon (reprobe_interval > 0): its own core, so
  // probe handshakes never steal cycles from the I/O thread; the alive
  // token is cleared by the destructor and checked after every await.
  // The daemon parks on probe_wake_ while every node is up (set by
  // mark_node_down) so it holds no pending timers when the cluster is
  // healthy and the simulator can quiesce. The destructor must NOT set
  // the event: the parked frame would resume into a destroyed member.
  std::unique_ptr<dlsim::CpuCore> probe_core_;
  std::unique_ptr<dlsim::Event> probe_wake_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Engine-global piece state: all concurrent drivers (bread demand
  // fetches, the prefetch daemon) share one posting queue and one
  // in-flight map, so completions are delivered to the right extent no
  // matter which coroutine harvests them. Every pumper's touch of these
  // queues is ledgered as a suspension-free slice — concurrent pumpers
  // may interleave *between* slices, never inside one.
  mutable dlsim::AccessLedger pieces_ledger_{"engine-pieces"};
  std::deque<Piece> to_post_;
  std::vector<Piece> delayed_;  // retries waiting out their backoff
  std::unordered_map<std::uint64_t, Piece> in_flight_;
  std::uint32_t pulls_ = 0;  // pulls in flight
  PeerPuller peer_puller_;
  std::function<bool()> pressure_reliever_;
  std::function<void()> refusal_handler_;
  std::shared_ptr<TenantHandle> tenant_;  // null = ungoverned
  std::uint64_t qos_deferrals_ = 0;
  std::vector<std::uint8_t> node_down_;  // index = nid; 1 = unavailable
  std::function<void(std::uint16_t, bool)> node_handler_;
  std::uint64_t posted_ = 0;
  std::uint64_t harvested_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t next_tag_ = 1;
};

}  // namespace dlfs::core
