#pragma once

// The DLFS public API (§III-A): dlfs_mount, dlfs_open / dlfs_read /
// dlfs_close, dlfs_sequence and dlfs_bread.
//
// A DlfsFleet is one mounted DLFS job: it owns the shared sample
// directory, the data layout, the batch plan, the NVMe-oF targets that
// export every storage node's device, and one DlfsInstance per client.
// dlfs_mount is collective — the caller spawns mount_participant(p) for
// every participant and the implementation does what the paper
// describes: each storage node uploads its shard from the PFS to its
// NVMe device, builds its slice of the in-memory sample directory, and
// the slices are all-gathered; each client then attaches a local SPDK
// queue for its own device and NVMe-oF initiator queues for all others.
//
// A DlfsInstance is one client (one I/O thread pinned to one core — the
// paper's configuration). It serves:
//   open(name)        -> handle (directory lookup)
//   read(handle, dst) -> synchronous sample read (cache-aware; this is
//                        DLFS-Base when used per sample)
//   sequence(seed)    -> install the epoch's global random order
//   bread(n, arena)   -> read the next n samples of this client's share
//                        with the configured batching optimizations

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/collective.hpp"
#include "cluster/pfs.hpp"
#include "common/calibration.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/batching.hpp"
#include "dlfs/directory_view.hpp"
#include "dlfs/io_engine.hpp"
#include "dlfs/prefetcher.hpp"
#include "dlfs/qos.hpp"
#include "dlfs/sample_cache.hpp"
#include "dlfs/sample_directory.hpp"
#include "spdk/nvme_driver.hpp"
#include "spdk/nvmf.hpp"

namespace dlfs::core {

/// Self-healing replication: the copy count plus the permanent-loss
/// lifecycle around it. `ReplicationConfig(2)` means "two copies,
/// detector off".
struct ReplicationConfig {
  ReplicationConfig() = default;
  explicit ReplicationConfig(std::uint32_t copies) : k(copies) {}
  /// Copies per sample (1 = no replication).
  std::uint32_t k = 1;
  // > 0: a storage node whose reconnect budget stays exhausted for this
  // long is *declared dead* — distinct from a transient link fault: its
  // replica routes drop and the repair engine restores k elsewhere.
  // 0 = never auto-declare (explicit DlfsFleet::declare_dead only).
  dlsim::SimDuration declare_dead_after = 0;
  // Repair-traffic budget per instance (bytes/sec). Re-replication
  // paces itself to this rate so repairs never starve demand reads.
  // 0 = unthrottled.
  std::uint64_t repair_bytes_per_sec = 0;

  bool operator==(const ReplicationConfig&) const = default;
};

/// Everything about surviving faults, consolidated (mirrors the PR 3
/// PrefetcherConfig consolidation): transport-level handling for every
/// remote initiator queue, engine-level retry pacing, reprobe cadence,
/// and the replication/repair policy.
struct FaultConfig {
  // NVMe-oF transport fault handling (command deadline, reconnect
  // backoff/budget, reconnect admission cap).
  spdk::NvmfFaultParams nvmf{};
  // k-way deterministic replica placement + the permanent-loss policy
  // (declare-dead deadline, repair-traffic budget).
  ReplicationConfig replication{};
  // Mid-epoch reprobe cadence (IoEngineConfig::reprobe_interval): > 0
  // runs a background probe daemon per instance so nodes that heal
  // mid-epoch rejoin within one interval; 0 = epoch-boundary only.
  dlsim::SimDuration reprobe_interval = 0;
  // Engine-level re-post backoff for transient completion errors
  // (media/timeout); doubles per attempt.
  dlsim::SimDuration io_retry_backoff = 10'000;

  bool operator==(const FaultConfig&) const = default;
};

/// Tenant identity of one job (one fleet) under a shared TenantGovernor.
/// Fleets that share storage register with the same governor; a fleet
/// with no governor runs ungoverned (standalone behavior, no overhead).
struct TenantConfig {
  std::string name;                       ///< telemetry / error messages
  std::uint32_t weight = 1;               ///< relative bandwidth share
  QosClass priority = QosClass::kNormal;  ///< kHigh / kNormal / kBackground
  std::uint32_t max_inflight = 0;         ///< job-wide outstanding cap; 0=off
  std::shared_ptr<TenantGovernor> governor;  ///< null = no QoS
};

struct DlfsConfig {
  std::uint64_t chunk_bytes = 256 * 1024;  // sample-cache chunk (paper default)
  std::uint32_t queue_depth = 128;         // SPDK I/O qpair depth
  std::uint32_t copy_threads = 2;          // SCQ copy-thread pool size
  BatchingMode batching = BatchingMode::kChunkLevel;
  std::size_t cache_chunks = 64;           // sample-cache LRU budget
  // Asynchronous epoch-aware prefetcher: a per-instance daemon walks the
  // read-unit order ahead of the consumer and keeps an adaptive window of
  // units in flight across bread calls, so read-ahead overlaps
  // application compute instead of inflating bread latency. It serves
  // every batched bread (chunk- and sample-level) and the record-file
  // path; BatchingMode::kNone (DLFS-Base) reads one sample at a time and
  // never reads ahead.
  PrefetcherConfig prefetch{};
  // > 0: store the dataset as TFRecord-style batched files of this many
  // samples each (8-byte length+crc header per record). The directory
  // still indexes every sample individually — "we are able to have direct
  // access to any samples in a TFRecord file" (§III-B.1) — and each
  // batched file additionally gets a file-oriented entry readable through
  // open_file().
  std::uint32_t record_file_samples = 0;
  std::uint64_t pool_bytes = 96ull * 1024 * 1024;  // client huge-page pool
  // Consolidated fault handling: transport (nvmf), replication/repair,
  // reprobe cadence and retry pacing. See FaultConfig.
  FaultConfig fault{};
  // How clients hold the sample directory after mount: kFull all-gathers
  // every shard to every client (§III-B, the default); kSharded keeps
  // each shard on its storage node and clients resolve foreign samples
  // lazily over NVMe-oF metadata RPCs through a bounded lookup cache +
  // negative cache, so per-client directory memory is O(dataset / S).
  DirectoryConfig directory{};
  // Cooperative peer sample cache: co-located instances serve each
  // other's cached samples through a per-node PeerCacheIndex, and a
  // consistent-hash cache directory lets a client fetch a hot sample
  // from a remote peer's DRAM over the fabric instead of re-reading
  // NVMe. Coherence-free because the dataset is immutable after mount.
  PeerCacheConfig peer_cache{};
  // Tenant identity under a shared TenantGovernor (multi-job QoS). A
  // default-constructed TenantConfig (null governor) means no QoS.
  TenantConfig tenant{};
  // First device byte this fleet's layout may use. Multiple jobs
  // mounting over the same storage nodes carve disjoint device regions
  // by giving each fleet its own base (the capacity check still applies
  // to the sum).
  std::uint64_t device_base = 0;
  // First client core ordinal this fleet's instances pin to. Co-located
  // jobs (two fleets with clients on the same node) offset their I/O
  // threads so they do not time-share one simulated core by accident.
  std::uint32_t client_core_base = 0;
  // Debug aid for the zero-copy contract: scribble recycled huge-page
  // chunks (0xDD) — and poison them under AddressSanitizer — so a view
  // read after release_views() faults loudly instead of silently seeing
  // stale or recycled bytes. Off in production runs (costs a memset per
  // recycled chunk).
  bool scribble_on_free = false;
  Calibration calibration{};
};

struct SampleHandle {
  /// kNoSample marks file-oriented handles (whole batched files).
  static constexpr std::uint32_t kNoSample = 0xffffffffu;
  std::uint32_t sample_id = 0;
  const SampleEntry* entry = nullptr;
};

struct BatchSample {
  std::uint32_t sample_id = 0;
  std::uint32_t class_id = 0;
  std::uint32_t offset_in_arena = 0;
  std::uint32_t len = 0;
};

/// Epoch-level metadata shared by every batch flavor (copy and
/// zero-copy deliver it identically; future epoch-level fields land
/// here once).
struct BatchMeta {
  // Samples this batch could not serve because their storage node is
  // unavailable (reconnect budget exhausted / partitioned). The epoch
  // continues over the surviving subset.
  std::uint64_t samples_skipped = 0;
  // The epoch's sample order is exhausted; nothing further will be
  // delivered until the next dlfs_sequence. This flag is the only
  // epoch-end signal — do not infer it from batch contents.
  bool end_of_epoch = false;
};

struct Batch : BatchMeta {
  std::vector<BatchSample> samples;
  std::uint64_t bytes = 0;
};

/// Zero-copy batch: samples are views into the huge-page sample cache
/// (possibly split across chunk boundaries). The backing chunks stay
/// pinned until release_views(); reading a view after release is a
/// use-after-free, exactly as with real DMA buffers.
struct ViewSample {
  std::uint32_t sample_id = 0;
  std::uint32_t class_id = 0;
  std::uint32_t len = 0;
  std::vector<std::span<const std::byte>> pieces;
};

struct ViewBatch : BatchMeta {
  std::vector<ViewSample> samples;
  std::uint64_t bytes = 0;
  std::vector<std::size_t> pinned_slots;  // internal: units held
  std::uint64_t token = 0;                // internal: release bookkeeping
  // Internal: batch-owned bytes backing the views of degraded samples
  // (replica-failover demand reads — the only copy on the views path).
  // Sized once before any span is taken; freed by release_views().
  std::vector<std::byte> fallback_storage;
};

/// One snapshot of a DlfsInstance's delivery/telemetry counters (the
/// former loose per-counter getters, consolidated).
struct InstanceStats {
  std::uint64_t samples_delivered = 0;
  // Samples skipped across all breads because their storage node was
  // unavailable (the epoch completed degraded).
  std::uint64_t samples_skipped = 0;
  std::uint64_t bytes_delivered = 0;
  dlsim::SimDuration lookup_time_total = 0;
  // Delivery-path byte accounting: bytes that went through a memcpy
  // (copy threads + inline copies) vs bytes handed out as zero-copy
  // views into the huge-page chunks. A warm bread_views epoch shows
  // bytes_copied == 0.
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_zero_copy = 0;
  // Read units currently pinned by live (unreleased) ViewBatches.
  std::uint64_t view_pins_active = 0;
  // Copy jobs executed on a different core than the one that produced
  // them (each paid DlfsCosts::cross_core_handoff).
  std::uint64_t cross_core_handoffs = 0;
  // Asynchronous-prefetcher counters: resident-at-pick / stall / window
  // telemetry.
  PrefetchStats prefetch{};
  // Self-healing replication telemetry (zero without replication):
  // permanent-loss declarations observed by this instance, samples this
  // instance re-replicated, repaired bytes moved, and how often the
  // repair daemon stalled against its traffic budget.
  std::uint64_t nodes_declared_dead = 0;
  std::uint64_t samples_rereplicated = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t repair_throttles = 0;
  // Tenant QoS (zero without a governor): posting-loop stalls caused by
  // admission, not by queue depth or the pool.
  std::uint64_t qos_deferrals = 0;
  // Sharded-directory telemetry (all zero in kFull mode) plus the
  // directory memory this client actually holds — full mode reports the
  // whole all-gathered copy, sharded mode the partition map + resident
  // shards + caches (the O(dataset/S) claim, in bytes).
  DirectoryViewStats directory{};
  std::uint64_t directory_bytes = 0;
  // Cooperative peer-cache telemetry (all zero with peer_cache.enabled
  // off): samples served from a co-located instance's DRAM, samples
  // served from a remote client's DRAM over the fabric, consultations
  // that found no live holder, and total bytes peers served either way.
  std::uint64_t peer_hits_local = 0;
  std::uint64_t peer_hits_remote = 0;
  std::uint64_t peer_misses = 0;
  std::uint64_t peer_bytes = 0;
};

class DlfsFleet;

class DlfsInstance {
 public:
  DlfsInstance(const DlfsInstance&) = delete;
  DlfsInstance& operator=(const DlfsInstance&) = delete;
  ~DlfsInstance();

  /// dlfs_open: name -> handle. Charges one directory lookup.
  [[nodiscard]] dlsim::Task<SampleHandle> open(std::string_view name);

  /// Handle by dataset index (the sequence/bread path uses ids).
  [[nodiscard]] dlsim::Task<SampleHandle> open_id(std::uint32_t sample_id);

  /// File-oriented access to a whole batched record file (only available
  /// when the fleet was mounted with record_file_samples > 0). The file
  /// bytes parse with dataset::RecordFileReader, checksums included.
  [[nodiscard]] dlsim::Task<SampleHandle> open_file(std::string_view name);

  /// dlfs_read: synchronous whole-sample read into dst (>= sample size).
  [[nodiscard]] dlsim::Task<void> read(const SampleHandle& h,
                                       std::span<std::byte> dst);

  /// dlfs_sequence: installs the epoch order derived from `seed` (every
  /// client must call with the same seed — no communication happens).
  void sequence(std::uint64_t seed);

  /// Installs a shuffled streaming order over the mounted record files
  /// (record_file_samples > 0) and points the prefetch daemon at it:
  /// open_file()+read() calls that follow the returned order find their
  /// file already resident. Clients stride the shuffle exactly like
  /// sequence(). It ends the sample epoch: bread and bread_views throw
  /// until a later sequence() re-targets the daemon at a new one.
  /// Returns the file names in streaming order.
  const std::vector<std::string>& sequence_files(std::uint64_t seed);
  [[nodiscard]] const std::vector<std::string>& file_sequence() const {
    return file_order_;
  }

  /// dlfs_bread: reads up to `max_samples` of this client's share of the
  /// epoch into `arena`; returns the batch layout. Epoch end is reported
  /// via `Batch::end_of_epoch`. Throws std::invalid_argument, before any
  /// byte of `arena` is written, when the batch does not fit.
  [[nodiscard]] dlsim::Task<Batch> bread(std::size_t max_samples,
                                         std::span<std::byte> arena);

  /// Zero-copy dlfs_bread — the paper's stated future work (§III-C.2:
  /// "True zero-copy transfers would require the application buffers to
  /// be mapped on the huge pages"): here the application instead consumes
  /// the huge-page chunks directly. Samples come back as views into the
  /// resident data chunks; no copy stage runs at all. The chunks stay
  /// pinned until release_views(batch). Chunk-level batching only.
  [[nodiscard]] dlsim::Task<ViewBatch> bread_views(std::size_t max_samples);
  void release_views(ViewBatch& batch);

  [[nodiscard]] std::size_t epoch_remaining() const {
    return seq_ ? seq_->remaining_samples() : 0;
  }

  /// Application compute folded into every polling-loop iteration
  /// (the Fig. 7b experiment).
  void set_injected_poll_compute(dlsim::SimDuration d) { injected_ = d; }

  [[nodiscard]] dlsim::CpuCore& io_core() { return *io_core_; }
  [[nodiscard]] IoEngine& engine() { return *engine_; }
  [[nodiscard]] SampleCache& cache() { return *cache_; }
  [[nodiscard]] const mem::HugePagePool& pool() const { return *pool_; }
  [[nodiscard]] const Prefetcher& prefetcher() const { return *prefetcher_; }
  /// The client's partial directory view (sharded mount only; nullptr
  /// under the classic full allgather).
  [[nodiscard]] const DirectoryView* directory_view() const {
    return view_.get();
  }
  /// Directory bytes this client holds — `SampleDirectory::shard_bytes`
  /// accounting either way: the full all-gathered copy in kFull mode,
  /// the partition map + resident shards + lookup caches in kSharded.
  [[nodiscard]] std::uint64_t directory_bytes() const;

  /// One consolidated snapshot of the delivery and prefetch counters.
  [[nodiscard]] InstanceStats stats() const {
    InstanceStats s;
    s.samples_delivered = samples_delivered_;
    s.samples_skipped = samples_skipped_;
    s.bytes_delivered = bytes_delivered_;
    s.lookup_time_total = lookup_time_total_;
    s.bytes_copied = engine_->bytes_copied();
    s.bytes_zero_copy = bytes_zero_copy_;
    for (const auto& [slot, fu] : fetched_) s.view_pins_active += fu.view_pins;
    s.cross_core_handoffs = engine_->cross_core_handoffs();
    s.prefetch = prefetcher_->stats();
    s.nodes_declared_dead = nodes_declared_dead_;
    s.samples_rereplicated = samples_rereplicated_;
    s.repair_bytes = repair_bytes_;
    s.repair_throttles = repair_throttles_;
    s.qos_deferrals = engine_->qos_deferrals();
    if (view_) s.directory = view_->stats();
    s.directory_bytes = directory_bytes();
    s.peer_hits_local = peer_hits_local_;
    s.peer_hits_remote = peer_hits_remote_;
    s.peer_misses = peer_misses_;
    s.peer_bytes = peer_bytes_;
    return s;
  }

 private:
  friend class DlfsFleet;
  DlfsInstance(DlfsFleet& fleet, std::uint32_t client_idx,
               cluster::Node& node, dlsim::CpuCore& core);

  struct FetchedUnit {
    std::vector<mem::DmaBuffer> buffers;
    // Per-sample replica recovery (chunk units only): when the unit's
    // chunk read failed on a down node, surviving samples are re-read
    // individually from their replicas into fresh buffers keyed by
    // sample id. Views/copies branch on `buffers` being empty.
    std::unordered_map<std::uint32_t, std::vector<mem::DmaBuffer>> per_sample;
    std::uint32_t delivered = 0;
    std::uint32_t view_pins = 0;  // live ViewBatches referencing this unit
  };
  void maybe_release_unit(std::size_t slot);

  dlsim::Task<void> charge_lookup();
  /// Sharded-mount resolution of one sample id, costs included: resident
  /// and cached ids charge the normal tree walk; foreign ids pay one
  /// metadata RPC to the owning slot and fill the lookup cache. Must
  /// only be called with view_ set.
  dlsim::Task<const SampleEntry*> resolve_id_sharded(std::uint32_t sample_id);
  /// One metadata RPC round trip to `slot`'s owner: request capsule,
  /// owner-side tree walk on the target's poller core, reply. Falls back
  /// to a local-rate walk when no transport path is up (the fault paths
  /// keep their existing skip/failover semantics).
  dlsim::Task<void> charge_remote_lookup(std::uint16_t slot);
  /// DLFS-Base (BatchingMode::kNone): one synchronous read() per picked
  /// sample, no read-ahead.
  dlsim::Task<Batch> bread_unbatched(
      std::span<const EpochSequence::UnitPicks> picks,
      std::span<std::byte> arena);
  /// Frontend charge for one batched call: the real directory tree walks
  /// plus per-sample accounting CPU (shared by bread and bread_views).
  dlsim::Task<void> charge_frontend(
      std::span<const EpochSequence::UnitPicks> picks);
  /// Chunk-mode batch assembly, shared by bread and bread_views: brings
  /// every unit this batch picks to a settled state — chunk buffers
  /// resident, or degraded with surviving samples recovered into
  /// FetchedUnit::per_sample (unreachable ones recorded in `skipped`,
  /// media/unknown faults in `*fatal`) — and fires `on_unit_ready(slot)`
  /// per pick once its unit settles (idempotent callbacks; empty
  /// std::function when the caller consumes units after the co_await).
  /// Units come from the prefetch daemon's window.
  dlsim::Task<void> fetch_chunk_units(
      std::span<const EpochSequence::UnitPicks> picks,
      std::unordered_set<std::uint32_t>* skipped, std::exception_ptr* fatal,
      std::function<void(std::size_t)> on_unit_ready);
  /// Degraded-unit recovery: re-reads this batch's picked samples of
  /// `slot` individually from their replicas (or the recovered primary)
  /// into FetchedUnit::per_sample. Non-picked read-ahead slots are
  /// simply forgotten so a later bread can re-fetch the whole chunk.
  dlsim::Task<void> recover_chunk_slot(
      std::size_t slot, std::span<const EpochSequence::UnitPicks> picks,
      std::unordered_set<std::uint32_t>* skipped, std::exception_ptr* fatal);
  /// Injected poll-loop compute (Fig. 7b) as a concurrent task; counts
  /// `done` down when finished (immediately when nothing is injected).
  void spawn_injected(dlsim::CountdownLatch* done);
  /// Node health as every read path sees it: engine transport state AND
  /// the directory's wholesale V bit.
  [[nodiscard]] bool node_up(std::uint16_t nid) const;
  /// Epoch-boundary reprobe, shared by bread and bread_views: after
  /// sequence(), the first batch of the epoch revalidates down nodes
  /// once and retries read-ahead that failed while they were down.
  dlsim::Task<void> maybe_reprobe();
  /// Replica failover list for a sample (empty without replication).
  [[nodiscard]] std::vector<RouteHop> sample_routes(
      std::uint32_t sample_id) const;
  /// True when the sample's primary or any replica node is reachable.
  [[nodiscard]] bool sample_reachable(std::uint32_t sample_id) const;

  // --- cooperative peer cache ----------------------------------------------
  /// Cost-free probe: is the sample resident in some *other* instance's
  /// cache (co-located or remote) right now? Issue-time elision and the
  /// skip decision consult this before giving up on a sample.
  [[nodiscard]] bool peer_resident(std::uint32_t sample_id) const;
  /// Peer-cache read: co-located holder first (shared-DRAM copy), then a
  /// remote holder via the cache directory's home client (peer-read RPC
  /// over the fabric, charged to this fleet's tenant). Copies the
  /// sample's bytes into `dst` on success; a miss (no holder, raced
  /// eviction, transport refusal) counts peer_misses_ and returns false.
  [[nodiscard]] dlsim::Task<bool> try_peer_read(std::uint32_t sample_id,
                                                std::uint32_t len,
                                                std::byte* dst);

  // --- self-healing replication (failure detector + repair daemon) --------
  /// Availability-transition tap (runs inside the engine's node handler):
  /// a down transition arms the suspect → declared-dead timer; an up
  /// transition of a declared-dead node is the late-rejoin path.
  void on_node_transition(std::uint16_t nid, bool up);
  /// One-shot suspect timer: fires declare_dead_after later and promotes
  /// the node iff it is still down and no transition happened meanwhile.
  dlsim::Task<void> death_timer(std::uint16_t nid, std::uint64_t epoch,
                                std::shared_ptr<bool> alive);
  /// Background re-replication daemon: parks on repair_wake_, walks the
  /// fleet backlog when membership changes, repairs one sample at a time
  /// under the traffic budget.
  dlsim::Task<void> repair_loop(std::shared_ptr<bool> alive);
  /// Repairs one under-replicated sample: stream from a surviving copy,
  /// write to the deterministic replacement, publish the new hop. True
  /// on success.
  dlsim::Task<bool> repair_one(std::uint32_t sample_id,
                               std::shared_ptr<bool> alive);
  /// Fleet-side notifications (declare/undeclare fan-out).
  void note_declared_dead();
  void note_rejoined();

  DlfsFleet* fleet_;
  std::uint32_t client_idx_;
  cluster::Node* node_;
  dlsim::CpuCore* io_core_;
  std::unique_ptr<mem::HugePagePool> pool_;
  std::unique_ptr<SampleCache> cache_;
  std::unique_ptr<spdk::NvmeDriver> driver_;
  std::unique_ptr<IoEngine> engine_;
  // Sharded mount only: this client's partial directory view (partition
  // map + resident shards + lookup caches). Null under kFull.
  std::unique_ptr<DirectoryView> view_;
  // Providers and the arbiter are declared before prefetcher_ (and the
  // sequence below them): the daemon holds raw pointers into them, so
  // they must outlive it on destruction.
  std::optional<EpochSequence> seq_;
  std::unique_ptr<EpochUnitProvider> epoch_provider_;
  std::unique_ptr<ExtentListProvider> file_provider_;
  std::shared_ptr<PrefetchArbiter> arbiter_;
  // Declared after engine_: destroyed first, while the engine (whose
  // pressure reliever points at it) is still alive.
  std::unique_ptr<Prefetcher> prefetcher_;
  std::unordered_map<std::size_t, FetchedUnit> fetched_;
  // Sample-level prefetching: acquired units whose samples span bread
  // calls (a fused unit rarely aligns with batch boundaries).
  struct PendingUnit {
    AcquiredUnit unit;
    std::uint32_t slots_left = 0;  // epoch slots of the unit not consumed
  };
  std::unordered_map<std::size_t, PendingUnit> acq_units_;
  // Record-file streaming order (sequence_files).
  std::vector<std::string> file_order_;
  std::vector<UnitExtent> file_extents_;
  std::size_t file_cursor_ = 0;
  dlsim::SimDuration injected_ = 0;
  std::uint64_t samples_delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t samples_skipped_ = 0;
  // Bytes handed out as views into resident chunks (no copy stage ran).
  std::uint64_t bytes_zero_copy_ = 0;
  // Set by sequence(); the next bread revalidates down nodes once, so a
  // recovered storage node rejoins at the epoch boundary.
  bool reprobe_pending_ = false;
  dlsim::SimDuration lookup_time_total_ = 0;
  // --- self-healing replication state --------------------------------------
  // The repair daemon runs on its own core (repairs never steal frontend
  // cycles) and parks on repair_wake_ when the backlog is empty, so the
  // simulator can quiesce once the fleet is healthy. The destructor must
  // NOT set the event: a parked frame would resume into a destroyed
  // member — it clears the alive token instead (checked after every
  // suspension, per the repo's coroutine-lifetime convention).
  std::unique_ptr<dlsim::CpuCore> repair_core_;
  std::unique_ptr<dlsim::Event> repair_wake_;
  std::shared_ptr<bool> repair_alive_ = std::make_shared<bool>(true);
  // Per-node transition epoch: bumped on every up/down flip so a pending
  // death timer can tell "still the same outage" from "bounced meanwhile".
  std::vector<std::uint64_t> down_epoch_;
  // Budget pacing: simulated time before which the next repair may not
  // start (advanced by bytes/budget per repaired sample).
  dlsim::SimTime repair_next_allowed_ = 0;
  std::uint64_t nodes_declared_dead_ = 0;
  std::uint64_t samples_rereplicated_ = 0;
  std::uint64_t repair_bytes_ = 0;
  std::uint64_t repair_throttles_ = 0;
  // --- cooperative peer cache state ----------------------------------------
  // The node-local index this instance registered its cache with (null
  // with peer_cache.enabled off); shared by every co-located instance.
  std::shared_ptr<PeerCacheIndex> peer_index_;
  std::uint64_t peer_hits_local_ = 0;
  std::uint64_t peer_hits_remote_ = 0;
  std::uint64_t peer_misses_ = 0;
  std::uint64_t peer_bytes_ = 0;
};

/// RAII holder for a zero-copy batch: releases the pinned units when the
/// lease leaves scope, so every exit path (including exceptions between
/// bread_views and the explicit release) unpins. Move-only; release()
/// is idempotent through the batch token.
class ViewLease {
 public:
  ViewLease() = default;
  ViewLease(DlfsInstance& inst, ViewBatch batch)
      : inst_(&inst), batch_(std::move(batch)) {}
  ViewLease(ViewLease&& o) noexcept
      : inst_(std::exchange(o.inst_, nullptr)), batch_(std::move(o.batch_)) {}
  ViewLease& operator=(ViewLease&& o) noexcept {
    if (this != &o) {
      release();
      inst_ = std::exchange(o.inst_, nullptr);
      batch_ = std::move(o.batch_);
    }
    return *this;
  }
  ViewLease(const ViewLease&) = delete;
  ViewLease& operator=(const ViewLease&) = delete;
  ~ViewLease() { release(); }

  void release() {
    if (inst_ != nullptr && batch_.token == 1) inst_->release_views(batch_);
    inst_ = nullptr;
  }
  /// True while the batch's views are still safe to read.
  [[nodiscard]] bool held() const {
    return inst_ != nullptr && batch_.token == 1;
  }
  [[nodiscard]] ViewBatch& batch() { return batch_; }
  [[nodiscard]] const ViewBatch& batch() const { return batch_; }

 private:
  DlfsInstance* inst_ = nullptr;
  ViewBatch batch_;
};

/// Options for the consolidated DlfsFleet::mount() entry point.
struct MountOptions {
  /// Drive the simulator to completion inside mount(): spawn every
  /// participant, run, rethrow the first failure, verify the mount
  /// finished. false = only spawn the participants — for callers that
  /// must overlap the mount with other scheduled simulator activity
  /// (they run the simulator themselves and check mounted() after).
  bool run_to_completion = true;
};

class DlfsFleet {
 public:
  /// `client_nodes` / `storage_nodes` default to every cluster node (the
  /// paper's symmetric configuration). Fig. 11 uses 1 client with many
  /// storage nodes.
  DlfsFleet(cluster::Cluster& cluster, cluster::Pfs& pfs,
            const dataset::Dataset& ds, DlfsConfig config,
            std::vector<hw::NodeId> client_nodes = {},
            std::vector<hw::NodeId> storage_nodes = {});
  ~DlfsFleet();

  DlfsFleet(const DlfsFleet&) = delete;
  DlfsFleet& operator=(const DlfsFleet&) = delete;

  /// dlfs_mount, consolidated: spawns every mount participant internally
  /// and (by default) runs the simulator until the collective mount
  /// completes. Call from outside coroutine context. Throws if the mount
  /// cannot finish. mount_participant() below stays as the advanced
  /// escape hatch for callers orchestrating participants themselves.
  void mount(const MountOptions& opts = {});

  /// Collective mount, manual orchestration: spawn one per participant
  /// p in [0, participants()).
  [[nodiscard]] dlsim::Task<void> mount_participant(std::uint32_t p);
  [[nodiscard]] std::uint32_t participants() const {
    return static_cast<std::uint32_t>(
        std::max(client_nodes_.size(), storage_nodes_.size()));
  }
  [[nodiscard]] bool mounted() const { return mounted_; }

  [[nodiscard]] std::uint32_t num_clients() const {
    return static_cast<std::uint32_t>(client_nodes_.size());
  }
  [[nodiscard]] std::uint32_t num_storage() const {
    return static_cast<std::uint32_t>(storage_nodes_.size());
  }
  [[nodiscard]] DlfsInstance& instance(std::uint32_t client_idx) {
    return *instances_.at(client_idx);
  }

  [[nodiscard]] const SampleDirectory& directory() const { return directory_; }
  /// The NVMe-oF target exporting storage slot `slot`'s device, or
  /// nullptr when no remote client ever connected to it (purely local
  /// slot). Fault injection — crash()/recover() and their scheduled
  /// variants — goes through here.
  [[nodiscard]] spdk::NvmfTarget* target(std::uint32_t slot) {
    return slot < targets_.size() ? targets_[slot].get() : nullptr;
  }
  [[nodiscard]] const BatchPlan& plan() const { return *plan_; }
  [[nodiscard]] const dataset::Dataset& dataset() const { return *dataset_; }
  [[nodiscard]] const DlfsConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<SampleLocation>& layout() const {
    return layout_;
  }
  [[nodiscard]] std::optional<std::uint32_t> sample_id_of(
      std::string_view name) const;

  /// This job's tenant handle under the shared governor (null without
  /// one). All instances' engines share it, so the in-flight cap and
  /// fair-share clock are job-wide.
  [[nodiscard]] const std::shared_ptr<TenantHandle>& tenant_handle() const {
    return tenant_;
  }

  /// What one client's full-allgather directory copy would cost — the
  /// comparison figure for DirectoryView::resident_bytes().
  [[nodiscard]] std::uint64_t full_directory_bytes() const {
    std::uint64_t b = 0;
    for (std::uint16_t s = 0; s < directory_.num_nodes(); ++s) {
      b += directory_.shard_bytes(s);
    }
    return b;
  }

  /// Batched-file layout (record_file_samples > 0): the record files of
  /// one storage slot, in on-device order.
  struct RecordFileInfo {
    std::string name;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::vector<std::uint32_t> sample_ids;
  };
  [[nodiscard]] const std::vector<std::vector<RecordFileInfo>>& record_files()
      const {
    return record_files_;
  }

  /// The shared per-node prefetch arbiter (created lazily when a mounted
  /// instance opts in via `prefetch.shared_arbiter`); nullptr when no
  /// instance on `nid` registered.
  [[nodiscard]] PrefetchArbiter* arbiter(hw::NodeId nid) const {
    auto it = arbiters_.find(nid);
    return it == arbiters_.end() ? nullptr : it->second.get();
  }

  /// The per-node cooperative cache index (created lazily when a mounted
  /// instance has peer_cache.enabled); nullptr when no instance on `nid`
  /// registered.
  [[nodiscard]] PeerCacheIndex* peer_index(hw::NodeId nid) const {
    auto it = peer_indexes_.find(nid);
    return it == peer_indexes_.end() ? nullptr : it->second.get();
  }
  /// The cluster-wide cooperative cache directory (created at
  /// construction when peer_cache.enabled; nullptr otherwise).
  [[nodiscard]] PeerCacheDirectory* peer_directory() const {
    return peer_directory_.get();
  }

  // --- self-healing replication --------------------------------------------
  // Permanent-loss lifecycle. A storage slot is *suspect* while its
  // transport is down; the per-instance failure detector promotes it to
  // *declared dead* after replication.declare_dead_after (or a test calls
  // declare_dead directly). Declaration atomically drops the slot's
  // replica routes — snapshots already issued are unaffected, new issues
  // stop seeing the slot at once — and wakes every repair daemon. A
  // declared-dead slot that heals is treated as a fresh rejoin:
  // undeclare() clears the flag, the slot's primary shard serves again
  // (dataset bytes are immutable, so its on-device shard is still valid)
  // and it becomes eligible as a repair target; hops dropped at
  // declaration are not resurrected — repair re-converges instead.

  /// Marks storage slot dead (idempotent). Drops its replica routes and
  /// wakes the repair daemons.
  void declare_dead(std::uint16_t slot);
  /// Clears a declaration (idempotent): the late-rejoin path, also the
  /// explicit test hook.
  void undeclare(std::uint16_t slot);
  [[nodiscard]] bool declared_dead(std::uint16_t slot) const {
    return slot < declared_dead_.size() && declared_dead_[slot] != 0;
  }
  [[nodiscard]] std::uint32_t num_declared_dead() const {
    std::uint32_t n = 0;
    for (const std::uint8_t d : declared_dead_) n += d;
    return n;
  }
  /// Copies of a sample on non-declared-dead slots (transiently-down
  /// nodes still count — they come back; only permanent loss triggers
  /// repair).
  [[nodiscard]] std::uint32_t live_copies(std::uint32_t sample_id) const;
  /// Sample ids whose live-copy count is below the effective replication
  /// target. Walked by the repair daemons; empty once repair has drained.
  [[nodiscard]] std::vector<std::uint32_t> repair_backlog() const;

 private:
  friend class DlfsInstance;

  [[nodiscard]] std::shared_ptr<PrefetchArbiter> arbiter_for(hw::NodeId nid);
  [[nodiscard]] std::shared_ptr<PeerCacheIndex> peer_index_for(hw::NodeId nid);

  /// Picks the deterministic replacement for a new copy of `sample_id` —
  /// the same hash(name ‖ r) probe chain as mount-time placement, skipping
  /// declared-dead slots, slots already holding a copy, slots the caller's
  /// `usable` predicate rejects, and slots out of device capacity — and
  /// allocates its device extent (advances repair_next_offset_). nullopt
  /// when no slot qualifies. The extent allocation is not rolled back if
  /// the repair write later fails — the next attempt claims a fresh
  /// extent; the hole is wasted device space, never corruption.
  [[nodiscard]] std::optional<RouteHop> claim_repair_target(
      std::uint32_t sample_id,
      const std::function<bool(std::uint16_t)>& usable);
  /// Atomically publishes a repaired copy: one directory add_replica call
  /// (no suspension), so advance_route / RouteResolver / failover see the
  /// new hop on their next issue.
  void publish_repair(std::uint32_t sample_id, RouteHop hop);

  cluster::Cluster* cluster_;
  cluster::Pfs* pfs_;
  const dataset::Dataset* dataset_;
  DlfsConfig config_;
  std::vector<hw::NodeId> client_nodes_;
  std::vector<hw::NodeId> storage_nodes_;

  SampleDirectory directory_;
  std::vector<SampleLocation> layout_;  // sample id -> location
  std::vector<std::vector<std::uint32_t>> shard_samples_;  // slot -> ids
  // Replica placement (config_.fault.replication > 1): per-sample failover
  // hops in priority order, and per-slot rows of (sample id, device
  // offset) hosted as replicas, in on-device order after the slot's
  // primary region. The mount writes replica bytes from shard_replicas_
  // and the primary owner registers replica_layout_ in the directory.
  std::vector<std::vector<RouteHop>> replica_layout_;  // sample id -> hops
  struct ReplicaRow {
    std::uint32_t sample_id = 0;
    std::uint64_t offset = 0;
  };
  std::vector<std::vector<ReplicaRow>> shard_replicas_;  // slot -> rows
  std::unordered_map<std::uint64_t, std::uint32_t> name_to_id_;
  std::vector<std::vector<RecordFileInfo>> record_files_;  // per slot
  std::unique_ptr<BatchPlan> plan_;
  std::vector<std::unique_ptr<spdk::NvmfTarget>> targets_;  // per slot
  // Per-node read-ahead arbiters for co-located instances (opt-in).
  std::unordered_map<hw::NodeId, std::shared_ptr<PrefetchArbiter>> arbiters_;
  // Cooperative peer cache (config.peer_cache.enabled): per-node member
  // indexes, registered alongside the arbiters, and the cluster-wide
  // consistent-hash cache directory. Declared before instances_ —
  // ~DlfsInstance unregisters from both, so they must outlive the
  // instances during fleet destruction.
  std::unordered_map<hw::NodeId, std::shared_ptr<PeerCacheIndex>> peer_indexes_;
  std::shared_ptr<PeerCacheDirectory> peer_directory_;
  std::vector<std::unique_ptr<DlfsInstance>> instances_;
  cluster::Barrier upload_barrier_;
  cluster::Barrier allgather_barrier_;
  cluster::Barrier ready_barrier_;
  bool mounted_ = false;
  // Tenant QoS: registered once per fleet at construction (when a
  // governor is configured) and shared by every instance's engine.
  std::shared_ptr<TenantHandle> tenant_;
  // --- self-healing replication state --------------------------------------
  std::vector<std::uint8_t> declared_dead_;  // index = storage slot
  // Next free device offset per slot, carried over from mount-time layout
  // so repair extents land after the primary + replica regions.
  std::vector<std::uint64_t> repair_next_offset_;
  // Samples currently being repaired by some instance's daemon (claims
  // prevent two daemons from duplicating the same copy).
  std::unordered_set<std::uint32_t> repair_claims_;
  // Effective copy count (replication.k clamped to the fleet size).
  std::uint32_t effective_reps_ = 1;
};

}  // namespace dlfs::core
