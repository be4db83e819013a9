#pragma once

// The DLFS public API (§III-A): dlfs_mount, dlfs_open / dlfs_read /
// dlfs_close, dlfs_sequence and dlfs_bread.
//
// A DlfsFleet is one mounted DLFS job: it owns the shared sample
// directory, the data layout, the batch plan, the NVMe-oF targets that
// export every storage node's device, and one DlfsInstance per client.
// dlfs_mount (DlfsFleet::mount) is collective and does what the paper
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

#include <algorithm>
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

/// Everything about surviving faults, consolidated: transport-level
/// handling for every remote initiator queue, reprobe cadence, and the
/// replication/repair policy.
struct FaultConfig {
  // NVMe-oF transport fault handling (command deadline, reconnect
  // backoff/budget).
  spdk::NvmfFaultParams nvmf{};
  // k-way deterministic replica placement + the permanent-loss policy
  // (declare-dead deadline, repair-traffic budget).
  ReplicationConfig replication{};
  // Mid-epoch reprobe cadence (IoEngineConfig::reprobe_interval): > 0
  // runs a background probe daemon per instance so nodes that heal
  // mid-epoch rejoin within one interval; 0 = epoch-boundary only.
  dlsim::SimDuration reprobe_interval = 0;

  bool operator==(const FaultConfig&) const = default;
};

/// Tenant identity of one job (one fleet) under a shared TenantGovernor.
/// Fleets that share storage register with the same governor; a fleet
/// with no governor runs ungoverned (standalone behavior, no overhead).
struct TenantConfig : TenantQos {
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
  // every batched bread (chunk- and sample-level); BatchingMode::kNone
  // (DLFS-Base) reads one sample at a time and never reads ahead.
  PrefetcherConfig prefetch{};
  std::uint64_t pool_bytes = 96ull * 1024 * 1024;  // client huge-page pool
  // Consolidated fault handling: transport (nvmf), replication/repair
  // and reprobe cadence. See FaultConfig.
  FaultConfig fault{};
  // How clients hold the sample directory after mount: kFull all-gathers
  // every shard to every client (§III-B, the default); kSharded keeps
  // each shard on its storage node and clients resolve foreign samples
  // lazily over NVMe-oF metadata RPCs through a bounded lookup cache +
  // negative cache, so per-client directory memory is O(dataset / S).
  DirectoryConfig directory{};
  // Cooperative peer sample cache: one fleet-wide PeerCacheDirectory
  // records every instance's resident samples. A holder on the reader's
  // own node serves a shared-DRAM copy; a remote holder is reached
  // through the sample's consistent-hash home and serves over the fabric
  // instead of a re-read from NVMe. Coherence-free because the dataset
  // is immutable after mount.
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
  std::uint32_t sample_id = 0;
  const SampleEntry* entry = nullptr;
};

/// One delivered sample of a Batch. Samples pack the arena densely in
/// pick order: the first starts at offset 0 and each starts where the
/// one before it ends. A skipped sample takes no arena space.
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
  std::uint64_t bytes = 0;  // sum of the samples' lengths
};

/// Zero-copy batch: samples are views into the huge-page chunks their
/// prefetch unit holds (possibly split across chunk boundaries), or into
/// a degraded unit's per-sample replica extents. The backing chunks stay
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
};

/// One snapshot of a DlfsInstance's counters, the only telemetry record;
/// a field missing from for_each_stat below fails the build.
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
  // served from a remote client's DRAM over the fabric, pulls refused
  // before their bytes landed (no holder at the home, a dropped leg or a
  // raced eviction; the device then served the sample), and total bytes
  // peers served either way.
  std::uint64_t peer_hits_local = 0;
  std::uint64_t peer_hits_remote = 0;
  std::uint64_t peer_misses = 0;
  std::uint64_t peer_bytes = 0;
  // Sample cache, device retries, transport faults, storage nodes down.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t io_retries = 0;
  spdk::IoQueueStats transport{};
  std::uint64_t nodes_down = 0;
};

/// How an InstanceStats leaf reduces over a fleet and over a window.
enum class StatKind : std::uint8_t {
  kCount,     ///< summed; a window takes the difference
  kDuration,  ///< a SimDuration, summed like a count, reported in µs
  kLevel,     ///< what each client holds now: summed, kept over a window
  kGauge,     ///< a fleet-wide level or peak: max, kept over a window
};

/// Calls f(key, kind, s.leaf...) once per InstanceStats leaf, `key` being
/// its BENCH_*.json key: the one list every merge, window and report uses.
template <typename F, typename... S>
constexpr void for_each_stat(F&& f, S&&... s) {
  using enum StatKind;
  f("cache_hits", kCount, s.cache_hits...);
  f("cache_misses", kCount, s.cache_misses...);
  f("bytes_copied", kCount, s.bytes_copied...);
  f("bytes_zero_copy", kCount, s.bytes_zero_copy...);
  f("view_pins_active", kLevel, s.view_pins_active...);
  f("cross_core_handoffs", kCount, s.cross_core_handoffs...);
  f("prefetch_units_issued", kCount, s.prefetch.units_issued...);
  f("prefetch_units_resident_at_pick", kCount,
    s.prefetch.units_resident_at_pick...);
  f("prefetch_units_stalled", kCount, s.prefetch.units_stalled...);
  f("prefetch_stall_us", kDuration, s.prefetch.stall_ns...);
  f("prefetch_in_flight_hwm", kGauge, s.prefetch.in_flight_hwm...);
  f("prefetch_window_grows", kCount, s.prefetch.window_grows...);
  f("prefetch_window_shrinks", kCount, s.prefetch.window_shrinks...);
  f("prefetch_units_dropped", kCount, s.prefetch.units_dropped...);
  f("prefetch_units_reissued", kCount, s.prefetch.units_reissued...);
  f("prefetch_window_target", kGauge, s.prefetch.window_target...);
  f("io_retries", kCount, s.io_retries...);
  f("io_timeouts", kCount, s.transport.timeouts...);
  f("connections_lost", kCount, s.transport.connections_lost...);
  f("reconnects", kCount, s.transport.reconnects...);
  f("replays", kCount, s.transport.replays...);
  f("samples_skipped", kCount, s.samples_skipped...);
  f("nodes_down", kGauge, s.nodes_down...);
  f("nodes_declared_dead", kCount, s.nodes_declared_dead...);
  f("samples_rereplicated", kCount, s.samples_rereplicated...);
  f("repair_bytes", kCount, s.repair_bytes...);
  f("repair_throttles", kCount, s.repair_throttles...);
  f("qos_deferrals", kCount, s.qos_deferrals...);
  f("directory_local_hits", kCount, s.directory.local_hits...);
  f("directory_cache_hits", kCount, s.directory.cache_hits...);
  f("directory_negative_hits", kCount, s.directory.negative_hits...);
  f("directory_remote_lookups", kCount, s.directory.remote_lookups...);
  f("directory_cache_evictions", kCount, s.directory.cache_evictions...);
  f("directory_stale_invalidations", kCount,
    s.directory.stale_invalidations...);
  f("directory_bytes", kLevel, s.directory_bytes...);
  f("peer_hits_local", kCount, s.peer_hits_local...);
  f("peer_hits_remote", kCount, s.peer_hits_remote...);
  f("peer_misses", kCount, s.peer_misses...);
  f("peer_bytes", kCount, s.peer_bytes...);
  f("samples_delivered", kCount, s.samples_delivered...);
  f("bytes_delivered", kCount, s.bytes_delivered...);
  f("lookup_us_total", kDuration, s.lookup_time_total...);
}

// Every leaf is 8 bytes, so the sizes add up only when no field is unlisted.
static_assert(
    [] {
      std::size_t listed = 0;
      auto add = [&listed](std::string_view, StatKind, const auto& leaf) {
        listed += sizeof(leaf);
      };
      for_each_stat(add, InstanceStats{});
      return listed;
    }() == sizeof(InstanceStats),
    "an InstanceStats field is missing from for_each_stat");

/// Fleet reduction: gauges take the max, every other kind adds.
constexpr InstanceStats& operator+=(InstanceStats& a, const InstanceStats& b) {
  auto add = [](std::string_view, StatKind kind, auto& x, const auto& y) {
    x = kind == StatKind::kGauge ? std::max(x, y) : x + y;
  };
  for_each_stat(add, a, b);
  return a;
}

/// What accrued since the snapshot `before`; levels and gauges keep
/// their current value.
constexpr InstanceStats operator-(InstanceStats now,
                                  const InstanceStats& before) {
  auto sub = [](std::string_view, StatKind kind, auto& x, const auto& y) {
    if (kind == StatKind::kCount || kind == StatKind::kDuration) x -= y;
  };
  for_each_stat(sub, now, before);
  return now;
}

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

  /// dlfs_read: synchronous whole-sample read into dst (>= sample size).
  /// Throws IoError (kNodeDown) when no copy of the sample is reachable.
  [[nodiscard]] dlsim::Task<void> read(const SampleHandle& h,
                                       std::span<std::byte> dst);

  /// dlfs_sequence: installs the epoch order derived from `seed` (every
  /// client must call with the same seed — no communication happens).
  void sequence(std::uint64_t seed);

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
    for (const auto& [slot, hu] : held_) s.view_pins_active += hu.view_pins;
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
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
    s.io_retries = engine_->retries();
    s.transport = engine_->transport_stats();
    s.nodes_down = engine_->nodes_down();
    return s;
  }

 private:
  friend class DlfsFleet;
  DlfsInstance(DlfsFleet& fleet, std::uint32_t client_idx,
               cluster::Node& node, dlsim::CpuCore& core);

  /// One prefetch unit, held from its acquire until its last sample is
  /// delivered and no ViewBatch pins it. Every batched read path keeps
  /// its units in held_, keyed by prefetch slot.
  struct HeldUnit {
    // A healthy chunk-level unit: its extent, in chunk-size pieces.
    std::vector<mem::DmaBuffer> chunk;
    // Sample-level units, and chunk units degraded by a node fault:
    // per-sample finished ops keyed by sample id. A sample-level op may
    // carry a stored media error instead of buffers.
    std::unordered_map<std::uint32_t, ExtentOpPtr> samples;
    // Sample-level units: the cache's pinned views of each sample the
    // cache held at the unit's first acquire, keyed by sample id. The
    // pick that delivers the sample hands the pin to its copy job, which
    // releases it once the bytes are copied.
    std::unordered_map<std::uint32_t, std::vector<std::span<const std::byte>>>
        cached;
    std::uint32_t remaining = 0;  // samples not yet delivered
    std::uint32_t view_pins = 0;  // live ViewBatches referencing this unit
  };
  struct BatchFaults;
  /// Releases the cache pins of the unit's samples no pick delivered.
  void unpin_cached(HeldUnit& hu);
  void maybe_release_unit(std::size_t slot);

  /// Where a peer cache serves a sample the local cache lacks, as the
  /// cost-free probe peer_route sees it.
  enum class PeerServe : std::uint8_t {
    kNone,   // no peer serves it: a device extent
    kLocal,  // a holder on this node: elided, the demand read copies it
    kPull,   // a remote holder: a pull, then the device
  };
  /// The one extent that reads sample `id`, keyed by the id: its device
  /// extent with the replicas as failover routes, or for kPull a pull of
  /// its bytes from a peer's DRAM that, refused, reads them instead.
  /// Read-ahead, read_elided, demand_read and the degraded chunk recovery
  /// all issue it.
  [[nodiscard]] ReadExtent sample_read(std::uint32_t id, PeerServe peer) const;
  /// The prefetcher's UnitReads: the extents of prefetch unit `slot` worth
  /// fetching at call time. A chunk unit is one extent keyed by its epoch
  /// slot. Under sample-level batching a sample the cache or a co-located
  /// peer holds is skipped, and one only a remote peer holds is pulled;
  /// chunk mode's edge samples skip nothing and take no peer probe.
  [[nodiscard]] std::vector<ReadExtent> unit_reads(std::size_t slot) const;
  /// The prefetch unit covering epoch slot `epoch_slot`.
  [[nodiscard]] std::size_t unit_of(std::size_t epoch_slot) const {
    return epoch_slot / group_;
  }

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
  /// DLFS-Base (BatchingMode::kNone): the application's own open_id() +
  /// read() per picked sample, no read-ahead.
  dlsim::Task<Batch> bread_unbatched(
      std::span<const EpochSequence::UnitPicks> picks,
      std::span<std::byte> arena);
  /// The frontend's directory step, for a whole batch before its first
  /// acquire: the real tree walk of each of `picks`' ids, and on a
  /// sharded mount one metadata RPC per foreign id. Returns each sample's
  /// frontend CPU in pick order: the walk when its id resolved at the
  /// local rate, plus the per-sample accounting.
  dlsim::Task<std::vector<dlsim::SimDuration>> resolve_frontend(
      std::span<const EpochSequence::UnitPicks> picks);
  /// Charges `cpu` of frontend work to the I/O core. bread charges each
  /// sample's just before it is delivered, in both batching modes, so
  /// copies of earlier samples run on the copy threads while later
  /// samples are charged. bread_views charges the whole batch before its
  /// first acquire: a view costs no copy to overlap.
  dlsim::Task<void> charge_frontend(dlsim::SimDuration cpu);
  /// The acquire step of bread and bread_views: holds the prefetch unit
  /// behind `pk` in held_, acquiring it from the daemon on first touch.
  /// A sample-level unit's first acquire also pins what read-ahead elided
  /// and the cache still holds, and reads what it has lost since
  /// (read_elided). A chunk unit degraded by a node fault re-reads the
  /// pick's samples from their replicas (or the recovered primary) into
  /// its per-sample extents, all of them read together (read_together).
  /// Unreachable samples and faults land in `*faults`: a node fault is a
  /// skip, a media error is fatal.
  dlsim::Task<HeldUnit*> acquire_pick(EpochSequence::UnitPicks pk,
                                      BatchFaults* faults);
  /// Posts every one of `reads` with one start_extents, then awaits each
  /// op on the I/O core, so their device and fabric round trips overlap
  /// (opportunistic batching, as bread's read-ahead has it). Returns the
  /// finished ops in `reads`' order; each caller routes their faults.
  dlsim::Task<std::vector<ExtentOpPtr>> read_together(
      std::vector<ReadExtent> reads);
  /// Part of a sample-level unit's first acquire: a sample of epoch slots
  /// [begin, end) that read-ahead never `issued` (the cache or a
  /// co-located holder had it) is pinned into `hu->cached` when the cache
  /// holds it now, so no eviction turns it into a demand read before its
  /// pick. One that neither holds now gets its sample_read, and all of
  /// them are read together (read_together). The finished ops join
  /// `hu->samples`; a node fault is left to the demand read.
  dlsim::Task<void> read_elided(std::size_t begin, std::size_t end,
                                std::vector<std::uint32_t> issued,
                                HeldUnit* hu);
  /// Spans of one picked sample's bytes in its held chunk-level unit:
  /// the chunk window, or the sample's own extent once the unit degraded.
  /// Empty when the sample has no bytes (skipped, or a media fault).
  [[nodiscard]] std::vector<std::span<const std::byte>> held_views(
      const HeldUnit& hu, const UnitSample& us) const;
  /// The demand read of one sample into `dst` (read(), DLFS-Base, and a
  /// sample-level pick with no landed extent and no pin): the sample
  /// cache, then a holder on this node, else its sample_read (a pull from
  /// a remote holder, else the device, each failing over inside the
  /// engine), awaited on the I/O core and delivered. False when no peer
  /// serves it and no copy is reachable; an extent that fails throws its
  /// IoError.
  dlsim::Task<bool> demand_read(std::uint32_t sample_id, std::byte* dst);
  /// The one delivery step of a landed per-sample extent (a demand read,
  /// or a sample-level read-ahead extent the pick loop consumes); `x` is
  /// its finished op. A pulled sample (still kPeer) is never cached: it
  /// joins the caller's open `run` of pulls, which must end at `dst`.
  /// Device bytes go to copy_out and into the sample cache.
  dlsim::Task<void> deliver(ExtentOpPtr x, std::byte* dst,
                            dlsim::CountdownLatch* copies, CopyJob* run);
  /// Sends the open run of landed pulls, if any, to copy_out as one job,
  /// and leaves `run` empty.
  dlsim::Task<void> enqueue_run(CopyJob* run, dlsim::CountdownLatch* copies);
  /// The one way a sample bread copies reaches the copy stage: queued on
  /// the copy threads, counting `copies` down, or copied inline on the
  /// I/O core without them. Past the constructor, the instance reads
  /// `copy_threads` nowhere else.
  dlsim::Task<void> copy_out(CopyJob job, dlsim::CountdownLatch* copies);
  /// Injected poll-loop compute (Fig. 7b) of one batched read, as a
  /// deadline: start_injected charges `injected_` to the I/O core up
  /// front and sets its end, and injected_done waits for that end. The
  /// compute hides under the batch's waits, which poll, but the core
  /// does one thing at a time: `d` of other work (a frontend charge, an
  /// inline copy) that starts before the end pushes it out by `d`
  /// (occupy_io_core).
  void start_injected();
  void occupy_io_core(dlsim::SimDuration d);
  dlsim::Task<void> injected_done();
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
  /// This instance's node, as the peer-cache directory records holders.
  [[nodiscard]] std::uint16_t peer_node() const {
    return static_cast<std::uint16_t>(node_->id());
  }
  /// The one cost-free peer probe, asked by unit_reads at issue time and
  /// by read_elided and demand_read: kLocal for a holder on this node,
  /// kPull for a holder only on another node when the sample fits one
  /// pool chunk, kNone otherwise.
  [[nodiscard]] PeerServe peer_route(std::uint32_t sample_id) const;
  /// The engine's peer puller (IoEngine::PeerPuller), run by its own
  /// process for every pull, demand or read-ahead: request hop to the
  /// sample's home client, forward hop, holder pin, the holder's queued
  /// serve and the bulk send into `into`. The holder is unpinned when the
  /// bytes land; a refusal counts one peer miss.
  [[nodiscard]] dlsim::Task<bool> pull_from_peer(std::uint32_t sample_id,
                                                 std::uint32_t len,
                                                 mem::DmaBuffer* into);

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
  // The sequence is declared before prefetcher_: the daemon's unit_reads
  // walks it, so it must outlive the daemon on destruction.
  std::optional<EpochSequence> seq_;
  // Epoch slots per prefetch unit: kSampleGroup under sample-level
  // batching, else 1 (one chunk or edge unit).
  std::uint32_t group_ = 1;
  // Declared after engine_: destroyed first, while the engine (whose
  // pressure reliever points at it) is still alive.
  std::unique_ptr<Prefetcher> prefetcher_;
  // Keyed by prefetch slot. A unit may span bread calls (batches rarely
  // align with unit boundaries).
  std::unordered_map<std::size_t, HeldUnit> held_;
  dlsim::SimDuration injected_ = 0;
  dlsim::SimTime injected_end_ = 0;  // see start_injected
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
  // Remote pulls of this instance's cached samples are served on io_core_
  // one at a time, booked like a NIC pipe: a serve starts at
  // max(now, peer_serve_free_).
  dlsim::SimTime peer_serve_free_ = 0;
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
  /// and runs the simulator until the collective mount completes. Call
  /// from outside coroutine context. Throws if the mount cannot finish.
  void mount();
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

  /// One mount participant p in [0, participants()): the storage role
  /// for slot p, then the client role for client p. mount() spawns them.
  [[nodiscard]] dlsim::Task<void> mount_participant(std::uint32_t p);
  [[nodiscard]] std::uint32_t participants() const {
    return static_cast<std::uint32_t>(
        std::max(client_nodes_.size(), storage_nodes_.size()));
  }

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
  /// (no suspension), so advance_route / sample_read / failover see the
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
  std::unique_ptr<BatchPlan> plan_;
  std::vector<std::unique_ptr<spdk::NvmfTarget>> targets_;  // per slot
  // Cooperative peer cache (config.peer_cache.enabled): the cluster-wide
  // cache directory. Declared before instances_ — ~DlfsInstance retracts
  // its adverts, so the directory must outlive the instances during fleet
  // destruction.
  std::unique_ptr<PeerCacheDirectory> peer_directory_;
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
