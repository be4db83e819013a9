#pragma once

// Shared workload harness for the figure-reproduction benches: builds a
// cluster, stages a fixed-size dataset on DLFS / Ext4 / OctoFS, runs one
// epoch of random sample reads, and reports throughput and CPU numbers
// out of the deterministic simulation. The multi-epoch sweeps share its
// fleet rig, checked epoch reader and BENCH row builder.
//
// Methodology notes (mirrors the paper's §IV setup):
//  * random reads, batch of 32 samples unless a figure says otherwise;
//  * DLFS and Ext4 issue I/O from one core per client (the paper's
//    single-core configuration) unless a sweep varies it;
//  * multi-node Ext4 reads its node-local shard (the paper: "Ext4 reads
//    data locally"); DLFS and OctoFS read the global dataset;
//  * results come from simulated time, so one run is exact — the paper's
//    five-run averaging guards against noise we don't have.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/calibration.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dlfs::bench {

struct Workload {
  std::uint32_t num_nodes = 1;
  std::uint32_t clients = 0;  // 0 = every node
  std::uint32_t storage = 0;  // 0 = every node
  // Client i runs on node (client_node_offset + i) % num_nodes. Fig. 11's
  // single-client case sets this past the storage nodes so every device
  // is remote.
  std::uint32_t client_node_offset = 0;
  std::uint32_t sample_bytes = 4096;
  std::size_t samples_per_node = 2000;
  std::size_t batch_size = 32;
  std::uint64_t seed = 42;
  // DLFS runs only: read the epoch through dlfs_bread_views (zero-copy
  // view batches, chunk-level batching required) instead of dlfs_bread.
  // The reader double-buffers: each batch stays pinned while the next
  // one is fetched, then its ViewLease releases it.
  bool zero_copy = false;
  Calibration calibration{};
};

/// Scheduled storage-node failure for an availability run: crash storage
/// slot `crash_slot` at `crash_at` (relative to the epoch start), and
/// optionally bring it back at `recover_at`. Default = no fault.
struct FaultPlan {
  std::int32_t crash_slot = -1;  // storage slot to crash; -1 = healthy run
  dlsim::SimDuration crash_at = 0;
  std::optional<dlsim::SimDuration> recover_at;
};

/// One measured window of a run: the reader-side window figures, and
/// the fleet's InstanceStats over the same window — summed over clients,
/// gauges by max. The batch latencies and stats are zero for the Ext4
/// and OctoFS baselines, which read no batches.
struct RunResult {
  double samples_per_sec = 0.0;
  double bytes_per_sec = 0.0;
  double client_cpu_util = 0.0;  // mean across client I/O cores
  dlsim::SimDuration elapsed = 0;
  std::uint64_t samples = 0;
  double lookup_us_avg = 0.0;  // mean per-sample lookup/open time
  double batch_p50_us = 0.0;   // over every client's bread calls
  double batch_p99_us = 0.0;
  core::InstanceStats stats{};
};

/// A mounted DLFS fleet and everything it runs on: the simulator, a
/// cluster of `num_nodes` nodes built from `nodes`, the dataset staged on
/// a PFS, and the fleet. The cluster's NIC and the PFS take
/// `cfg.calibration`.
struct FleetRig {
  FleetRig(std::uint32_t num_nodes, const cluster::NodeConfig& nodes,
           dataset::Dataset dataset, const core::DlfsConfig& cfg,
           std::vector<hw::NodeId> client_nodes,
           std::vector<hw::NodeId> storage_nodes);

  dlsim::Simulator sim;
  cluster::Cluster cluster;
  dataset::Dataset ds;
  cluster::Pfs pfs;
  core::DlfsFleet fleet;
};

/// What a delivered sample must equal. On RAM-backed stores that is the
/// dataset's own bytes (Dataset::fill_content). Synthetic stores derive
/// their bytes from the node seed and the device offset, so a replica's
/// bytes differ from its primary's: there the truth is the bytes one of
/// the sample's placements holds, its primary extent or a replica hop.
/// Holds only pointers, so a reader can take it by value.
class SampleTruth {
 public:
  /// The dataset's bytes. Implicit, so a RAM-backed caller passes its
  /// dataset where a truth is asked for.
  SampleTruth(const dataset::Dataset& ds)  // NOLINT(google-explicit-constructor)
      : ds_(&ds) {}
  /// The placements' bytes; storage slot s must be cluster node s.
  SampleTruth(cluster::Cluster& cluster, const core::DlfsFleet& fleet)
      : ds_(&fleet.dataset()), cluster_(&cluster), fleet_(&fleet) {}

  /// True when `pieces`, concatenated, equal what sample `id` must hold.
  [[nodiscard]] bool matches(
      std::uint32_t id,
      std::span<const std::span<const std::byte>> pieces) const;
  [[nodiscard]] const dataset::Dataset& dataset() const { return *ds_; }

 private:
  const dataset::Dataset* ds_;
  cluster::Cluster* cluster_ = nullptr;
  const core::DlfsFleet* fleet_ = nullptr;
};

/// One client's epoch as the application saw it. A batch is a bread call
/// that delivered or skipped samples; the call that reports the epoch's
/// end is not one.
struct EpochLog {
  std::vector<std::uint32_t> order;    // delivered ids, in delivery order
  std::vector<std::uint32_t> offsets;  // their arena offsets (copy only)
  std::vector<dlsim::SimDuration> batch_ns;  // each batch's call, sim time
  std::vector<std::uint32_t> batch_samples;  // samples each batch delivered
  std::uint64_t bytes = 0;  // delivered bytes
  std::uint64_t skipped = 0;
  dlsim::SimTime end = 0;   // when the epoch's end was reported
  bool content_ok = true;   // every delivered byte matched the truth
};

/// The one loop that reads an epoch to its end: `inst`'s share of the
/// current epoch, `batch` samples per call, through bread or — `views` —
/// bread_views, double-buffered: each view batch stays leased while the
/// next is fetched. Every delivered sample is checked against `truth`
/// (a mismatch clears `log.content_ok`), and every batch must report at
/// most `batch` outcomes, pack its samples densely from offset 0 and
/// count their bytes in `bytes`; a batch that does not throws
/// std::logic_error.
[[nodiscard]] dlsim::Task<void> read_epoch_checked(core::DlfsInstance& inst,
                                                   SampleTruth truth,
                                                   std::size_t batch,
                                                   EpochLog& log,
                                                   bool views = false);

/// read_epoch_checked alone on `inst`'s simulator: runs it until the
/// simulator drains, rethrows any process's failure, and returns the log.
[[nodiscard]] EpochLog read_epoch(core::DlfsInstance& inst, SampleTruth truth,
                                  std::size_t batch, bool views = false);

/// True when `logs` together deliver each of samples 0..samples-1
/// exactly once.
[[nodiscard]] bool exactly_once(std::span<const EpochLog> logs,
                                std::size_t samples);

/// The `p` quantile (0..1) of `v`, interpolated linearly between the two
/// nearest ranks; 0 for an empty `v`.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Every client's stats() merged with InstanceStats::operator+=.
[[nodiscard]] core::InstanceStats fleet_stats(core::DlfsFleet& fleet);

/// The row for a window of `elapsed` in which the readers logged `logs`
/// with samples of `sample_bytes` each: the samples and the batch
/// latency percentiles come from the logs, stats are what accrued since
/// `before`, CPU utilization is since each I/O core's last
/// reset_accounting().
[[nodiscard]] RunResult fleet_result(core::DlfsFleet& fleet,
                                     dlsim::SimDuration elapsed,
                                     std::span<const EpochLog> logs,
                                     std::uint32_t sample_bytes,
                                     const core::InstanceStats& before = {});

/// Writes every stats leaf as `"key": value`, comma-separated, in
/// for_each_stat order; durations in µs.
void write_stats_json(std::ostream& out, const core::InstanceStats& stats);

/// One epoch of dlfs_bread across all clients, each read by
/// read_epoch_checked against its placements. A FaultPlan crashes one
/// storage node mid-epoch; the epoch then completes over the surviving
/// subset (RunResult::stats.samples_skipped counts what was lost).
/// `logs`, when given, receives each client's EpochLog.
[[nodiscard]] RunResult run_dlfs(const Workload& w, core::DlfsConfig cfg,
                                 dlsim::SimDuration injected_poll_compute = 0,
                                 const FaultPlan& faults = {},
                                 std::vector<EpochLog>* logs = nullptr);

/// One epoch of open/pread/close over node-local Ext4, `threads_per_node`
/// reader threads per node (1 = Ext4-Base, >1 = Ext4-MC).
[[nodiscard]] RunResult run_ext4(const Workload& w,
                                 std::uint32_t threads_per_node = 1);

/// One epoch of open+RDMA-read over OctoFS (one client per node).
[[nodiscard]] RunResult run_octopus(const Workload& w);

/// Fig. 10: per-lookup metadata cost (directory lookup for DLFS, open for
/// Ext4, lookup RPC for OctoFS) measured over `measure_count` random
/// samples with `files_per_node` staged per node.
struct LookupTimes {
  double dlfs_us = 0.0;
  double ext4_us = 0.0;
  double octopus_us = 0.0;
};
[[nodiscard]] LookupTimes measure_lookup_times(std::uint32_t num_nodes,
                                               std::size_t files_per_node,
                                               std::uint32_t sample_bytes,
                                               std::size_t measure_count);

/// Accumulates bench results and writes them as BENCH_<name>.json in the
/// current directory — one flat JSON object per row, newline-separated
/// inside a top-level array, so figure scripts and CI can diff runs.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Adds one row; `config` tags the sweep point (e.g. "depth=4 mode=async").
  void add(const std::string& config, const RunResult& r);

  /// Writes BENCH_<name>.json; returns the path written.
  std::string write() const;

 private:
  struct Row {
    std::string config;
    RunResult result;
  };
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace dlfs::bench
