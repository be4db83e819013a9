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
/// gauges by max, all zero for the Ext4 and OctoFS baselines.
struct RunResult {
  double samples_per_sec = 0.0;
  double bytes_per_sec = 0.0;
  double client_cpu_util = 0.0;  // mean across client I/O cores
  dlsim::SimDuration elapsed = 0;
  std::uint64_t samples = 0;
  double lookup_us_avg = 0.0;  // mean per-sample lookup/open time
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

/// One client's epoch as the application saw it: pick order, arena
/// offsets, skips, and whether every delivered byte matched the dataset.
struct EpochLog {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> offsets;
  std::uint64_t skipped = 0;
  bool content_ok = true;
};

/// Reads `inst`'s share of the current epoch, `batch` samples per bread,
/// and checks each delivered sample against `ds.fill_content`.
[[nodiscard]] dlsim::Task<void> read_epoch_checked(const dataset::Dataset& ds,
                                                   core::DlfsInstance& inst,
                                                   std::size_t batch,
                                                   EpochLog& log);

/// Every client's stats() merged with InstanceStats::operator+=.
[[nodiscard]] core::InstanceStats fleet_stats(core::DlfsFleet& fleet);

/// The row for a window of `elapsed` in which the readers received
/// `samples` samples of `sample_bytes` each: stats are what accrued
/// since `before`, CPU utilization is since each I/O core's last
/// reset_accounting().
[[nodiscard]] RunResult fleet_result(core::DlfsFleet& fleet,
                                     dlsim::SimDuration elapsed,
                                     std::uint64_t samples,
                                     std::uint32_t sample_bytes,
                                     const core::InstanceStats& before = {});

/// Writes every stats leaf as `"key": value`, comma-separated, in
/// for_each_stat order; durations in µs.
void write_stats_json(std::ostream& out, const core::InstanceStats& stats);

/// One epoch of dlfs_bread across all clients. A FaultPlan crashes one
/// storage node mid-epoch; the epoch then completes over the surviving
/// subset (RunResult::stats.samples_skipped counts what was lost).
[[nodiscard]] RunResult run_dlfs(const Workload& w, core::DlfsConfig cfg,
                                 dlsim::SimDuration injected_poll_compute = 0,
                                 const FaultPlan& faults = {});

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
