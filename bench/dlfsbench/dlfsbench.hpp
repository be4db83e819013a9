#pragma once

// dlfsbench: the trainer-level DLFS benchmark. Declarations shared by its
// three translation units:
//
//   workloads.cpp  the four workloads, the rig that sets one up (cluster,
//                  dataset, fleets, mount) and the closed-loop trainers
//                  that measure it, with the ground-truth delivery check;
//   probe.cpp      counter snapshots of every layer and the span tracer;
//   dlfsbench.cpp  metrics, the command line and the reports.
//
// Every end-to-end number except setup_s is simulated time, so one seed
// reproduces bit for bit; setup_s is host time (see README.md).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dlfsbench {

using dlsim::SimDuration;
using dlsim::SimTime;

// --- workloads ---------------------------------------------------------------

/// One job: a DlfsFleet and the closed-loop trainers reading through it,
/// one per client. A trainer calls bread, runs its step as simulated
/// compute, and calls bread again.
struct JobSpec {
  std::string name;
  dlfs::core::DlfsConfig config;
  std::vector<dlfs::hw::NodeId> clients;
  std::vector<dlfs::hw::NodeId> storage;
  std::size_t batch = 16;
  SimDuration step = 0;
  /// Measured epochs per trainer; 0 reshuffles until the primary job ends.
  std::uint32_t epochs = 1;
  /// Primary job only: epochs run before the measured window opens, so
  /// caches fill first. The window opens once every trainer finished them.
  std::uint32_t warmup_epochs = 0;
  /// bread_views behind a double-buffered ViewLease instead of bread.
  bool views = false;
};

/// IMDB-like text, ImageNet-like images, 12-16 KiB samples, or fixed
/// 16 KiB samples.
enum class DataKind : std::uint8_t { kImdb, kImagenet, kSmall, kFixed16K };

struct WorkloadSpec {
  std::string name;
  std::uint32_t nodes = 1;
  DataKind data = DataKind::kFixed16K;
  std::size_t samples = 0;
  /// Epoch-shuffle seed; the dataset itself is fixed per workload.
  std::uint64_t seed = 1;
  /// All jobs read the one dataset; jobs[0] is the primary job.
  std::vector<JobSpec> jobs;
  /// Jobs register with one shared TenantGovernor.
  bool qos = false;
  /// Hardware ceiling for ceiling_frac, in delivered bytes/s.
  double ceiling_bytes_per_s = 0.0;
  /// Storage slot every fleet's target fail-stops for good, `crash_after`
  /// past the opening of the measured window.
  std::optional<std::uint16_t> crash_slot;
  SimDuration crash_after = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// `scale` divides every sample count (1 = full size, 20 = --smoke).
[[nodiscard]] WorkloadSpec make_workload(const std::string& name,
                                         std::uint64_t seed,
                                         std::uint32_t scale);

// --- counters ----------------------------------------------------------------

/// Monotonic counters of one job, summed over its clients.
struct JobCounters {
  std::int64_t samples = 0, bytes = 0, skipped = 0, lookup_ns = 0;
  std::int64_t io_busy_ns = 0, copy_busy_ns = 0, bytes_copied = 0;
  std::int64_t cross_core = 0, retries = 0;
  std::int64_t timeouts = 0, reconnects = 0, replays = 0;
  std::int64_t pf_issued = 0, pf_resident = 0, pf_stalled = 0;
  std::int64_t pf_stall_ns = 0, pf_dropped = 0, pf_reissued = 0;
  std::int64_t dir_local = 0, dir_cached = 0, dir_negative = 0;
  std::int64_t dir_remote = 0, dir_stale = 0;
  std::int64_t cache_hits = 0, cache_misses = 0;
  std::int64_t peer_local = 0, peer_remote = 0, peer_misses = 0;
  std::int64_t peer_bytes = 0;
  std::int64_t declared_dead = 0, rereplicated = 0, repair_bytes = 0;
  std::int64_t repair_throttles = 0;
  std::int64_t qos_admitted = 0, qos_deferred = 0, qos_bytes = 0;
};

/// Monotonic counters of one node's device and NIC.
struct NodeCounters {
  std::int64_t dev_read = 0, dev_written = 0, dev_cmds = 0;
  std::int64_t nic_tx = 0, nic_rx = 0;
};

struct Counters {
  std::vector<JobCounters> jobs;
  std::vector<NodeCounters> nodes;
  std::int64_t messages = 0, dropped = 0, sim_events = 0;
};

/// Every counter as one flat vector, in counter_names() order.
[[nodiscard]] std::vector<std::int64_t> flatten(const Counters& c);
[[nodiscard]] std::vector<std::string> counter_names(const WorkloadSpec& w);
[[nodiscard]] Counters operator-(const Counters& a, const Counters& b);

// --- tracing -----------------------------------------------------------------

using HostClock = std::chrono::steady_clock;

/// Spans around every public call the benchmark makes, kept in memory and
/// written as a Chrome trace when the run ends. A bread span carries the
/// counter deltas since the previous bread of any trainer completed, so
/// the deltas partition the measured window.
class Tracer {
 public:
  explicit Tracer(std::vector<std::string> counter_names);

  struct Where {
    std::uint32_t job = 0;
    std::uint32_t client = 0;
    std::uint32_t epoch = 0;
    std::uint64_t batch = 0;
  };
  void span(const char* name, const Where& at, SimTime t0, SimTime t1,
            HostClock::time_point h0);
  void bread(const char* name, const Where& at, SimTime t0, SimTime t1,
             HostClock::time_point h0, const Counters& now);
  void instant(const char* name, std::uint32_t job, SimTime t);
  /// Opens and closes (at simulated time `t`) the measured window with
  /// its S0 and S1 snapshots.
  void open(const Counters& s0);
  void close(const Counters& s1, SimTime t);

  /// Checks that the per-batch deltas (plus the tail after the last
  /// bread) sum to `total` for every counter and that no delta of a
  /// monotonic counter is negative. Returns one message per failure.
  [[nodiscard]] std::vector<std::string> check_sums(const Counters& total) const;

  /// Writes the Chrome trace-event file; `jobs` names the processes.
  void write(const std::string& path,
             const std::vector<std::string>& jobs) const;

 private:
  struct Span {
    const char* name;
    Where at;
    SimTime t0, t1;
    double h0_us, h1_us;
    bool instant;
    std::vector<std::pair<std::uint32_t, std::int64_t>> deltas;
  };
  [[nodiscard]] double host_us(HostClock::time_point t) const;

  std::vector<std::string> names_;
  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> last_, sum_, tail_;
  bool open_ = false, closed_ = false;
  SimTime closed_at_ = 0;
  std::uint64_t negative_deltas_ = 0;
};

// --- rig and measurement -----------------------------------------------------

/// One workload set up and mounted: the benchmark's set-up phase.
struct Rig {
  Rig(const WorkloadSpec& spec, Tracer* tracer);

  dlsim::Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset dataset;
  dlfs::cluster::Pfs pfs;
  std::vector<std::unique_ptr<dlfs::core::DlfsFleet>> fleets;
  SimDuration mount_time = 0;
};

[[nodiscard]] Counters read_counters(Rig& rig);

/// Gauges read when the measured window closes, per job (max over its
/// clients).
struct JobGauges {
  std::uint64_t window_target = 0, in_flight_hwm = 0;
  std::uint64_t directory_bytes = 0, pool_peak_bytes = 0, client_mem_bytes = 0;
};

/// Outcome of one job's trainers.
struct JobOutcome {
  std::vector<SimDuration> latencies;  // primary job, measured epochs
  std::uint64_t attempted = 0;         // expected deliveries
  std::uint64_t failed = 0;            // skipped+corrupt+duplicate+missing
  std::uint64_t corrupt = 0, duplicated = 0, missing = 0, skipped = 0;
  JobGauges gauges;
};

struct Measurement {
  SimTime t_start = 0, t_end = 0;       // the measured window
  SimDuration warmup = 0;               // trainers' start to t_start
  Counters delta;                       // S1 - S0
  std::vector<double> device_busy_ns;   // per node, over the window
  std::vector<JobOutcome> jobs;
  SimDuration mount_time = 0;
  std::uint64_t pfs_bytes = 0;
  std::uint64_t mount_device_write_bytes = 0;
  SimDuration repair_drain = 0;
  double host_s = 0.0;                  // host time of the measured phase
  std::vector<std::string> failures;
};

/// Runs the workload's trainers on a freshly set-up rig until the primary
/// job ends. With a tracer, records spans and counter deltas.
[[nodiscard]] Measurement measure(Rig& rig, const WorkloadSpec& spec,
                                  Tracer* tracer);

}  // namespace dlfsbench
