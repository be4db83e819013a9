#include "harness.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "octofs/octofs.hpp"
#include "osfs/ext4.hpp"

namespace dlfs::bench {

namespace {

using dlsim::SimTime;
using dlsim::Task;
using namespace dlfs::byte_literals;

cluster::NodeConfig node_config(const Workload& w) {
  cluster::NodeConfig nc;
  nc.synthetic_store = true;
  nc.device_capacity = std::max<std::uint64_t>(
      1_GiB, 2ull * w.sample_bytes * w.samples_per_node * w.num_nodes);
  nc.nvme = w.calibration.nvme;
  return nc;
}

/// True when `pieces`, concatenated, are `len` bytes equal to what
/// `fill(offset, out)` writes, compared a block at a time.
template <typename Fill>
bool same_bytes(std::span<const std::span<const std::byte>> pieces,
                std::uint64_t len, const Fill& fill) {
  std::array<std::byte, 4096> want;
  std::uint64_t at = 0;
  for (std::span<const std::byte> p : pieces) {
    if (p.size() > len - at) return false;
    while (!p.empty()) {
      const std::size_t n = std::min(p.size(), want.size());
      fill(at, std::span(want).first(n));
      if (std::memcmp(want.data(), p.data(), n) != 0) return false;
      at += n;
      p = p.subspan(n);
    }
  }
  return at == len;
}

/// Logs batch `b`, which took `took` and whose delivered samples' lengths
/// sum to `lens`. Throws std::logic_error unless it reported at most
/// `asked` outcomes and counted those lengths in its `bytes`.
template <typename BatchT>
void log_batch(EpochLog& log, const BatchT& b, std::size_t asked,
               std::uint64_t lens, dlsim::SimDuration took) {
  const std::size_t delivered = b.samples.size();
  if (delivered + b.samples_skipped > asked) {
    throw std::logic_error(
        "read_epoch_checked: a bread of " + std::to_string(asked) +
        " reported " + std::to_string(delivered) + " delivered and " +
        std::to_string(b.samples_skipped) + " skipped samples");
  }
  if (b.bytes != lens) {
    throw std::logic_error("read_epoch_checked: a batch's bytes (" +
                           std::to_string(b.bytes) +
                           ") are not its samples' lengths (" +
                           std::to_string(lens) + ")");
  }
  log.batch_ns.push_back(took);
  log.batch_samples.push_back(static_cast<std::uint32_t>(delivered));
  log.bytes += lens;
  log.skipped += b.samples_skipped;
}

}  // namespace

bool SampleTruth::matches(
    std::uint32_t id,
    std::span<const std::span<const std::byte>> pieces) const {
  if (cluster_ == nullptr) {
    return same_bytes(pieces, ds_->sample(id).size,
                      [&](std::uint64_t at, std::span<std::byte> out) {
                        ds_->fill_content(id, at, out);
                      });
  }
  const auto holds = [&](std::uint16_t slot, std::uint64_t offset,
                         std::uint32_t len) {
    const hw::BackingStore& store = cluster_->node(slot).device().store();
    return same_bytes(pieces, len,
                      [&](std::uint64_t at, std::span<std::byte> out) {
                        store.read(offset + at, out);
                      });
  };
  const core::SampleLocation& loc = fleet_->layout()[id];
  if (holds(loc.nid, loc.offset, loc.len)) return true;
  for (const core::RouteHop& h : fleet_->directory().replicas(id)) {
    if (holds(h.nid, h.offset, loc.len)) return true;
  }
  return false;
}

FleetRig::FleetRig(std::uint32_t num_nodes, const cluster::NodeConfig& nodes,
                   dataset::Dataset dataset, const core::DlfsConfig& cfg,
                   std::vector<hw::NodeId> client_nodes,
                   std::vector<hw::NodeId> storage_nodes)
    : cluster(sim, num_nodes, nodes, cfg.calibration.nic),
      ds(std::move(dataset)),
      pfs(sim, ds, cfg.calibration.pfs),
      fleet(cluster, pfs, ds, cfg, std::move(client_nodes),
            std::move(storage_nodes)) {
  fleet.mount();
}

Task<void> read_epoch_checked(core::DlfsInstance& inst, SampleTruth truth,
                              std::size_t batch, EpochLog& log, bool views) {
  const dlsim::Simulator& sim = inst.io_core().simulator();
  const std::size_t arena_bytes = batch * truth.dataset().max_sample_bytes();
  std::vector<std::byte> arena(views ? 0 : arena_bytes);
  // The application consumes a view batch while it fetches the next, so
  // each lease is handed back only once the next batch has arrived.
  core::ViewLease previous;
  for (;;) {
    const SimTime t0 = sim.now();
    std::uint64_t lens = 0;
    if (views) {
      core::ViewBatch b = co_await inst.bread_views(batch);
      if (b.end_of_epoch) break;
      for (const core::ViewSample& s : b.samples) {
        log.order.push_back(s.sample_id);
        lens += s.len;
        if (!truth.matches(s.sample_id, s.pieces)) log.content_ok = false;
      }
      log_batch(log, b, batch, lens, sim.now() - t0);
      previous = core::ViewLease(inst, std::move(b));
    } else {
      const core::Batch b = co_await inst.bread(batch, arena);
      if (b.end_of_epoch) break;
      for (const core::BatchSample& s : b.samples) {
        // Dense packing: each sample starts where the one before it ends.
        if (s.offset_in_arena != lens) {
          throw std::logic_error(
              "read_epoch_checked: sample " + std::to_string(s.sample_id) +
              " sits at arena offset " + std::to_string(s.offset_in_arena) +
              ", not " + std::to_string(lens));
        }
        log.order.push_back(s.sample_id);
        log.offsets.push_back(s.offset_in_arena);
        lens += s.len;
        const std::span<const std::byte> bytes(
            arena.data() + s.offset_in_arena, s.len);
        if (!truth.matches(s.sample_id, {&bytes, 1})) log.content_ok = false;
      }
      log_batch(log, b, batch, lens, sim.now() - t0);
    }
  }
  log.end = sim.now();
}

EpochLog read_epoch(core::DlfsInstance& inst, SampleTruth truth,
                    std::size_t batch, bool views) {
  dlsim::Simulator& sim = inst.io_core().simulator();
  EpochLog log;
  sim.spawn(read_epoch_checked(inst, truth, batch, log, views), "epoch-reader");
  sim.run();
  sim.rethrow_failures();
  return log;
}

bool exactly_once(std::span<const EpochLog> logs, std::size_t samples) {
  std::vector<std::uint32_t> seen(samples, 0);
  for (const EpochLog& log : logs) {
    for (const std::uint32_t id : log.order) {
      if (id >= samples || ++seen[id] > 1) return false;
    }
  }
  return std::find(seen.begin(), seen.end(), 0u) == seen.end();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

core::InstanceStats fleet_stats(core::DlfsFleet& fleet) {
  core::InstanceStats s;
  for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
    s += fleet.instance(c).stats();
  }
  return s;
}

RunResult fleet_result(core::DlfsFleet& fleet, dlsim::SimDuration elapsed,
                       std::span<const EpochLog> logs,
                       std::uint32_t sample_bytes,
                       const core::InstanceStats& before) {
  RunResult r;
  r.elapsed = elapsed;
  std::vector<double> batch_us;
  for (const EpochLog& log : logs) {
    r.samples += log.order.size();
    for (const dlsim::SimDuration d : log.batch_ns) {
      batch_us.push_back(dlsim::to_micros(d));
    }
  }
  r.batch_p50_us = percentile(batch_us, 0.50);
  r.batch_p99_us = percentile(std::move(batch_us), 0.99);
  const auto samples = static_cast<double>(r.samples);
  r.samples_per_sec = samples / dlsim::to_seconds(elapsed);
  r.bytes_per_sec = r.samples_per_sec * sample_bytes;
  double util = 0.0;
  for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
    util += fleet.instance(c).io_core().utilization();
  }
  r.client_cpu_util = util / fleet.num_clients();
  r.stats = fleet_stats(fleet) - before;
  const double lookup_us = dlsim::to_micros(r.stats.lookup_time_total);
  r.lookup_us_avg = r.samples ? lookup_us / samples : 0.0;
  return r;
}

void write_stats_json(std::ostream& out, const core::InstanceStats& stats) {
  const char* sep = "";
  core::for_each_stat(
      [&](std::string_view key, core::StatKind kind, std::uint64_t v) {
        out << sep << '"' << key << "\": ";
        if (kind == core::StatKind::kDuration) {
          out << dlsim::to_micros(v);
        } else {
          out << v;
        }
        sep = ", ";
      },
      stats);
}

RunResult run_dlfs(const Workload& w, core::DlfsConfig cfg,
                   dlsim::SimDuration injected_poll_compute,
                   const FaultPlan& faults, std::vector<EpochLog>* logs) {
  const std::uint32_t n_storage = w.storage == 0 ? w.num_nodes : w.storage;
  const std::uint32_t n_clients = w.clients == 0 ? w.num_nodes : w.clients;
  cfg.calibration = w.calibration;
  std::vector<hw::NodeId> client_nodes, storage_nodes;
  for (std::uint32_t i = 0; i < n_clients; ++i) {
    client_nodes.push_back((w.client_node_offset + i) % w.num_nodes);
  }
  for (std::uint32_t i = 0; i < n_storage; ++i) storage_nodes.push_back(i);
  FleetRig rig(w.num_nodes, node_config(w),
               dataset::make_fixed_size_dataset(w.samples_per_node * n_storage,
                                                w.sample_bytes, w.seed),
               cfg, std::move(client_nodes), std::move(storage_nodes));
  dlsim::Simulator& sim = rig.sim;
  core::DlfsFleet& fleet = rig.fleet;

  const SimTime start = sim.now();
  if (faults.crash_slot >= 0) {
    auto* target = fleet.target(static_cast<std::uint32_t>(faults.crash_slot));
    target->crash_at(start + faults.crash_at);
    if (faults.recover_at) target->recover_at(start + *faults.recover_at);
  }
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    auto& inst = fleet.instance(c);
    inst.set_injected_poll_compute(injected_poll_compute);
    inst.io_core().reset_accounting();
    inst.sequence(w.seed + 1);
  }
  // Every delivered sample is checked against its placements; run_dlfs
  // throws on a mismatch below.
  std::vector<EpochLog> client_logs(n_clients);
  for (std::uint32_t c = 0; c < n_clients; ++c) {
    sim.spawn(read_epoch_checked(fleet.instance(c),
                                 SampleTruth(rig.cluster, fleet), w.batch_size,
                                 client_logs[c], w.zero_copy),
              "epoch-reader");
  }
  sim.run();
  sim.rethrow_failures();

  // Epoch end is when the last reader finishes, not when the event queue
  // drains — a scheduled recovery can outlive the epoch.
  SimTime readers_done = start;
  for (const EpochLog& log : client_logs) {
    if (!log.content_ok) {
      throw std::logic_error(
          "run_dlfs: a sample was delivered with bytes none of its "
          "placements holds");
    }
    readers_done = std::max(readers_done, log.end);
  }
  RunResult r =
      fleet_result(fleet, readers_done - start, client_logs, w.sample_bytes);
  // Cross-check the instances' own delivery counters against the
  // reader-side tally: a mismatch means a batch was double-counted or
  // silently dropped between the instance and the application.
  if (r.stats.samples_delivered != r.samples ||
      r.stats.bytes_delivered != r.samples * w.sample_bytes) {
    throw std::logic_error(
        "run_dlfs: delivery counters disagree with the reader tally: "
        "instances report " +
        std::to_string(r.stats.samples_delivered) + " samples / " +
        std::to_string(r.stats.bytes_delivered) + " bytes, readers saw " +
        std::to_string(r.samples) + " samples / " +
        std::to_string(r.samples * w.sample_bytes) + " bytes");
  }
  if (logs != nullptr) *logs = std::move(client_logs);
  return r;
}

RunResult run_ext4(const Workload& w, std::uint32_t threads_per_node) {
  dlsim::Simulator sim;
  cluster::Cluster cluster(sim, w.num_nodes, node_config(w),
                           w.calibration.nic);
  // One Ext4 per node over its own device, holding that node's shard.
  std::vector<std::unique_ptr<osfs::Ext4Fs>> fss;
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    fss.push_back(std::make_unique<osfs::Ext4Fs>(
        sim, cluster.node(n).device(), w.calibration));
  }
  // Stage: each node's files written by one staging thread.
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    sim.spawn([](osfs::Ext4Fs& fs, cluster::Node& node,
                 const Workload& w) -> Task<void> {
      osfs::OsThread staging(fs, node.core(15));
      std::vector<std::byte> data(w.sample_bytes);
      for (std::size_t i = 0; i < w.samples_per_node; ++i) {
        const int fd =
            co_await fs.create(staging, "s" + std::to_string(i));
        co_await fs.append(staging, fd, data);
        co_await fs.close(staging, fd);
      }
    }(*fss[n], cluster.node(n), w));
  }
  sim.run();
  sim.rethrow_failures();
  for (auto& fs : fss) fs->drop_caches();

  const SimTime start = sim.now();
  std::uint64_t total_samples = 0;
  std::vector<dlsim::CpuCore*> cores;
  std::vector<std::unique_ptr<osfs::OsThread>> threads;
  double open_us_total = 0.0;
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    for (std::uint32_t t = 0; t < threads_per_node; ++t) {
      auto& core = cluster.node(n).core(t);
      core.reset_accounting();
      cores.push_back(&core);
      threads.push_back(std::make_unique<osfs::OsThread>(*fss[n], core));
      sim.spawn([](dlsim::Simulator& sim, osfs::Ext4Fs& fs,
                   osfs::OsThread& thread, const Workload& w,
                   std::uint32_t tid, std::uint32_t nthreads,
                   std::uint64_t& total, double& open_us) -> Task<void> {
        // This thread reads its strided slice of the node's shuffled list.
        Rng rng(w.seed + 7);
        auto order = rng.permutation(w.samples_per_node);
        std::vector<std::byte> buf(w.sample_bytes);
        for (std::size_t i = tid; i < order.size(); i += nthreads) {
          const SimTime t0 = sim.now();
          auto fd =
              co_await fs.open(thread, "s" + std::to_string(order[i]));
          open_us += dlsim::to_micros(sim.now() - t0);
          (void)co_await fs.pread(thread, *fd, buf, 0);
          co_await fs.close(thread, *fd);
          ++total;
        }
      }(sim, *fss[n], *threads.back(), w, t, threads_per_node, total_samples,
        open_us_total));
    }
  }
  sim.run();
  sim.rethrow_failures();

  RunResult r;
  r.elapsed = sim.now() - start;
  r.samples = total_samples;
  r.samples_per_sec =
      static_cast<double>(total_samples) / dlsim::to_seconds(r.elapsed);
  r.bytes_per_sec = r.samples_per_sec * w.sample_bytes;
  double util = 0.0;
  for (auto* c : cores) util += c->utilization();
  r.client_cpu_util = util / static_cast<double>(cores.size());
  r.lookup_us_avg =
      total_samples ? open_us_total / static_cast<double>(total_samples) : 0.0;
  return r;
}

RunResult run_octopus(const Workload& w) {
  dlsim::Simulator sim;
  cluster::Cluster cluster(sim, w.num_nodes, node_config(w),
                           w.calibration.nic);
  octofs::OctoFs fs(cluster, w.calibration);
  const std::size_t total = w.samples_per_node * w.num_nodes;
  // Stage the global dataset (hash-placed on owners).
  sim.spawn([](octofs::OctoFs& fs, const Workload& w,
               std::size_t total) -> Task<void> {
    std::vector<std::byte> data(w.sample_bytes);
    for (std::size_t i = 0; i < total; ++i) {
      co_await fs.stage_file("s" + std::to_string(i), data);
    }
  }(fs, w, total));
  sim.run();
  sim.rethrow_failures();

  const SimTime start = sim.now();
  std::uint64_t read_count = 0;
  double lookup_us_total = 0.0;
  std::vector<std::unique_ptr<octofs::OctoFs::Client>> clients;
  std::vector<dlsim::CpuCore*> cores;
  for (std::uint32_t n = 0; n < w.num_nodes; ++n) {
    auto& core = cluster.node(n).core(0);
    core.reset_accounting();
    cores.push_back(&core);
    clients.push_back(fs.make_client(n, core));
    sim.spawn([](dlsim::Simulator& sim, octofs::OctoFs::Client& client,
                 const Workload& w, std::uint32_t nid, std::size_t total,
                 std::uint64_t& count, double& lookup_us) -> Task<void> {
      // Client n reads its strided share of a global shuffled order.
      Rng rng(w.seed + 11);
      auto order = rng.permutation(total);
      std::vector<std::byte> buf(w.sample_bytes);
      for (std::size_t i = nid; i < order.size(); i += w.num_nodes) {
        const SimTime t0 = sim.now();
        auto meta = co_await client.open("s" + std::to_string(order[i]));
        lookup_us += dlsim::to_micros(sim.now() - t0);
        co_await client.read(*meta, buf);
        ++count;
      }
    }(sim, *clients.back(), w, n, total, read_count, lookup_us_total));
  }
  sim.run();
  sim.rethrow_failures();

  RunResult r;
  r.elapsed = sim.now() - start;
  r.samples = read_count;
  r.samples_per_sec =
      static_cast<double>(read_count) / dlsim::to_seconds(r.elapsed);
  r.bytes_per_sec = r.samples_per_sec * w.sample_bytes;
  double util = 0.0;
  for (auto* c : cores) util += c->utilization();
  r.client_cpu_util = util / static_cast<double>(cores.size());
  r.lookup_us_avg =
      read_count ? lookup_us_total / static_cast<double>(read_count) : 0.0;
  return r;
}

LookupTimes measure_lookup_times(std::uint32_t num_nodes,
                                 std::size_t files_per_node,
                                 std::uint32_t sample_bytes,
                                 std::size_t measure_count) {
  LookupTimes out;
  Workload w;
  w.num_nodes = num_nodes;
  w.sample_bytes = sample_bytes;
  w.samples_per_node = files_per_node;
  {
    // DLFS: mount, then time raw directory lookups from node 0.
    dlsim::Simulator sim;
    cluster::Cluster cluster(sim, num_nodes, node_config(w));
    auto ds = dataset::make_fixed_size_dataset(files_per_node * num_nodes,
                                               sample_bytes, 1);
    cluster::Pfs pfs(sim, ds);
    core::DlfsFleet fleet(cluster, pfs, ds, core::DlfsConfig{});
    fleet.mount();
    auto& inst = fleet.instance(0);
    const SimTime t0 = sim.now();
    sim.spawn([](core::DlfsInstance& inst, const dataset::Dataset& ds,
                 std::size_t count) -> Task<void> {
      Rng rng(3);
      for (std::size_t i = 0; i < count; ++i) {
        const auto id =
            static_cast<std::uint32_t>(rng.next_below(ds.num_samples()));
        (void)co_await inst.open_id(id);
      }
    }(inst, ds, measure_count));
    sim.run();
    sim.rethrow_failures();
    out.dlfs_us = dlsim::to_micros(sim.now() - t0) /
                  static_cast<double>(measure_count);
  }
  {
    // Ext4: cold opens on one node. Beyond the metadata-cache capacity the
    // per-open cost is flat, so staging is capped for host-time reasons.
    const std::size_t ext4_files = std::min<std::size_t>(files_per_node, 30000);
    dlsim::Simulator sim;
    cluster::Cluster cluster(sim, 1, node_config(w));
    osfs::Ext4Fs fs(sim, cluster.node(0).device(), default_calibration());
    sim.spawn([](osfs::Ext4Fs& fs, cluster::Node& node, std::size_t n,
                 std::uint32_t bytes) -> Task<void> {
      osfs::OsThread staging(fs, node.core(15));
      std::vector<std::byte> data(bytes);
      for (std::size_t i = 0; i < n; ++i) {
        const int fd = co_await fs.create(staging, "s" + std::to_string(i));
        co_await fs.append(staging, fd, data);
        co_await fs.close(staging, fd);
      }
    }(fs, cluster.node(0), ext4_files, sample_bytes));
    sim.run();
    sim.rethrow_failures();
    fs.drop_caches();
    const SimTime t0 = sim.now();
    sim.spawn([](osfs::Ext4Fs& fs, cluster::Node& node, std::size_t files,
                 std::size_t count) -> Task<void> {
      osfs::OsThread thread(fs, node.core(0));
      Rng rng(3);
      for (std::size_t i = 0; i < count; ++i) {
        const auto id = rng.next_below(files);
        auto fd = co_await fs.open(thread, "s" + std::to_string(id));
        co_await fs.close(thread, *fd);
      }
    }(fs, cluster.node(0), ext4_files, measure_count));
    sim.run();
    sim.rethrow_failures();
    out.ext4_us = dlsim::to_micros(sim.now() - t0) /
                  static_cast<double>(measure_count);
  }
  {
    // OctoFS: lookups from node 0 over the partitioned namespace.
    dlsim::Simulator sim;
    cluster::Cluster cluster(sim, num_nodes, node_config(w));
    octofs::OctoFs fs(cluster, default_calibration());
    // Lookup cost does not depend on file count; cap staging for host time.
    const std::size_t total =
        std::min<std::size_t>(files_per_node * num_nodes, 100000);
    sim.spawn([](octofs::OctoFs& fs, std::size_t n,
                 std::uint32_t bytes) -> Task<void> {
      std::vector<std::byte> data(bytes);
      for (std::size_t i = 0; i < n; ++i) {
        co_await fs.stage_file("s" + std::to_string(i), data);
      }
    }(fs, total, sample_bytes));
    sim.run();
    sim.rethrow_failures();
    auto client = fs.make_client(0, cluster.node(0).core(0));
    const SimTime t0 = sim.now();
    sim.spawn([](octofs::OctoFs::Client& client, std::size_t files,
                 std::size_t count) -> Task<void> {
      Rng rng(3);
      for (std::size_t i = 0; i < count; ++i) {
        const auto id = rng.next_below(files);
        (void)co_await client.open("s" + std::to_string(id));
      }
    }(*client, total, measure_count));
    sim.run();
    sim.rethrow_failures();
    out.octopus_us = dlsim::to_micros(sim.now() - t0) /
                     static_cast<double>(measure_count);
  }
  return out;
}

void JsonReport::add(const std::string& config, const RunResult& r) {
  rows_.push_back(Row{config, r});
}

std::string JsonReport::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& [config, r] = rows_[i];
    out << "  {\"config\": \"" << config << "\""
        << ", \"samples_per_sec\": " << r.samples_per_sec
        << ", \"bytes_per_sec\": " << r.bytes_per_sec
        << ", \"client_cpu_util\": " << r.client_cpu_util
        << ", \"elapsed_us\": " << dlsim::to_micros(r.elapsed)
        << ", \"samples\": " << r.samples
        << ", \"lookup_us_avg\": " << r.lookup_us_avg
        << ", \"batch_p50_us\": " << r.batch_p50_us
        << ", \"batch_p99_us\": " << r.batch_p99_us << ", ";
    write_stats_json(out, r.stats);
    out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return path;
}

}  // namespace dlfs::bench
