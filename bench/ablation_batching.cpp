// Ablation of the design choices DESIGN.md §7 calls out (not a paper
// figure): batching mode, chunk size, SPDK queue depth, and the
// SCQ copy-thread pool, all on a single node with a local device.

#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "harness.hpp"
#include "sim/simulator.hpp"

using dlfs::Table;
using dlfs::bench::Workload;
using dlfs::core::BatchingMode;
using namespace dlfs::byte_literals;
using namespace dlsim::literals;

int main() {
  dlfs::print_banner("Ablation: DLFS batching design choices");

  // --- batching mode vs sample size ----------------------------------------
  {
    Table t({"sample", "none (DLFS-Base)", "sample-level", "chunk-level",
             "unit"});
    for (std::uint64_t size : {512_B, 4_KiB, 128_KiB}) {
      Workload w;
      w.num_nodes = 1;
      w.sample_bytes = static_cast<std::uint32_t>(size);
      w.samples_per_node = size <= 4_KiB ? 8192 : 512;
      std::vector<std::string> row = {dlfs::format_bytes(size)};
      for (auto mode : {BatchingMode::kNone, BatchingMode::kSampleLevel,
                        BatchingMode::kChunkLevel}) {
        dlfs::core::DlfsConfig cfg;
        cfg.batching = mode;
        row.push_back(
            Table::num(dlfs::bench::run_dlfs(w, cfg).samples_per_sec / 1e3, 1));
      }
      row.push_back("Ksamples/s");
      t.add_row(std::move(row));
    }
    std::printf("\nbatching mode\n");
    t.print();
  }

  // --- chunk size (512 B samples, chunk-level) ------------------------------
  {
    Table t({"chunk size", "Ksamples/s", "requests posted/sample"});
    Workload w;
    w.num_nodes = 1;
    w.sample_bytes = 512;
    w.samples_per_node = 16384;
    for (std::uint64_t chunk : {64_KiB, 128_KiB, 256_KiB, 512_KiB, 1_MiB}) {
      dlfs::core::DlfsConfig cfg;
      cfg.batching = BatchingMode::kChunkLevel;
      cfg.chunk_bytes = chunk;
      auto r = dlfs::bench::run_dlfs(w, cfg);
      t.add_row({dlfs::format_bytes(chunk),
                 Table::num(r.samples_per_sec / 1e3, 1),
                 Table::num(static_cast<double>(chunk) == 0
                                ? 0
                                : 512.0 / static_cast<double>(chunk),
                            4)});
    }
    std::printf("\nchunk size (512 B samples)\n");
    t.print();
  }

  // --- queue depth (sample-level batching, 4 KiB) ---------------------------
  {
    Table t({"queue depth", "Ksamples/s"});
    Workload w;
    w.num_nodes = 1;
    w.sample_bytes = 4096;
    w.samples_per_node = 8192;
    for (std::uint32_t qd : {1u, 4u, 16u, 64u, 128u}) {
      dlfs::core::DlfsConfig cfg;
      cfg.batching = BatchingMode::kSampleLevel;
      cfg.queue_depth = qd;
      auto r = dlfs::bench::run_dlfs(w, cfg);
      t.add_row({Table::integer(qd), Table::num(r.samples_per_sec / 1e3, 1)});
    }
    std::printf("\nSPDK queue depth (4 KiB, sample-level batching)\n");
    t.print();
  }

  // --- copy threads (chunk-level, 128 KiB) ----------------------------------
  {
    Table t({"copy threads", "Ksamples/s", "io-core util"});
    Workload w;
    w.num_nodes = 1;
    w.sample_bytes = 128_KiB;
    w.samples_per_node = 512;
    for (std::uint32_t ct : {0u, 1u, 2u, 4u}) {
      dlfs::core::DlfsConfig cfg;
      cfg.batching = BatchingMode::kChunkLevel;
      cfg.copy_threads = ct;
      auto r = dlfs::bench::run_dlfs(w, cfg);
      t.add_row({Table::integer(ct), Table::num(r.samples_per_sec / 1e3, 1),
                 Table::num(r.client_cpu_util, 2)});
    }
    std::printf("\nSCQ copy-thread pool (128 KiB, chunk-level)\n");
    t.print();
  }

  // --- zero-copy delivery (the paper's §III-C.2 future work) ---------------
  {
    Table t({"delivery", "Ksamples/s", "io+copy CPU us/sample"});
    for (bool zero_copy : {false, true}) {
      // bread vs bread_views over one epoch, single node, 4 KiB samples.
      dlsim::Simulator sim;
      dlfs::cluster::NodeConfig nc;
      nc.synthetic_store = true;
      nc.device_capacity = 1_GiB;
      dlfs::cluster::Cluster cluster(sim, 1, nc);
      auto ds = dlfs::dataset::make_fixed_size_dataset(8192, 4096);
      dlfs::cluster::Pfs pfs(sim, ds);
      dlfs::core::DlfsConfig cfg;
      cfg.batching = BatchingMode::kChunkLevel;
      dlfs::core::DlfsFleet fleet(cluster, pfs, ds, cfg);
      fleet.mount();
      auto& inst = fleet.instance(0);
      inst.sequence(1);
      inst.io_core().reset_accounting();
      const auto t0 = sim.now();
      sim.spawn([](dlfs::core::DlfsInstance& inst, bool zc)
                    -> dlsim::Task<void> {
        std::vector<std::byte> arena(64 * 4096);
        for (;;) {
          if (zc) {
            auto b = co_await inst.bread_views(32);
            if (b.end_of_epoch) break;
            inst.release_views(b);
          } else {
            auto b = co_await inst.bread(32, arena);
            if (b.end_of_epoch) break;
          }
        }
      }(inst, zero_copy));
      sim.run();
      sim.rethrow_failures();
      const double secs = dlsim::to_seconds(sim.now() - t0);
      const double cpu_us =
          dlsim::to_micros(inst.io_core().busy_ns() +
                           inst.engine().copy_busy_ns()) /
          8192.0;
      t.add_row({zero_copy ? "zero-copy views" : "copy to app buffer",
                 Table::num(8192.0 / secs / 1e3, 1), Table::num(cpu_us, 2)});
    }
    std::printf("\nzero-copy delivery (4 KiB, chunk-level)\n");
    t.print();
  }

  // --- sample cache across epochs (sample-level batching) -------------------
  {
    // When the working set fits in the huge-page sample cache, the second
    // epoch is served from memory: the V-bit fast path of dlfs_read.
    Table t({"epoch", "Ksamples/s", "cache hits", "device reads"});
    dlsim::Simulator sim;
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = true;
    nc.device_capacity = 1_GiB;
    dlfs::cluster::Cluster cluster(sim, 1, nc);
    auto ds = dlfs::dataset::make_fixed_size_dataset(1024, 4096);
    dlfs::cluster::Pfs pfs(sim, ds);
    dlfs::core::DlfsConfig cfg;
    cfg.batching = BatchingMode::kSampleLevel;
    cfg.cache_chunks = 1100;  // whole dataset fits
    // Each cached sample occupies one pool chunk; size the pool for the
    // cache plus in-flight I/O.
    cfg.pool_bytes = 512ull * 1024 * 1024;
    dlfs::core::DlfsFleet fleet(cluster, pfs, ds, cfg);
    fleet.mount();
    auto& inst = fleet.instance(0);
    for (int epoch = 0; epoch < 2; ++epoch) {
      inst.sequence(100 + static_cast<std::uint64_t>(epoch));
      const auto t0 = sim.now();
      const auto hits0 = inst.cache().hits();
      const auto reads0 = cluster.node(0).device().commands_completed();
      sim.spawn([](dlfs::core::DlfsInstance& inst) -> dlsim::Task<void> {
        std::vector<std::byte> arena(64 * 4096);
        for (;;) {
          auto b = co_await inst.bread(32, arena);
          if (b.end_of_epoch) break;
        }
      }(inst));
      sim.run();
      sim.rethrow_failures();
      const double secs = dlsim::to_seconds(sim.now() - t0);
      t.add_row({Table::integer(static_cast<std::uint64_t>(epoch + 1)),
                 Table::num(1024.0 / secs / 1e3, 1),
                 Table::integer(inst.cache().hits() - hits0),
                 Table::integer(cluster.node(0).device().commands_completed() -
                                reads0)});
    }
    std::printf("\nsample-cache reuse across epochs (4 KiB, dataset fits)\n");
    t.print();
  }

  // --- read-ahead depth (async daemon) --------------------------------------
  {
    // The app computes between breads, so the daemon's window overlaps
    // the next batch's device time with that compute. Depth is the
    // starting window target; 0 clamps to the one-unit minimum.
    dlfs::bench::JsonReport report("prefetch_sweep");
    auto sweep = [&report](const Workload& w, BatchingMode mode,
                           dlsim::SimDuration compute,
                           const std::string& label) {
      Table t({"depth", "Ksamples/s", "stalls", "stall ms"});
      for (std::uint32_t depth : {0u, 2u, 4u, 8u, 16u}) {
        dlfs::core::DlfsConfig cfg;
        cfg.batching = mode;
        cfg.prefetch.initial_units = depth;
        const auto r = dlfs::bench::run_dlfs(w, cfg, compute);
        report.add(label + " depth=" + std::to_string(depth), r);
        const double stall_ms = static_cast<double>(r.prefetch.stall_ns) / 1e6;
        t.add_row({Table::integer(depth),
                   Table::num(r.samples_per_sec / 1e3, 1),
                   Table::integer(r.prefetch.units_stalled),
                   Table::num(stall_ms, 2)});
      }
      return t;
    };

    Workload w;
    w.num_nodes = 1;
    w.sample_bytes = 128_KiB;
    w.samples_per_node = 768;
    std::printf("\nread-ahead depth (128 KiB, chunk-level, 1.5 ms compute "
                "between breads)\n");
    sweep(w, BatchingMode::kChunkLevel, 1500_us, "mode=async").print();

    // Same sweep on the sample-level path: the daemon fuses per-sample
    // extents into window units and overlaps them with the compute.
    Workload ws;
    ws.num_nodes = 1;
    ws.sample_bytes = 4096;
    ws.samples_per_node = 8192;
    std::printf("\nread-ahead depth (4 KiB, sample-level, 200 us compute "
                "between breads)\n");
    sweep(ws, BatchingMode::kSampleLevel, 200_us, "mode=async-sample").print();
    std::printf("wrote %s\n", report.write().c_str());
  }
  return 0;
}
