// Quickstart: mount DLFS on a single node, read one sample by name, then
// stream a mini-batch epoch with dlfs_sequence / dlfs_bread. Exits 1 when
// the read's bytes do not match the dataset or the epoch misses a sample.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"

using dlsim::Task;
using namespace dlfs::byte_literals;

int main() {
  dlfs::set_log_level(dlfs::LogLevel::kInfo);

  // One simulated node with one NVMe device; everything runs in virtual
  // time inside the discrete-event simulator.
  dlsim::Simulator sim;
  dlfs::cluster::NodeConfig node_cfg;
  node_cfg.synthetic_store = false;  // RAM-backed: every byte verifiable
  node_cfg.device_capacity = 1_GiB;
  dlfs::cluster::Cluster cluster(sim, /*num_nodes=*/1, node_cfg);

  // A small "ImageNet": 2,000 samples of 4 KiB with 10 classes, plus the
  // parallel file system it is uploaded from at mount time.
  auto dataset = dlfs::dataset::make_fixed_size_dataset(2000, 4_KiB);
  dlfs::cluster::Pfs pfs(sim, dataset);

  // dlfs_mount: a collective call — mount() runs every participant.
  dlfs::core::DlfsConfig config;
  config.batching = dlfs::core::BatchingMode::kChunkLevel;
  dlfs::core::DlfsFleet fleet(cluster, pfs, dataset, config);
  fleet.mount();
  std::printf("mounted %zu samples in %.2f ms of simulated time\n",
              fleet.directory().num_samples(),
              dlsim::to_millis(sim.now()));

  // dlfs_open + dlfs_read a single sample by name.
  auto& instance = fleet.instance(0);
  bool verified = false;
  sim.spawn(
      [](dlfs::core::DlfsInstance& inst, const dlfs::dataset::Dataset& ds,
         bool& verified) -> Task<void> {
        auto handle = co_await inst.open("fixed4096_42");
        std::vector<std::byte> buf(handle.entry->len());
        co_await inst.read(handle, buf);
        // Verify against the dataset's content function.
        std::vector<std::byte> want(buf.size());
        ds.fill_content(handle.sample_id, 0, want);
        verified = buf == want;
        std::printf("read sample 42: %zu bytes, content %s\n", buf.size(),
                    verified ? "verified" : "MISMATCH");
      }(instance, dataset, verified),
      "single-read");
  sim.run();
  sim.rethrow_failures();

  // dlfs_sequence + dlfs_bread: one epoch of mini-batches.
  instance.sequence(/*seed=*/2024);
  std::size_t samples = 0;
  sim.spawn(
      [](dlsim::Simulator& s, dlfs::core::DlfsInstance& inst,
         std::size_t& samples) -> Task<void> {
        std::vector<std::byte> arena(64 * 4_KiB);
        const auto t0 = s.now();
        std::size_t batches = 0;
        for (;;) {
          auto batch = co_await inst.bread(32, arena);
          if (batch.end_of_epoch) break;
          ++batches;
          samples += batch.samples.size();
        }
        const double secs = dlsim::to_seconds(s.now() - t0);
        std::printf(
            "epoch: %zu samples in %zu mini-batches, %.0f samples/s "
            "(simulated), cache hits %llu\n",
            samples, batches, static_cast<double>(samples) / secs,
            static_cast<unsigned long long>(inst.cache().hits()));
      }(sim, instance, samples),
      "epoch");
  sim.run();
  sim.rethrow_failures();
  if (!verified || samples != dataset.num_samples()) {
    std::fprintf(stderr,
                 "quickstart: FAILED (read %s, epoch %zu of %zu samples)\n",
                 verified ? "verified" : "mismatched", samples,
                 dataset.num_samples());
    return 1;
  }
  return 0;
}
