// Fig. 6 — Random-read sample throughput on a single node with a local
// NVMe device, sample sizes 512 B .. 1 MB.
//
// Series (as in the paper):
//   Ext4-Base : one reader thread on one core through the kernel FS
//   Ext4-MC   : four reader threads on four cores
//   DLFS-Base : synchronous dlfs_read per sample (no batching)
//   DLFS      : full opportunistic batching (chunk-level + read-ahead)
//
// Paper headlines checked at the bottom:
//   * DLFS-Base >= 1.82x Ext4-Base for samples <= 4 KB
//   * DLFS >= ~3.35x Ext4-MC for small samples
//   * Ext4-Base ~43.8% below DLFS at large sample sizes

#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "harness.hpp"

using dlfs::Table;
using dlfs::bench::RunResult;
using dlfs::bench::Workload;
using namespace dlfs::byte_literals;

namespace {

std::size_t samples_for(std::uint64_t size) {
  // Enough samples to reach steady state; bounded host time.
  const std::uint64_t target_bytes = 24_MiB;
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(target_bytes / size, 128, 16384));
}

}  // namespace

int main() {
  dlfs::print_banner("Fig 6: single-node random-read sample throughput");

  const std::vector<std::uint64_t> sizes = {512,    4_KiB,  16_KiB, 64_KiB,
                                            128_KiB, 512_KiB, 1_MiB};
  Table t({"sample", "Ext4-Base", "Ext4-MC", "DLFS-Base", "DLFS",
           "unit"});
  struct Row {
    double ext4_base, ext4_mc, dlfs_base, dlfs;
  };
  std::vector<Row> rows;

  for (auto size : sizes) {
    Workload w;
    w.num_nodes = 1;
    w.sample_bytes = static_cast<std::uint32_t>(size);
    w.samples_per_node = samples_for(size);

    dlfs::core::DlfsConfig base_cfg;
    base_cfg.batching = dlfs::core::BatchingMode::kNone;
    base_cfg.cache_chunks = 1;  // no cache reuse in the throughput sweep
    dlfs::core::DlfsConfig full_cfg;
    full_cfg.batching = dlfs::core::BatchingMode::kChunkLevel;
    full_cfg.cache_chunks = 1;

    Row r{};
    r.ext4_base = dlfs::bench::run_ext4(w, 1).samples_per_sec;
    r.ext4_mc = dlfs::bench::run_ext4(w, 4).samples_per_sec;
    r.dlfs_base = dlfs::bench::run_dlfs(w, base_cfg).samples_per_sec;
    r.dlfs = dlfs::bench::run_dlfs(w, full_cfg).samples_per_sec;
    rows.push_back(r);
    t.add_row({dlfs::format_bytes(size), Table::num(r.ext4_base / 1e3, 1),
               Table::num(r.ext4_mc / 1e3, 1),
               Table::num(r.dlfs_base / 1e3, 1), Table::num(r.dlfs / 1e3, 1),
               "Ksamples/s"});
  }
  t.print();

  // Headline comparisons.
  std::printf("\npaper-vs-measured headlines\n");
  double min_base_ratio = 1e9;
  for (std::size_t i = 0; i < 2; ++i) {  // 512 B, 4 KiB
    min_base_ratio =
        std::min(min_base_ratio, rows[i].dlfs_base / rows[i].ext4_base);
  }
  std::printf("  DLFS-Base / Ext4-Base (<=4KB):  paper >= 1.82x | measured %.2fx\n",
              min_base_ratio);
  double min_mc_ratio = 1e9;
  for (std::size_t i = 0; i < 2; ++i) {  // <= 4 KiB
    min_mc_ratio = std::min(min_mc_ratio, rows[i].dlfs / rows[i].ext4_mc);
  }
  std::printf("  DLFS / Ext4-MC (<=4KB):         paper ~3.35x   | measured %.2fx\n",
              min_mc_ratio);
  const auto& last = rows.back();
  std::printf("  Ext4-Base below DLFS (1 MiB):   paper 43.8%%    | measured %.1f%%\n",
              (1.0 - last.ext4_base / last.dlfs) * 100.0);
  return 0;
}
