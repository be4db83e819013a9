// Peer-cache sweep — multi-epoch cooperative-cache benchmark: three DLFS
// clients on their own nodes read a shared dataset staged on ONE storage
// node, with the cooperative peer cache on vs off.
//
// Epoch 1 (cold) pulls every sample over the storage node's single NIC
// and leaves each client's strided share resident in its sample cache.
// Every later epoch reshuffles with a fresh seed, so roughly (k-1)/k of
// each client's new share is resident only at a peer client: with the
// peer cache on those samples are pulled from peer DRAM over the fabric
// (spread across the client NICs) instead of re-reading the replica
// path, so the fleet's aggregate warm-epoch bandwidth is no longer bound
// by the storage node's single NIC.
//
// The run fails (exit 1) unless, on the same seeds:
//  * every epoch in both modes delivers every sample exactly once, with
//    zero skips and byte-identical content vs the canonical dataset;
//  * the peer-on run records peer_hits_remote > 0;
//  * warm epochs (2..N) are faster with the peer cache on than off;
//  * the peer-on warm aggregate, and each peer-on warm epoch on its own,
//    is at least kWarmFloorVsNic times the storage NIC's line rate — the
//    floor read-ahead peer pulls hold (a failing epoch is named).
//
// Always writes BENCH_peer_cache_sweep.json (one row per mode x epoch).
//
// Flags:
//   --seed N     base shuffle seed (epoch e uses seed N+e-1; default 1)
//   --epochs N   epochs per mode (default 4)
//   --smoke      shrunken run for CI (3 epochs, small dataset)

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "harness.hpp"
#include "sim/time.hpp"

using namespace dlsim::literals;
using namespace dlfs::byte_literals;

namespace {

constexpr std::uint32_t kClients = 3;
constexpr std::uint32_t kSampleBytes = 64 * 1024;
constexpr std::size_t kBatch = 16;
// The prefetch daemon pulls a warm batch's remote samples while the
// trainer steps, and each landed pull is a copy job of its own, so the
// warm epochs clear the single storage NIC by at least this factor, in
// aggregate and one by one (at seed 1 the slowest warm epoch reads 3.40x
// on the full sweep and 3.41x on the smoke, the aggregates 3.49x and
// 3.46x). Pulls posted by bread itself reached 1.9x; pulls read ahead
// past the window's starting depth queue bulk bytes ahead of control
// hops and reached 1.8x. Runs of several pulls per copy job reached 3.0x
// full and 2.97x smoke when sent at their read-ahead unit's end, and
// 3.43x full and 3.19x smoke when sent as soon as a copy thread idled.
constexpr double kWarmFloorVsNic = 3.2;

struct SweepParams {
  std::uint64_t seed = 1;
  std::uint32_t epochs = 4;
  std::size_t samples = 3072;
  std::size_t cache_chunks = 1100;  // >= per-client share (+ slack)
};

dlfs::core::DlfsConfig sweep_config(const SweepParams& p, bool peer_on) {
  dlfs::core::DlfsConfig c;
  c.batching = dlfs::core::BatchingMode::kSampleLevel;
  c.chunk_bytes = kSampleBytes;  // one cache chunk per sample
  c.cache_chunks = p.cache_chunks;
  // Pool must hold the resident share plus prefetch staging.
  c.pool_bytes = (p.cache_chunks + 512) * std::uint64_t{kSampleBytes};
  c.peer_cache.enabled = peer_on;
  return c;
}

// One storage node (0) and one client per remaining node; RAM-backed
// store so delivered bytes can be checked against the dataset content.
dlfs::bench::FleetRig sweep_rig(const SweepParams& p, bool peer_on) {
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;
  nc.device_capacity = 512_MiB;
  return dlfs::bench::FleetRig(
      kClients + 1, nc,
      dlfs::dataset::make_fixed_size_dataset(p.samples, kSampleBytes),
      sweep_config(p, peer_on), /*client_nodes=*/{1, 2, 3},
      /*storage_nodes=*/{0});
}

struct EpochResult {
  dlfs::bench::RunResult row;
  std::uint64_t skipped = 0;  // reader-side tally
  bool content_ok = true;
  bool exactly_once = true;
};

// Runs `epochs` epochs on a fresh rig; epoch e shuffles with seed
// base+e-1, all clients in lockstep (the run_watchdog drain between
// epochs is the epoch barrier every client already observes).
std::vector<EpochResult> run_mode(const SweepParams& p, bool peer_on) {
  dlfs::bench::FleetRig rig = sweep_rig(p, peer_on);
  std::vector<EpochResult> out;
  for (std::uint32_t e = 1; e <= p.epochs; ++e) {
    const dlfs::core::InstanceStats before =
        dlfs::bench::fleet_stats(rig.fleet);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      rig.fleet.instance(c).io_core().reset_accounting();
      rig.fleet.instance(c).sequence(p.seed + e - 1);
    }
    std::vector<dlfs::bench::EpochLog> logs(kClients);
    const dlsim::SimTime t0 = rig.sim.now();
    for (std::uint32_t c = 0; c < kClients; ++c) {
      rig.sim.spawn(dlfs::bench::read_epoch_checked(rig.fleet.instance(c),
                                                    rig.ds, kBatch, logs[c]),
                    "peer-sweep-client");
    }
    rig.sim.run_watchdog(rig.sim.now() + 600_sec);
    rig.sim.rethrow_failures();

    EpochResult r;
    for (const auto& log : logs) {
      r.skipped += log.skipped;
      if (!log.content_ok) r.content_ok = false;
    }
    r.exactly_once = dlfs::bench::exactly_once(logs, p.samples);
    r.row = dlfs::bench::fleet_result(rig.fleet, rig.sim.now() - t0, logs,
                                      kSampleBytes, before);
    out.push_back(r);
  }
  return out;
}

int run_sweep(const SweepParams& p) {
  dlfs::print_banner("Peer-cache sweep: warm-epoch bandwidth, peer on vs off");
  std::printf("clients=%u samples=%zu sample_bytes=%u epochs=%u seed=%" PRIu64
              "\n",
              kClients, p.samples, kSampleBytes, p.epochs,
              static_cast<std::uint64_t>(p.seed));

  const std::vector<EpochResult> off = run_mode(p, /*peer_on=*/false);
  const std::vector<EpochResult> on = run_mode(p, /*peer_on=*/true);

  // Both runs share the storage NIC's line rate as the replica-path
  // ceiling; report warm-epoch aggregates against it.
  const double nic_bw = sweep_config(p, false).calibration.nic.bw_bytes_per_sec;

  dlfs::bench::JsonReport report("peer_cache_sweep");
  dlfs::Table table({"epoch", "mode", "epoch_ms", "agg_GBps", "peer_local",
                     "peer_remote", "peer_miss", "skipped"});
  bool delivery_ok = true;
  for (std::uint32_t e = 0; e < p.epochs; ++e) {
    for (const bool peer_on : {false, true}) {
      const EpochResult& r = peer_on ? on[e] : off[e];
      const dlfs::bench::RunResult& row = r.row;
      if (row.samples != p.samples || r.skipped != 0 || !r.content_ok ||
          !r.exactly_once) {
        delivery_ok = false;
      }
      report.add(std::string("peer=") + (peer_on ? "on" : "off") +
                     " epoch=" + std::to_string(e + 1),
                 row);
      table.add_row({dlfs::Table::integer(e + 1), peer_on ? "on" : "off",
                     dlfs::Table::num(dlsim::to_micros(row.elapsed) / 1e3, 2),
                     dlfs::Table::num(row.bytes_per_sec / 1e9, 2),
                     dlfs::Table::integer(row.stats.peer_hits_local),
                     dlfs::Table::integer(row.stats.peer_hits_remote),
                     dlfs::Table::integer(row.stats.peer_misses),
                     dlfs::Table::integer(r.skipped)});
    }
  }
  table.print();
  std::printf("wrote %s\n", report.write().c_str());

  // Warm-epoch comparison: mean over epochs 2..N on the same seeds.
  double warm_on = 0.0, warm_off = 0.0;
  std::uint64_t remote_hits = 0;
  for (std::uint32_t e = 1; e < p.epochs; ++e) {
    warm_on += on[e].row.bytes_per_sec;
    warm_off += off[e].row.bytes_per_sec;
    remote_hits += on[e].row.stats.peer_hits_remote;
  }
  warm_on /= static_cast<double>(p.epochs - 1);
  warm_off /= static_cast<double>(p.epochs - 1);
  std::printf("warm epochs (2..%u): peer-off %.2f GB/s, peer-on %.2f GB/s "
              "(%.2fx), storage-NIC line rate %.2f GB/s\n",
              p.epochs, warm_off / 1e9, warm_on / 1e9,
              warm_off > 0 ? warm_on / warm_off : 0.0, nic_bw / 1e9);
  if (warm_on > nic_bw) {
    std::printf("peer-on warm aggregate exceeds the single-NIC storage "
                "ceiling\n");
  }

  bool ok = true;
  if (!delivery_ok) {
    std::fprintf(stderr, "FAIL: an epoch skipped, duplicated or corrupted "
                         "samples\n");
    ok = false;
  }
  if (remote_hits == 0) {
    std::fprintf(stderr, "FAIL: peer-on run recorded no remote peer hits\n");
    ok = false;
  }
  if (warm_on <= warm_off) {
    std::fprintf(stderr, "FAIL: warm epochs did not speed up with the peer "
                         "cache on\n");
    ok = false;
  }
  if (warm_on < kWarmFloorVsNic * nic_bw) {
    std::fprintf(stderr,
                 "FAIL: peer-on warm aggregate %.2f GB/s is below %.1fx the "
                 "storage-NIC line rate\n",
                 warm_on / 1e9, kWarmFloorVsNic);
    ok = false;
  }
  for (std::uint32_t e = 1; e < p.epochs; ++e) {
    if (on[e].row.bytes_per_sec < kWarmFloorVsNic * nic_bw) {
      std::fprintf(stderr,
                   "FAIL: peer-on warm epoch %u reads %.2f GB/s, below %.1fx "
                   "the storage-NIC line rate\n",
                   e + 1, on[e].row.bytes_per_sec / 1e9, kWarmFloorVsNic);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SweepParams p;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      p.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      p.epochs = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      p.epochs = 3;
      p.samples = 768;
      p.cache_chunks = 320;
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--epochs N] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (p.epochs < 2) {
    std::fprintf(stderr, "need at least 2 epochs for a warm-epoch compare\n");
    return 2;
  }
  return run_sweep(p);
}
