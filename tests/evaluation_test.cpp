// Evaluation-claim regression tests: small, fast versions of each
// figure's *directional* result, pinned as assertions so a refactor that
// silently breaks a paper-level conclusion fails CI — not just the
// benches' eyeballed output.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "harness.hpp"

namespace {

using dlfs::bench::Workload;
using dlfs::core::BatchingMode;
using namespace dlfs::byte_literals;
using namespace dlsim::literals;

Workload small_node_workload(std::uint32_t nodes, std::uint32_t sample_bytes,
                             std::size_t samples_per_node) {
  Workload w;
  w.num_nodes = nodes;
  w.sample_bytes = sample_bytes;
  w.samples_per_node = samples_per_node;
  return w;
}

dlfs::core::DlfsConfig chunked() {
  dlfs::core::DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  return cfg;
}

// Fig. 6: single node, small samples — DLFS-Base beats Ext4-Base by the
// paper's >= 1.82x, and full DLFS beats everything.
TEST(EvaluationClaims, Fig6SmallSampleOrdering) {
  const auto w = small_node_workload(1, 4096, 4096);
  dlfs::core::DlfsConfig base;
  base.batching = BatchingMode::kNone;
  const double ext4_base = dlfs::bench::run_ext4(w, 1).samples_per_sec;
  const double ext4_mc = dlfs::bench::run_ext4(w, 4).samples_per_sec;
  const double dlfs_base = dlfs::bench::run_dlfs(w, base).samples_per_sec;
  const double dlfs_full = dlfs::bench::run_dlfs(w, chunked()).samples_per_sec;
  EXPECT_GT(dlfs_base, 1.82 * ext4_base);
  EXPECT_GT(dlfs_full, ext4_mc);
  EXPECT_GT(dlfs_full, dlfs_base);
}

// Fig. 6 large samples: everything converges near device bandwidth, and
// DLFS still leads.
TEST(EvaluationClaims, Fig6LargeSamplesConverge) {
  const auto w = small_node_workload(1, 1_MiB, 96);
  const double ext4 = dlfs::bench::run_ext4(w, 1).bytes_per_sec;
  const double dlfs = dlfs::bench::run_dlfs(w, chunked()).bytes_per_sec;
  EXPECT_GT(dlfs, ext4);
  EXPECT_LT(dlfs / ext4, 2.0);    // no longer an order of magnitude
  EXPECT_GT(dlfs, 1.8e9);         // near the 2.5 GB/s device
}

// Fig. 7a: DLFS saturates the device from one core; Ext4 with one core
// does not come close for small samples.
TEST(EvaluationClaims, Fig7SingleCoreSaturation) {
  const auto w = small_node_workload(1, 16_KiB, 2048);
  const auto dlfs = dlfs::bench::run_dlfs(w, chunked());
  const auto ext4 = dlfs::bench::run_ext4(w, 1);
  EXPECT_GT(dlfs.bytes_per_sec, 0.8 * 2.5e9);
  EXPECT_LT(ext4.bytes_per_sec, 0.5 * 2.5e9);
}

// Fig. 7b: a 32 x 128 KiB batch hides ~1.5 ms of compute; 4 ms hurts.
TEST(EvaluationClaims, Fig7bComputeOverlapKnee) {
  auto w = small_node_workload(1, 128_KiB, 384);
  const double base = dlfs::bench::run_dlfs(w, chunked()).samples_per_sec;
  const double hidden =
      dlfs::bench::run_dlfs(w, chunked(), 1500_us).samples_per_sec;
  const double hurt =
      dlfs::bench::run_dlfs(w, chunked(), 4_ms).samples_per_sec;
  EXPECT_GT(hidden, 0.95 * base);
  EXPECT_LT(hurt, 0.75 * base);
}

// Fig. 9: DLFS throughput scales near-linearly from 2 to 8 nodes and
// dominates both baselines at small samples.
TEST(EvaluationClaims, Fig9ScalingAndDominance) {
  double prev = 0;
  for (std::uint32_t nodes : {2u, 4u, 8u}) {
    const auto w = small_node_workload(nodes, 512, 2048);
    const double dlfs = dlfs::bench::run_dlfs(w, chunked()).samples_per_sec;
    if (prev > 0) {
      EXPECT_GT(dlfs, 1.5 * prev);  // >= 75% scaling efficiency
    }
    prev = dlfs;
    EXPECT_GT(dlfs, 5.0 * dlfs::bench::run_ext4(w, 1).samples_per_sec);
    EXPECT_GT(dlfs, 5.0 * dlfs::bench::run_octopus(w).samples_per_sec);
  }
}

// Fig. 10: metadata ordering — DLFS << Ext4 (>= 1.5 orders) <= Octopus.
TEST(EvaluationClaims, Fig10LookupOrdering) {
  const auto lt = dlfs::bench::measure_lookup_times(
      /*num_nodes=*/4, /*files_per_node=*/4000, /*sample_bytes=*/512,
      /*measure_count=*/2000);
  EXPECT_GT(lt.ext4_us, 30.0 * lt.dlfs_us);
  EXPECT_GT(lt.octopus_us, lt.ext4_us);
  EXPECT_LT(lt.dlfs_us, 1.0);
}

// Fig. 11: one client is NIC-bound beyond ~2 remote devices (adding
// devices stops helping), while many clients keep scaling.
TEST(EvaluationClaims, Fig11NicBottleneckShape) {
  auto run_1c = [&](std::uint32_t devices) {
    Workload w = small_node_workload(devices + 1, 128_KiB, 96);
    w.clients = 1;
    w.storage = devices;
    w.client_node_offset = devices;
    auto cfg = chunked();
    cfg.prefetch.initial_units = 16;
    return dlfs::bench::run_dlfs(w, cfg).bytes_per_sec;
  };
  const double at2 = run_1c(2);
  const double at8 = run_1c(8);
  EXPECT_LT(at8, 1.6 * at2);   // NIC cap: not 4x
  EXPECT_LT(at8, 6.8e9);       // never beats the wire
  EXPECT_GT(at8, 3.0e9);       // but gets a good fraction of it
}

// The fleet reduction maxes gauges and adds every other kind; a window
// subtracts counts and durations and keeps levels and gauges.
TEST(Telemetry, ReduceAddsCountersAndMaxesGauges) {
  dlfs::core::InstanceStats a;
  a.transport.reconnects = 2;
  a.prefetch.stall_ns = 1500;
  a.prefetch.in_flight_hwm = 7;
  a.prefetch.window_target = 3;
  a.nodes_down = 1;
  a.directory_bytes = 100;
  dlfs::core::InstanceStats b;
  b.transport.reconnects = 5;
  b.prefetch.stall_ns = 500;
  b.prefetch.in_flight_hwm = 4;
  b.prefetch.window_target = 9;
  b.directory_bytes = 40;

  dlfs::core::InstanceStats sum = a;
  sum += b;
  EXPECT_EQ(sum.transport.reconnects, 7u);
  EXPECT_EQ(sum.prefetch.stall_ns, 2000u);
  EXPECT_EQ(sum.prefetch.in_flight_hwm, 7u);
  EXPECT_EQ(sum.prefetch.window_target, 9u);
  EXPECT_EQ(sum.nodes_down, 1u);
  EXPECT_EQ(sum.directory_bytes, 140u);

  const dlfs::core::InstanceStats window = sum - a;
  EXPECT_EQ(window.transport.reconnects, 5u);
  EXPECT_EQ(window.prefetch.stall_ns, 500u);
  EXPECT_EQ(window.prefetch.in_flight_hwm, 7u);
  EXPECT_EQ(window.prefetch.window_target, 9u);
  EXPECT_EQ(window.nodes_down, 1u);
  EXPECT_EQ(window.directory_bytes, 140u);

  std::ostringstream json;
  dlfs::bench::write_stats_json(json, sum);
  EXPECT_NE(json.str().find("\"reconnects\": 7, "), std::string::npos);
  EXPECT_NE(json.str().find("\"prefetch_stall_us\": 2, "), std::string::npos);
}

// A row built at the end of the second epoch counts that epoch only,
// while its levels and gauges read the fleet's current values.
TEST(Telemetry, EpochRowCountsOnlyItsEpoch) {
  constexpr std::size_t kSamples = 256;
  constexpr std::uint32_t kBytes = 4096;
  dlfs::core::DlfsConfig cfg;
  cfg.batching = BatchingMode::kSampleLevel;
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;
  nc.device_capacity = 64_MiB;
  dlfs::bench::FleetRig rig(
      2, nc, dlfs::dataset::make_fixed_size_dataset(kSamples, kBytes), cfg,
      /*client_nodes=*/{0, 1}, /*storage_nodes=*/{0, 1});
  dlfs::bench::RunResult row;
  for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
    const dlfs::core::InstanceStats before =
        dlfs::bench::fleet_stats(rig.fleet);
    std::vector<dlfs::bench::EpochLog> logs(2);
    for (std::uint32_t c = 0; c < 2; ++c) {
      auto& inst = rig.fleet.instance(c);
      inst.io_core().reset_accounting();
      inst.sequence(epoch);
      rig.sim.spawn(dlfs::bench::read_epoch_checked(inst, rig.ds, 16, logs[c]),
                    "epoch-reader");
    }
    const dlsim::SimTime t0 = rig.sim.now();
    rig.sim.run();
    rig.sim.rethrow_failures();
    for (const auto& log : logs) EXPECT_TRUE(log.content_ok);
    row = dlfs::bench::fleet_result(rig.fleet, rig.sim.now() - t0, logs,
                                    kBytes, before);
  }
  const dlfs::core::InstanceStats now = dlfs::bench::fleet_stats(rig.fleet);
  EXPECT_EQ(now.samples_delivered, 2 * kSamples);
  EXPECT_EQ(row.samples, kSamples);
  EXPECT_EQ(row.stats.samples_delivered, kSamples);
  EXPECT_EQ(row.stats.bytes_delivered, kSamples * kBytes);
  EXPECT_GT(row.stats.prefetch.units_issued, 0u);
  EXPECT_LT(row.stats.prefetch.units_issued, now.prefetch.units_issued);
  EXPECT_GT(row.client_cpu_util, 0.0);
  EXPECT_GT(row.lookup_us_avg, 0.0);
  EXPECT_GT(row.stats.prefetch.in_flight_hwm, 0u);
  EXPECT_EQ(row.stats.prefetch.in_flight_hwm, now.prefetch.in_flight_hwm);
  EXPECT_EQ(row.stats.prefetch.window_target, now.prefetch.window_target);
  EXPECT_EQ(row.stats.nodes_down, now.nodes_down);
  EXPECT_GT(row.stats.directory_bytes, 0u);
  EXPECT_EQ(row.stats.directory_bytes, now.directory_bytes);
}

// ---------------------------------------------------------------------------
// The checked epoch reader

// A sample whose primary extent was overwritten after the mount reaches
// the reader with bytes the dataset does not hold: the epoch still
// completes, and its log says the content is wrong.
TEST(CheckedReader, OverwrittenSampleFailsTheDatasetTruth) {
  dlfs::core::DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;
  nc.device_capacity = 64_MiB;
  dlfs::bench::FleetRig rig(
      1, nc, dlfs::dataset::make_fixed_size_dataset(64, 4096), cfg,
      /*client_nodes=*/{0}, /*storage_nodes=*/{0});
  const dlfs::core::SampleLocation& loc = rig.fleet.layout()[17];
  const std::vector<std::byte> junk(loc.len, std::byte{0x5a});
  rig.cluster.node(0).device().store().write(loc.offset, junk);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(3);
  const dlfs::bench::EpochLog log = dlfs::bench::read_epoch(inst, rig.ds, 16);
  EXPECT_TRUE(dlfs::bench::exactly_once({&log, 1}, 64));
  EXPECT_FALSE(log.content_ok);
}

// On synthetic stores a replica's bytes differ from its primary's; the
// placement truth accepts either, whole or split into pieces, and
// rejects any other bytes.
TEST(CheckedReader, PlacementTruthAcceptsPrimaryAndReplicaBytes) {
  dlfs::core::DlfsConfig cfg;
  cfg.fault.replication = dlfs::core::ReplicationConfig(2);
  dlfs::cluster::NodeConfig nc;
  nc.device_capacity = 64_MiB;
  dlfs::bench::FleetRig rig(
      2, nc, dlfs::dataset::make_fixed_size_dataset(64, 4096), cfg,
      /*client_nodes=*/{0}, /*storage_nodes=*/{0, 1});
  const dlfs::bench::SampleTruth truth(rig.cluster, rig.fleet);
  constexpr std::uint32_t kId = 9;
  const dlfs::core::SampleLocation& loc = rig.fleet.layout()[kId];
  const auto& replicas = rig.fleet.directory().replicas(kId);
  ASSERT_EQ(replicas.size(), 1u);
  auto bytes_at = [&rig, &loc](std::uint16_t node, std::uint64_t offset) {
    std::vector<std::byte> b(loc.len);
    rig.cluster.node(node).device().store().read(offset, b);
    return b;
  };
  auto matches = [&truth](std::span<const std::byte> b) {
    return truth.matches(kId, {&b, 1});
  };
  const std::vector<std::byte> primary = bytes_at(loc.nid, loc.offset);
  const std::vector<std::byte> replica =
      bytes_at(replicas[0].nid, replicas[0].offset);
  ASSERT_NE(primary, replica);
  EXPECT_TRUE(matches(primary));
  EXPECT_TRUE(matches(replica));
  const std::span<const std::byte> halves[] = {
      std::span(replica).first(1000), std::span(replica).subspan(1000)};
  EXPECT_TRUE(truth.matches(kId, halves));

  std::vector<std::byte> flipped = primary;
  flipped[4000] ^= std::byte{1};
  EXPECT_FALSE(matches(flipped));
  EXPECT_FALSE(matches(std::span(primary).first(loc.len - 1)));
  const dlfs::core::SampleLocation& other = rig.fleet.layout()[kId + 1];
  EXPECT_FALSE(matches(bytes_at(other.nid, other.offset)));
}

// The linear-interpolation percentile between the two nearest ranks.
TEST(CheckedReader, PercentileInterpolatesBetweenRanks) {
  EXPECT_EQ(dlfs::bench::percentile({}, 0.5), 0.0);
  EXPECT_EQ(dlfs::bench::percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(dlfs::bench::percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(dlfs::bench::percentile({1.0, 2.0, 3.0}, 0.99), 2.98);
}

// run_dlfs's logs hold one duration per bread that delivered a batch, and
// its row's batch p50/p99 are the percentiles of those durations, on the
// copy path and on the double-buffered views path.
TEST(CheckedReader, RunDlfsBatchLatencyIsThePercentileOfItsLog) {
  for (const bool views : {false, true}) {
    SCOPED_TRACE(views ? "views" : "copy");
    Workload w = small_node_workload(1, 4096, 256);
    w.zero_copy = views;
    std::vector<dlfs::bench::EpochLog> logs;
    const dlfs::bench::RunResult r =
        dlfs::bench::run_dlfs(w, chunked(), 0, {}, &logs);
    ASSERT_EQ(logs.size(), 1u);
    const dlfs::bench::EpochLog& log = logs[0];
    EXPECT_TRUE(dlfs::bench::exactly_once(logs, 256));
    ASSERT_EQ(log.batch_ns.size(), 256u / 32);
    EXPECT_EQ(log.batch_samples, std::vector<std::uint32_t>(8, 32));
    std::vector<double> us;
    for (const dlsim::SimDuration d : log.batch_ns) {
      us.push_back(dlsim::to_micros(d));
    }
    EXPECT_GT(r.batch_p50_us, 0.0);
    EXPECT_EQ(r.batch_p50_us, dlfs::bench::percentile(us, 0.50));
    EXPECT_EQ(r.batch_p99_us, dlfs::bench::percentile(us, 0.99));
    EXPECT_GE(r.batch_p99_us, r.batch_p50_us);
  }
}

}  // namespace
