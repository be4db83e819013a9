// Tests for the asynchronous epoch-aware prefetcher: warm-window breads
// must not stall (chunk and sample-level alike), the adaptive window must
// shrink under pool pressure, epoch end must drain every pool chunk, the
// record-file streaming order must warm open_file() reads, co-located
// instances must share one node's read-ahead budget through the arbiter,
// and read-ahead must never change what an epoch delivers — only when:
// every epoch matches the plan's EpochSequence order and the dataset's
// generated bytes. The PrefetcherMatrix suite is mode-agnostic: the ctest
// registration runs it once per BatchingMode via DLFS_TEST_BATCHING.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dataset/record_file.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::cluster::Cluster;
using dlfs::cluster::NodeConfig;
using dlfs::cluster::Pfs;
using dlfs::core::BatchingMode;
using dlfs::core::DlfsConfig;
using dlfs::core::DlfsFleet;
using dlfs::core::DlfsInstance;
using dlfs::dataset::Dataset;
using dlsim::CpuCore;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

struct Rig {
  Simulator sim;
  Cluster cluster;
  Dataset ds;
  Pfs pfs;
  DlfsFleet fleet;

  Rig(Dataset dataset, DlfsConfig cfg, std::uint32_t nodes = 1,
      std::vector<dlfs::hw::NodeId> client_nodes = {},
      std::vector<dlfs::hw::NodeId> storage_nodes = {})
      : cluster(sim, nodes, make_node_config()),
        ds(std::move(dataset)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, cfg, std::move(client_nodes),
              std::move(storage_nodes)) {}

  static NodeConfig make_node_config() {
    NodeConfig nc;
    nc.synthetic_store = false;
    nc.device_capacity = 1_GiB;
    return nc;
  }

  void mount() {
    fleet.mount();
    ASSERT_TRUE(fleet.mounted());
  }
};

DlfsConfig chunk_cfg() {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  return cfg;
}

DlfsConfig sample_cfg() {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kSampleLevel;
  return cfg;
}

/// The ctest matrix registers the PrefetcherMatrix suite once per
/// BatchingMode through this environment variable; unset means chunk.
BatchingMode mode_from_env() {
  const char* v = std::getenv("DLFS_TEST_BATCHING");
  if (v == nullptr) return BatchingMode::kChunkLevel;
  const std::string s(v);
  if (s == "none") return BatchingMode::kNone;
  if (s == "sample") return BatchingMode::kSampleLevel;
  return BatchingMode::kChunkLevel;
}

/// Ground truth for an epoch's delivery order: client `client`'s share of
/// the plan's shuffled units, in pick order.
std::vector<std::uint32_t> expected_order(const DlfsFleet& fleet,
                                          std::uint64_t seed,
                                          std::uint32_t client = 0) {
  dlfs::core::EpochSequence seq(fleet.plan(), seed, client,
                                fleet.num_clients());
  std::vector<std::uint32_t> ids;
  for (auto picks = seq.take(64); !picks.empty(); picks = seq.take(64)) {
    for (const auto& pk : picks) {
      for (std::uint32_t i = 0; i < pk.count; ++i) {
        ids.push_back(pk.unit->samples[pk.first_sample + i].sample_id);
      }
    }
  }
  return ids;
}

/// Drains a whole epoch with bread(batch) and returns delivered ids.
std::vector<std::uint32_t> drain_epoch(Rig& rig, DlfsInstance& inst,
                                       std::size_t batch,
                                       bool check_content = false) {
  std::vector<std::uint32_t> ids;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, std::size_t batch,
                   bool check, std::vector<std::uint32_t>& out)
                    -> Task<void> {
    std::vector<std::byte> arena(batch * r.ds.max_sample_bytes());
    for (;;) {
      auto b = co_await inst.bread(batch, arena);
      if (b.end_of_epoch) break;
      for (const auto& s : b.samples) {
        out.push_back(s.sample_id);
        if (check) {
          std::vector<std::byte> want(s.len);
          r.ds.fill_content(s.sample_id, 0, want);
          EXPECT_EQ(std::memcmp(arena.data() + s.offset_in_arena,
                                want.data(), want.size()),
                    0);
        }
      }
    }
  }(rig, inst, batch, check_content, ids));
  rig.sim.run();
  rig.sim.rethrow_failures();
  return ids;
}

// ---------------------------------------------------------------------------

TEST(Prefetcher, WarmWindowBreadDoesNotStall) {
  // A window deep enough to cover the next batch, plus idle time for the
  // daemon to land it: the second bread must find every unit resident and
  // accumulate zero additional stall time.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.min_units = 16;
  cfg.prefetch.max_units = 16;
  // 128 KiB samples, 256 KiB chunks: one bread of 8 spans 4 read units.
  Rig rig(dlfs::dataset::make_fixed_size_dataset(128, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);

  dlfs::core::PrefetchStats warm{};
  dlfs::core::PrefetchStats after{};
  rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                   dlfs::core::PrefetchStats& warm,
                   dlfs::core::PrefetchStats& after) -> Task<void> {
    CpuCore train(r.sim, "train");
    std::vector<std::byte> arena(8 * 128_KiB);
    (void)co_await inst.bread(8, arena);  // cold: stalls are expected
    co_await train.compute(10_ms);        // daemon fills the window
    warm = inst.stats().prefetch;
    (void)co_await inst.bread(8, arena);  // warm: everything resident
    after = inst.stats().prefetch;
  }(rig, inst, warm, after));
  rig.sim.run();
  rig.sim.rethrow_failures();

  EXPECT_EQ(after.stall_ns, warm.stall_ns);
  EXPECT_EQ(after.units_stalled, warm.units_stalled);
  EXPECT_GT(after.units_resident_at_pick, warm.units_resident_at_pick);
}

TEST(Prefetcher, SampleLevelWarmWindowBreadDoesNotStall) {
  // Same zero-stall contract on the sample-level path: units are fused
  // groups of per-sample extents, and a warm window means bread finds the
  // whole next group resident.
  auto cfg = sample_cfg();
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.min_units = 16;
  cfg.prefetch.max_units = 16;
  cfg.prefetch.group_samples = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 4096), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);

  dlfs::core::PrefetchStats warm{};
  dlfs::core::PrefetchStats after{};
  rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                   dlfs::core::PrefetchStats& warm,
                   dlfs::core::PrefetchStats& after) -> Task<void> {
    CpuCore train(r.sim, "train");
    std::vector<std::byte> arena(8 * 4096);
    (void)co_await inst.bread(8, arena);  // cold: consumes exactly unit 0
    co_await train.compute(10_ms);        // daemon lands units 1..16
    warm = inst.stats().prefetch;
    (void)co_await inst.bread(8, arena);  // warm: unit 1 fully resident
    after = inst.stats().prefetch;
  }(rig, inst, warm, after));
  rig.sim.run();
  rig.sim.rethrow_failures();

  EXPECT_EQ(after.stall_ns, warm.stall_ns);
  EXPECT_EQ(after.units_stalled, warm.units_stalled);
  EXPECT_GT(after.units_resident_at_pick, warm.units_resident_at_pick);
}

TEST(Prefetcher, WindowShrinksUnderPoolPressure) {
  // A pool far smaller than the requested window: top_up must give way
  // (shrink) instead of starving demand fetches, and the epoch must still
  // deliver every sample.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 32;
  cfg.prefetch.max_units = 32;
  cfg.pool_bytes = 16ull * 256 * 1024;  // 16 chunks for a 32-unit ask
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);
  const auto ids = drain_epoch(rig, inst, 8);
  EXPECT_EQ(ids.size(), 256u);
  const auto s = inst.stats().prefetch;
  EXPECT_GE(s.window_shrinks + s.units_dropped, 1u);
  EXPECT_LT(s.window_target, 32u);
}

TEST(Prefetcher, EpochEndDrainsPoolAndNextEpochWorks) {
  // Read-ahead never outlives its epoch: after the last bread every pool
  // chunk is back on the free list, and a fresh sequence starts clean.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(128, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);

  inst.sequence(1);
  EXPECT_EQ(drain_epoch(rig, inst, 8).size(), 128u);
  EXPECT_EQ(inst.pool().used_chunks(), 0u);

  inst.sequence(2);
  EXPECT_EQ(drain_epoch(rig, inst, 8).size(), 128u);
  EXPECT_EQ(inst.pool().used_chunks(), 0u);
}

TEST(Prefetcher, DeliveryIdenticalWithChunkEdgeSamples) {
  // Samples spanning chunk boundaries (edge units; 100 KiB does not
  // divide the 256 KiB chunk grid): the daemon-fed epoch delivers exactly
  // the plan's order, every byte as generated.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 100_KiB), cfg);
  rig.mount();
  ASSERT_GT(rig.fleet.plan().num_edge_units(), 0u);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(42);
  const auto ids = drain_epoch(rig, inst, 8, /*check_content=*/true);
  EXPECT_EQ(ids.size(), 192u);
  EXPECT_EQ(ids, expected_order(rig.fleet, 42));
}

TEST(Prefetcher, RecordFileSequenceWarmsWholeFileReads) {
  // sequence_files() re-targets the daemon at whole record files; reads
  // that follow the returned order find their file already resident, and
  // the bytes are identical to direct open_file()+read() of the same
  // names on a rig that never installs a file order (every record's CRC
  // validates either way).
  auto run = [](bool sequenced, std::vector<std::string>& order,
                std::vector<std::vector<std::byte>>& files,
                dlfs::core::PrefetchStats& stats) {
    DlfsConfig cfg;
    cfg.record_file_samples = 8;
    Rig rig(dlfs::dataset::make_fixed_size_dataset(64, 2048), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    if (sequenced) order = inst.sequence_files(5);
    ASSERT_EQ(order.size(), 8u);
    rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                     const std::vector<std::string>* order,
                     std::vector<std::vector<std::byte>>* out) -> Task<void> {
      CpuCore train(r.sim, "train");
      for (const auto& name : *order) {
        auto h = co_await inst.open_file(name);
        std::vector<std::byte> buf(h.entry->len());
        co_await inst.read(h, buf);
        dlfs::dataset::RecordFileReader reader(buf);
        auto index = reader.scan();  // validates structure + every CRC
        EXPECT_TRUE(index.has_value());
        out->push_back(std::move(buf));
        co_await train.compute(2_ms);  // daemon pulls the next files in
      }
    }(rig, inst, &order, &files));
    rig.sim.run();
    rig.sim.rethrow_failures();
    stats = inst.stats().prefetch;
  };
  std::vector<std::vector<std::byte>> warm_files, cold_files;
  dlfs::core::PrefetchStats warm{}, cold{};
  std::vector<std::string> order;
  run(/*sequenced=*/true, order, warm_files, warm);
  run(/*sequenced=*/false, order, cold_files, cold);
  EXPECT_EQ(warm_files, cold_files);
  EXPECT_GE(warm.units_issued, 8u);
  // Everything after the first file had idle time to land.
  EXPECT_GE(warm.units_resident_at_pick, 1u);
  EXPECT_EQ(cold.units_issued, 0u);
}

TEST(Prefetcher, SequenceFilesEndsTheSampleEpoch) {
  // A record-file order replaces the sample epoch: bread and bread_views
  // refuse to run, exactly as before any sequence(), until a fresh
  // sequence() — which then delivers its whole epoch.
  DlfsConfig cfg;
  cfg.record_file_samples = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(64, 2048), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  (void)inst.sequence_files(5);
  EXPECT_EQ(inst.epoch_remaining(), 0u);
  bool bread_threw = false;
  bool views_threw = false;
  rig.sim.spawn([](DlfsInstance& inst, bool* bread_threw,
                   bool* views_threw) -> Task<void> {
    std::vector<std::byte> arena(8 * 2048);
    try {
      (void)co_await inst.bread(8, arena);
    } catch (const std::logic_error&) {
      *bread_threw = true;
    }
    try {
      (void)co_await inst.bread_views(8);
    } catch (const std::logic_error&) {
      *views_threw = true;
    }
  }(inst, &bread_threw, &views_threw));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(bread_threw);
  EXPECT_TRUE(views_threw);

  inst.sequence(2);
  const auto ids = drain_epoch(rig, inst, 8, /*check_content=*/true);
  EXPECT_EQ(ids, expected_order(rig.fleet, 2));
  EXPECT_EQ(ids.size(), 64u);
}

TEST(Prefetcher, SharedArbiterBoundsCoLocatedReadAhead) {
  // Two instances on one node, each asking for a 16-unit window out of a
  // 16-chunk pool: the shared arbiter caps their combined read-ahead, at
  // least one top-up is throttled, and both still drain their full share.
  auto cfg = chunk_cfg();
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.max_units = 32;
  cfg.prefetch.shared_arbiter = true;
  cfg.pool_bytes = 16ull * 256 * 1024;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 128_KiB), cfg,
          /*nodes=*/1, /*client_nodes=*/{0, 0}, /*storage_nodes=*/{0});
  rig.mount();
  auto* arb = rig.fleet.arbiter(0);
  ASSERT_NE(arb, nullptr);
  EXPECT_EQ(arb->members(), 2u);

  std::vector<std::uint32_t> got[2];
  for (std::uint32_t c = 0; c < 2; ++c) rig.fleet.instance(c).sequence(9);
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn([](DlfsInstance& inst,
                     std::vector<std::uint32_t>& out) -> Task<void> {
      std::vector<std::byte> arena(8 * 128_KiB);
      for (;;) {
        auto b = co_await inst.bread(8, arena);
        if (b.end_of_epoch) break;
        for (const auto& s : b.samples) out.push_back(s.sample_id);
      }
    }(rig.fleet.instance(c), got[c]));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(got[0].size() + got[1].size(), 256u);
  const auto s0 = rig.fleet.instance(0).stats().prefetch;
  const auto s1 = rig.fleet.instance(1).stats().prefetch;
  EXPECT_GE(s0.arbiter_throttles + s1.arbiter_throttles, 1u);
}

TEST(Prefetcher, SampleLevelDegradedEpochSkipsThenReissuesAfterRecovery) {
  // kSampleLevel over NVMe-oF: a storage node crashes mid-epoch, the
  // epoch completes degraded (every sample either served or skipped, the
  // prefetcher's stored node-fault errors routed to skips, never fatal).
  // After recovery, the epoch boundary reprobes the node and read-ahead
  // issued while it was down is reissued instead of surfacing stale
  // errors — the second epoch is served in full.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kSampleLevel;
  cfg.fault.nvmf.command_timeout = 5_ms;
  cfg.fault.nvmf.reconnect_backoff = 200_us;
  cfg.fault.nvmf.reconnect_backoff_max = 1_ms;
  cfg.fault.nvmf.reconnect_attempts = 4;
  constexpr std::size_t kSamples = 2048;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096), cfg,
          /*nodes=*/3, /*client_nodes=*/{2}, /*storage_nodes=*/{0, 1});
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  const dlsim::SimTime t0 = rig.sim.now();
  rig.fleet.target(0)->crash_at(t0 + 500_us);
  rig.fleet.target(0)->recover_at(t0 + 50_ms);

  std::size_t served1 = 0, served2 = 0;
  std::uint64_t skipped1 = 0, skipped2 = 0;
  rig.sim.spawn(
      [](Rig& r, DlfsInstance& inst, std::size_t* served1,
         std::uint64_t* skipped1, std::size_t* served2,
         std::uint64_t* skipped2, dlsim::SimTime resume_at) -> Task<void> {
        std::vector<std::byte> arena(64_KiB);
        inst.sequence(1);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          *served1 += b.samples.size();
          *skipped1 += b.samples_skipped;
        }
        if (r.sim.now() < resume_at) {
          co_await r.sim.delay(resume_at - r.sim.now());
        }
        inst.sequence(2);
        // Give the daemon idle time to issue read-ahead before the first
        // bread reprobes — that read-ahead carries baked-in failures if
        // the reconnect has not happened yet, and must be reissued.
        CpuCore train(r.sim, "train");
        co_await train.compute(1_ms);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          *served2 += b.samples.size();
          *skipped2 += b.samples_skipped;
        }
      }(rig, inst, &served1, &skipped1, &served2, &skipped2, t0 + 51_ms),
      "sample-level-degraded-epochs");
  rig.sim.run_watchdog(t0 + 2_sec);
  rig.sim.rethrow_failures();

  EXPECT_GT(served1, 0u);
  EXPECT_GT(skipped1, 0u);
  EXPECT_EQ(served1 + skipped1, kSamples);
  EXPECT_EQ(served2, kSamples);
  EXPECT_EQ(skipped2, 0u);
  EXPECT_EQ(inst.stats().samples_skipped, skipped1);
  EXPECT_GE(inst.engine().transport_stats().reconnects, 1u);
  EXPECT_EQ(inst.engine().nodes_down(), 0u);
}

// ---------------------------------------------------------------------------
// Mode-agnostic matrix: ctest registers this suite once per BatchingMode
// (DLFS_TEST_BATCHING = none | sample | chunk).

TEST(PrefetcherMatrix, DeliveryIsIdenticalWithPrefetchOnAndOff) {
  // Read-ahead changes timing only: for whichever BatchingMode the
  // environment selected, the epoch delivers exactly the plan's
  // EpochSequence order, every byte as the dataset generates it.
  DlfsConfig cfg;
  cfg.batching = mode_from_env();
  cfg.prefetch.initial_units = 8;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 4096), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(42);
  const auto ids = drain_epoch(rig, inst, 8, /*check_content=*/true);
  EXPECT_EQ(ids.size(), 192u);
  EXPECT_EQ(ids, expected_order(rig.fleet, 42));
}

TEST(PrefetcherMatrix, BackToBackEpochsDeliverEverySample) {
  // Two epochs through one instance: the second epoch re-targets the
  // daemon (and, in the sample modes, elides cache-resident extents at
  // issue time) yet still delivers every sample with exact content.
  DlfsConfig cfg;
  cfg.batching = mode_from_env();
  Rig rig(dlfs::dataset::make_fixed_size_dataset(192, 4096), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  EXPECT_EQ(drain_epoch(rig, inst, 8, /*check_content=*/true).size(), 192u);
  inst.sequence(2);
  EXPECT_EQ(drain_epoch(rig, inst, 8, /*check_content=*/true).size(), 192u);
  EXPECT_EQ(inst.stats().samples_delivered, 384u);
}

}  // namespace
