// Tests for the sharded sample directory: lazy remote resolution through
// the owner's metadata RPC, the bounded positive/negative lookup caches,
// the O(dataset/S) per-client memory claim (byte-accounted), and epoch
// delivery identity between the sharded and full-allgather mounts. The
// DirectoryMatrix suite is mode-agnostic: the ctest registration runs it
// once per DirectoryMode via DLFS_TEST_DIRECTORY.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "harness.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::cluster::Cluster;
using dlfs::cluster::NodeConfig;
using dlfs::bench::EpochLog;
using dlfs::bench::read_epoch;
using dlfs::cluster::Pfs;
using dlfs::core::BatchingMode;
using dlfs::core::DirectoryMode;
using dlfs::core::DlfsConfig;
using dlfs::core::DlfsFleet;
using dlfs::core::DlfsInstance;
using dlfs::dataset::Dataset;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlfs::byte_literals;

struct Rig {
  Simulator sim;
  Cluster cluster;
  Dataset ds;
  Pfs pfs;
  DlfsFleet fleet;

  Rig(Dataset dataset, DlfsConfig cfg, std::uint32_t nodes,
      std::vector<dlfs::hw::NodeId> client_nodes,
      std::vector<dlfs::hw::NodeId> storage_nodes)
      : cluster(sim, nodes, make_node_config()),
        ds(std::move(dataset)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, cfg, std::move(client_nodes),
              std::move(storage_nodes)) {
    fleet.mount();
  }

  static NodeConfig make_node_config() {
    NodeConfig nc;
    nc.synthetic_store = false;
    nc.device_capacity = 1_GiB;
    return nc;
  }
};

DlfsConfig sharded_cfg() {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.directory.mode = DirectoryMode::kSharded;
  return cfg;
}

DirectoryMode mode_from_env() {
  const char* v = std::getenv("DLFS_TEST_DIRECTORY");
  if (v != nullptr && std::string(v) == "sharded") {
    return DirectoryMode::kSharded;
  }
  return DirectoryMode::kFull;
}

/// Runs `body` as a spawned coroutine and drives the sim to completion.
template <typename Body>
void run_in_sim(Rig& rig, Body&& body) {
  rig.sim.spawn(std::forward<Body>(body));
  rig.sim.run();
  rig.sim.rethrow_failures();
}

// ---------------------------------------------------------------------------

TEST(ShardedDirectory, ForeignSampleResolvesThroughOwnerRpc) {
  // Client on node 4 holds no shard: every first resolution is remote,
  // every repeat is a positive-cache hit.
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 4096), sharded_cfg(),
          /*nodes=*/5, /*clients=*/{4}, /*storage=*/{0, 1, 2, 3});
  auto& inst = rig.fleet.instance(0);
  ASSERT_NE(inst.directory_view(), nullptr);

  run_in_sim(rig, [](Rig& r, DlfsInstance& inst) -> Task<void> {
    auto h1 = co_await inst.open_id(7);
    std::vector<std::byte> buf(h1.entry->len());
    co_await inst.read(h1, buf);
    std::vector<std::byte> want(buf.size());
    r.ds.fill_content(7, 0, want);
    EXPECT_EQ(std::memcmp(buf.data(), want.data(), want.size()), 0);
    auto h2 = co_await inst.open_id(7);  // repeat: served by the cache
    EXPECT_EQ(h1.entry, h2.entry);
  }(rig, inst));

  const auto& st = inst.stats().directory;
  EXPECT_EQ(st.local_hits, 0u);
  EXPECT_EQ(st.remote_lookups, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
}

TEST(ShardedDirectory, CoLocatedShardServesLocally) {
  // Client on node 0 is co-located with storage slot 0: its own shard is
  // resident, so samples owned there never pay an RPC.
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 4096), sharded_cfg(),
          /*nodes=*/2, /*clients=*/{0}, /*storage=*/{0, 1});
  auto& inst = rig.fleet.instance(0);
  const auto* view = inst.directory_view();
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->resident(0));
  EXPECT_FALSE(view->resident(1));

  // Resolve every sample once: slot-0 samples are local hits, slot-1
  // samples are remote.
  run_in_sim(rig, [](DlfsInstance& inst) -> Task<void> {
    for (std::uint32_t id = 0; id < 256; ++id) {
      (void)co_await inst.open_id(id);
    }
  }(inst));

  const auto& st = inst.stats().directory;
  EXPECT_EQ(st.local_hits, rig.fleet.directory().shard_entries(0));
  EXPECT_EQ(st.remote_lookups, rig.fleet.directory().shard_entries(1));
  EXPECT_GT(st.local_hits, 0u);
  EXPECT_GT(st.remote_lookups, 0u);
}

TEST(ShardedDirectory, NegativeCacheAnswersRepeatMisses) {
  auto cfg = sharded_cfg();
  Rig rig(dlfs::dataset::make_fixed_size_dataset(64, 4096), cfg,
          /*nodes=*/3, /*clients=*/{2}, /*storage=*/{0, 1});
  auto& inst = rig.fleet.instance(0);

  run_in_sim(rig, [](Rig& r, DlfsInstance& inst) -> Task<void> {
    (void)r;
    for (int attempt = 0; attempt < 2; ++attempt) {
      bool threw = false;
      try {
        (void)co_await inst.open("no-such-sample");
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      EXPECT_TRUE(threw);
    }
  }(rig, inst));

  const auto& st = inst.stats().directory;
  // First miss pays the RPC and seeds the negative cache; the second is
  // answered client-side.
  EXPECT_EQ(st.remote_lookups, 1u);
  EXPECT_EQ(st.negative_hits, 1u);
}

TEST(ShardedDirectory, LookupCacheEvictsAtCapacity) {
  auto cfg = sharded_cfg();
  cfg.directory.lookup_cache_entries = 4;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(64, 4096), cfg,
          /*nodes=*/3, /*clients=*/{2}, /*storage=*/{0, 1});
  auto& inst = rig.fleet.instance(0);

  run_in_sim(rig, [](Rig& r, DlfsInstance& inst) -> Task<void> {
    (void)r;
    // 8 distinct foreign ids through a 4-entry cache: evictions must
    // happen, and id 0 (LRU) must have been displaced by the time we
    // come back around.
    for (std::uint32_t id = 0; id < 8; ++id) {
      (void)co_await inst.open_id(id);
    }
    (void)co_await inst.open_id(0);
  }(rig, inst));

  const auto& st = inst.stats().directory;
  EXPECT_GT(st.cache_evictions, 0u);
  EXPECT_EQ(st.remote_lookups, 9u);  // 8 cold + 1 re-resolve after eviction
  EXPECT_EQ(st.cache_hits, 0u);
}

TEST(ShardedDirectory, BreadResolvesForeignIdsBeforeItsFirstAcquire) {
  // A bread's metadata RPCs all run before its first acquire (DESIGN
  // §5f), so a cold bread's read-ahead lands while its foreign ids
  // resolve: 32 round trips outlast two 64 KiB unit reads, and both
  // units are resident when they are acquired. Were each sample's RPC
  // issued just before its copy, the first unit would be acquired one
  // round trip in, before it landed.
  auto cfg = sharded_cfg();
  cfg.chunk_bytes = 64_KiB;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(256, 4096), cfg,
          /*nodes=*/5, /*clients=*/{4}, /*storage=*/{0, 1, 2, 3});
  auto& inst = rig.fleet.instance(0);

  run_in_sim(rig, [](Rig& r, DlfsInstance& inst) -> Task<void> {
    inst.sequence(3);
    std::vector<std::byte> arena(32 * r.ds.max_sample_bytes());
    const auto b = co_await inst.bread(32, arena);
    EXPECT_EQ(b.samples.size(), 32u);
    for (const auto& s : b.samples) {
      std::vector<std::byte> want(s.len);
      r.ds.fill_content(s.sample_id, 0, want);
      EXPECT_EQ(std::memcmp(arena.data() + s.offset_in_arena, want.data(),
                            want.size()),
                0);
    }
  }(rig, inst));

  const auto st = inst.stats();
  EXPECT_EQ(st.directory.remote_lookups, 32u);
  EXPECT_EQ(st.prefetch.units_stalled, 0u);
  EXPECT_EQ(st.prefetch.units_resident_at_pick, 2u);
}

TEST(ShardedDirectory, PerClientBytesStrictlyBelowFullAllgather) {
  // The acceptance bar: at S >= 4 the sharded client's accounted
  // directory memory stays strictly below the full-allgather copy — even
  // after a whole epoch has filled the lookup cache.
  auto cfg = sharded_cfg();
  cfg.directory.lookup_cache_entries = 128;
  cfg.directory.negative_cache_entries = 64;
  Rig rig(dlfs::dataset::make_fixed_size_dataset(2048, 4096), cfg,
          /*nodes=*/5, /*clients=*/{4}, /*storage=*/{0, 1, 2, 3});
  auto& inst = rig.fleet.instance(0);

  const std::uint64_t full = rig.fleet.full_directory_bytes();
  EXPECT_LT(inst.directory_bytes(), full);

  inst.sequence(42);
  const EpochLog log = read_epoch(inst, rig.ds, 16);
  EXPECT_TRUE(log.content_ok);
  EXPECT_EQ(log.order.size(), 2048u);
  EXPECT_LT(inst.directory_bytes(), full);
  // The cache is bounded, so the resident figure is partition map +
  // caps, not O(dataset).
  const auto* view = inst.directory_view();
  ASSERT_NE(view, nullptr);
  EXPECT_LE(view->resident_bytes(),
            dlfs::core::DirectoryView::kPartitionRowBytes * 4 +
                128 * (dlfs::core::SampleDirectory::kEntryBytes +
                       dlfs::core::SampleDirectory::kIdRowBytes) +
                64 * dlfs::core::DirectoryView::kNegativeRowBytes);
}

TEST(ShardedDirectory, EpochByteIdenticalToFullMount) {
  // Same dataset, same seed, both directory modes: the delivered id
  // sequence must match exactly and every sample's bytes must verify
  // against the dataset generator.
  auto run = [](DirectoryMode mode) {
    auto cfg = sharded_cfg();
    cfg.directory.mode = mode;
    Rig rig(dlfs::dataset::make_fixed_size_dataset(512, 4096), cfg,
            /*nodes=*/5, /*clients=*/{4}, /*storage=*/{0, 1, 2, 3});
    rig.fleet.instance(0).sequence(1234);
    return read_epoch(rig.fleet.instance(0), rig.ds, 16);
  };
  const EpochLog full = run(DirectoryMode::kFull);
  const EpochLog sharded = run(DirectoryMode::kSharded);
  EXPECT_TRUE(full.content_ok);
  EXPECT_TRUE(sharded.content_ok);
  EXPECT_EQ(full.order, sharded.order);
  EXPECT_EQ(full.order.size(), 512u);
}

// ---------------------------------------------------------------------------
// DirectoryMatrix: mode-agnostic epoch coverage, registered once per
// DirectoryMode via the DLFS_TEST_DIRECTORY environment variable.

TEST(DirectoryMatrix, EpochDeliversEverySampleWithContent) {
  // Two clients share one epoch: under the same seed each delivers its
  // strided share, and the union covers the dataset exactly once —
  // whichever directory layout the clients hold.
  auto cfg = sharded_cfg();
  cfg.directory.mode = mode_from_env();
  Rig rig(dlfs::dataset::make_fixed_size_dataset(384, 4096), cfg,
          /*nodes=*/4, /*clients=*/{0, 1}, /*storage=*/{0, 1, 2, 3});
  std::vector<EpochLog> logs;
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.fleet.instance(c).sequence(7);
    logs.push_back(read_epoch(rig.fleet.instance(c), rig.ds, 16));
    EXPECT_TRUE(logs.back().content_ok);
  }
  EXPECT_TRUE(dlfs::bench::exactly_once(logs, 384));
}

TEST(DirectoryMatrix, OpenByNameReadsCorrectBytes) {
  auto cfg = sharded_cfg();
  cfg.directory.mode = mode_from_env();
  Rig rig(dlfs::dataset::make_fixed_size_dataset(128, 4096), cfg,
          /*nodes=*/3, /*clients=*/{2}, /*storage=*/{0, 1});
  auto& inst = rig.fleet.instance(0);
  run_in_sim(rig, [](Rig& r, DlfsInstance& inst) -> Task<void> {
    for (std::uint32_t id = 0; id < 128; id += 17) {
      const auto name = std::string(r.ds.sample(id).name);
      auto h = co_await inst.open(name);
      EXPECT_EQ(h.sample_id, id);
      std::vector<std::byte> buf(h.entry->len());
      co_await inst.read(h, buf);
      std::vector<std::byte> want(buf.size());
      r.ds.fill_content(id, 0, want);
      EXPECT_EQ(std::memcmp(buf.data(), want.data(), want.size()), 0);
    }
  }(rig, inst));
}

}  // namespace
