// Integration tests for the DLFS API: collective mount, dlfs_open /
// dlfs_read (cache behaviour), dlfs_sequence / dlfs_bread in all three
// batching modes, multi-node disaggregated reads, and data integrity
// end-to-end (PFS -> device -> DLFS -> application buffer).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <type_traits>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::cluster::Cluster;
using dlfs::cluster::NodeConfig;
using dlfs::cluster::Pfs;
using dlfs::core::Batch;
using dlfs::core::BatchingMode;
using dlfs::core::DlfsConfig;
using dlfs::core::DlfsFleet;
using dlfs::core::DlfsInstance;
using dlfs::core::SampleHandle;
using dlfs::dataset::Dataset;
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

  Rig(std::uint32_t nodes, Dataset dataset, DlfsConfig cfg = DlfsConfig{},
      std::vector<dlfs::hw::NodeId> clients = {},
      std::vector<dlfs::hw::NodeId> storage = {},
      bool ram_store = true)
      : cluster(sim, nodes, make_node_config(ram_store)),
        ds(std::move(dataset)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, cfg, std::move(clients), std::move(storage)) {}

  static NodeConfig make_node_config(bool ram_store) {
    NodeConfig nc;
    nc.synthetic_store = !ram_store;
    nc.device_capacity = 1_GiB;
    return nc;
  }

  void mount() {
    fleet.mount();
    ASSERT_TRUE(fleet.mounted());
  }
};

// samples_skipped / end_of_epoch live once, in the shared BatchMeta base
// both delivery structs derive from.
static_assert(std::is_base_of_v<dlfs::core::BatchMeta, dlfs::core::Batch>);
static_assert(
    std::is_base_of_v<dlfs::core::BatchMeta, dlfs::core::ViewBatch>);

bool sample_matches(const Dataset& ds, std::uint32_t id,
                    std::span<const std::byte> got) {
  std::vector<std::byte> want(ds.sample(id).size);
  ds.fill_content(id, 0, want);
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

// ---------------------------------------------------------------------------
// Mount

TEST(DlfsMount, SingleNodeMountBuildsDirectory) {
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(100, 4096));
  rig.mount();
  EXPECT_EQ(rig.fleet.directory().num_samples(), 100u);
  EXPECT_EQ(rig.fleet.directory().tree(0).size(), 100u);
  EXPECT_TRUE(rig.fleet.directory().tree(0).validate());
  // Data actually landed on the device.
  EXPECT_EQ(rig.cluster.node(0).device().bytes_written(), 100u * 4096u);
}

TEST(DlfsMount, MultiNodeMountPartitionsData) {
  Rig rig(4, dlfs::dataset::make_fixed_size_dataset(400, 4096));
  rig.mount();
  std::uint64_t total = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    const auto w = rig.cluster.node(n).device().bytes_written();
    EXPECT_GT(w, 0u);
    total += w;
  }
  EXPECT_EQ(total, 400u * 4096u);
  EXPECT_EQ(rig.fleet.directory().num_samples(), 400u);
}

TEST(DlfsMount, MountTakesSimulatedTime) {
  Rig rig(2, dlfs::dataset::make_fixed_size_dataset(100, 64_KiB));
  rig.mount();
  // PFS streaming at 1 GB/s + device writes: must be visible in sim time.
  EXPECT_GT(rig.sim.now(), 1_ms);
}

// ---------------------------------------------------------------------------
// dlfs_open / dlfs_read

TEST(DlfsRead, OpenReadReturnsExactContent) {
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(50, 8000));
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  bool ok = false;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, bool& ok) -> Task<void> {
    SampleHandle h = co_await inst.open("fixed8000_7");
    EXPECT_EQ(h.entry->len(), 8000u);
    std::vector<std::byte> buf(8000);
    co_await inst.read(h, buf);
    ok = sample_matches(r.ds, h.sample_id, buf);
  }(rig, inst, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(ok);
}

TEST(DlfsRead, OpenUnknownNameThrows) {
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(10, 512));
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  auto p = rig.sim.spawn([](DlfsInstance& i) -> Task<void> {
    (void)co_await i.open("no-such-sample");
  }(inst));
  rig.sim.run();
  EXPECT_TRUE(p.failed());
}

TEST(DlfsRead, SecondReadHitsCache) {
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(10, 4096));
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  dlsim::SimTime t_miss = 0, t_hit = 0;
  rig.sim.spawn([](Simulator& s, DlfsInstance& inst, dlsim::SimTime& tm,
                   dlsim::SimTime& th) -> Task<void> {
    SampleHandle h = co_await inst.open("fixed4096_3");
    std::vector<std::byte> buf(4096);
    const auto t0 = s.now();
    co_await inst.read(h, buf);
    tm = s.now() - t0;
    const auto t1 = s.now();
    co_await inst.read(h, buf);
    th = s.now() - t1;
  }(rig.sim, inst, t_miss, t_hit));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(inst.cache().hits(), 1u);
  EXPECT_EQ(inst.cache().misses(), 1u);
  // Cache hit skips the device: ~12us vs sub-us memcpy.
  EXPECT_GT(t_miss, 10_us);
  EXPECT_LT(t_hit, 2_us);
}

TEST(DlfsRead, ReadIntoTooSmallBufferThrows) {
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(10, 4096));
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  auto p = rig.sim.spawn([](DlfsInstance& i) -> Task<void> {
    SampleHandle h = co_await i.open("fixed4096_0");
    std::vector<std::byte> buf(100);
    co_await i.read(h, buf);
  }(inst));
  rig.sim.run();
  EXPECT_TRUE(p.failed());
}

// ---------------------------------------------------------------------------
// dlfs_sequence / dlfs_bread

struct BreadResult {
  std::vector<std::uint32_t> order;
  std::uint64_t total_bytes = 0;
  bool content_ok = true;
};

Task<void> drain_epoch(const Dataset& ds, DlfsInstance& inst,
                       std::size_t batch_size, BreadResult& out) {
  std::vector<std::byte> arena(batch_size * (ds.max_sample_bytes() + 16));
  for (;;) {
    Batch b = co_await inst.bread(batch_size, arena);
    if (b.end_of_epoch) break;
    for (const auto& s : b.samples) {
      out.order.push_back(s.sample_id);
      out.total_bytes += s.len;
      if (!sample_matches(ds, s.sample_id,
                          std::span<const std::byte>(
                              arena.data() + s.offset_in_arena, s.len))) {
        out.content_ok = false;
      }
    }
  }
}

class BreadModeTest : public ::testing::TestWithParam<BatchingMode> {};

TEST_P(BreadModeTest, EpochDeliversEverySampleOnceWithCorrectContent) {
  DlfsConfig cfg;
  cfg.batching = GetParam();
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(300, 3000), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(12345);
  BreadResult res;
  rig.sim.spawn(drain_epoch(rig.ds, inst, 32, res));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(res.order.size(), 300u);
  std::set<std::uint32_t> unique(res.order.begin(), res.order.end());
  EXPECT_EQ(unique.size(), 300u);
  EXPECT_TRUE(res.content_ok);
  EXPECT_EQ(res.total_bytes, 300u * 3000u);
}

TEST_P(BreadModeTest, MultiNodeEpochCoversDatasetAcrossClients) {
  DlfsConfig cfg;
  cfg.batching = GetParam();
  Rig rig(4, dlfs::dataset::make_fixed_size_dataset(400, 2048), cfg);
  rig.mount();
  std::vector<BreadResult> res(4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    rig.fleet.instance(c).sequence(777);  // same seed everywhere
  }
  for (std::uint32_t c = 0; c < 4; ++c) {
    rig.sim.spawn(drain_epoch(rig.ds, rig.fleet.instance(c), 16, res[c]));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  std::set<std::uint32_t> all;
  for (const auto& r : res) {
    EXPECT_TRUE(r.content_ok);
    for (auto id : r.order) EXPECT_TRUE(all.insert(id).second);
  }
  EXPECT_EQ(all.size(), 400u);  // disjoint cover of the whole dataset
}

INSTANTIATE_TEST_SUITE_P(Modes, BreadModeTest,
                         ::testing::Values(BatchingMode::kNone,
                                           BatchingMode::kSampleLevel,
                                           BatchingMode::kChunkLevel));

TEST(DlfsBread, RequiresSequenceFirst) {
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(10, 512));
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  auto p = rig.sim.spawn([](DlfsInstance& i) -> Task<void> {
    std::vector<std::byte> arena(64_KiB);
    (void)co_await i.bread(4, arena);
  }(inst));
  rig.sim.run();
  EXPECT_TRUE(p.failed());
}

TEST(DlfsBread, SameSeedReproducesOrder) {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(200, 1000), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  BreadResult r1, r2;
  inst.sequence(99);
  rig.sim.spawn(drain_epoch(rig.ds, inst, 32, r1));
  rig.sim.run();
  rig.sim.rethrow_failures();
  inst.sequence(99);
  rig.sim.spawn(drain_epoch(rig.ds, inst, 32, r2));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(r1.order, r2.order);
}

TEST(DlfsBread, ChunkModeShufflesAtChunkGranularity) {
  // 1024 x 512 B on one node = two 256 KiB chunks. Within a chunk the
  // order is sequential; across epochs with different seeds the chunk
  // order changes.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(1024, 512), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  BreadResult res;
  inst.sequence(5);
  rig.sim.spawn(drain_epoch(rig.ds, inst, 64, res));
  rig.sim.run();
  rig.sim.rethrow_failures();
  ASSERT_EQ(res.order.size(), 1024u);
  // Samples within one chunk arrive in ascending on-device order.
  for (std::size_t i = 1; i < 512; ++i) {
    EXPECT_EQ(res.order[i], res.order[i - 1] + 1);
  }
}

TEST(DlfsBread, ChunkBatchingIssuesFarFewerRequests) {
  DlfsConfig chunk_cfg;
  chunk_cfg.batching = BatchingMode::kChunkLevel;
  DlfsConfig sample_cfg;
  sample_cfg.batching = BatchingMode::kSampleLevel;
  std::uint64_t posted_chunk = 0, posted_sample = 0;
  for (auto* pair : {&posted_chunk, &posted_sample}) {
    const auto& cfg = pair == &posted_chunk ? chunk_cfg : sample_cfg;
    Rig rig(1, dlfs::dataset::make_fixed_size_dataset(2048, 512), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    inst.sequence(1);
    BreadResult res;
    rig.sim.spawn(drain_epoch(rig.ds, inst, 32, res));
    rig.sim.run();
    rig.sim.rethrow_failures();
    *pair = inst.engine().requests_posted();
  }
  // 2048 samples at 512 B = 1 MiB = 4 chunks vs 2048 per-sample requests.
  EXPECT_EQ(posted_chunk, 4u);
  EXPECT_EQ(posted_sample, 2048u);
}

TEST(DlfsBread, VariableSizeDatasetWithEdgeSamples) {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  Rig rig(2, dlfs::dataset::make_imagenet_like_dataset(150, 3), cfg);
  rig.mount();
  EXPECT_GT(rig.fleet.plan().num_edge_units(), 0u);  // big samples cross
  for (std::uint32_t c = 0; c < 2; ++c) rig.fleet.instance(c).sequence(4);
  std::vector<BreadResult> res(2);
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn(drain_epoch(rig.ds, rig.fleet.instance(c), 8, res[c]));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  std::set<std::uint32_t> all;
  for (const auto& r : res) {
    EXPECT_TRUE(r.content_ok);
    for (auto id : r.order) all.insert(id);
  }
  EXPECT_EQ(all.size(), 150u);
}

// ---------------------------------------------------------------------------
// Chunk-read extents

Task<void> drain_views_epoch(const Dataset& ds, DlfsInstance& inst,
                             std::size_t batch_size, BreadResult& out) {
  for (;;) {
    dlfs::core::ViewBatch b = co_await inst.bread_views(batch_size);
    if (b.end_of_epoch) break;
    for (const auto& vs : b.samples) {
      std::vector<std::byte> got;
      for (const auto& p : vs.pieces) {
        got.insert(got.end(), p.begin(), p.end());
      }
      out.order.push_back(vs.sample_id);
      out.total_bytes += vs.len;
      if (!sample_matches(ds, vs.sample_id, got)) out.content_ok = false;
    }
    inst.release_views(b);
  }
}

TEST(DlfsBread, DeviceReadsEqualDeliveredBytes) {
  // One client, two remote storage nodes, ImageNet-like sizes (many edge
  // samples). A chunk unit reads only the bytes of the samples it
  // delivers, so over an epoch the storage devices serve exactly the
  // bytes the trainer receives — on the copy path and the views path.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  Rig rig(3, dlfs::dataset::make_imagenet_like_dataset(400, 5), cfg,
          /*clients=*/{2}, /*storage=*/{0, 1});
  rig.mount();
  ASSERT_GT(rig.fleet.plan().num_edge_units(), 0u);
  ASSERT_GT(rig.fleet.plan().num_chunk_units(), 0u);
  auto& inst = rig.fleet.instance(0);
  auto device_read = [&rig] {
    return rig.cluster.node(0).device().bytes_read() +
           rig.cluster.node(1).device().bytes_read();
  };

  inst.sequence(11);
  BreadResult copy;
  rig.sim.spawn(drain_epoch(rig.ds, inst, 16, copy));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(copy.order.size(), 400u);
  EXPECT_TRUE(copy.content_ok);
  const std::uint64_t copy_delivered = inst.stats().bytes_delivered;
  EXPECT_EQ(copy.total_bytes, copy_delivered);
  EXPECT_EQ(device_read(), copy_delivered);

  const std::uint64_t read_before = device_read();
  inst.sequence(12);
  BreadResult views;
  rig.sim.spawn(drain_views_epoch(rig.ds, inst, 16, views));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(views.order.size(), 400u);
  EXPECT_TRUE(views.content_ok);
  const std::uint64_t views_delivered =
      inst.stats().bytes_delivered - copy_delivered;
  EXPECT_EQ(views.total_bytes, views_delivered);
  EXPECT_EQ(device_read() - read_before, views_delivered);
  // The read-ahead daemon's CPU is visible through the const accessor.
  const DlfsInstance& reader = inst;
  EXPECT_GT(reader.prefetcher().core().busy_ns(), 0);
}

TEST(DlfsBread, ReadAheadCopiesCountHandoffs) {
  // Every SCQ copy job records the core that produced it, so a copy
  // thread draining one pays the cross-core handoff. On a cold one-client
  // epoch every sample is a prefetched copy, whichever batching mode
  // planned it.
  for (const BatchingMode mode :
       {BatchingMode::kSampleLevel, BatchingMode::kChunkLevel}) {
    DlfsConfig cfg;
    cfg.batching = mode;
    cfg.copy_threads = 2;
    Rig rig(1, dlfs::dataset::make_fixed_size_dataset(256, 4096), cfg);
    rig.mount();
    auto& inst = rig.fleet.instance(0);
    inst.sequence(3);
    BreadResult res;
    rig.sim.spawn(drain_epoch(rig.ds, inst, 32, res));
    rig.sim.run();
    rig.sim.rethrow_failures();
    ASSERT_EQ(res.order.size(), 256u);
    EXPECT_TRUE(res.content_ok);
    const auto s = inst.stats();
    EXPECT_EQ(s.cross_core_handoffs, s.samples_delivered)
        << (mode == BatchingMode::kSampleLevel ? "sample" : "chunk")
        << "-level";
  }
}

/// One sample-level rig whose cache holds the whole dataset, warmed by an
/// epoch, and sequenced for a warm epoch with seed 2 whose first
/// read-ahead units the daemon has issued, every sample elided.
struct WarmRig : Rig {
  WarmRig()
      : Rig(1, dlfs::dataset::make_fixed_size_dataset(64, 4096), config()) {
    mount();
    auto& inst = fleet.instance(0);
    inst.sequence(1);
    BreadResult cold;
    sim.spawn(drain_epoch(ds, inst, 16, cold));
    sim.run();
    sim.rethrow_failures();
    inst.sequence(2);
    sim.run();
  }

  static DlfsConfig config() {
    DlfsConfig cfg;
    cfg.batching = BatchingMode::kSampleLevel;
    cfg.cache_chunks = 128;  // the whole dataset stays resident
    return cfg;
  }

  /// Runs one bread of `n` at client 0 into `arena`.
  Batch bread(std::size_t n, std::span<std::byte> arena) {
    Batch batch;
    sim.spawn([](DlfsInstance& inst, std::size_t n, std::span<std::byte> arena,
                 Batch* out) -> Task<void> {
      *out = co_await inst.bread(n, arena);
    }(fleet.instance(0), n, arena, &batch));
    sim.run();
    sim.rethrow_failures();
    return batch;
  }
};

TEST(DlfsBread, SamplesEvictedAfterIssueAreReadTogether) {
  // A warm epoch's read-ahead skips the samples the cache holds. Four of
  // the first unit's samples are evicted after it was issued and before
  // the first bread: the unit's acquire posts all four reads before it
  // delivers any sample, and every byte is the dataset's.
  WarmRig rig;
  auto& inst = rig.fleet.instance(0);
  ASSERT_EQ(inst.cache().resident_samples(), 64u);
  ASSERT_GT(inst.prefetcher().stats().units_issued, 0u);
  // The first four epoch slots lie in the first read-ahead unit (8 slots).
  const dlfs::core::EpochSequence order(rig.fleet.plan(), 2, 0, 1);
  for (std::size_t slot = 0; slot < 4; ++slot) {
    const std::uint32_t id = order.unit_at(slot)->samples.front().sample_id;
    ASSERT_TRUE(inst.cache().valid(id));
    inst.cache().evict(id);
  }
  const std::uint64_t posted0 = inst.engine().requests_posted();
  const std::uint64_t copied0 = inst.engine().bytes_copied();
  std::vector<std::byte> arena(16 * 4096);
  Batch batch;
  rig.sim.spawn(
      [](DlfsInstance& inst, std::span<std::byte> arena,
         Batch* out) -> Task<void> {
        *out = co_await inst.bread(16, arena);
      }(inst, arena, &batch));
  std::uint64_t posted_at_first_copy = 0;
  while (rig.sim.step()) {
    if (posted_at_first_copy == 0 &&
        inst.engine().bytes_copied() != copied0) {
      posted_at_first_copy = inst.engine().requests_posted() - posted0;
    }
  }
  rig.sim.rethrow_failures();
  EXPECT_EQ(posted_at_first_copy, 4u);
  EXPECT_EQ(inst.engine().requests_posted() - posted0, 4u);
  ASSERT_EQ(batch.samples.size(), 16u);
  for (const auto& s : batch.samples) {
    EXPECT_TRUE(sample_matches(
        rig.ds, s.sample_id,
        std::span<const std::byte>(arena.data() + s.offset_in_arena, s.len)))
        << "sample " << s.sample_id;
  }
}

TEST(DlfsBread, SampleCachedAtAcquireIsServedAtItsPick) {
  // The first bread acquires the epoch's first read-ahead unit (8 slots),
  // whose samples the cache holds. One of its unpicked samples cannot be
  // evicted before its pick, so the second bread serves it from the cache
  // too: no device request, and the dataset's bytes.
  WarmRig rig;
  auto& inst = rig.fleet.instance(0);
  std::vector<std::byte> arena(4 * 4096);
  ASSERT_EQ(rig.bread(4, arena).samples.size(), 4u);
  const dlfs::core::EpochSequence order(rig.fleet.plan(), 2, 0, 1);
  const std::uint32_t victim = order.unit_at(5)->samples.front().sample_id;
  inst.cache().evict(victim);
  EXPECT_TRUE(inst.cache().valid(victim));
  const std::uint64_t posted0 = inst.engine().requests_posted();
  const Batch batch = rig.bread(4, arena);
  EXPECT_EQ(inst.engine().requests_posted() - posted0, 0u);
  ASSERT_EQ(batch.samples.size(), 4u);
  EXPECT_EQ(batch.samples[1].sample_id, victim);
  for (const auto& s : batch.samples) {
    EXPECT_TRUE(sample_matches(
        rig.ds, s.sample_id,
        std::span<const std::byte>(arena.data() + s.offset_in_arena, s.len)))
        << "sample " << s.sample_id;
  }
}

TEST(DlfsBread, SequenceReleasesAPartialUnitsPins) {
  // A bread of 4 leaves the other 4 samples of its read-ahead unit
  // pinned for their picks. A new epoch drops the unit and its pins, so
  // every cache entry can be evicted again.
  WarmRig rig;
  auto& inst = rig.fleet.instance(0);
  std::vector<std::byte> arena(4 * 4096);
  ASSERT_EQ(rig.bread(4, arena).samples.size(), 4u);
  auto& cache = inst.cache();
  while (cache.evict_lru_one()) {
  }
  EXPECT_EQ(cache.resident_samples(), 4u);
  inst.sequence(3);
  while (cache.evict_lru_one()) {
  }
  EXPECT_EQ(cache.resident_samples(), 0u);
}

TEST(DlfsBread, InjectedComputeWaitsOutSampleLevelLookups) {
  // The I/O core does one thing at a time. A warm sample-level bread of
  // 16 own hits looks each pick up while the injected poll-loop compute
  // runs, so it ends no sooner than the compute plus the lookups.
  WarmRig rig;
  auto& inst = rig.fleet.instance(0);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  inst.set_injected_poll_compute(200_us);
  std::vector<std::byte> arena(16 * 4096);
  const dlsim::SimTime t0 = rig.sim.now();
  const dlsim::SimDuration busy0 = inst.io_core().busy_ns();
  dlsim::SimTime done = 0;
  rig.sim.spawn([](Simulator& sim, DlfsInstance& inst,
                   std::span<std::byte> arena,
                   dlsim::SimTime* done) -> Task<void> {
    EXPECT_EQ((co_await inst.bread(16, arena)).samples.size(), 16u);
    *done = sim.now();
  }(rig.sim, inst, arena, &done));
  rig.sim.run();
  rig.sim.rethrow_failures();
  const dlsim::SimDuration lookups =
      16 * (costs.dir_lookup + costs.bread_per_sample);
  EXPECT_EQ(inst.io_core().busy_ns() - busy0, 200_us + lookups);
  EXPECT_GE(done - t0, 200_us + lookups);
}

TEST(DlfsBread, ArenaTooSmallThrowsBeforeWritingArena) {
  // Sample-level bread into an arena that holds one and a half samples:
  // the batch must be refused before any read or copy is issued, so once
  // the simulator has run dry not a byte of the caller's arena changed.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kSampleLevel;
  Rig rig(1, dlfs::dataset::make_fixed_size_dataset(64, 4096), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  inst.sequence(3);
  constexpr std::byte kSentinel{0x5a};
  std::vector<std::byte> arena(6_KiB, kSentinel);
  bool threw = false;
  rig.sim.spawn([](DlfsInstance& inst, std::span<std::byte> arena,
                   bool* threw) -> Task<void> {
    try {
      (void)co_await inst.bread(8, arena);
    } catch (const std::invalid_argument&) {
      *threw = true;
    }
  }(inst, arena, &threw));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(threw);
  EXPECT_EQ(std::count(arena.begin(), arena.end(), kSentinel),
            static_cast<std::ptrdiff_t>(arena.size()));
}

Task<void> read_loop(Simulator& sim, const Dataset& ds, DlfsInstance& inst,
                     std::vector<std::uint32_t> ids, BreadResult& out,
                     dlsim::SimTime& end) {
  std::vector<std::byte> buf(ds.max_sample_bytes());
  for (const std::uint32_t id : ids) {
    SampleHandle h = co_await inst.open_id(id);
    const auto got = std::span<std::byte>(buf).first(h.entry->len());
    co_await inst.read(h, got);
    out.order.push_back(id);
    out.total_bytes += got.size();
    if (!sample_matches(ds, id, got)) out.content_ok = false;
  }
  end = sim.now();
}

Task<void> bread_loop(Simulator& sim, const Dataset& ds, DlfsInstance& inst,
                      BreadResult& out, dlsim::SimTime& end) {
  co_await drain_epoch(ds, inst, 32, out);
  end = sim.now();
}

TEST(DlfsBread, DlfsBaseIsPerSampleDlfsRead) {
  // BatchingMode::kNone is the paper's DLFS-Base: a bread epoch is exactly
  // the application's own open_id()+read() loop over the epoch order, run
  // on a second rig that never calls sequence() — same samples in the
  // same order, same bytes, same simulated time, same directory RPCs. It
  // never reads ahead: no prefetch unit, one device command per 4 KiB
  // sample. Checked under the default cache, Fig. 6's one-chunk cache,
  // and a sharded directory where node 1's ids are foreign to the client.
  constexpr std::size_t kSamples = 256;
  constexpr std::uint64_t kSeed = 11;
  struct Case {
    std::size_t cache_chunks;
    dlfs::core::DirectoryMode directory;
    std::uint32_t nodes;
  };
  for (const Case c :
       {Case{64, dlfs::core::DirectoryMode::kFull, 1},
        Case{1, dlfs::core::DirectoryMode::kFull, 1},
        Case{64, dlfs::core::DirectoryMode::kSharded, 2}}) {
    SCOPED_TRACE(testing::Message() << "cache_chunks=" << c.cache_chunks
                                    << " nodes=" << c.nodes);
    DlfsConfig cfg;
    cfg.batching = BatchingMode::kNone;
    cfg.cache_chunks = c.cache_chunks;
    cfg.directory.mode = c.directory;
    // The client sits on node 0; every node stores.
    std::vector<dlfs::hw::NodeId> storage;
    for (std::uint32_t n = 0; n < c.nodes; ++n) storage.push_back(n);
    auto commands = [&c](Rig& r) {
      std::uint64_t n = 0;
      for (std::uint32_t i = 0; i < c.nodes; ++i) {
        n += r.cluster.node(i).device().commands_completed();
      }
      return n;
    };
    auto remote_lookups = [](const DlfsInstance& inst) -> std::uint64_t {
      const auto* view = inst.directory_view();
      return view ? view->stats().remote_lookups : 0;
    };

    Rig base(c.nodes, dlfs::dataset::make_fixed_size_dataset(kSamples, 4096),
             cfg, {0}, storage);
    base.mount();
    auto& inst = base.fleet.instance(0);
    inst.sequence(kSeed);
    const auto cmds0 = commands(base);
    const auto lookups0 = remote_lookups(inst);
    const dlsim::SimTime base_t0 = base.sim.now();
    BreadResult got;
    dlsim::SimTime base_end = 0;
    base.sim.spawn(bread_loop(base.sim, base.ds, inst, got, base_end));
    base.sim.run();
    base.sim.rethrow_failures();

    Rig app(c.nodes, dlfs::dataset::make_fixed_size_dataset(kSamples, 4096),
            cfg, {0}, storage);
    app.mount();
    auto& app_inst = app.fleet.instance(0);
    dlfs::core::EpochSequence seq(app.fleet.plan(), kSeed, 0, 1);
    std::vector<std::uint32_t> order;
    for (auto picks = seq.take(64); !picks.empty(); picks = seq.take(64)) {
      for (const auto& pk : picks) {
        for (std::uint32_t i = 0; i < pk.count; ++i) {
          order.push_back(pk.unit->samples[pk.first_sample + i].sample_id);
        }
      }
    }
    const auto app_lookups0 = remote_lookups(app_inst);
    const dlsim::SimTime app_t0 = app.sim.now();
    BreadResult want;
    dlsim::SimTime app_end = 0;
    app.sim.spawn(read_loop(app.sim, app.ds, app_inst, order, want, app_end));
    app.sim.run();
    app.sim.rethrow_failures();

    ASSERT_EQ(want.order.size(), kSamples);
    EXPECT_TRUE(want.content_ok);
    EXPECT_TRUE(got.content_ok);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.total_bytes, want.total_bytes);
    EXPECT_EQ(base_end - base_t0, app_end - app_t0);
    EXPECT_EQ(remote_lookups(inst) - lookups0,
              remote_lookups(app_inst) - app_lookups0);
    if (c.directory == dlfs::core::DirectoryMode::kSharded) {
      EXPECT_GT(remote_lookups(app_inst) - app_lookups0, 0u);
    }
    EXPECT_EQ(inst.stats().prefetch.units_issued, 0u);
    EXPECT_EQ(commands(base) - cmds0, kSamples);
  }
}

TEST(DlfsMount, FleetsAtDisjointDeviceBasesReadTheirOwnBytes) {
  // Two jobs with different datasets share the same storage devices, each
  // staged into its own region: every delivery of either job must carry
  // that job's bytes, not the other's.
  Simulator sim;
  Cluster cluster(sim, 3, Rig::make_node_config(/*ram_store=*/true));
  Dataset ds_a = dlfs::dataset::make_fixed_size_dataset(300, 3000);
  Dataset ds_b = dlfs::dataset::make_imagenet_like_dataset(200, 9);
  Pfs pfs_a(sim, ds_a), pfs_b(sim, ds_b);
  DlfsConfig cfg_a, cfg_b;
  cfg_b.device_base = 256_MiB;
  cfg_b.client_core_base = 1;
  DlfsFleet fleet_a(cluster, pfs_a, ds_a, cfg_a, {2}, {0, 1});
  DlfsFleet fleet_b(cluster, pfs_b, ds_b, cfg_b, {2}, {0, 1});
  fleet_a.mount();
  fleet_b.mount();

  auto epoch_of = [&sim](DlfsInstance& inst, const Dataset& ds) {
    inst.sequence(3);
    BreadResult res;
    sim.spawn(drain_epoch(ds, inst, 16, res));
    sim.run();
    sim.rethrow_failures();
    return res;
  };
  const BreadResult a = epoch_of(fleet_a.instance(0), ds_a);
  const BreadResult b = epoch_of(fleet_b.instance(0), ds_b);
  EXPECT_EQ(a.order.size(), 300u);
  EXPECT_TRUE(a.content_ok);
  EXPECT_EQ(b.order.size(), 200u);
  EXPECT_TRUE(b.content_ok);
}

// ---------------------------------------------------------------------------
// Disaggregation topologies

TEST(DlfsTopology, OneClientManyStorageNodes) {
  // Fig. 11's DLFS-1C shape: client on node 0, storage on nodes 0..3.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  Rig rig(4, dlfs::dataset::make_fixed_size_dataset(400, 4096), cfg,
          /*clients=*/{0}, /*storage=*/{0, 1, 2, 3});
  rig.mount();
  EXPECT_EQ(rig.fleet.num_clients(), 1u);
  EXPECT_EQ(rig.fleet.num_storage(), 4u);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(6);
  BreadResult res;
  rig.sim.spawn(drain_epoch(rig.ds, inst, 32, res));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(res.order.size(), 400u);
  EXPECT_TRUE(res.content_ok);
  // Remote devices actually served data.
  for (std::uint32_t n = 1; n < 4; ++n) {
    EXPECT_GT(rig.cluster.node(n).device().bytes_read(), 0u);
  }
}

TEST(DlfsTopology, RemoteReadsCostMoreThanLocal) {
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kNone;
  Rig rig(2, dlfs::dataset::make_fixed_size_dataset(64, 128_KiB), cfg);
  rig.mount();
  auto& inst = rig.fleet.instance(0);
  // Find one local and one remote sample (from node 0's perspective).
  std::int64_t local_id = -1, remote_id = -1;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& loc = rig.fleet.layout()[i];
    if (loc.nid == 0 && local_id < 0) local_id = i;
    if (loc.nid == 1 && remote_id < 0) remote_id = i;
  }
  ASSERT_GE(local_id, 0);
  ASSERT_GE(remote_id, 0);
  dlsim::SimDuration t_local = 0, t_remote = 0;
  rig.sim.spawn([](Simulator& s, DlfsInstance& inst, std::uint32_t lid,
                   std::uint32_t rid, dlsim::SimDuration& tl,
                   dlsim::SimDuration& tr) -> Task<void> {
    std::vector<std::byte> buf(128_KiB);
    SampleHandle hl = co_await inst.open_id(lid);
    auto t0 = s.now();
    co_await inst.read(hl, buf);
    tl = s.now() - t0;
    SampleHandle hr = co_await inst.open_id(rid);
    t0 = s.now();
    co_await inst.read(hr, buf);
    tr = s.now() - t0;
  }(rig.sim, inst, static_cast<std::uint32_t>(local_id),
    static_cast<std::uint32_t>(remote_id), t_local, t_remote));
  rig.sim.run();
  rig.sim.rethrow_failures();
  // Remote adds capsule + data return over the fabric (~20+us for 128 KiB).
  EXPECT_GT(t_remote, t_local + 15_us);
}

}  // namespace
