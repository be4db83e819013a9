// Tests for zero-copy dlfs_bread (bread_views) — the paper's §III-C.2
// future-work item: samples delivered as views into resident huge-page
// data chunks, with pin/release lifetime rules.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "harness.hpp"
#include "sim/simulator.hpp"

// Mirror of the pool's ASan gating (hugepage_pool.cpp): under ASan a
// released view's bytes are poisoned, so the stale-read test must query
// the poison state instead of dereferencing.
#if defined(__SANITIZE_ADDRESS__)
#define DLFS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLFS_TEST_ASAN 1
#endif
#endif
#if defined(DLFS_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace {

using dlfs::bench::EpochLog;
using dlfs::bench::exactly_once;
using dlfs::bench::read_epoch;
using dlfs::bench::read_epoch_checked;
using dlfs::core::BatchingMode;
using dlfs::core::DlfsConfig;
using dlfs::core::DlfsFleet;
using dlfs::core::DlfsInstance;
using dlfs::core::ViewBatch;
using dlfs::core::ViewLease;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlfs::byte_literals;

struct Rig {
  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  DlfsFleet fleet;

  explicit Rig(std::size_t samples = 256, std::uint32_t bytes = 2000,
               BatchingMode mode = BatchingMode::kChunkLevel)
      : Rig(samples, bytes, cfg(mode)) {}

  Rig(std::size_t samples, std::uint32_t bytes, DlfsConfig c,
      std::vector<dlfs::hw::NodeId> client_nodes = {})
      : cluster(sim, 1, node_cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(samples, bytes)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, c, std::move(client_nodes)) {
    fleet.mount();
  }

  static dlfs::cluster::NodeConfig node_cfg() {
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = false;
    nc.device_capacity = 256_MiB;
    return nc;
  }
  static DlfsConfig cfg(BatchingMode mode) {
    DlfsConfig c;
    c.batching = mode;
    return c;
  }
};

bool view_matches(const dlfs::dataset::Dataset& ds,
                  const dlfs::core::ViewSample& vs) {
  std::vector<std::byte> got;
  for (const auto& p : vs.pieces) got.insert(got.end(), p.begin(), p.end());
  std::vector<std::byte> want(vs.len);
  ds.fill_content(vs.sample_id, 0, want);
  return got == want;
}

TEST(ZeroCopyBread, ViewsCarryExactContent) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(7);
  bool ok = true;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, bool& ok) -> Task<void> {
    ViewBatch b = co_await inst.bread_views(32);
    EXPECT_EQ(b.samples.size(), 32u);
    for (const auto& vs : b.samples) {
      if (!view_matches(r.ds, vs)) ok = false;
    }
    inst.release_views(b);
  }(rig, inst, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(ok);
}

TEST(ZeroCopyBread, EpochCoversDatasetExactly) {
  Rig rig(300, 1234);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(3);
  const EpochLog log = read_epoch(inst, rig.ds, 17, /*views=*/true);
  EXPECT_TRUE(exactly_once({&log, 1}, 300));
  EXPECT_TRUE(log.content_ok);
}

TEST(ZeroCopyBread, ChunksStayPinnedUntilRelease) {
  Rig rig(512, 512);  // one 256 KiB chunk holds the whole epoch
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  rig.sim.spawn([](Rig& r, DlfsInstance& inst) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(32);
    const std::byte first = b1.samples[0].pieces[0][0];
    // Drain the rest of the epoch while b1 stays pinned: the shared chunk
    // must not be recycled underneath b1's views.
    EpochLog rest;
    co_await read_epoch_checked(inst, r.ds, 64, rest, /*views=*/true);
    EXPECT_TRUE(rest.content_ok);
    EXPECT_EQ(b1.samples[0].pieces[0][0], first);  // still readable
    inst.release_views(b1);
  }(rig, inst));
  rig.sim.run();
  rig.sim.rethrow_failures();
}

TEST(ZeroCopyBread, DoubleReleaseThrows) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  auto p = rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    ViewBatch b = co_await inst.bread_views(8);
    inst.release_views(b);
    inst.release_views(b);  // boom
  }(inst));
  rig.sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

TEST(ZeroCopyBread, RequiresChunkMode) {
  Rig rig(64, 1000, BatchingMode::kSampleLevel);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  auto p = rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    (void)co_await inst.bread_views(8);
  }(inst));
  rig.sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

TEST(ZeroCopyBread, NewEpochWithPinnedBatchThrows) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  ViewBatch held;
  rig.sim.spawn([](DlfsInstance& inst, ViewBatch& out) -> Task<void> {
    out = co_await inst.bread_views(8);
  }(inst, held));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_THROW(inst.sequence(2), std::logic_error);
  inst.release_views(held);
  EXPECT_NO_THROW(inst.sequence(2));
}

TEST(ZeroCopyBread, EliminatesTheCopyStage) {
  // Zero-copy removes the copy stage: zero bytes memcpyed, zero
  // copy-thread CPU, and wall time no worse than the copying path (the
  // copies overlap I/O, so the win is CPU, not latency, at one device).
  struct Result {
    dlsim::SimDuration elapsed;
    std::uint64_t bytes_copied;
    dlsim::SimDuration copy_busy;
  };
  auto run = [](bool zero_copy) {
    Rig rig(2048, 2000);
    auto& inst = rig.fleet.instance(0);
    inst.sequence(5);
    const auto t0 = rig.sim.now();
    EXPECT_TRUE(read_epoch(inst, rig.ds, 32, zero_copy).content_ok);
    return Result{rig.sim.now() - t0, inst.engine().bytes_copied(),
                  inst.engine().copy_busy_ns()};
  };
  const Result with_copy = run(false);
  const Result zero = run(true);
  EXPECT_EQ(zero.bytes_copied, 0u);
  EXPECT_EQ(zero.copy_busy, 0u);
  EXPECT_EQ(with_copy.bytes_copied, 2048u * 2000u);
  EXPECT_GT(with_copy.copy_busy, 0u);
  EXPECT_LE(zero.elapsed, with_copy.elapsed);
}

TEST(ZeroCopyBread, ViewLeaseReleasesOnScopeExitAndMove) {
  Rig rig;
  auto& inst = rig.fleet.instance(0);
  inst.sequence(11);
  rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    {
      ViewLease lease(inst, co_await inst.bread_views(8));
      EXPECT_TRUE(lease.held());
      EXPECT_GE(inst.stats().view_pins_active, 1u);
      // Moving transfers ownership: the source must not double-release.
      ViewLease moved(std::move(lease));
      EXPECT_FALSE(lease.held());
      EXPECT_TRUE(moved.held());
      EXPECT_EQ(moved.batch().samples.size(), 8u);
    }  // moved's destructor releases
    EXPECT_EQ(inst.stats().view_pins_active, 0u);
    // Explicit release is idempotent with the destructor.
    ViewLease again(inst, co_await inst.bread_views(8));
    again.release();
    EXPECT_FALSE(again.held());
    EXPECT_EQ(inst.stats().view_pins_active, 0u);
  }(inst));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(inst.stats().bytes_zero_copy, 16u * 2000u);
}

TEST(ZeroCopyBread, ViewsStayByteIdenticalUnderPoolPressure) {
  // 16-chunk dataset through an 8-chunk pool: chunks recycle mid-epoch
  // while the first batch stays pinned. Every batch must match the
  // dataset at handout time and the pinned batch must still match after
  // the churn — recycled chunks must never be ones a live view holds.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.pool_bytes = 8ull * 256 * 1024;
  Rig rig(2048, 2000, cfg);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(13);
  bool ok = true;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, bool& ok) -> Task<void> {
    ViewBatch first = co_await inst.bread_views(32);
    EpochLog rest;
    co_await read_epoch_checked(inst, r.ds, 32, rest, /*views=*/true);
    ok = rest.content_ok;
    for (const auto& vs : first.samples) {
      if (!view_matches(r.ds, vs)) ok = false;
    }
    inst.release_views(first);
  }(rig, inst, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(ok);
}

TEST(ZeroCopyBread, LastReleaseRecyclesTheChunk) {
  Rig rig(512, 512);  // 512 * 512 B = exactly one 256 KiB chunk
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  std::size_t used_while_pinned = 0;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                   std::size_t& used) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(64);
    EpochLog rest;
    co_await read_epoch_checked(inst, r.ds, 128, rest, /*views=*/true);
    EXPECT_TRUE(rest.content_ok);
    // Whole epoch delivered, but b1 still pins the chunk.
    used = inst.pool().used_chunks();
    inst.release_views(b1);
  }(rig, inst, used_while_pinned));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_GE(used_while_pinned, 1u);
  // The last release was the only remaining pin on a fully-delivered
  // unit: its chunk must be back on the free list.
  EXPECT_EQ(inst.pool().used_chunks(), 0u);
  EXPECT_EQ(inst.stats().view_pins_active, 0u);
}

TEST(ZeroCopyBread, UseAfterReleaseIsCaughtByScribble) {
  // scribble_on_free turns a stale view into detectable garbage: freed
  // chunks are 0xDD-filled (and ASan-poisoned when built with ASan, so
  // the same bug becomes a hard report instead of a wrong byte).
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.scribble_on_free = true;
  Rig rig(512, 512, cfg);  // one-chunk epoch, nothing realloc's after
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  const std::byte* stale = nullptr;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst,
                   const std::byte*& p) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(64);
    p = b1.samples[0].pieces[0].data();
    EXPECT_NE(*p, std::byte{0xDD});  // live view reads real sample bytes
    EpochLog rest;
    co_await read_epoch_checked(inst, r.ds, 128, rest, /*views=*/true);
    EXPECT_TRUE(rest.content_ok);
    inst.release_views(b1);  // last pin: chunk freed and scribbled
  }(rig, inst, stale));
  rig.sim.run();
  rig.sim.rethrow_failures();
  ASSERT_NE(stale, nullptr);
#if defined(DLFS_TEST_ASAN)
  EXPECT_NE(__asan_address_is_poisoned(stale), 0);
#else
  EXPECT_EQ(*stale, std::byte{0xDD});
#endif
}

TEST(ZeroCopyBread, CoLocatedInstancesCompleteWithPinnedUnits) {
  // Two instances share one node, each double-buffering view batches (the
  // previous batch stays pinned across the next bread_views). Each
  // instance's read-ahead must fit beside its own pinned units: top_up
  // sizes the window from its pool's free chunks, which leave pinned
  // chunks out, so the epoch completes instead of dying with
  // PoolExhausted.
  DlfsConfig cfg;
  cfg.batching = BatchingMode::kChunkLevel;
  cfg.prefetch.initial_units = 16;
  cfg.prefetch.max_units = 32;
  cfg.pool_bytes = 24ull * 256 * 1024;
  Rig rig(2048, 2000, cfg, /*client_nodes=*/{0, 0});
  std::vector<EpochLog> logs(2);
  for (std::uint32_t c = 0; c < 2; ++c) rig.fleet.instance(c).sequence(21);
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn(read_epoch_checked(rig.fleet.instance(c), rig.ds, 32,
                                     logs[c], /*views=*/true));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(exactly_once(logs, 2048));
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(rig.fleet.instance(c).stats().view_pins_active, 0u);
  }
}

// ---------------------------------------------------------------------------
// ZeroCopyMatrix — registered once per BatchingMode via DLFS_TEST_BATCHING
// (see tests/CMakeLists.txt): the copy path runs under the environment's
// mode, and its delivered bytes must be identical to what bread_views
// (always chunk-level) hands out as views.
// ---------------------------------------------------------------------------

BatchingMode mode_from_env() {
  const char* v = std::getenv("DLFS_TEST_BATCHING");
  if (v == nullptr) return BatchingMode::kChunkLevel;
  const std::string s(v);
  if (s == "none") return BatchingMode::kNone;
  if (s == "sample") return BatchingMode::kSampleLevel;
  return BatchingMode::kChunkLevel;
}

TEST(ZeroCopyMatrix, ViewsMatchCopyPathBytes) {
  // Both paths deliver every sample once, each with the dataset's bytes,
  // so the copies and the views hold the same bytes.
  EpochLog copied, viewed;
  {
    Rig rig(300, 1234, mode_from_env());
    rig.fleet.instance(0).sequence(17);
    copied = read_epoch(rig.fleet.instance(0), rig.ds, 32);
  }
  {
    Rig rig(300, 1234);  // bread_views requires chunk-level batching
    rig.fleet.instance(0).sequence(17);
    viewed = read_epoch(rig.fleet.instance(0), rig.ds, 32, /*views=*/true);
  }
  EXPECT_TRUE(exactly_once({&copied, 1}, 300));
  EXPECT_TRUE(exactly_once({&viewed, 1}, 300));
  EXPECT_TRUE(copied.content_ok);
  EXPECT_TRUE(viewed.content_ok);
}

}  // namespace
