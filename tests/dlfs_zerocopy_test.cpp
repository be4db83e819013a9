// Tests for zero-copy dlfs_bread (bread_views) — the paper's §III-C.2
// future-work item: samples delivered as views into resident huge-page
// data chunks, with pin/release lifetime rules.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
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
  std::set<std::uint32_t> seen;
  bool ok = true;
  rig.sim.spawn([](Rig& r, DlfsInstance& inst, std::set<std::uint32_t>& s,
                   bool& ok) -> Task<void> {
    for (;;) {
      ViewBatch b = co_await inst.bread_views(17);
      if (b.end_of_epoch) break;
      for (const auto& vs : b.samples) {
        if (!s.insert(vs.sample_id).second) ok = false;
        if (!view_matches(r.ds, vs)) ok = false;
      }
      inst.release_views(b);
    }
  }(rig, inst, seen, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(seen.size(), 300u);
  EXPECT_TRUE(ok);
}

TEST(ZeroCopyBread, ChunksStayPinnedUntilRelease) {
  Rig rig(512, 512);  // one 256 KiB chunk holds the whole epoch
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  rig.sim.spawn([](DlfsInstance& inst) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(32);
    const std::byte first = b1.samples[0].pieces[0][0];
    // Drain the rest of the epoch while b1 stays pinned: the shared chunk
    // must not be recycled underneath b1's views.
    for (;;) {
      ViewBatch b = co_await inst.bread_views(64);
      if (b.end_of_epoch) break;
      inst.release_views(b);
    }
    EXPECT_EQ(b1.samples[0].pieces[0][0], first);  // still readable
    inst.release_views(b1);
  }(inst));
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
    rig.sim.spawn([](DlfsInstance& inst, bool zc) -> Task<void> {
      std::vector<std::byte> arena(64 * 2000);
      for (;;) {
        if (zc) {
          ViewBatch b = co_await inst.bread_views(32);
          if (b.end_of_epoch) break;
          inst.release_views(b);
        } else {
          auto b = co_await inst.bread(32, arena);
          if (b.end_of_epoch) break;
        }
      }
    }(inst, zero_copy));
    rig.sim.run();
    rig.sim.rethrow_failures();
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
    for (;;) {
      ViewBatch b = co_await inst.bread_views(32);
      if (b.end_of_epoch) break;
      for (const auto& vs : b.samples) {
        if (!view_matches(r.ds, vs)) ok = false;
      }
      inst.release_views(b);
    }
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
  rig.sim.spawn([](DlfsInstance& inst, std::size_t& used) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(64);
    for (;;) {
      ViewBatch b = co_await inst.bread_views(128);
      if (b.end_of_epoch) break;
      inst.release_views(b);
    }
    // Whole epoch delivered, but b1 still pins the chunk.
    used = inst.pool().used_chunks();
    inst.release_views(b1);
  }(inst, used_while_pinned));
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
  rig.sim.spawn([](DlfsInstance& inst, const std::byte*& p) -> Task<void> {
    ViewBatch b1 = co_await inst.bread_views(64);
    p = b1.samples[0].pieces[0].data();
    EXPECT_NE(*p, std::byte{0xDD});  // live view reads real sample bytes
    for (;;) {
      ViewBatch b = co_await inst.bread_views(128);
      if (b.end_of_epoch) break;
      inst.release_views(b);
    }
    inst.release_views(b1);  // last pin: chunk freed and scribbled
  }(inst, stale));
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
  std::set<std::uint32_t> seen;
  for (std::uint32_t c = 0; c < 2; ++c) rig.fleet.instance(c).sequence(21);
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn([](DlfsInstance& inst,
                     std::set<std::uint32_t>& out) -> Task<void> {
      ViewLease prev;
      for (;;) {
        ViewBatch b = co_await inst.bread_views(32);
        if (b.end_of_epoch) break;
        for (const auto& vs : b.samples) out.insert(vs.sample_id);
        prev = ViewLease(inst, std::move(b));
      }
    }(rig.fleet.instance(c), seen));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(seen.size(), 2048u);
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
  std::map<std::uint32_t, std::vector<std::byte>> copied, viewed;
  {
    Rig rig(300, 1234, mode_from_env());
    auto& inst = rig.fleet.instance(0);
    inst.sequence(17);
    rig.sim.spawn(
        [](DlfsInstance& inst,
           std::map<std::uint32_t, std::vector<std::byte>>& out)
            -> Task<void> {
          std::vector<std::byte> arena(32 * 1234);
          for (;;) {
            auto b = co_await inst.bread(32, arena);
            if (b.end_of_epoch) break;
            for (const auto& s : b.samples) {
              out[s.sample_id].assign(
                  arena.begin() + s.offset_in_arena,
                  arena.begin() + s.offset_in_arena + s.len);
            }
          }
        }(inst, copied));
    rig.sim.run();
    rig.sim.rethrow_failures();
  }
  {
    Rig rig(300, 1234);  // bread_views requires chunk-level batching
    auto& inst = rig.fleet.instance(0);
    inst.sequence(17);
    rig.sim.spawn(
        [](DlfsInstance& inst,
           std::map<std::uint32_t, std::vector<std::byte>>& out)
            -> Task<void> {
          for (;;) {
            ViewBatch b = co_await inst.bread_views(32);
            if (b.end_of_epoch) break;
            for (const auto& vs : b.samples) {
              auto& dst = out[vs.sample_id];
              for (const auto& p : vs.pieces) {
                dst.insert(dst.end(), p.begin(), p.end());
              }
            }
            inst.release_views(b);
          }
        }(inst, viewed));
    rig.sim.run();
    rig.sim.rethrow_failures();
  }
  EXPECT_EQ(copied.size(), 300u);
  EXPECT_EQ(copied, viewed);
}

}  // namespace
