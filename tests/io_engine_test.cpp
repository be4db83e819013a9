// Direct unit tests for the DLFS I/O engine: request splitting at chunk
// granularity, huge-page pool backpressure, multi-target batches,
// queue-depth pipelining, SCQ copy threads, cache interaction, and
// parameterized sweeps over (sample size x chunk size).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>

#include "common/units.hpp"
#include "dlfs/io_engine.hpp"
#include "hw/nvme/backing_store.hpp"
#include "hw/nvme/nvme_device.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/simulator.hpp"
#include "spdk/nvme_driver.hpp"

namespace {

using dlfs::core::IoEngine;
using dlfs::core::IoEngineConfig;
using dlfs::core::ReadExtent;
using dlfs::core::SampleCache;
using dlfs::hw::NvmeDevice;
using dlfs::hw::SyntheticBackingStore;
using dlfs::mem::HugePagePool;
using dlsim::CpuCore;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

struct EngineRig {
  Simulator sim;
  HugePagePool pool;
  SampleCache cache;
  std::vector<std::unique_ptr<NvmeDevice>> devices;
  std::unique_ptr<dlfs::spdk::NvmeDriver> driver;
  std::unique_ptr<IoEngine> engine;
  CpuCore core{sim, "io"};

  explicit EngineRig(IoEngineConfig cfg = IoEngineConfig{},
                     std::size_t num_devices = 1,
                     std::size_t pool_chunks = 64)
      : pool(pool_chunks * cfg.chunk_bytes, cfg.chunk_bytes),
        cache(pool, 16, 1000) {
    driver = std::make_unique<dlfs::spdk::NvmeDriver>(sim, pool);
    engine = std::make_unique<IoEngine>(sim, pool, cache,
                                        dlfs::default_calibration(), cfg);
    for (std::size_t d = 0; d < num_devices; ++d) {
      devices.push_back(std::make_unique<NvmeDevice>(
          sim, "nvme" + std::to_string(d),
          std::make_unique<SyntheticBackingStore>(1_GiB, 100 + d)));
      driver->attach(*devices.back());
      engine->attach_target(static_cast<std::uint16_t>(d),
                            driver->create_io_queue(*devices.back()));
    }
  }

  void read(std::vector<ReadExtent> extents) {
    sim.spawn([](IoEngine& e, CpuCore& c,
                 std::vector<ReadExtent> xs) -> Task<void> {
      co_await e.read_extents(c, std::move(xs));
    }(*engine, core, std::move(extents)));
    sim.run();
    sim.rethrow_failures();
  }
};

TEST(IoEngine, SingleExtentCopiesExactBytes) {
  EngineRig rig;
  std::vector<std::byte> dst(10000), want(10000);
  rig.devices[0]->store().read(4096, want);
  rig.read({ReadExtent{0, 4096, 10000, dst.data(), std::nullopt, nullptr}});
  EXPECT_EQ(std::memcmp(dst.data(), want.data(), want.size()), 0);
}

TEST(IoEngine, LargeExtentSplitsIntoChunkRequests) {
  EngineRig rig;
  std::vector<std::byte> dst(1_MiB);
  rig.read({ReadExtent{0, 0, 1_MiB, dst.data(), std::nullopt, nullptr}});
  // 1 MiB at 256 KiB chunks = 4 requests.
  EXPECT_EQ(rig.engine->requests_posted(), 4u);
  EXPECT_EQ(rig.engine->completions_harvested(), 4u);
  EXPECT_EQ(rig.engine->bytes_copied(), 1_MiB);
}

TEST(IoEngine, PoolBackpressureStillCompletes) {
  // 12 extents of one chunk each with only 2 pool chunks: posting must
  // stall on the pool and recycle buffers as copies finish.
  IoEngineConfig cfg;
  EngineRig rig(cfg, 1, /*pool_chunks=*/2);
  std::vector<std::vector<std::byte>> dsts(12,
                                           std::vector<std::byte>(64_KiB));
  std::vector<ReadExtent> xs;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    xs.push_back(ReadExtent{0, i * 64_KiB, 64_KiB, dsts[i].data(),
                            std::nullopt, nullptr});
  }
  rig.read(std::move(xs));
  EXPECT_EQ(rig.engine->bytes_copied(), 12 * 64_KiB);
  EXPECT_EQ(rig.pool.used_chunks(), 0u);  // everything returned
}

TEST(IoEngine, CacheYieldsChunksUnderPoolPressure) {
  // A cache big enough to absorb the whole pool must evict LRU entries
  // when new reads need DMA chunks (regression test for a livelock where
  // the posting loop waited forever on a pool the cache had swallowed).
  IoEngineConfig cfg;
  EngineRig rig(cfg, 1, /*pool_chunks=*/4);
  // rig.cache capacity is 16 chunks > 4 pool chunks.
  std::vector<std::byte> dst(4096);
  for (std::size_t id = 0; id < 10; ++id) {
    rig.sim.spawn([](IoEngine& e, CpuCore& c, std::byte* d,
                     std::size_t id) -> Task<void> {
      std::vector<ReadExtent> xs = {
          ReadExtent{0, id * 4096, 4096, d, id, nullptr}};
      co_await e.read_extents(c, std::move(xs));
    }(*rig.engine, rig.core, dst.data(), id));
    rig.sim.run();
    rig.sim.rethrow_failures();
  }
  // All ten reads completed; the cache holds at most what the pool allows.
  EXPECT_LE(rig.cache.resident_chunks(), 4u);
  EXPECT_GT(rig.cache.resident_samples(), 0u);
}

TEST(IoEngine, MultiTargetBatchReadsInParallel) {
  EngineRig rig(IoEngineConfig{}, /*num_devices=*/4);
  std::vector<std::vector<std::byte>> dsts(4, std::vector<std::byte>(128_KiB));
  std::vector<ReadExtent> xs;
  for (std::uint16_t d = 0; d < 4; ++d) {
    xs.push_back(ReadExtent{d, 0, 128_KiB, dsts[d].data(), std::nullopt,
                            nullptr});
  }
  const auto t0 = rig.sim.now();
  rig.read(std::move(xs));
  const auto elapsed = rig.sim.now() - t0;
  // Four devices in parallel: roughly one device's 128 KiB time (~62us)
  // plus copy; far below 4x serial.
  EXPECT_LT(elapsed, 150_us);
  for (std::uint16_t d = 0; d < 4; ++d) {
    EXPECT_EQ(rig.devices[d]->bytes_read(), 128_KiB);
  }
}

TEST(IoEngine, QueueDepthPipelinesOneTarget) {
  EngineRig rig;
  constexpr std::size_t kN = 32;
  std::vector<std::vector<std::byte>> dsts(kN, std::vector<std::byte>(4096));
  std::vector<ReadExtent> xs;
  for (std::size_t i = 0; i < kN; ++i) {
    xs.push_back(ReadExtent{0, i * 4096, 4096, dsts[i].data(), std::nullopt,
                            nullptr});
  }
  const auto t0 = rig.sim.now();
  rig.read(std::move(xs));
  const auto elapsed = rig.sim.now() - t0;
  // Pipelined 4 KiB commands: ~1.8us occupancy each + one latency tail,
  // not 32 sequential 11.8us round trips (~380us).
  EXPECT_LT(elapsed, 120_us);
}

TEST(IoEngine, BuffersHandedOverWhenDstIsNull) {
  EngineRig rig;
  std::vector<dlfs::mem::DmaBuffer> buffers;
  rig.read({ReadExtent{0, 0, 600 * 1024, nullptr, std::nullopt, &buffers}});
  ASSERT_EQ(buffers.size(), 3u);  // ceil(600K / 256K)
  std::vector<std::byte> want(256_KiB);
  rig.devices[0]->store().read(0, want);
  EXPECT_EQ(std::memcmp(buffers[0].data(), want.data(), want.size()), 0);
}

TEST(IoEngine, OnBuffersReadyFiresBeforeBatchEnd) {
  // Two extents from one start_extents call on one device: awaiting op 0
  // returns with its buffers while op 1 is still in flight, so a consumer
  // can start on the first extent before the batch ends.
  EngineRig rig;
  struct Seen {
    std::size_t first_pieces = 0;
    bool second_in_flight = false;
    std::size_t second_pieces = 0;
  } seen;
  rig.sim.spawn([](IoEngine& e, CpuCore& c, Seen* seen) -> Task<void> {
    std::vector<ReadExtent> xs(2);
    xs[0] = ReadExtent{0, 0, 256_KiB, nullptr, std::nullopt, nullptr};
    xs[1] = ReadExtent{0, 1_MiB, 256_KiB, nullptr, std::nullopt, nullptr};
    auto ops = e.start_extents(std::move(xs));
    co_await e.await_op(c, ops[0]);
    seen->first_pieces = ops[0]->take_buffers().size();
    seen->second_in_flight = !ops[1]->finished();
    co_await e.await_op(c, ops[1]);
    seen->second_pieces = ops[1]->take_buffers().size();
  }(*rig.engine, rig.core, &seen));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(seen.first_pieces, 1u);
  EXPECT_TRUE(seen.second_in_flight);
  EXPECT_EQ(seen.second_pieces, 1u);
}

TEST(IoEngine, CacheInsertionSetsVBit) {
  EngineRig rig;
  std::vector<std::byte> dst(4096);
  rig.read({ReadExtent{0, 0, 4096, dst.data(), /*cache_sample_id=*/7,
                       nullptr}});
  EXPECT_TRUE(rig.cache.valid(7));
  auto views = rig.cache.pin(7);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].size(), 4096u);
  rig.cache.unpin(7);
}

TEST(IoEngine, CopyThreadsAccrueBusyTime) {
  IoEngineConfig cfg;
  cfg.copy_threads = 2;
  EngineRig rig(cfg);
  std::vector<std::byte> dst(1_MiB);
  rig.read({ReadExtent{0, 0, 1_MiB, dst.data(), std::nullopt, nullptr}});
  // 1 MiB at 8 GB/s ~= 131us of copy time across the pool.
  EXPECT_GT(rig.engine->copy_busy_ns(), 100_us);
}

TEST(IoEngine, InlineCopyChargesCallerCore) {
  IoEngineConfig cfg;
  cfg.copy_threads = 0;
  EngineRig rig(cfg);
  std::vector<std::byte> dst(1_MiB);
  const auto busy0 = rig.core.busy_ns();
  rig.read({ReadExtent{0, 0, 1_MiB, dst.data(), std::nullopt, nullptr}});
  EXPECT_GT(rig.core.busy_ns() - busy0, 100_us);
  EXPECT_EQ(rig.engine->copy_busy_ns(), 0u);
}

TEST(IoEngine, UnknownTargetThrows) {
  EngineRig rig;
  std::vector<std::byte> dst(512);
  auto p = rig.sim.spawn([](IoEngine& e, CpuCore& c,
                            std::byte* d) -> Task<void> {
    std::vector<ReadExtent> xs = {
        ReadExtent{9, 0, 512, d, std::nullopt, nullptr}};
    co_await e.read_extents(c, std::move(xs));
  }(*rig.engine, rig.core, dst.data()));
  rig.sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

TEST(IoEngine, EmptyBatchIsNoop) {
  EngineRig rig;
  rig.read({});
  EXPECT_EQ(rig.engine->requests_posted(), 0u);
}

// Parameterized sweep: every (sample size, chunk size) combination must
// deliver exact bytes and account the right request count.
class EngineSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(EngineSweep, ExactBytesAndRequestAccounting) {
  const auto [len, chunk] = GetParam();
  IoEngineConfig cfg;
  cfg.chunk_bytes = chunk;
  EngineRig rig(cfg, 1, /*pool_chunks=*/256);
  std::vector<std::byte> dst(len), want(len);
  rig.devices[0]->store().read(12345, want);
  rig.read({ReadExtent{0, 12345, len, dst.data(), std::nullopt, nullptr}});
  EXPECT_EQ(std::memcmp(dst.data(), want.data(), len), 0);
  EXPECT_EQ(rig.engine->requests_posted(), dlfs::ceil_div(len, chunk));
  EXPECT_EQ(rig.engine->bytes_copied(), len);
  EXPECT_EQ(rig.pool.used_chunks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EngineSweep,
    ::testing::Combine(::testing::Values(512u, 4096u, 65536u, 300000u,
                                         1048576u),
                       ::testing::Values(64_KiB, 256_KiB, 1_MiB)));

}  // namespace
