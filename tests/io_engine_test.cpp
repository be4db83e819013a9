// Direct unit tests for the DLFS I/O engine: request splitting at chunk
// granularity, huge-page pool backpressure, multi-target batches,
// queue-depth pipelining, SCQ copy threads, cache interaction, and
// parameterized sweeps over (sample size x chunk size).

#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <tuple>

#include "common/units.hpp"
#include "dlfs/io_engine.hpp"
#include "hw/nvme/backing_store.hpp"
#include "hw/nvme/nvme_device.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/simulator.hpp"
#include "spdk/nvme_driver.hpp"

namespace {

using dlfs::core::CopyJob;
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

/// One read the rig performs: a device extent, the buffer its bytes are
/// copied to, and optionally the id they are then cached under.
struct RigRead {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::byte* dst = nullptr;
  std::optional<std::size_t> cache_sample_id{};
};

struct EngineRig {
  Simulator sim;
  IoEngineConfig cfg;
  HugePagePool pool;
  SampleCache cache;
  std::vector<std::unique_ptr<NvmeDevice>> devices;
  std::unique_ptr<dlfs::spdk::NvmeDriver> driver;
  std::unique_ptr<IoEngine> engine;
  CpuCore core{sim, "io"};

  explicit EngineRig(IoEngineConfig config = IoEngineConfig{},
                     std::size_t num_devices = 1,
                     std::size_t pool_chunks = 64)
      : cfg(config),
        pool(pool_chunks * cfg.chunk_bytes, cfg.chunk_bytes),
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

  /// Reads the way DLFS consumes extents: starts them all, then awaits
  /// each in order on `core`, takes its buffers and queues one copy of
  /// them (inline without copy threads), which lands before the next
  /// await. Rethrows the first extent error.
  Task<void> read_copy(std::vector<RigRead> reads) {
    std::vector<ReadExtent> xs;
    for (const RigRead& r : reads) {
      xs.push_back(ReadExtent{r.nid, r.offset, r.len});
    }
    const auto ops = engine->start_extents(std::move(xs));
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      co_await engine->await_op(core, ops[i]);
      if (ops[i]->error()) {
        if (!first_error) first_error = ops[i]->error();
        continue;
      }
      dlsim::CountdownLatch copied(sim, 0);
      CopyJob job;
      job.src = ops[i]->take_buffers();
      job.dst = reads[i].dst;
      job.cache_sample_id = reads[i].cache_sample_id;
      job.origin = &core;
      if (cfg.copy_threads == 0) {
        co_await engine->run_copy_inline(core, std::move(job));
      } else {
        job.latch = &copied;
        copied.add(1);
        co_await engine->enqueue_copy(std::move(job));
      }
      co_await copied.wait();
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  void read(std::vector<RigRead> reads) {
    sim.spawn(read_copy(std::move(reads)));
    sim.run();
    sim.rethrow_failures();
  }
};

TEST(IoEngine, SingleExtentCopiesExactBytes) {
  EngineRig rig;
  std::vector<std::byte> dst(10000), want(10000);
  rig.devices[0]->store().read(4096, want);
  rig.read({RigRead{0, 4096, 10000, dst.data()}});
  EXPECT_EQ(std::memcmp(dst.data(), want.data(), want.size()), 0);
}

TEST(IoEngine, LargeExtentSplitsIntoChunkRequests) {
  EngineRig rig;
  std::vector<std::byte> dst(1_MiB);
  rig.read({RigRead{0, 0, 1_MiB, dst.data()}});
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
  std::vector<RigRead> xs;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    xs.push_back(RigRead{0, i * 64_KiB, 64_KiB, dsts[i].data()});
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
    rig.read({RigRead{0, id * 4096, 4096, dst.data(), id}});
  }
  // All ten reads completed; the cache holds at most what the pool allows.
  EXPECT_LE(rig.cache.resident_chunks(), 4u);
  EXPECT_GT(rig.cache.resident_samples(), 0u);
}

TEST(IoEngine, MultiTargetBatchReadsInParallel) {
  EngineRig rig(IoEngineConfig{}, /*num_devices=*/4);
  std::vector<std::vector<std::byte>> dsts(4, std::vector<std::byte>(128_KiB));
  std::vector<RigRead> xs;
  for (std::uint16_t d = 0; d < 4; ++d) {
    xs.push_back(RigRead{d, 0, 128_KiB, dsts[d].data()});
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
  std::vector<RigRead> xs;
  for (std::size_t i = 0; i < kN; ++i) {
    xs.push_back(RigRead{0, i * 4096, 4096, dsts[i].data()});
  }
  const auto t0 = rig.sim.now();
  rig.read(std::move(xs));
  const auto elapsed = rig.sim.now() - t0;
  // Pipelined 4 KiB commands: ~1.8us occupancy each + one latency tail,
  // not 32 sequential 11.8us round trips (~380us).
  EXPECT_LT(elapsed, 120_us);
}

TEST(IoEngine, TakeBuffersHandsOverChunkSplitPieces) {
  EngineRig rig;
  std::vector<dlfs::mem::DmaBuffer> buffers;
  rig.sim.spawn([](IoEngine& e, CpuCore& c,
                   std::vector<dlfs::mem::DmaBuffer>* out) -> Task<void> {
    auto op = e.start_extent(ReadExtent{0, 0, 600 * 1024});
    co_await e.await_op(c, op);
    *out = op->take_buffers();
  }(*rig.engine, rig.core, &buffers));
  rig.sim.run();
  rig.sim.rethrow_failures();
  ASSERT_EQ(buffers.size(), 3u);  // ceil(600K / 256K)
  std::vector<std::byte> want(256_KiB);
  rig.devices[0]->store().read(0, want);
  EXPECT_EQ(std::memcmp(buffers[0].data(), want.data(), want.size()), 0);
}

TEST(IoEngine, LandedPiecesAreTrimmedToTheirBytes) {
  // A 2.5-chunk extent lands as one chunk, one chunk and half a chunk:
  // each buffer holds exactly its piece's bytes of its own pool chunk.
  EngineRig rig;
  const std::uint64_t chunk = rig.cfg.chunk_bytes;
  std::vector<dlfs::mem::DmaBuffer> buffers;
  std::size_t used = 0;
  rig.sim.spawn([](EngineRig& r, std::vector<dlfs::mem::DmaBuffer>* out,
                   std::size_t* used) -> Task<void> {
    const auto len = static_cast<std::uint32_t>(r.cfg.chunk_bytes * 5 / 2);
    auto op = r.engine->start_extent(ReadExtent{0, 0, len});
    co_await r.engine->await_op(r.core, op);
    *out = op->take_buffers();
    *used = r.pool.used_chunks();
  }(rig, &buffers, &used));
  rig.sim.run();
  rig.sim.rethrow_failures();
  ASSERT_EQ(buffers.size(), 3u);
  EXPECT_EQ(buffers[0].size(), chunk);
  EXPECT_EQ(buffers[1].size(), chunk);
  EXPECT_EQ(buffers[2].size(), chunk / 2);
  for (const dlfs::mem::DmaBuffer& b : buffers) EXPECT_FALSE(b.shared());
  EXPECT_EQ(used, 3u);
  EXPECT_EQ(rig.pool.used_chunks(), 3u);
  std::vector<std::byte> want(chunk / 2);
  rig.devices[0]->store().read(2 * chunk, want);
  EXPECT_EQ(std::memcmp(buffers[2].data(), want.data(), want.size()), 0);
}

TEST(IoEngine, AwaitOpReturnsBeforeLaterExtentLands) {
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
    xs[0] = ReadExtent{0, 0, 256_KiB};
    xs[1] = ReadExtent{0, 1_MiB, 256_KiB};
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

TEST(IoEngine, LandedExtentsKeepOneChunkAcrossRetries) {
  // Four extents land in slices of one chunk: no piece takes a chunk of
  // its own, not even a retry after a media error.
  EngineRig rig;
  rig.devices[0]->inject_faults(0.5, 3);
  rig.sim.spawn([](EngineRig& r) -> Task<void> {
    const dlfs::mem::DmaBuffer chunk = r.pool.allocate();
    std::vector<ReadExtent> xs;
    std::vector<dlfs::mem::DmaBuffer> land;
    for (std::uint64_t i = 0; i < 4; ++i) {
      xs.push_back(ReadExtent{0, i * 1_MiB, 4096});
      land.push_back(chunk.slice(i * 4096, 4096));
    }
    const auto ops = r.engine->start_extents(std::move(xs), std::move(land));
    std::vector<std::byte> want(4096);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      co_await r.engine->await_op(r.core, ops[i]);
      EXPECT_FALSE(ops[i]->error());
      const std::vector<dlfs::mem::DmaBuffer>& got = ops[i]->buffers();
      EXPECT_EQ(got.size(), 1u);
      if (got.size() != 1) continue;
      EXPECT_EQ(got[0].data(), chunk.data() + i * 4096);
      r.devices[0]->store().read(i * 1_MiB, want);
      EXPECT_EQ(std::memcmp(got[0].data(), want.data(), 4096), 0);
    }
  }(rig));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_GT(rig.engine->retries(), 0u);
  EXPECT_EQ(rig.pool.peak_used_chunks(), 1u);
  EXPECT_EQ(rig.pool.used_chunks(), 0u);
}

TEST(IoEngine, TakeChunkPumpsUntilAReadFreesOne) {
  // Both chunks of the pool are out: one on a landed extent its consumer
  // holds, one on a read in flight whose op nobody holds any more.
  // take_chunk pumps until that read lands and drops its chunk.
  EngineRig rig(IoEngineConfig{}, 1, /*pool_chunks=*/2);
  rig.sim.spawn([](EngineRig& r) -> Task<void> {
    std::vector<ReadExtent> xs(2);
    xs[0] = ReadExtent{0, 0, 256_KiB};
    xs[1] = ReadExtent{0, 1_MiB, 256_KiB};
    auto ops = r.engine->start_extents(std::move(xs));
    co_await r.engine->await_op(r.core, ops[0]);
    const std::weak_ptr<dlfs::core::ExtentOp> second = ops[1];
    ops.pop_back();
    EXPECT_FALSE(second.expired());  // in flight: its piece holds it
    EXPECT_EQ(r.pool.free_chunks(), 0u);
    const dlfs::mem::DmaBuffer chunk = co_await r.engine->take_chunk(r.core);
    EXPECT_TRUE(chunk.valid());
    EXPECT_TRUE(second.expired());
    EXPECT_EQ(r.pool.used_chunks(), 2u);
  }(rig));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(rig.engine->completions_harvested(), 2u);
}

TEST(IoEngine, CacheInsertionSetsVBit) {
  EngineRig rig;
  std::vector<std::byte> dst(4096);
  rig.read({RigRead{0, 0, 4096, dst.data(), /*cache_sample_id=*/7}});
  EXPECT_TRUE(rig.cache.valid(7));
  const std::vector<dlfs::mem::DmaBuffer> pin = rig.cache.pin(7);
  ASSERT_EQ(pin.size(), 1u);
  EXPECT_EQ(pin[0].size(), 4096u);
  EXPECT_TRUE(rig.cache.pin(8).empty());  // not resident
}

TEST(IoEngine, CopyThreadsAccrueBusyTime) {
  IoEngineConfig cfg;
  cfg.copy_threads = 2;
  EngineRig rig(cfg);
  std::vector<std::byte> dst(1_MiB);
  rig.read({RigRead{0, 0, 1_MiB, dst.data()}});
  // 1 MiB at 8 GB/s ~= 131us of copy time across the pool.
  EXPECT_GT(rig.engine->copy_busy_ns(), 100_us);
}

TEST(IoEngine, InlineCopyChargesCallerCore) {
  IoEngineConfig cfg;
  cfg.copy_threads = 0;
  EngineRig rig(cfg);
  std::vector<std::byte> dst(1_MiB);
  const auto busy0 = rig.core.busy_ns();
  rig.read({RigRead{0, 0, 1_MiB, dst.data()}});
  EXPECT_GT(rig.core.busy_ns() - busy0, 100_us);
  EXPECT_EQ(rig.engine->copy_busy_ns(), 0u);
}

TEST(IoEngine, UnknownTargetThrows) {
  EngineRig rig;
  std::vector<std::byte> dst(512);
  auto p = rig.sim.spawn(rig.read_copy({RigRead{9, 0, 512, dst.data()}}));
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
  rig.read({RigRead{0, 12345, len, dst.data()}});
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
