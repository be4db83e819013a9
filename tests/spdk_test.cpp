// Tests for the SPDK-like layer: local user-space driver (hugepage
// enforcement, kernel exclusivity) and the NVMe-over-Fabrics target /
// initiator path (correct data, timing composition, queue depth,
// pipelining, target CPU accounting).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>

#include "common/units.hpp"
#include "hw/net/fabric.hpp"
#include "hw/nvme/backing_store.hpp"
#include "hw/nvme/nvme_device.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/simulator.hpp"
#include "spdk/nvme_driver.hpp"
#include "spdk/nvmf.hpp"

namespace {

using dlfs::hw::DeviceOwner;
using dlfs::hw::Fabric;
using dlfs::hw::NvmeDevice;
using dlfs::hw::RamBackingStore;
using dlfs::hw::SyntheticBackingStore;
using dlfs::mem::HugePagePool;
using dlfs::spdk::IoOp;
using dlfs::spdk::IoQueue;
using dlfs::spdk::IoStatus;
using dlfs::spdk::NvmeDriver;
using dlfs::spdk::NvmfTarget;
using dlsim::SimTime;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

struct LocalRig {
  Simulator sim;
  HugePagePool pool{8_MiB, 256_KiB};
  std::unique_ptr<NvmeDevice> dev;
  NvmeDriver driver{sim, pool};

  LocalRig() {
    dev = std::make_unique<NvmeDevice>(
        sim, "nvme0", std::make_unique<SyntheticBackingStore>(1_GiB, 1));
    driver.attach(*dev);
  }
};

TEST(NvmeDriver, AttachClaimsDeviceFromKernel) {
  LocalRig rig;
  EXPECT_EQ(rig.dev->owner(), DeviceOwner::kUserSpace);
  EXPECT_THROW(rig.dev->claim(DeviceOwner::kKernel), std::logic_error);
  rig.driver.detach(*rig.dev);
  EXPECT_EQ(rig.dev->owner(), DeviceOwner::kUnbound);
}

TEST(NvmeDriver, AttachKernelOwnedDeviceFails) {
  Simulator sim;
  HugePagePool pool(1_MiB, 256_KiB);
  NvmeDevice dev(sim, "nvme0",
                 std::make_unique<SyntheticBackingStore>(1_GiB, 1));
  dev.claim(DeviceOwner::kKernel);
  NvmeDriver driver(sim, pool);
  EXPECT_THROW(driver.attach(dev), std::logic_error);
}

TEST(NvmeDriver, IoQueueRequiresAttachment) {
  Simulator sim;
  HugePagePool pool(1_MiB, 256_KiB);
  NvmeDevice dev(sim, "nvme0",
                 std::make_unique<SyntheticBackingStore>(1_GiB, 1));
  NvmeDriver driver(sim, pool);
  EXPECT_THROW((void)driver.create_io_queue(dev), std::logic_error);
}

TEST(NvmeDriver, RejectsNonHugepageBuffers) {
  LocalRig rig;
  auto q = rig.driver.create_io_queue(*rig.dev);
  std::vector<std::byte> heap_buf(4096);  // not from the pool
  EXPECT_EQ(q->submit(IoOp::kRead, 0, heap_buf, 1), IoStatus::kInvalidBuffer);
  auto dma = rig.pool.allocate();
  EXPECT_EQ(q->submit(IoOp::kRead, 0, dma.span().subspan(0, 4096), 1),
            IoStatus::kOk);
}

TEST(NvmeDriver, LocalReadTiming) {
  LocalRig rig;
  auto q = rig.driver.create_io_queue(*rig.dev);
  auto dma = rig.pool.allocate();
  SimTime done = 0;
  rig.sim.spawn([](Simulator& s, IoQueue& q, std::span<std::byte> b,
                   SimTime& out) -> Task<void> {
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 4096), 7), IoStatus::kOk);
    co_await q.wait_for_completion();
    auto c = q.poll();
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].user_tag, 7u);
    out = s.now();
  }(rig.sim, *q, dma.span(), done));
  rig.sim.run();
  EXPECT_EQ(done, 11800u);  // 1.8us occupancy + 10us media latency
}

// ---------------------------------------------------------------------------
// NVMe over Fabrics

struct FabricRig {
  Simulator sim;
  Fabric fabric{sim, 2};
  HugePagePool client_pool{8_MiB, 256_KiB};
  std::unique_ptr<NvmeDevice> dev;
  std::unique_ptr<NvmfTarget> target;

  explicit FabricRig(std::unique_ptr<dlfs::hw::BackingStore> store = nullptr) {
    if (!store) store = std::make_unique<SyntheticBackingStore>(1_GiB, 1);
    // Target on node 1, client on node 0.
    dev = std::make_unique<NvmeDevice>(sim, "nvme-remote", std::move(store));
    target = std::make_unique<NvmfTarget>(sim, fabric, 1, *dev);
  }
};

TEST(Nvmf, TargetClaimsDevice) {
  FabricRig rig;
  EXPECT_EQ(rig.dev->owner(), DeviceOwner::kUserSpace);
}

TEST(Nvmf, RemoteReadReturnsCorrectData) {
  auto store = std::make_unique<RamBackingStore>(1_MiB);
  std::vector<std::byte> expect(8192);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect[i] = static_cast<std::byte>((i * 13) & 0xff);
  }
  store->write(40960, expect);
  FabricRig rig(std::move(store));
  auto q = rig.target->connect(0, rig.client_pool);
  auto dma = rig.client_pool.allocate();
  rig.sim.spawn([](IoQueue& q, std::span<std::byte> b) -> Task<void> {
    EXPECT_EQ(q.submit(IoOp::kRead, 40960, b.subspan(0, 8192), 1),
              IoStatus::kOk);
    co_await q.wait_for_completion();
    auto c = q.poll();
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].status, IoStatus::kOk);
  }(*q, dma.span()));
  rig.sim.run();
  EXPECT_EQ(std::memcmp(dma.data(), expect.data(), expect.size()), 0);
}

TEST(Nvmf, RemoteReadTimingComposesNetworkAndDevice) {
  FabricRig rig;
  auto q = rig.target->connect(0, rig.client_pool);
  auto dma = rig.client_pool.allocate();
  SimTime done = 0;
  rig.sim.spawn([](Simulator& s, IoQueue& q, std::span<std::byte> b,
                   SimTime& out) -> Task<void> {
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 128_KiB), 1),
              IoStatus::kOk);
    co_await q.wait_for_completion();
    (void)q.poll();
    out = s.now();
  }(rig.sim, *q, dma.span(), done));
  rig.sim.run();
  // Lower bound: capsule (1.3us+) + target cpu + device (52.4us+10us)
  //            + data return (128KiB/6.8GBps ~= 19.3us + 1.3us).
  EXPECT_GT(done, 80_us);
  EXPECT_LT(done, 100_us);
}

TEST(Nvmf, QueueDepthEnforcedAtInitiator) {
  FabricRig rig;
  auto q = rig.target->connect(0, rig.client_pool, /*depth=*/2);
  auto dma = rig.client_pool.allocate();
  auto b = dma.span().subspan(0, 512);
  EXPECT_EQ(q->submit(IoOp::kRead, 0, b, 1), IoStatus::kOk);
  EXPECT_EQ(q->submit(IoOp::kRead, 512, b, 2), IoStatus::kOk);
  EXPECT_EQ(q->submit(IoOp::kRead, 1024, b, 3), IoStatus::kQueueFull);
  rig.sim.run();
  EXPECT_EQ(q->poll().size(), 2u);
}

TEST(Nvmf, RejectsUnregisteredClientBuffer) {
  FabricRig rig;
  auto q = rig.target->connect(0, rig.client_pool);
  std::vector<std::byte> heap(512);
  EXPECT_EQ(q->submit(IoOp::kRead, 0, heap, 1), IoStatus::kInvalidBuffer);
}

TEST(Nvmf, OutOfRangeRejectedAtSubmit) {
  FabricRig rig;
  auto q = rig.target->connect(0, rig.client_pool);
  auto dma = rig.client_pool.allocate();
  EXPECT_EQ(q->submit(IoOp::kRead, 2_GiB, dma.span().subspan(0, 512), 1),
            IoStatus::kOutOfRange);
}

TEST(Nvmf, PipeliningBeatsSerialReads) {
  // 16 reads of 128 KiB posted at once should take far less than 16
  // sequential round trips.
  FabricRig rig;
  auto q = rig.target->connect(0, rig.client_pool, 16);
  auto bufs = rig.client_pool.allocate_many(16);
  SimTime pipelined = 0;
  rig.sim.spawn([](Simulator& s, IoQueue& q,
                   std::vector<dlfs::mem::DmaBuffer>& bs,
                   SimTime& out) -> Task<void> {
    for (std::size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(q.submit(IoOp::kRead, i * 128_KiB,
                         bs[i].span().subspan(0, 128_KiB), i),
                IoStatus::kOk);
    }
    std::size_t got = 0;
    while (got < bs.size()) {
      co_await q.wait_for_completion();
      got += q.poll().size();
    }
    out = s.now();
  }(rig.sim, *q, bufs, pipelined));
  rig.sim.run();
  // Serial would be ~16 * 85us = 1.36ms. Pipelined: device pipe is the
  // bottleneck: 16 * 52.4us ~= 840us plus one latency tail.
  EXPECT_LT(pipelined, 950_us);
  EXPECT_GT(pipelined, 800_us);
}

TEST(Nvmf, TargetCpuAccrues) {
  FabricRig rig;
  auto q = rig.target->connect(0, rig.client_pool);
  auto dma = rig.client_pool.allocate();
  rig.sim.spawn([](IoQueue& q, std::span<std::byte> b) -> Task<void> {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(q.submit(IoOp::kRead, static_cast<std::uint64_t>(i) * 4096,
                         b.subspan(0, 4096), static_cast<std::uint64_t>(i)),
                IoStatus::kOk);
    }
    std::size_t got = 0;
    while (got < 8) {
      co_await q.wait_for_completion();
      got += q.poll().size();
    }
  }(*q, dma.span()));
  rig.sim.run();
  // 8 commands * (dispatch 600ns + harvest 300ns) = 7.2us of target CPU.
  EXPECT_EQ(rig.target->poller_core().busy_ns(), 8 * (600 + 300));
}

TEST(Nvmf, TwoClientsShareOneTarget) {
  Simulator sim;
  Fabric fabric(sim, 3);
  HugePagePool pool_a(4_MiB, 256_KiB), pool_b(4_MiB, 256_KiB);
  NvmeDevice dev(sim, "nvme-shared",
                 std::make_unique<SyntheticBackingStore>(1_GiB, 3));
  NvmfTarget target(sim, fabric, 2, dev);
  auto qa = target.connect(0, pool_a);
  auto qb = target.connect(1, pool_b);
  auto da = pool_a.allocate();
  auto db = pool_b.allocate();
  int completions = 0;
  auto reader = [](IoQueue& q, std::span<std::byte> b, int& n) -> Task<void> {
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 64_KiB), 1), IoStatus::kOk);
    co_await q.wait_for_completion();
    n += static_cast<int>(q.poll().size());
  };
  sim.spawn(reader(*qa, da.span(), completions));
  sim.spawn(reader(*qb, db.span(), completions));
  sim.run();
  EXPECT_EQ(completions, 2);
  // The two reads serialized on the shared device pipe.
  EXPECT_EQ(dev.bytes_read(), 2 * 64_KiB);
}

TEST(Nvmf, ManyClientsManyTargetsAllToAll) {
  // 4 clients x 4 targets, every client reads from every target
  // concurrently with verified bytes — the disaggregation mesh the
  // multi-node figures stand on.
  Simulator sim;
  constexpr std::uint32_t kN = 4;
  Fabric fabric(sim, 2 * kN);  // clients 0..3, targets 4..7
  std::vector<std::unique_ptr<HugePagePool>> pools;
  std::vector<std::unique_ptr<NvmeDevice>> devs;
  std::vector<std::unique_ptr<NvmfTarget>> targets;
  for (std::uint32_t t = 0; t < kN; ++t) {
    devs.push_back(std::make_unique<NvmeDevice>(
        sim, "nvme" + std::to_string(t),
        std::make_unique<SyntheticBackingStore>(1_GiB, 1000 + t)));
    targets.push_back(
        std::make_unique<NvmfTarget>(sim, fabric, kN + t, *devs[t]));
  }
  int verified = 0;
  std::vector<std::unique_ptr<IoQueue>> queues;
  std::vector<dlfs::mem::DmaBuffer> bufs;
  for (std::uint32_t c = 0; c < kN; ++c) {
    pools.push_back(std::make_unique<HugePagePool>(8_MiB, 256_KiB));
    for (std::uint32_t t = 0; t < kN; ++t) {
      queues.push_back(targets[t]->connect(c, *pools[c]));
      bufs.push_back(pools[c]->allocate());
      sim.spawn([](IoQueue& q, std::span<std::byte> buf, NvmeDevice& dev,
                   std::uint64_t off, int& ok) -> Task<void> {
        EXPECT_EQ(q.submit(IoOp::kRead, off, buf.subspan(0, 64_KiB), 1),
                  IoStatus::kOk);
        co_await q.wait_for_completion();
        auto done = q.poll();
        EXPECT_EQ(done.size(), 1u);
        std::vector<std::byte> want(64_KiB);
        dev.store().read(off, want);
        if (std::memcmp(buf.data(), want.data(), want.size()) == 0) ++ok;
      }(*queues.back(), bufs.back().span(), *devs[t],
        static_cast<std::uint64_t>(c) * 1_MiB, verified));
    }
  }
  sim.run();
  sim.rethrow_failures();
  EXPECT_EQ(verified, static_cast<int>(kN * kN));
  // Every device served all four clients.
  for (std::uint32_t t = 0; t < kN; ++t) {
    EXPECT_EQ(devs[t]->bytes_read(), kN * 64_KiB);
  }
}

TEST(Nvmf, DisconnectReapsConnection) {
  FabricRig rig;
  {
    auto q = rig.target->connect(0, rig.client_pool);
    rig.sim.run();
    EXPECT_EQ(rig.target->connection_count(), 1u);
  }
  // Destroying the initiator queue detaches the server-side connection;
  // once its service daemons observe the closed channel it is reaped —
  // repeated connects must not accumulate dead state on the target.
  rig.sim.run();
  EXPECT_EQ(rig.target->connection_count(), 0u);
  for (int i = 0; i < 3; ++i) {
    auto q = rig.target->connect(0, rig.client_pool);
    rig.sim.run();
  }
  rig.sim.run();
  EXPECT_EQ(rig.target->connection_count(), 0u);
}

TEST(Nvmf, CrashTimesOutReconnectFailsThenReprobeRevives) {
  FabricRig rig;
  dlfs::spdk::NvmfFaultParams fp;
  fp.command_timeout = 1_ms;
  fp.reconnect_backoff = 100_us;
  fp.reconnect_backoff_max = 500_us;
  fp.reconnect_attempts = 3;
  auto q = rig.target->connect(0, rig.client_pool, /*depth=*/16, fp);
  auto dma = rig.client_pool.allocate();
  rig.sim.spawn([](FabricRig& r, IoQueue& q,
                   std::span<std::byte> b) -> Task<void> {
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 4096), 1), IoStatus::kOk);
    r.target->crash();  // the capsule dies inside the dead target
    co_await q.wait_for_completion();
    auto done = q.poll();
    EXPECT_EQ(done.size(), 1u);
    if (!done.empty()) {
      EXPECT_EQ(done[0].user_tag, 1u);
      EXPECT_EQ(done[0].status, IoStatus::kTimeout);
    }
    // Let the reconnect budget burn out against the crashed target.
    co_await r.sim.delay(10_ms);
    EXPECT_FALSE(q.connected());
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 4096), 2),
              IoStatus::kConnectionLost);
    EXPECT_EQ(r.target->connection_count(), 0u);  // stale conn reaped
    const auto st = q.transport_stats();
    EXPECT_EQ(st.timeouts, 1u);
    EXPECT_EQ(st.connections_lost, 1u);
    EXPECT_EQ(st.reconnects, 0u);
    // Explicit revalidation once the target is back: the queue reconnects
    // and serves reads again.
    r.target->recover();
    const bool ok = co_await q.reprobe();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(q.connected());
    EXPECT_EQ(r.target->connection_count(), 1u);
    EXPECT_EQ(q.transport_stats().reconnects, 1u);
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 4096), 3), IoStatus::kOk);
    co_await q.wait_for_completion();
    auto revived = q.poll();
    EXPECT_EQ(revived.size(), 1u);
    if (!revived.empty()) {
      EXPECT_EQ(revived[0].status, IoStatus::kOk);
    }
  }(rig, *q, dma.span()));
  rig.sim.run();
  rig.sim.rethrow_failures();
}

TEST(Nvmf, ParkedCommandsReplayOnceAndCompleteOnce) {
  // The replay invariant: even when several reconnect attempts fail
  // before one succeeds, each command parked while reconnecting is
  // replayed exactly once and completes exactly once.
  FabricRig rig;
  dlfs::spdk::NvmfFaultParams fp;
  // Long command timeout relative to the reconnect dance: the parked
  // commands' deadlines must not expire while the link is down, or the
  // parked set drains through timeouts instead of replays.
  fp.command_timeout = 10_ms;
  fp.reconnect_backoff = 500_us;
  fp.reconnect_backoff_max = 1_ms;
  fp.reconnect_attempts = 6;
  auto q = rig.target->connect(0, rig.client_pool, /*depth=*/16, fp);
  auto dma = rig.client_pool.allocate();
  rig.target->crash();
  // Heal only after the first couple of reconnect attempts (at roughly
  // timeout + 0.5 ms, + 1.5 ms, ...) have already failed.
  rig.target->recover_at(13_ms);
  rig.sim.spawn([](FabricRig&, IoQueue& q,
                   std::span<std::byte> b) -> Task<void> {
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 512), 1), IoStatus::kOk);
    co_await q.wait_for_completion();  // timeout kicks off the reconnect
    auto done = q.poll();
    EXPECT_EQ(done.size(), 1u);
    if (!done.empty()) {
      EXPECT_EQ(done[0].status, IoStatus::kTimeout);
    }
    EXPECT_FALSE(q.connected());
    // Two commands park while the queue reconnects.
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 512), 2), IoStatus::kOk);
    EXPECT_EQ(q.submit(IoOp::kRead, 4096, b.subspan(512, 512), 3),
              IoStatus::kOk);
    std::map<std::uint64_t, int> completions;
    std::size_t got = 0;
    while (got < 2) {
      co_await q.wait_for_completion();
      for (const auto& c : q.poll()) {
        EXPECT_EQ(c.status, IoStatus::kOk);
        ++completions[c.user_tag];
        ++got;
      }
    }
    EXPECT_TRUE(q.connected());
    // One replay per parked command per successful reconnect — the failed
    // attempts in between must not multiply the replays.
    EXPECT_EQ(q.transport_stats().replays, 2u);
    EXPECT_GE(q.transport_stats().reconnects, 1u);
    EXPECT_EQ(completions[2], 1);
    EXPECT_EQ(completions[3], 1);
    // A healthy follow-up completes exactly once too — no stragglers from
    // the reconnect window surface later as duplicates.
    EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 512), 5), IoStatus::kOk);
    co_await q.wait_for_completion();
    auto last = q.poll();
    EXPECT_EQ(last.size(), 1u);
    if (!last.empty()) {
      EXPECT_EQ(last[0].user_tag, 5u);
      EXPECT_EQ(last[0].status, IoStatus::kOk);
    }
    EXPECT_TRUE(q.poll().empty());
  }(rig, *q, dma.span()));
  rig.sim.run();
  rig.sim.rethrow_failures();
}

TEST(Nvmf, ScheduledCrashAndRecoverFlipAccepting) {
  FabricRig rig;
  rig.target->crash_at(1_ms);
  rig.target->recover_at(2_ms);
  EXPECT_TRUE(rig.target->accepting());
  rig.sim.run_until(1_ms + 1);
  EXPECT_FALSE(rig.target->accepting());
  rig.sim.run_until(2_ms + 1);
  EXPECT_TRUE(rig.target->accepting());
}

TEST(Nvmf, DestroyingQueueStopsServerLoops) {
  FabricRig rig;
  {
    auto q = rig.target->connect(0, rig.client_pool);
    auto dma = rig.client_pool.allocate();
    rig.sim.spawn([](IoQueue& q, std::span<std::byte> b) -> Task<void> {
      EXPECT_EQ(q.submit(IoOp::kRead, 0, b.subspan(0, 512), 1), IoStatus::kOk);
      co_await q.wait_for_completion();
      (void)q.poll();
    }(*q, dma.span()));
    rig.sim.run();
  }
  // After queue destruction the daemons wake, observe the closed channel,
  // and exit; the simulation must drain with no live user processes.
  rig.sim.run();
  EXPECT_EQ(rig.sim.live_processes(), 0u);
}

}  // namespace
