// Failure-injection tests: transient media errors at the device, retry
// behaviour in the DLFS engine (local and over NVMe-oF), kernel-path
// retries in Ext4, and unrecoverable-error surfacing.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "hw/nvme/nvme_device.hpp"
#include "osfs/ext4.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::hw::IoOp;
using dlfs::hw::IoStatus;
using dlfs::hw::NvmeDevice;
using dlfs::hw::SyntheticBackingStore;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

TEST(FaultInjection, DeviceCompletesWithMediaError) {
  Simulator sim;
  NvmeDevice dev(sim, "nvme0",
                 std::make_unique<SyntheticBackingStore>(1_GiB, 1));
  dev.inject_faults(1.0);  // every command fails
  auto qp = dev.create_qpair();
  std::vector<std::byte> buf(4096);
  EXPECT_EQ(qp->submit(IoOp::kRead, 0, buf, 1), IoStatus::kOk);
  sim.run_until(1_ms);
  auto done = qp->poll();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, IoStatus::kMediaError);
  EXPECT_EQ(dev.faults_injected(), 1u);
  EXPECT_EQ(dev.bytes_read(), 0u);  // no data moved on error
}

TEST(FaultInjection, FaultRateIsDeterministicAndRoughlyCalibrated) {
  auto count_faults = [] {
    Simulator sim;
    NvmeDevice dev(sim, "nvme0",
                   std::make_unique<SyntheticBackingStore>(1_GiB, 1));
    dev.inject_faults(0.25, /*seed=*/7);
    auto qp = dev.create_qpair(128);
    std::vector<std::byte> buf(512);
    for (int i = 0; i < 128; ++i) {
      (void)qp->submit(IoOp::kRead, 0, buf, static_cast<std::uint64_t>(i));
    }
    sim.run_until(10_ms);
    (void)qp->poll();
    return dev.faults_injected();
  };
  const auto a = count_faults();
  EXPECT_EQ(a, count_faults());  // deterministic
  EXPECT_GT(a, 16u);             // ~32 expected of 128
  EXPECT_LT(a, 48u);
}

TEST(FaultInjection, DisableStopsFaults) {
  Simulator sim;
  NvmeDevice dev(sim, "nvme0",
                 std::make_unique<SyntheticBackingStore>(1_GiB, 1));
  dev.inject_faults(1.0);
  dev.inject_faults(0.0);
  auto qp = dev.create_qpair();
  std::vector<std::byte> buf(512);
  EXPECT_EQ(qp->submit(IoOp::kRead, 0, buf, 1), IoStatus::kOk);
  sim.run_until(1_ms);
  EXPECT_EQ(qp->poll()[0].status, IoStatus::kOk);
}

// ---------------------------------------------------------------------------
// DLFS engine retries

struct FleetRig {
  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  explicit FleetRig(std::uint32_t nodes)
      : cluster(sim, nodes, cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(nodes * 128ull, 4096)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, dlfs::core::DlfsConfig{}) {
    fleet.mount();
  }

  static dlfs::cluster::NodeConfig cfg() {
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = false;
    nc.device_capacity = 256_MiB;
    return nc;
  }
};

TEST(FaultInjection, DlfsRetriesTransientFaultsAndSucceeds) {
  FleetRig rig(1);
  rig.cluster.node(0).device().inject_faults(0.3, 11);
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  bool epoch_ok = false;
  rig.sim.spawn([](dlfs::core::DlfsInstance& inst, bool& ok) -> Task<void> {
    std::vector<std::byte> arena(64_KiB);
    std::size_t n = 0;
    for (;;) {
      auto b = co_await inst.bread(16, arena);
      if (b.end_of_epoch) break;
      n += b.samples.size();
    }
    ok = n == 128;
  }(inst, epoch_ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(epoch_ok);
  EXPECT_GT(inst.engine().retries(), 0u);
  EXPECT_GT(rig.cluster.node(0).device().faults_injected(), 0u);
}

TEST(FaultInjection, DlfsRemoteRetriesOverFabric) {
  FleetRig rig(2);
  rig.cluster.node(0).device().inject_faults(0.3, 5);
  rig.cluster.node(1).device().inject_faults(0.3, 6);
  for (std::uint32_t c = 0; c < 2; ++c) rig.fleet.instance(c).sequence(1);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    rig.sim.spawn(
        [](dlfs::core::DlfsInstance& inst, std::size_t& n) -> Task<void> {
          std::vector<std::byte> arena(64_KiB);
          for (;;) {
            auto b = co_await inst.bread(16, arena);
            if (b.end_of_epoch) break;
            n += b.samples.size();
          }
        }(rig.fleet.instance(c), total));
  }
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_EQ(total, 256u);
}

TEST(FaultInjection, PermanentFaultSurfacesAsIoError) {
  FleetRig rig(1);
  rig.cluster.node(0).device().inject_faults(1.0);  // nothing ever succeeds
  auto& inst = rig.fleet.instance(0);
  inst.sequence(1);
  auto p = rig.sim.spawn(
      [](dlfs::core::DlfsInstance& inst) -> Task<void> {
        std::vector<std::byte> arena(64_KiB);
        (void)co_await inst.bread(16, arena);
      }(inst),
      "doomed-bread");
  rig.sim.run(/*allow_blocked=*/true);
  ASSERT_TRUE(p.failed());
  try {
    p.rethrow();
    FAIL() << "expected IoError";
  } catch (const dlfs::core::IoError& e) {
    EXPECT_EQ(e.nid, 0);
  }
}

TEST(FaultInjection, RetriesReturnCorrectData) {
  // Even with a high fault rate, retried reads must deliver exact bytes.
  FleetRig rig(1);
  rig.cluster.node(0).device().inject_faults(0.4, 13);
  auto& inst = rig.fleet.instance(0);
  bool ok = false;
  rig.sim.spawn([](FleetRig& r, dlfs::core::DlfsInstance& inst,
                   bool& ok) -> Task<void> {
    auto h = co_await inst.open_id(17);
    std::vector<std::byte> buf(h.entry->len()), want(h.entry->len());
    co_await inst.read(h, buf);
    r.ds.fill_content(17, 0, want);
    ok = buf == want;
  }(rig, inst, ok));
  rig.sim.run();
  rig.sim.rethrow_failures();
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// Storage-node fault domain: NVMe-oF timeouts, reconnect, degraded epochs

// One pure client (node 2) reading from two storage nodes (0 and 1) over
// NVMe-oF. The fault parameters are shrunken so a crashed target is
// discovered — command timeout, then the whole reconnect budget — within
// a few simulated milliseconds instead of the production defaults.
struct RemoteFleetRig {
  static constexpr std::size_t kSamples = 2048;

  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  RemoteFleetRig()
      : cluster(sim, 3, FleetRig::cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, cfg(), /*client_nodes=*/{2},
              /*storage_nodes=*/{0, 1}) {
    fleet.mount();
  }

  static dlfs::core::DlfsConfig cfg() {
    dlfs::core::DlfsConfig c;
    c.fault.nvmf.command_timeout = 5_ms;
    c.fault.nvmf.reconnect_backoff = 200_us;
    c.fault.nvmf.reconnect_backoff_max = 1_ms;
    c.fault.nvmf.reconnect_attempts = 4;
    return c;
  }
};

struct EpochTally {
  std::size_t served = 0;
  std::uint64_t skipped = 0;
};

Task<void> run_epoch(const dlfs::dataset::Dataset& ds,
                     dlfs::core::DlfsInstance& inst, EpochTally& t) {
  std::vector<std::byte> arena(64_KiB);
  std::vector<std::byte> want;
  for (;;) {
    auto b = co_await inst.bread(16, arena);
    if (b.end_of_epoch) break;
    // Skip accounting is per sample, exactly once: a batch that asked for
    // 16 samples can never report more than 16 outcomes in total.
    EXPECT_LE(b.samples.size() + b.samples_skipped, 16u);
    t.served += b.samples.size();
    t.skipped += b.samples_skipped;
    // Skipped samples take no arena space: the delivered ones pack
    // densely from offset 0, each holding its own dataset bytes.
    std::uint64_t packed = 0;
    for (const auto& s : b.samples) {
      EXPECT_EQ(s.offset_in_arena, packed) << "sample " << s.sample_id;
      packed += s.len;
      want.resize(s.len);
      ds.fill_content(s.sample_id, 0, want);
      EXPECT_EQ(
          std::memcmp(arena.data() + s.offset_in_arena, want.data(), s.len), 0)
          << "sample " << s.sample_id;
    }
    EXPECT_EQ(b.bytes, packed);
  }
}

TEST(FaultInjection, TargetCrashMidEpochCompletesDegraded) {
  RemoteFleetRig rig;
  auto& inst = rig.fleet.instance(0);
  ASSERT_NE(rig.fleet.target(0), nullptr);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  inst.sequence(1);
  EpochTally t;
  rig.sim.spawn(run_epoch(rig.ds, inst, t), "degraded-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  // The epoch completes over the surviving node; node-0 samples that were
  // not yet served (or cached) are reported as skipped, not hung on.
  EXPECT_GT(t.served, 0u);
  EXPECT_GT(t.skipped, 0u);
  EXPECT_EQ(t.served + t.skipped, RemoteFleetRig::kSamples);
  EXPECT_EQ(inst.stats().samples_skipped, t.skipped);
  const auto ts = inst.engine().transport_stats();
  EXPECT_GT(ts.timeouts, 0u);
  EXPECT_GE(ts.connections_lost, 1u);
  EXPECT_EQ(inst.engine().nodes_down(), 1u);
  EXPECT_FALSE(rig.fleet.directory().node_available(0));
  EXPECT_TRUE(rig.fleet.directory().node_available(1));
}

TEST(FaultInjection, TargetCrashThenRecoverServesFullEpochAfterReconnect) {
  RemoteFleetRig rig;
  auto& inst = rig.fleet.instance(0);
  const dlsim::SimTime t0 = rig.sim.now();
  rig.fleet.target(0)->crash_at(t0 + 500_us);
  rig.fleet.target(0)->recover_at(t0 + 50_ms);
  EpochTally e1, e2;
  rig.sim.spawn(
      [](RemoteFleetRig& r, dlfs::core::DlfsInstance& inst, EpochTally& e1,
         EpochTally& e2, dlsim::SimTime resume_at) -> Task<void> {
        inst.sequence(1);
        std::vector<std::byte> arena(64_KiB);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          e1.served += b.samples.size();
          e1.skipped += b.samples_skipped;
        }
        if (r.sim.now() < resume_at) {
          co_await r.sim.delay(resume_at - r.sim.now());
        }
        // Epoch boundary: sequence() schedules a revalidation of the down
        // node, and the recovered target accepts the reconnect.
        inst.sequence(2);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          e2.served += b.samples.size();
          e2.skipped += b.samples_skipped;
        }
      }(rig, inst, e1, e2, t0 + 51_ms),
      "crash-recover-epochs");
  rig.sim.run_watchdog(t0 + 2_sec);
  rig.sim.rethrow_failures();
  EXPECT_GT(e1.skipped, 0u);
  EXPECT_EQ(e1.served + e1.skipped, RemoteFleetRig::kSamples);
  EXPECT_EQ(e2.served, RemoteFleetRig::kSamples);
  EXPECT_EQ(e2.skipped, 0u);
  EXPECT_GE(inst.engine().transport_stats().reconnects, 1u);
  EXPECT_EQ(inst.engine().nodes_down(), 0u);
  EXPECT_TRUE(rig.fleet.directory().node_available(0));
}

TEST(FaultInjection, PermanentPartitionSurfacesTypedErrorWithoutHanging) {
  RemoteFleetRig rig;
  auto& inst = rig.fleet.instance(0);
  rig.cluster.fabric().fail_link(2, 0);  // client <-> storage node 0
  std::uint32_t victim = 0;
  for (std::uint32_t id = 0; id < rig.fleet.layout().size(); ++id) {
    if (rig.fleet.layout()[id].nid == 0) {
      victim = id;
      break;
    }
  }
  auto p = rig.sim.spawn(
      [](dlfs::core::DlfsInstance& inst, std::uint32_t id) -> Task<void> {
        auto h = co_await inst.open_id(id);
        std::vector<std::byte> buf(h.entry->len());
        co_await inst.read(h, buf);
      }(inst, victim),
      "partitioned-read");
  // The watchdog (not ctest's kill) is what bounds a broken recovery
  // path here: the read must fail with a typed error, never block.
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  ASSERT_TRUE(p.failed());
  try {
    p.rethrow();
    FAIL() << "expected IoError";
  } catch (const dlfs::core::IoError& e) {
    EXPECT_EQ(e.nid, 0);
    EXPECT_NE(e.kind, dlfs::core::IoErrorKind::kMedia);
  }
  EXPECT_FALSE(inst.engine().node_available(0));
  EXPECT_GT(rig.cluster.fabric().messages_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Replica-aware degraded reads: k-way replication, failover routing,
// mid-epoch reprobe

// RemoteFleetRig with a caller-supplied config (replication factor,
// batching mode, reprobe cadence).
struct ReplicaRig {
  static constexpr std::size_t kSamples = 2048;

  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  explicit ReplicaRig(const dlfs::core::DlfsConfig& c)
      : cluster(sim, 3, FleetRig::cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, c, /*client_nodes=*/{2},
              /*storage_nodes=*/{0, 1}) {
    fleet.mount();
  }

  static dlfs::core::DlfsConfig cfg(std::uint32_t replication,
                                    dlfs::core::BatchingMode mode) {
    dlfs::core::DlfsConfig c = RemoteFleetRig::cfg();
    c.fault.replication = dlfs::core::ReplicationConfig(replication);
    c.batching = mode;
    return c;
  }
};

// Full delivery record of one epoch: sample ids and arena offsets in
// delivery order, the skip total, and whether every delivered sample's
// bytes matched the canonical dataset content.
struct DeliveryLog {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> offsets;
  std::uint64_t skipped = 0;
  bool content_ok = true;
};

Task<void> run_epoch_logged(const dlfs::dataset::Dataset& ds,
                            dlfs::core::DlfsInstance& inst,
                            DeliveryLog& log) {
  std::vector<std::byte> arena(64_KiB);
  std::vector<std::byte> want;
  for (;;) {
    auto b = co_await inst.bread(16, arena);
    if (b.end_of_epoch) break;
    EXPECT_LE(b.samples.size() + b.samples_skipped, 16u);
    for (const auto& s : b.samples) {
      log.order.push_back(s.sample_id);
      log.offsets.push_back(s.offset_in_arena);
      want.resize(s.len);
      ds.fill_content(s.sample_id, 0, want);
      if (std::memcmp(arena.data() + s.offset_in_arena, want.data(), s.len) !=
          0) {
        log.content_ok = false;
      }
    }
    log.skipped += b.samples_skipped;
  }
}

TEST(FaultInjection, ReplicatedChunkEpochSurvivesCrashByteIdentical) {
  // The issue's acceptance bar: with replication=2, a single mid-epoch
  // target crash yields zero skipped samples and batches byte-identical
  // to the no-fault run (same ids, same arena offsets, same contents).
  DeliveryLog good;
  {
    ReplicaRig healthy(
        ReplicaRig::cfg(2, dlfs::core::BatchingMode::kChunkLevel));
    auto& inst = healthy.fleet.instance(0);
    inst.sequence(1);
    healthy.sim.spawn(run_epoch_logged(healthy.ds, inst, good), "healthy-epoch");
    healthy.sim.run();
    healthy.sim.rethrow_failures();
    EXPECT_EQ(good.order.size(), ReplicaRig::kSamples);
    EXPECT_EQ(good.skipped, 0u);
    EXPECT_TRUE(good.content_ok);
  }
  ReplicaRig rig(ReplicaRig::cfg(2, dlfs::core::BatchingMode::kChunkLevel));
  auto& inst = rig.fleet.instance(0);
  ASSERT_NE(rig.fleet.target(0), nullptr);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  inst.sequence(1);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, inst, log), "replicated-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 2_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_EQ(inst.stats().samples_skipped, 0u);
  EXPECT_TRUE(log.content_ok);
  EXPECT_EQ(log.order, good.order);
  EXPECT_EQ(log.offsets, good.offsets);
  // The failure was real: the node went down and reads failed over.
  EXPECT_EQ(inst.engine().nodes_down(), 1u);
  EXPECT_GT(inst.engine().transport_stats().timeouts, 0u);
}

TEST(FaultInjection, ReplicatedSampleLevelCrashServesFullEpoch) {
  ReplicaRig rig(ReplicaRig::cfg(2, dlfs::core::BatchingMode::kSampleLevel));
  auto& inst = rig.fleet.instance(0);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  inst.sequence(1);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, inst, log), "sample-level-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 2_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(log.order.size(), ReplicaRig::kSamples);
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_TRUE(log.content_ok);
  EXPECT_EQ(inst.engine().nodes_down(), 1u);
}

TEST(FaultInjection, ReplicatedUnbatchedCrashServesFullEpoch) {
  ReplicaRig rig(ReplicaRig::cfg(2, dlfs::core::BatchingMode::kNone));
  auto& inst = rig.fleet.instance(0);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  inst.sequence(1);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, inst, log), "unbatched-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 2_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(log.order.size(), ReplicaRig::kSamples);
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_TRUE(log.content_ok);
  EXPECT_EQ(inst.engine().nodes_down(), 1u);
}

TEST(FaultInjection, ReplicatedViewsCrashServesFullEpoch) {
  // Zero-copy path: a degraded chunk unit hands out spans over the
  // per-sample replica extents it holds instead of its chunk — exact
  // bytes and no copy. Run once releasing every batch before the next
  // bread_views and once holding each batch's lease across it (double
  // buffering, as the bench harness does), so a pinned degraded unit
  // recovers more samples for a later batch.
  for (const bool double_buffer : {false, true}) {
    SCOPED_TRACE(double_buffer ? "double-buffered" : "released per batch");
    ReplicaRig rig(ReplicaRig::cfg(2, dlfs::core::BatchingMode::kChunkLevel));
    auto& inst = rig.fleet.instance(0);
    rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
    inst.sequence(1);
    std::size_t served = 0;
    std::uint64_t skipped = 0;
    bool content_ok = true;
    rig.sim.spawn(
        [](ReplicaRig& r, dlfs::core::DlfsInstance& inst, bool double_buffer,
           std::size_t& served, std::uint64_t& skipped,
           bool& content_ok) -> Task<void> {
          std::vector<std::byte> want, got;
          dlfs::core::ViewLease previous;
          for (;;) {
            dlfs::core::ViewLease lease(inst, co_await inst.bread_views(16));
            const auto& b = lease.batch();
            if (b.end_of_epoch) break;
            EXPECT_LE(b.samples.size() + b.samples_skipped, 16u);
            for (const auto& s : b.samples) {
              got.clear();
              for (const auto piece : s.pieces) {
                got.insert(got.end(), piece.begin(), piece.end());
              }
              want.resize(s.len);
              r.ds.fill_content(s.sample_id, 0, want);
              if (got.size() != s.len ||
                  std::memcmp(got.data(), want.data(), s.len) != 0) {
                content_ok = false;
              }
            }
            served += b.samples.size();
            skipped += b.samples_skipped;
            // Double buffering releases the batch before this one; the
            // other run releases this one when `lease` leaves scope.
            if (double_buffer) previous = std::move(lease);
          }
        }(rig, inst, double_buffer, served, skipped, content_ok),
        "views-epoch");
    rig.sim.run_watchdog(rig.sim.now() + 2_sec);
    rig.sim.rethrow_failures();
    EXPECT_EQ(served, ReplicaRig::kSamples);
    EXPECT_EQ(skipped, 0u);
    EXPECT_TRUE(content_ok);
    EXPECT_EQ(inst.engine().nodes_down(), 1u);
    EXPECT_EQ(inst.engine().bytes_copied(), 0u);
    EXPECT_EQ(inst.stats().bytes_zero_copy,
              std::uint64_t{ReplicaRig::kSamples} * 4096);
    // Every lease is gone: the pin accounting is back to zero.
    EXPECT_EQ(inst.stats().view_pins_active, 0u);
  }
}

// What one bread (or bread_views) of a test delivered, and how long it
// took.
struct BreadOutcome {
  std::size_t served = 0;
  std::uint64_t skipped = 0;
  bool content_ok = true;
  dlsim::SimDuration took = 0;
};

Task<void> timed_bread(ReplicaRig& r, dlfs::core::DlfsInstance& inst,
                       bool views, BreadOutcome& o) {
  std::vector<std::byte> arena(16 * 4096);
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> got;
  const dlsim::SimTime t0 = r.sim.now();
  if (views) {
    dlfs::core::ViewLease lease(inst, co_await inst.bread_views(16));
    o.took = r.sim.now() - t0;
    o.skipped = lease.batch().samples_skipped;
    for (const auto& s : lease.batch().samples) {
      std::vector<std::byte> bytes;
      for (const auto piece : s.pieces) {
        bytes.insert(bytes.end(), piece.begin(), piece.end());
      }
      got.emplace_back(s.sample_id, std::move(bytes));
    }
  } else {
    const dlfs::core::Batch b = co_await inst.bread(16, arena);
    o.took = r.sim.now() - t0;
    o.skipped = b.samples_skipped;
    for (const auto& s : b.samples) {
      const std::byte* at = arena.data() + s.offset_in_arena;
      got.emplace_back(s.sample_id, std::vector<std::byte>(at, at + s.len));
    }
  }
  o.served = got.size();
  std::vector<std::byte> want;
  for (const auto& [id, bytes] : got) {
    want.resize(r.ds.sample(id).size);
    r.ds.fill_content(id, 0, want);
    if (bytes != want) o.content_ok = false;
  }
}

TEST(FaultInjection, DegradedChunkPickPostsItsReplicaReadsTogether) {
  // The first chunk unit's node is down before its pick, so each pick of
  // it re-reads its samples from their replicas, every read posted before
  // the first is awaited. Two breads of 16 take the unit's first 32
  // samples: the first also pays the epoch's reprobe of the dead node, and
  // the second, once the read-ahead has landed, is timed.
  for (const bool views : {false, true}) {
    SCOPED_TRACE(views ? "bread_views" : "bread");
    ReplicaRig rig(ReplicaRig::cfg(2, dlfs::core::BatchingMode::kChunkLevel));
    auto& inst = rig.fleet.instance(0);
    const dlfs::core::EpochSequence order(rig.fleet.plan(), 1, 0, 1);
    ASSERT_TRUE(order.unit_at(0)->is_chunk);
    ASSERT_GE(order.unit_at(0)->samples.size(), 32u);
    rig.fleet.target(order.unit_at(0)->nid)->crash();
    inst.sequence(1);
    // The unit's read-ahead times out, and the engine marks its node down.
    rig.sim.run();
    ASSERT_EQ(inst.engine().nodes_down(), 1u);
    std::array<BreadOutcome, 2> out;
    for (BreadOutcome& o : out) {
      rig.sim.spawn(timed_bread(rig, inst, views, o), "degraded-pick");
      rig.sim.run();
      rig.sim.rethrow_failures();
      EXPECT_EQ(o.served, 16u);
      EXPECT_EQ(o.skipped, 0u);
      EXPECT_TRUE(o.content_ok);
    }
    // The timed pick posts its 16 replica reads at once, so it ends about
    // one replica round trip after its first lookup, plus the device's
    // command slot (1.8 us) for each of the other 15 reads and the other
    // 15 lookups. Reads awaited one at a time would take more than 16
    // device read latencies.
    const auto& nvme = rig.fleet.config().calibration.nvme;
    EXPECT_LT(out[1].took, 16 * nvme.read_latency);
    EXPECT_EQ(out[1].took, views ? 55'800 : 56'662);
  }
}

// ---------------------------------------------------------------------------
// Self-healing replication: permanent-loss detection, background
// re-replication, late rejoin, and the zero-copy pin guard.

// Four storage nodes and one pure client: enough spare slots for the
// repair engine to restore k = 2 after a permanent loss (a replacement
// target must exist besides the dead node and the surviving copy).
struct SelfHealRig {
  static constexpr std::size_t kSamples = 2048;

  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  explicit SelfHealRig(const dlfs::core::DlfsConfig& c)
      : cluster(sim, 5, FleetRig::cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, c, /*client_nodes=*/{4},
              /*storage_nodes=*/{0, 1, 2, 3}) {
    fleet.mount();
  }

  static dlfs::core::DlfsConfig cfg(dlfs::core::ReplicationConfig repl,
                                    dlfs::core::BatchingMode mode,
                                    dlsim::SimDuration reprobe = 0) {
    dlfs::core::DlfsConfig c = RemoteFleetRig::cfg();
    c.fault.replication = repl;
    c.batching = mode;
    c.fault.reprobe_interval = reprobe;
    return c;
  }
};

TEST(SelfHealing, SequentialPermanentLossesRereplicateByteIdentical) {
  // The issue's acceptance bar: with k = 2 and two sequential permanent
  // losses — the second only after the first loss's repair backlog fully
  // drained — a three-epoch run stays byte-identical to the healthy run
  // (same ids, same arena offsets, same contents, zero skips) and the
  // repair engine demonstrably re-replicated data.
  dlfs::core::ReplicationConfig repl(2);
  repl.declare_dead_after = 10_ms;
  std::array<DeliveryLog, 3> good;
  {
    SelfHealRig healthy(
        SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kChunkLevel, 2_ms));
    auto& inst = healthy.fleet.instance(0);
    healthy.sim.spawn(
        [](SelfHealRig& r, dlfs::core::DlfsInstance& inst,
           std::array<DeliveryLog, 3>& logs) -> Task<void> {
          for (std::uint64_t e = 0; e < 3; ++e) {
            inst.sequence(e + 1);
            co_await run_epoch_logged(r.ds, inst, logs[e]);
          }
        }(healthy, inst, good),
        "healthy-epochs");
    healthy.sim.run();
    healthy.sim.rethrow_failures();
    for (const auto& g : good) {
      ASSERT_EQ(g.order.size(), SelfHealRig::kSamples);
      ASSERT_EQ(g.skipped, 0u);
      ASSERT_TRUE(g.content_ok);
    }
  }

  SelfHealRig rig(
      SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kChunkLevel, 2_ms));
  auto& inst = rig.fleet.instance(0);
  ASSERT_NE(rig.fleet.target(0), nullptr);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  std::array<DeliveryLog, 3> log;
  std::uint32_t dead_at_end = 0;
  bool backlog_drained = false;
  rig.sim.spawn(
      [](SelfHealRig& r, dlfs::core::DlfsInstance& inst,
         std::array<DeliveryLog, 3>& logs, std::uint32_t& dead_at_end,
         bool& backlog_drained) -> Task<void> {
        inst.sequence(1);
        co_await run_epoch_logged(r.ds, inst, logs[0]);
        // Wait for the first loss to be declared and its repairs to drain
        // before losing the second node: sequential losses spaced past the
        // repair-drain time keep at least one live copy of everything. An
        // empty backlog alone also holds before the loss is declared.
        while (r.fleet.num_declared_dead() < 1 ||
               !r.fleet.repair_backlog().empty()) {
          co_await r.sim.delay(1_ms);
        }
        r.fleet.target(1)->crash();
        inst.sequence(2);
        co_await run_epoch_logged(r.ds, inst, logs[1]);
        while (r.fleet.num_declared_dead() < 2 ||
               !r.fleet.repair_backlog().empty()) {
          co_await r.sim.delay(1_ms);
        }
        inst.sequence(3);
        co_await run_epoch_logged(r.ds, inst, logs[2]);
        dead_at_end = r.fleet.num_declared_dead();
        backlog_drained = r.fleet.repair_backlog().empty();
        // Heal the crashed targets so the reprobe daemon can park and the
        // simulator quiesce: a permanently-down node keeps the probe
        // timer armed forever.
        r.fleet.target(0)->recover();
        r.fleet.target(1)->recover();
      }(rig, inst, log, dead_at_end, backlog_drained),
      "lossy-epochs");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(log[e].skipped, 0u) << "epoch " << e;
    EXPECT_TRUE(log[e].content_ok) << "epoch " << e;
    EXPECT_EQ(log[e].order, good[e].order) << "epoch " << e;
    EXPECT_EQ(log[e].offsets, good[e].offsets) << "epoch " << e;
  }
  const auto stats = inst.stats();
  EXPECT_EQ(stats.samples_skipped, 0u);
  EXPECT_EQ(stats.nodes_declared_dead, 2u);
  EXPECT_GT(stats.samples_rereplicated, 0u);
  EXPECT_GT(stats.repair_bytes, 0u);
  EXPECT_EQ(dead_at_end, 2u);
  EXPECT_TRUE(backlog_drained);
  // After the end-of-test heal, both nodes rejoined as fresh.
  EXPECT_EQ(rig.fleet.num_declared_dead(), 0u);
  EXPECT_TRUE(rig.fleet.repair_backlog().empty());
}

TEST(SelfHealing, TransientOutageBelowDeadlineIsNotDeclaredDead) {
  // A node that bounces — down past the reconnect budget but healed and
  // reprobed before declare_dead_after — is a transient link fault: no
  // declaration, no re-replication.
  dlfs::core::ReplicationConfig repl(2);
  repl.declare_dead_after = 50_ms;
  SelfHealRig rig(
      SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kChunkLevel, 2_ms));
  auto& inst = rig.fleet.instance(0);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  rig.fleet.target(0)->recover_at(rig.sim.now() + 20_ms);
  inst.sequence(1);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, inst, log), "blip-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 10_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_TRUE(log.content_ok);
  // The outage was real (commands timed out) and healed (no node down at
  // the end) — yet never promoted to a declaration.
  EXPECT_GT(inst.engine().transport_stats().timeouts, 0u);
  EXPECT_EQ(inst.engine().nodes_down(), 0u);
  const auto stats = inst.stats();
  EXPECT_EQ(stats.nodes_declared_dead, 0u);
  EXPECT_EQ(stats.samples_rereplicated, 0u);
  EXPECT_EQ(rig.fleet.num_declared_dead(), 0u);
}

TEST(SelfHealing, DeclaredDeadNodeHealsAndRejoinsFresh) {
  // Late rejoin: a node declared dead heals; the probe daemon rediscovers
  // it, the fleet reconciles it as a fresh node (declaration cleared, its
  // primary shard serves again), and the next epoch is full and clean.
  dlfs::core::ReplicationConfig repl(2);
  repl.declare_dead_after = 5_ms;
  SelfHealRig rig(
      SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kChunkLevel, 2_ms));
  auto& inst = rig.fleet.instance(0);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  bool was_declared = false;
  DeliveryLog log2;
  rig.sim.spawn(
      [](SelfHealRig& r, dlfs::core::DlfsInstance& inst, bool& was_declared,
         DeliveryLog& log2) -> Task<void> {
        inst.sequence(1);
        DeliveryLog log1;
        co_await run_epoch_logged(r.ds, inst, log1);
        EXPECT_EQ(log1.skipped, 0u);
        while (!r.fleet.declared_dead(0)) co_await r.sim.delay(1_ms);
        was_declared = true;
        while (!r.fleet.repair_backlog().empty()) co_await r.sim.delay(1_ms);
        r.fleet.target(0)->recover();
        while (r.fleet.declared_dead(0)) co_await r.sim.delay(1_ms);
        inst.sequence(2);
        co_await run_epoch_logged(r.ds, inst, log2);
      }(rig, inst, was_declared, log2),
      "rejoin-epochs");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(was_declared);
  EXPECT_EQ(rig.fleet.num_declared_dead(), 0u);
  EXPECT_EQ(inst.engine().nodes_down(), 0u);
  EXPECT_EQ(log2.order.size(), SelfHealRig::kSamples);
  EXPECT_EQ(log2.skipped, 0u);
  EXPECT_TRUE(log2.content_ok);
  EXPECT_GT(inst.stats().samples_rereplicated, 0u);
}

TEST(SelfHealing, ExplicitDeclareTriggersBudgetedRepair) {
  // The explicit lifecycle hooks, with a tight repair-traffic budget: a
  // healthy slot is declared dead by fiat, the repair engine restores
  // k = 2 from surviving copies while pacing itself to the budget, and
  // undeclare() brings the slot back.
  dlfs::core::ReplicationConfig repl(2);
  repl.repair_bytes_per_sec = 16ull * 1024 * 1024;  // 16 MiB/s
  SelfHealRig rig(
      SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kChunkLevel));
  auto& inst = rig.fleet.instance(0);
  dlsim::SimTime t0 = 0, t1 = 0;
  rig.sim.spawn(
      [](SelfHealRig& r, dlsim::SimTime& t0, dlsim::SimTime& t1)
          -> Task<void> {
        t0 = r.sim.now();
        r.fleet.declare_dead(0);
        while (!r.fleet.repair_backlog().empty()) co_await r.sim.delay(1_ms);
        t1 = r.sim.now();
      }(rig, t0, t1),
      "declare-and-drain");
  rig.sim.run_watchdog(rig.sim.now() + 60_sec);
  rig.sim.rethrow_failures();
  const auto stats = inst.stats();
  EXPECT_GT(stats.samples_rereplicated, 0u);
  EXPECT_EQ(stats.repair_bytes, stats.samples_rereplicated * 4096ull);
  EXPECT_GT(stats.repair_throttles, 0u);
  // Repair throughput stays bounded by the budget (25% slack for the
  // unpaced first sample).
  ASSERT_GT(t1, t0);
  const double rate =
      static_cast<double>(stats.repair_bytes) * 1e9 /
      static_cast<double>(t1 - t0);
  EXPECT_LT(rate, 16.0 * 1024 * 1024 * 1.25);
  // Rejoin by fiat: the slot serves its primary shard again.
  rig.fleet.undeclare(0);
  EXPECT_EQ(rig.fleet.num_declared_dead(), 0u);
  inst.sequence(1);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, inst, log), "after-rejoin");
  rig.sim.run_watchdog(rig.sim.now() + 10_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(log.order.size(), SelfHealRig::kSamples);
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_TRUE(log.content_ok);
}

TEST(SelfHealing, ViewPinnedChunksSurviveCrashAndRepair) {
  // Zero-copy regression: a node crashes (and is declared dead, and
  // repaired around) while a ViewBatch still pins chunks. Neither unit
  // recycling nor repair traffic may touch the pinned memory —
  // scribble_on_free turns any violation into a content mismatch.
  dlfs::core::ReplicationConfig repl(2);
  repl.declare_dead_after = 5_ms;
  auto c =
      SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kChunkLevel, 2_ms);
  c.scribble_on_free = true;
  SelfHealRig rig(c);
  auto& inst = rig.fleet.instance(0);
  bool held_ok = true;
  bool content_ok = true;
  std::size_t served = 0;
  std::uint64_t skipped = 0;
  rig.sim.spawn(
      [](SelfHealRig& r, dlfs::core::DlfsInstance& inst, bool& held_ok,
         bool& content_ok, std::size_t& served,
         std::uint64_t& skipped) -> Task<void> {
        inst.sequence(1);
        // Pin the first zero-copy batch and snapshot its expected bytes.
        auto first = co_await inst.bread_views(16);
        dlfs::core::ViewLease lease(inst, std::move(first));
        std::vector<std::vector<std::byte>> want;
        for (const auto& s : lease.batch().samples) {
          std::vector<std::byte> w(s.len);
          r.ds.fill_content(s.sample_id, 0, w);
          want.push_back(std::move(w));
        }
        served += lease.batch().samples.size();
        skipped += lease.batch().samples_skipped;
        // Crash a storage node mid-hold; run the rest of the epoch (the
        // traffic drives crash detection and failover) with the first
        // batch still pinned.
        r.fleet.target(0)->crash();
        std::vector<std::byte> got, w2;
        for (;;) {
          auto b = co_await inst.bread_views(16);
          if (b.end_of_epoch) break;
          for (const auto& s : b.samples) {
            got.clear();
            for (const auto piece : s.pieces) {
              got.insert(got.end(), piece.begin(), piece.end());
            }
            w2.resize(s.len);
            r.ds.fill_content(s.sample_id, 0, w2);
            if (got.size() != s.len ||
                std::memcmp(got.data(), w2.data(), s.len) != 0) {
              content_ok = false;
            }
          }
          served += b.samples.size();
          skipped += b.samples_skipped;
          inst.release_views(b);
        }
        // Let the declaration land and the repair backlog drain, lease
        // still held.
        while (!r.fleet.declared_dead(0)) co_await r.sim.delay(1_ms);
        while (!r.fleet.repair_backlog().empty()) co_await r.sim.delay(1_ms);
        // The pinned views must still read the original bytes.
        for (std::size_t i = 0; i < lease.batch().samples.size(); ++i) {
          const auto& s = lease.batch().samples[i];
          got.clear();
          for (const auto piece : s.pieces) {
            got.insert(got.end(), piece.begin(), piece.end());
          }
          if (got.size() != want[i].size() ||
              std::memcmp(got.data(), want[i].data(), got.size()) != 0) {
            held_ok = false;
          }
        }
        lease.release();
        // Heal the crashed target so the reprobe daemon parks and the
        // simulator quiesces.
        r.fleet.target(0)->recover();
      }(rig, inst, held_ok, content_ok, served, skipped),
      "pinned-crash-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(held_ok);
  EXPECT_TRUE(content_ok);
  EXPECT_EQ(served, SelfHealRig::kSamples);
  EXPECT_EQ(skipped, 0u);
  EXPECT_GT(inst.stats().samples_rereplicated, 0u);
  EXPECT_EQ(inst.stats().view_pins_active, 0u);
}

TEST(SelfHealing, ShardedDirectoryInvalidatesStaleRowsAfterRepair) {
  // Stale-row regression: in sharded mode a client's lookup cache holds
  // per-sample resolutions filled during epoch 1. When the repair engine
  // publishes a replacement copy through SampleDirectory::add_replica,
  // the sample's route version bumps; a pre-repair row must be
  // invalidated and re-resolved, never served as the stale hop set.
  dlfs::core::ReplicationConfig repl(2);
  repl.declare_dead_after = 5_ms;
  auto c =
      SelfHealRig::cfg(repl, dlfs::core::BatchingMode::kSampleLevel, 2_ms);
  c.directory.mode = dlfs::core::DirectoryMode::kSharded;
  SelfHealRig rig(c);
  auto& inst = rig.fleet.instance(0);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  bool was_declared = false;
  DeliveryLog log2;
  rig.sim.spawn(
      [](SelfHealRig& r, dlfs::core::DlfsInstance& inst, bool& was_declared,
         DeliveryLog& log2) -> Task<void> {
        inst.sequence(1);
        DeliveryLog log1;
        co_await run_epoch_logged(r.ds, inst, log1);
        EXPECT_EQ(log1.skipped, 0u);
        while (!r.fleet.declared_dead(0)) co_await r.sim.delay(1_ms);
        was_declared = true;
        while (!r.fleet.repair_backlog().empty()) co_await r.sim.delay(1_ms);
        // Re-read with the node still dead: every sample the repair
        // engine re-homed must resolve its NEW hop set through the view
        // (stale pre-repair rows invalidated), not skip or mis-read.
        inst.sequence(2);
        co_await run_epoch_logged(r.ds, inst, log2);
        // Heal the target so the reprobe daemon parks and the simulator
        // quiesces.
        r.fleet.target(0)->recover();
      }(rig, inst, was_declared, log2),
      "sharded-repair-epochs");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(was_declared);
  EXPECT_EQ(log2.order.size(), SelfHealRig::kSamples);
  EXPECT_EQ(log2.skipped, 0u);
  EXPECT_TRUE(log2.content_ok);
  const auto stats = inst.stats();
  EXPECT_GT(stats.samples_rereplicated, 0u);
  // The fix is observable: post-repair resolutions hit versioned rows
  // and invalidated them instead of serving the stale entries.
  EXPECT_GT(stats.directory.stale_invalidations, 0u);
}

// ---------------------------------------------------------------------------
// Teardown mid-I/O. These rigs declare their Simulator before their
// fleet, as the benches' rigs do, so the fleet and its huge-page pools
// are destroyed first; the simulator then destroys the frames of its
// suspended processes, and the pool chunks those frames hold go back
// after their pool is gone.

/// Steps `rig` until `holding()`, which must be true only while a
/// suspended frame holds a chunk of client 0's pool, then destroys it.
template <typename Holding>
void destroy_when(std::unique_ptr<SelfHealRig> rig, Holding holding) {
  bool held = false;
  while (!held && rig->sim.step()) held = holding();
  ASSERT_TRUE(held);
  EXPECT_GT(rig->fleet.instance(0).pool().used_chunks(), 0u);
  rig.reset();
}

std::unique_ptr<SelfHealRig> teardown_rig(dlfs::core::BatchingMode mode) {
  return std::make_unique<SelfHealRig>(
      SelfHealRig::cfg(dlfs::core::ReplicationConfig(2), mode));
}

TEST(Teardown, FleetBeforeSimulatorMidRepairRead) {
  // The repair daemon's first read is being posted: its piece and pool
  // chunk sit in the pump frame under repair_one.
  auto rig = teardown_rig(dlfs::core::BatchingMode::kChunkLevel);
  auto& inst = rig->fleet.instance(0);
  ASSERT_EQ(inst.pool().used_chunks(), 0u);
  const std::uint64_t posted0 = inst.engine().requests_posted();
  rig->fleet.declare_dead(0);
  destroy_when(std::move(rig), [&inst, posted0] {
    return inst.pool().used_chunks() == 1 &&
           inst.engine().requests_posted() == posted0;
  });
}

TEST(Teardown, FleetBeforeSimulatorMidRepairWrite) {
  // The first repair's read has landed and its write is being posted,
  // with the read's pool chunk as its payload.
  auto rig = teardown_rig(dlfs::core::BatchingMode::kChunkLevel);
  auto& inst = rig->fleet.instance(0);
  const std::uint64_t posted0 = inst.engine().requests_posted();
  const std::uint64_t harvested0 = inst.engine().completions_harvested();
  rig->fleet.declare_dead(0);
  destroy_when(std::move(rig), [&inst, posted0, harvested0] {
    return inst.engine().completions_harvested() == harvested0 + 1 &&
           inst.engine().requests_posted() == posted0 + 1;
  });
}

TEST(Teardown, FleetBeforeSimulatorMidReadAhead) {
  // The prefetch daemon is posting its first read-ahead piece.
  auto rig = teardown_rig(dlfs::core::BatchingMode::kChunkLevel);
  auto& inst = rig->fleet.instance(0);
  ASSERT_EQ(inst.pool().used_chunks(), 0u);
  inst.sequence(1);
  destroy_when(std::move(rig),
               [&inst] { return inst.pool().used_chunks() > 0; });
}

TEST(Teardown, FleetBeforeSimulatorMidCopy) {
  // A sample-level bread's first copy job is on a copy thread: the job,
  // with its sample's pool chunk, sits in the thread's frame.
  std::vector<std::byte> arena(16 * 4096);
  auto rig = teardown_rig(dlfs::core::BatchingMode::kSampleLevel);
  auto& inst = rig->fleet.instance(0);
  inst.sequence(1);
  rig->sim.spawn(
      [](dlfs::core::DlfsInstance& inst,
         std::span<std::byte> arena) -> Task<void> {
        (void)co_await inst.bread(16, arena);
      }(inst, arena),
      "bread");
  destroy_when(std::move(rig), [&inst] {
    return inst.engine().copy_busy_ns() > 0 &&
           inst.engine().bytes_copied() == 0;
  });
}

TEST(FaultInjection, MidEpochReprobeRejoinsNodeWithoutEpochBoundary) {
  // No replication — the point is the background probe daemon: the node
  // crashes and heals mid-epoch, and the daemon rejoins it within one
  // reprobe interval, so only the down window's samples are skipped
  // (far fewer than the node's full share) within the SAME epoch.
  auto c = RemoteFleetRig::cfg();
  c.fault.reprobe_interval = 2_ms;
  ReplicaRig rig(c);
  auto& inst = rig.fleet.instance(0);
  const dlsim::SimTime t0 = rig.sim.now();
  rig.fleet.target(0)->crash_at(t0 + 500_us);
  rig.fleet.target(0)->recover_at(t0 + 20_ms);
  inst.sequence(1);
  EpochTally t;
  rig.sim.spawn(
      [](ReplicaRig& r, dlfs::core::DlfsInstance& inst,
         EpochTally& t) -> Task<void> {
        std::vector<std::byte> arena(64_KiB);
        for (;;) {
          auto b = co_await inst.bread(16, arena);
          if (b.end_of_epoch) break;
          EXPECT_LE(b.samples.size() + b.samples_skipped, 16u);
          t.served += b.samples.size();
          t.skipped += b.samples_skipped;
          // App compute between breads stretches the epoch well past the
          // recovery point, so the rejoin lands mid-epoch.
          co_await r.sim.delay(500_us);
        }
      }(rig, inst, t),
      "reprobe-epoch");
  rig.sim.run_watchdog(t0 + 2_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(t.served + t.skipped, ReplicaRig::kSamples);
  EXPECT_GT(t.skipped, 0u);
  // The down window is ~13 ms of a ~64 ms epoch; without the mid-epoch
  // rejoin every node-0 sample after the crash (~half the epoch's
  // remainder) would have been lost.
  EXPECT_LT(t.skipped, ReplicaRig::kSamples / 2);
  EXPECT_EQ(inst.engine().nodes_down(), 0u);
  EXPECT_TRUE(rig.fleet.directory().node_available(0));
  EXPECT_GE(inst.engine().transport_stats().reconnects, 1u);
}

// ---------------------------------------------------------------------------
// Async prefetcher under injected faults

TEST(FaultInjection, PrefetcherSurvivesTransientFaultSweep) {
  // The default DlfsConfig has the async prefetcher on: every rate must
  // complete a full epoch (retries absorb the faults), and a second clean
  // epoch proves the daemon outlived the sweep.
  struct Case {
    double rate;
    std::uint64_t seed;
  };
  std::uint64_t total_retries = 0;
  for (const Case c : {Case{0.15, 3}, Case{0.3, 17}, Case{0.45, 29}}) {
    FleetRig rig(1);
    auto& inst = rig.fleet.instance(0);
    rig.cluster.node(0).device().inject_faults(c.rate, c.seed);
    inst.sequence(1);
    EpochTally t1;
    rig.sim.spawn(run_epoch(rig.ds, inst, t1), "faulty-epoch");
    rig.sim.run_watchdog(rig.sim.now() + 1_sec);
    rig.sim.rethrow_failures();
    EXPECT_EQ(t1.served, 128u) << "rate " << c.rate;
    EXPECT_EQ(t1.skipped, 0u) << "rate " << c.rate;
    rig.cluster.node(0).device().inject_faults(0.0);
    inst.sequence(2);
    EpochTally t2;
    rig.sim.spawn(run_epoch(rig.ds, inst, t2), "clean-epoch");
    rig.sim.run_watchdog(rig.sim.now() + 1_sec);
    rig.sim.rethrow_failures();
    EXPECT_EQ(t2.served, 128u) << "rate " << c.rate;
    total_retries += inst.engine().retries();
    EXPECT_GT(inst.stats().prefetch.units_issued, 0u);
  }
  EXPECT_GT(total_retries, 0u);
}

TEST(FaultInjection, ReadAheadErrorSurfacesOnOwningBreadAndDaemonSurvives) {
  FleetRig rig(1);
  auto& inst = rig.fleet.instance(0);
  rig.cluster.node(0).device().inject_faults(1.0);
  inst.sequence(1);
  auto p = rig.sim.spawn(
      [](dlfs::core::DlfsInstance& inst) -> Task<void> {
        std::vector<std::byte> arena(64_KiB);
        (void)co_await inst.bread(16, arena);
      }(inst),
      "doomed-prefetched-bread");
  rig.sim.run();
  // The prefetch daemon issued the unit, but its media error belongs to
  // the bread that needed the unit.
  ASSERT_TRUE(p.failed());
  try {
    p.rethrow();
    FAIL() << "expected IoError";
  } catch (const dlfs::core::IoError& e) {
    EXPECT_EQ(e.kind, dlfs::core::IoErrorKind::kMedia);
  }
  // The daemon must survive the bad read-ahead: with faults off the next
  // epoch is served in full through the same prefetcher.
  rig.cluster.node(0).device().inject_faults(0.0);
  inst.sequence(2);
  EpochTally t;
  auto p2 = rig.sim.spawn(run_epoch(rig.ds, inst, t), "recovered-epoch");
  rig.sim.run();
  EXPECT_FALSE(p2.failed());
  EXPECT_EQ(t.served, 128u);
  EXPECT_GT(inst.stats().prefetch.units_issued, 0u);
}

// ---------------------------------------------------------------------------
// Ext4 kernel-path retries

TEST(FaultInjection, Ext4RetriesThenSucceeds) {
  Simulator sim;
  NvmeDevice dev(sim, "nvme0",
                 std::make_unique<dlfs::hw::RamBackingStore>(64_MiB));
  dlfs::osfs::Ext4Fs fs(sim, dev, dlfs::default_calibration());
  dlsim::CpuCore core(sim, "app");
  dlfs::osfs::OsThread t(fs, core);
  std::vector<std::byte> data(8192, std::byte{0x7e});
  sim.spawn([](dlfs::osfs::Ext4Fs& fs, dlfs::osfs::OsThread& t,
               std::span<const std::byte> d) -> Task<void> {
    const int fd = co_await fs.create(t, "f");
    co_await fs.append(t, fd, d);
    co_await fs.close(t, fd);
  }(fs, t, data));
  sim.run();
  sim.rethrow_failures();
  fs.drop_caches();
  dev.inject_faults(0.5, 21);
  bool ok = false;
  sim.spawn([](dlfs::osfs::Ext4Fs& fs, dlfs::osfs::OsThread& t,
               bool& ok) -> Task<void> {
    auto fd = co_await fs.open(t, "f");
    std::vector<std::byte> buf(8192);
    const auto n = co_await fs.pread(t, *fd, buf, 0);
    ok = n == 8192 && buf[100] == std::byte{0x7e};
    co_await fs.close(t, *fd);
  }(fs, t, ok));
  sim.run();
  sim.rethrow_failures();
  EXPECT_TRUE(ok);
  EXPECT_GT(dev.faults_injected(), 0u);
}

TEST(FaultInjection, Ext4PermanentFaultIsEio) {
  Simulator sim;
  NvmeDevice dev(sim, "nvme0",
                 std::make_unique<dlfs::hw::RamBackingStore>(64_MiB));
  dlfs::osfs::Ext4Fs fs(sim, dev, dlfs::default_calibration());
  dlsim::CpuCore core(sim, "app");
  dlfs::osfs::OsThread t(fs, core);
  std::vector<std::byte> data(4096, std::byte{1});
  sim.spawn([](dlfs::osfs::Ext4Fs& fs, dlfs::osfs::OsThread& t,
               std::span<const std::byte> d) -> Task<void> {
    const int fd = co_await fs.create(t, "f");
    co_await fs.append(t, fd, d);
    co_await fs.close(t, fd);
  }(fs, t, data));
  sim.run();
  sim.rethrow_failures();
  fs.drop_caches();
  dev.inject_faults(1.0);
  auto p = sim.spawn([](dlfs::osfs::Ext4Fs& fs,
                        dlfs::osfs::OsThread& t) -> Task<void> {
    auto fd = co_await fs.open(t, "f");
    std::vector<std::byte> buf(4096);
    (void)co_await fs.pread(t, *fd, buf, 0);
  }(fs, t));
  sim.run(/*allow_blocked=*/true);
  EXPECT_TRUE(p.failed());
}

}  // namespace
