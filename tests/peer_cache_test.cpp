// Cooperative peer sample cache: the PeerCacheDirectory (the one
// fleet-wide record of which client, on which node, holds a sample, with
// consistent-hash homes), and the fleet-level read paths — intra-node
// peer hits from a holder on the reader's node, remote peer pulls over
// the fabric, pin-protected serving under eviction pressure, and
// exactly-once skip accounting when both the peer and the replica route
// fail. Under sample-level batching a remote pull is a read-ahead unit:
// the prefetch daemon issues it ahead of the cursor, the engine runs it
// into a requester pool chunk and the pick loop hands what landed to the
// copy threads, one job per run of a read-ahead unit's pulls; an
// own-cache hit is a job of its own, and each pick pays its own lookup
// just before its acquire. The read-ahead-pull tests pin down the
// overlap, pulls that land before their bread, the copy jobs' charges
// and when the first one starts, the holder's serve queue, QoS
// grants, the device failover of a refused pull, and that no holder pin
// or landing chunk outlives its pull. A demand read issues the same
// extent: a pull when only a remote peer holds the sample, else the
// device, with no home RPC.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/dlfs.hpp"
#include "dlfs/sample_cache.hpp"
#include "sim/simulator.hpp"

namespace {

using dlfs::core::PeerCacheDirectory;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

// ---------------------------------------------------------------------------
// PeerCacheDirectory unit behaviour

TEST(PeerCacheDirectory, HomeClientIsDeterministicAndSpread) {
  PeerCacheDirectory dir(4);
  std::array<bool, 4> seen{};
  for (std::size_t id = 0; id < 64; ++id) {
    const std::uint32_t home = dir.home_client(id);
    ASSERT_LT(home, 4u);
    EXPECT_EQ(home, dir.home_client(id));  // stable across calls
    seen[home] = true;
  }
  // The consistent-hash probe spreads homes across clients.
  int distinct = 0;
  for (bool b : seen) distinct += b ? 1 : 0;
  EXPECT_GE(distinct, 2);
}

TEST(PeerCacheDirectory, AdvertiseFindRetractRoundTrip) {
  PeerCacheDirectory dir(3);
  dir.advertise(/*holder=*/1, /*node=*/10, /*sample=*/7);
  const auto h = dir.find(7, /*asking=*/0);
  ASSERT_TRUE(h.found);
  EXPECT_EQ(h.client, 1u);
  EXPECT_EQ(h.node, 10u);
  // The only holder is the asker itself: no peer to serve it.
  EXPECT_FALSE(dir.find(7, 1).found);
  // Re-advertising the same (holder, sample) is idempotent: one retract
  // clears it.
  dir.advertise(1, 10, 7);
  dir.retract(1, 7);
  EXPECT_FALSE(dir.find(7, 0).found);
  // retract_all clears the holder's whole advertised set, and only its.
  dir.advertise(0, 5, 2);
  dir.advertise(0, 5, 3);
  dir.advertise(2, 6, 3);
  dir.retract_all(0);
  EXPECT_FALSE(dir.find(2, 1).found);
  const auto left = dir.find(3, 1);
  ASSERT_TRUE(left.found);
  EXPECT_EQ(left.client, 2u);
}

TEST(PeerCacheDirectory, FindPrefersHolderOnGivenNode) {
  PeerCacheDirectory dir(4);
  dir.advertise(/*holder=*/1, /*node=*/20, /*sample=*/7);
  dir.advertise(2, 10, 7);
  dir.advertise(3, 10, 7);
  // With no node given, the first advertised holder wins.
  EXPECT_EQ(dir.find(7, /*asking=*/0).client, 1u);
  // The first holder on the given node beats an earlier one elsewhere.
  const auto local = dir.find(7, 0, /*node=*/10);
  ASSERT_TRUE(local.found);
  EXPECT_EQ(local.client, 2u);
  EXPECT_EQ(local.node, 10u);
  // The asker never finds itself, on its own node either.
  EXPECT_EQ(dir.find(7, 2, 10).client, 3u);
  // No holder on the given node: the first advertised one, elsewhere.
  const auto remote = dir.find(7, 0, 30);
  ASSERT_TRUE(remote.found);
  EXPECT_EQ(remote.client, 1u);
  EXPECT_EQ(remote.node, 20u);
}

// ---------------------------------------------------------------------------
// Fleet-level peer reads

// `clients`/`storage` pick the topology: co-located instances share one
// node entry, remote peers get one node each. Sample-level batching so
// every demand read is an individually peer-servable unit.
struct PeerRig {
  static constexpr std::size_t kSamples = 512;

  Simulator sim;
  dlfs::cluster::Cluster cluster;
  dlfs::dataset::Dataset ds;
  dlfs::cluster::Pfs pfs;
  dlfs::core::DlfsFleet fleet;

  PeerRig(std::uint32_t nodes, std::vector<std::uint32_t> clients,
          std::vector<std::uint32_t> storage, const dlfs::core::DlfsConfig& c)
      : cluster(sim, nodes, node_cfg()),
        ds(dlfs::dataset::make_fixed_size_dataset(kSamples, 4096)),
        pfs(sim, ds),
        fleet(cluster, pfs, ds, c, std::move(clients), std::move(storage)) {
    fleet.mount();
  }

  static dlfs::cluster::NodeConfig node_cfg() {
    dlfs::cluster::NodeConfig nc;
    nc.synthetic_store = false;  // data-integrity checks need real bytes
    nc.device_capacity = 256_MiB;
    return nc;
  }

  /// `cache_chunks` sizes each instance's resident set (one chunk per
  /// 4 KiB sample here): >= the per-client epoch share keeps a client's
  /// whole share resident, smaller values force eviction pressure.
  static dlfs::core::DlfsConfig cfg(std::size_t cache_chunks) {
    dlfs::core::DlfsConfig c;
    c.batching = dlfs::core::BatchingMode::kSampleLevel;
    c.chunk_bytes = 64 * 1024;  // small pool chunks: many cache slots
    c.cache_chunks = cache_chunks;
    c.peer_cache.enabled = true;
    // Shrunken transport fault budget (only the failover test crashes a
    // target, but a short budget never hurts a healthy run).
    c.fault.nvmf.command_timeout = 5_ms;
    c.fault.nvmf.reconnect_backoff = 200_us;
    c.fault.nvmf.reconnect_backoff_max = 1_ms;
    c.fault.nvmf.reconnect_attempts = 4;
    return c;
  }
};

struct DeliveryLog {
  std::vector<std::uint32_t> order;
  std::uint64_t skipped = 0;
  bool content_ok = true;
  bool dense = true;  // every batch packed its arena from offset 0, no gaps
};

Task<void> run_epoch_logged(const dlfs::dataset::Dataset& ds,
                            dlfs::core::DlfsInstance& inst,
                            DeliveryLog& log) {
  std::vector<std::byte> arena(64_KiB);
  std::vector<std::byte> want;
  for (;;) {
    auto b = co_await inst.bread(16, arena);
    if (b.end_of_epoch) break;
    // Skip accounting is per sample, exactly once: a batch that asked
    // for 16 samples can never report more than 16 outcomes in total.
    EXPECT_LE(b.samples.size() + b.samples_skipped, 16u);
    std::uint64_t next_offset = 0;
    for (const auto& s : b.samples) {
      if (s.offset_in_arena != next_offset) log.dense = false;
      next_offset += s.len;
      log.order.push_back(s.sample_id);
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

/// True when the logs together deliver every sample exactly once.
bool exactly_once(const std::vector<const DeliveryLog*>& logs) {
  std::vector<int> seen(PeerRig::kSamples, 0);
  for (const DeliveryLog* log : logs) {
    for (const std::uint32_t id : log->order) ++seen[id];
  }
  for (const int n : seen) {
    if (n != 1) return false;
  }
  return true;
}

/// Evicts every cache down to empty: an entry a pull left pinned would
/// refuse eviction and stay resident.
void expect_caches_drain(dlfs::core::DlfsFleet& fleet) {
  for (std::uint32_t c = 0; c < fleet.num_clients(); ++c) {
    auto& cache = fleet.instance(c).cache();
    while (cache.evict_lru_one()) {
    }
    EXPECT_EQ(cache.resident_samples(), 0u) << "pin leaked at client " << c;
  }
}

/// Warms both clients with epoch 1 (seed 1), then reshuffles with seed 2
/// and runs the warm epoch into `a2` and `b2`.
void run_two_epochs(PeerRig& rig, DeliveryLog& a2, DeliveryLog& b2) {
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);
  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "cold-a");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "cold-b");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(a1.order.size() + b1.order.size(), PeerRig::kSamples);
  a.sequence(2);
  b.sequence(2);
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "warm-a");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "warm-b");
}

TEST(PeerCache, CoLocatedInstancesServePeerHitsAfterReshuffle) {
  // Two instances on one client node. Epoch 1 (seed 1) leaves each
  // client's strided half resident in its own cache; epoch 2 reshuffles
  // with a new seed, so about half of each client's share is resident
  // only at its co-located peer — served from that holder's DRAM with no
  // fabric traffic.
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0},
              PeerRig::cfg(/*cache_chunks=*/320));
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "colocated-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "colocated-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a1.order.size() + b1.order.size(), PeerRig::kSamples);
  EXPECT_TRUE(a1.content_ok);
  EXPECT_TRUE(b1.content_ok);

  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "colocated-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "colocated-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a2.order.size() + b2.order.size(), PeerRig::kSamples);
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_GT(sa.peer_hits_local + sb.peer_hits_local, 0u);
  // Same node: a co-located holder always wins before the fabric path.
  EXPECT_EQ(sa.peer_hits_remote + sb.peer_hits_remote, 0u);
  EXPECT_GT(sa.peer_bytes + sb.peer_bytes, 0u);
}

TEST(PeerCache, RemotePeerPullsOverFabricAfterReshuffle) {
  // Two client nodes, one storage node. Epoch 2's reshuffled share pulls
  // samples the other client cached in epoch 1 out of its DRAM over the
  // fabric (peer-read RPC through the consistent-hash home), instead of
  // re-reading the single NVMe device.
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0},
              PeerRig::cfg(/*cache_chunks=*/320));
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "remote-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "remote-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(a1.order.size() + b1.order.size(), PeerRig::kSamples);

  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "remote-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "remote-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto sa = a.stats();
  const auto sb = b.stats();
  // Separate nodes: peer service crosses the fabric, never the local path.
  EXPECT_GT(sa.peer_hits_remote + sb.peer_hits_remote, 0u);
  EXPECT_EQ(sa.peer_hits_local + sb.peer_hits_local, 0u);
  EXPECT_GT(sa.peer_bytes + sb.peer_bytes, 0u);
  // Directory bookkeeping stayed consistent with the caches: asked by
  // client 0, the directory finds a sample exactly when client 1 holds it.
  const PeerCacheDirectory* dir = rig.fleet.peer_directory();
  ASSERT_NE(dir, nullptr);
  EXPECT_GT(b.cache().resident_samples(), 0u);
  for (std::uint32_t id = 0; id < PeerRig::kSamples; ++id) {
    EXPECT_EQ(dir->find(id, 0).found, b.cache().valid(id)) << "sample " << id;
  }
}

TEST(PeerCache, PinnedPeerServeSurvivesEvictionPressure) {
  // Holder caches smaller than the per-client share: every epoch-2 serve
  // races the holder's own inserts, so a pinned entry must survive the
  // eviction scan until the peer copy lands. scribble_on_free turns any
  // violation (a view read out of a recycled chunk) into 0xDD bytes —
  // the content check would fail loudly.
  auto c = PeerRig::cfg(/*cache_chunks=*/96);  // share is 256 samples
  c.scribble_on_free = true;
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0}, c);
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "pressure-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "pressure-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();

  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "pressure-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "pressure-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a2.order.size() + b2.order.size(), PeerRig::kSamples);
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  // The load-bearing assertions: every delivered byte (peer-served or
  // not) matched the canonical content — no serve read a scribbled chunk.
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_GT(sa.peer_hits_local + sb.peer_hits_local, 0u);
}

TEST(PeerCache, PinnedRemotePullSurvivesEvictionPressure) {
  // The remote variant: clients on separate nodes, so every peer serve is
  // a pull whose holder entry stays pinned from the holder's pin until
  // its bytes land in the requester's chunk, while the holder's own epoch
  // inserts (and evicts) around it.
  auto c = PeerRig::cfg(/*cache_chunks=*/96);  // share is 256 samples
  c.scribble_on_free = true;
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0}, c);
  DeliveryLog a2, b2;
  run_two_epochs(rig, a2, b2);
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(exactly_once({&a2, &b2}));
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  EXPECT_TRUE(a2.dense);
  EXPECT_TRUE(b2.dense);
  EXPECT_GT(rig.fleet.instance(0).stats().peer_hits_remote +
                rig.fleet.instance(1).stats().peer_hits_remote,
            0u);
  expect_caches_drain(rig.fleet);
}

TEST(PeerCache, LinkCutMidEpochFallsBackToDevice) {
  // The link between the two clients fails partway through the warm
  // epoch. Posted pulls lose a leg (request, forward or bulk) and must
  // fall back to the storage node, which both clients still reach: every
  // sample arrives exactly once, packed densely, and no holder pin leaks.
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0},
              PeerRig::cfg(/*cache_chunks=*/320));
  DeliveryLog a2, b2;
  run_two_epochs(rig, a2, b2);
  rig.cluster.fabric().fail_link_at(1, 2, rig.sim.now() + 150_us);
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(exactly_once({&a2, &b2}));
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  EXPECT_TRUE(a2.dense);
  EXPECT_TRUE(b2.dense);
  const auto sa = rig.fleet.instance(0).stats();
  const auto sb = rig.fleet.instance(1).stats();
  // Pulls landed before the cut and were refused after it.
  EXPECT_GT(sa.peer_hits_remote + sb.peer_hits_remote, 0u);
  EXPECT_GT(sa.peer_misses + sb.peer_misses, 0u);
  EXPECT_GT(rig.cluster.fabric().messages_dropped(), 0u);
  expect_caches_drain(rig.fleet);
}

TEST(PeerCache, QosCappedWarmEpochFinishesEveryPull) {
  // A job-wide cap of two outstanding commands is far below the pulls the
  // read-ahead issues. The pump admits every pull before spawning it, and
  // a pull returns its grant when its bytes land, so the epoch completes
  // instead of waiting on a grant a later pull holds.
  auto c = PeerRig::cfg(/*cache_chunks=*/320);
  auto gov = std::make_shared<dlfs::core::TenantGovernor>();
  c.tenant.name = "capped";
  c.tenant.max_inflight = 2;
  c.tenant.governor = gov;
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0}, c);
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);
  DeliveryLog a2, b2;
  run_two_epochs(rig, a2, b2);
  const auto admitted0 = rig.fleet.tenant_handle()->stats().bytes_admitted;
  const auto peer0 = a.stats().peer_bytes + b.stats().peer_bytes;
  const dlsim::SimTime t0 = rig.sim.now();
  const std::array<dlsim::SimDuration, 2> busy0{a.io_core().busy_ns(),
                                                b.io_core().busy_ns()};
  // A warm epoch takes about a millisecond; a stuck grant spins forever.
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(exactly_once({&a2, &b2}));
  EXPECT_EQ(a2.skipped + b2.skipped, 0u);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  const auto peer_bytes = a.stats().peer_bytes + b.stats().peer_bytes - peer0;
  EXPECT_GT(peer_bytes, 0u);
  EXPECT_EQ(a.stats().peer_hits_local + b.stats().peer_hits_local, 0u);
  // Remote peer bytes were admitted against the tenant like device reads.
  EXPECT_GE(rig.fleet.tenant_handle()->stats().bytes_admitted - admitted0,
            peer_bytes);
  EXPECT_EQ(rig.fleet.tenant_handle()->inflight(), 0u);
  // At most one admission poll loop charged an I/O core at a time: no
  // core was busy for longer than the warm epoch lasted.
  EXPECT_LE(a.io_core().busy_ns() - busy0[0], rig.sim.now() - t0);
  EXPECT_LE(b.io_core().busy_ns() - busy0[1], rig.sim.now() - t0);
}

/// Reads every sample through `holder`, so its cache (sized for the whole
/// dataset) holds them all, save any a peer served instead.
void fill_holder(PeerRig& rig, dlfs::core::DlfsInstance& holder) {
  rig.sim.spawn(
      [](dlfs::core::DlfsInstance& inst) -> Task<void> {
        std::vector<std::byte> buf(4096);
        for (std::uint32_t id = 0; id < PeerRig::kSamples; ++id) {
          const auto h = co_await inst.open_id(id);
          co_await inst.read(h, buf);
        }
      }(holder),
      "fill-holder");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
}

/// A rig where client 1 holds every sample and client 0 holds none: each
/// sample of client 0's epoch is a remote pull from the one holder.
struct OneHolderRig : PeerRig {
  OneHolderRig() : PeerRig(3, {1, 2}, {0}, PeerRig::cfg(640)) {
    fill_holder(*this, fleet.instance(1));
    fleet.instance(0).sequence(7);
  }
};

/// One bread of 16 by client 0; records its simulated duration.
Task<void> timed_bread(Simulator& sim, dlfs::core::DlfsInstance& inst,
                       std::vector<std::byte>& arena,
                       dlsim::SimDuration& took, bool& done) {
  const dlsim::SimTime t0 = sim.now();
  auto b = co_await inst.bread(16, arena);
  took = sim.now() - t0;
  EXPECT_EQ(b.samples.size(), 16u);
  done = true;
}

TEST(PeerCache, WarmBatchOverlapsRemotePulls) {
  // Serial pulls need at least one NIC latency plus one sample's wire
  // time each, after the frontend charge; posted pulls overlap their RPC
  // chains, so every warm batch of n remote pulls beats that bound.
  OneHolderRig rig;
  auto& a = rig.fleet.instance(0);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  const dlfs::NicParams nic = rig.cluster.fabric().params();
  const dlsim::SimDuration frontend =
      16 * (costs.dir_lookup + costs.bread_per_sample);
  const dlsim::SimDuration per_pull =
      nic.latency + dlsim::transfer_time(4096, nic.bw_bytes_per_sec);
  std::vector<std::byte> arena(64_KiB);
  for (int batch = 0; batch < 8; ++batch) {
    const std::uint64_t pulls0 = a.stats().peer_hits_remote;
    dlsim::SimDuration took = 0;
    bool done = false;
    rig.sim.spawn(timed_bread(rig.sim, a, arena, took, done), "timed-bread");
    rig.sim.run_watchdog(rig.sim.now() + 1_sec);
    rig.sim.rethrow_failures();
    ASSERT_TRUE(done);
    const std::uint64_t n = a.stats().peer_hits_remote - pulls0;
    EXPECT_EQ(n, 16u);
    EXPECT_LT(took, frontend + static_cast<dlsim::SimDuration>(n) * per_pull)
        << "batch " << batch << " ran its " << n << " pulls serially";
  }
}

TEST(PeerCache, HolderServesQueueInOrder) {
  // One bread and the read-ahead behind it pull k samples from one
  // holder, many of them in flight at once. Its core serves them one
  // after another: busy time grows by exactly k serves, and the last bulk
  // transfer cannot start before k serve times have passed since the
  // first serve began. k counts the pulls the holder served: its bulk
  // sends, one 4 KiB sample each.
  OneHolderRig rig;
  auto& a = rig.fleet.instance(0);
  dlsim::CpuCore& holder_core = rig.fleet.instance(1).io_core();
  const dlfs::hw::Fabric& fabric = rig.cluster.fabric();
  constexpr dlfs::hw::NodeId kHolderNode = 2;  // client 1's node
  const dlsim::SimDuration serve =
      rig.fleet.config().calibration.dlfs.peer_serve;
  const dlsim::SimDuration busy0 = holder_core.busy_ns();
  const std::uint64_t sent0 = fabric.bytes_sent(kHolderNode);
  std::uint64_t sent = sent0;
  std::vector<std::byte> arena(64_KiB);
  dlsim::SimDuration took = 0;
  bool done = false;
  rig.sim.spawn(timed_bread(rig.sim, a, arena, took, done), "timed-bread");
  // Step the simulator by hand until it is idle, so every issued pull has
  // been served and sent: the holder's core turns busy when its first
  // serve begins, and it sends nothing but bulk transfers.
  const dlsim::SimTime deadline = rig.sim.now() + 1_sec;
  dlsim::SimTime first_serve = 0;
  dlsim::SimTime last_bulk = 0;
  while (rig.sim.now() < deadline && rig.sim.step()) {
    if (first_serve == 0 && holder_core.busy_ns() > busy0) {
      first_serve = rig.sim.now();
    }
    if (fabric.bytes_sent(kHolderNode) != sent) {
      sent = fabric.bytes_sent(kHolderNode);
      last_bulk = rig.sim.now();
    }
  }
  ASSERT_TRUE(done);
  ASSERT_EQ((sent - sent0) % 4096, 0u);
  const std::uint64_t k = (sent - sent0) / 4096;
  ASSERT_GE(k, 16u);
  EXPECT_EQ(holder_core.busy_ns() - busy0, k * serve);
  ASSERT_GT(first_serve, 0u);
  EXPECT_GE(last_bulk - first_serve, k * serve);
}

TEST(PeerCache, PullsLandBeforeTheirBread) {
  // The daemon pulls the first units of the epoch while the trainer is
  // away (the simulator runs idle after sequence()), so the first bread
  // pays its frontend and its copies, and no round trip: it finishes
  // within 16 serial frontend-plus-copy charges and one NIC latency.
  OneHolderRig rig;
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  auto& a = rig.fleet.instance(0);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  const dlsim::SimDuration bound =
      16 * (costs.dir_lookup + costs.bread_per_sample +
            costs.completion_handling +
            dlsim::transfer_time(4096, costs.copy_bw_bytes_per_sec)) +
      rig.cluster.fabric().params().latency;
  std::vector<std::byte> arena(64_KiB);
  dlsim::SimDuration took = 0;
  bool done = false;
  rig.sim.spawn(timed_bread(rig.sim, a, arena, took, done), "timed-bread");
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  ASSERT_TRUE(done);
  EXPECT_EQ(a.stats().peer_hits_remote, 16u);
  EXPECT_LE(took, bound);
}

/// Sample-level read-ahead fuses this many consecutive epoch slots into
/// one unit (`kSampleGroup` in src/dlfs/dlfs.cpp).
constexpr std::size_t kReadAheadGroup = 8;

/// Copy jobs a copy pool runs for client 0's epoch in OneHolderRig, read
/// in breads of 16: one per run of consecutive landed pulls, and a run
/// ends at its bread's and its read-ahead unit's end.
std::uint64_t pulled_runs(const OneHolderRig& rig) {
  dlfs::core::EpochSequence order(rig.fleet.plan(), 7, 0,
                                  rig.fleet.num_clients());
  std::uint64_t runs = 0;
  for (auto picks = order.take(16); !picks.empty(); picks = order.take(16)) {
    for (std::size_t i = 0; i < picks.size(); ++i) {
      if (i == 0 || picks[i].unit_slot / kReadAheadGroup !=
                        picks[i - 1].unit_slot / kReadAheadGroup) {
        ++runs;
      }
    }
  }
  return runs;
}

TEST(PeerCache, PulledRunsCopyOnTheCopyThreads) {
  // Client 0's epoch is all remote pulls. The pick loop hands each run
  // of them to the SCQ copy threads as one job: one cross-core handoff
  // per run, completion handling and the memcpy per sample, and the I/O
  // core is charged only the breads' frontend.
  OneHolderRig rig;
  auto& a = rig.fleet.instance(0);
  ASSERT_EQ(rig.fleet.config().copy_threads, 2u);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  const std::uint64_t runs = pulled_runs(rig);
  const dlsim::SimDuration io0 = a.io_core().busy_ns();
  const dlsim::SimDuration copy0 = a.engine().copy_busy_ns();
  const std::uint64_t handoffs0 = a.engine().cross_core_handoffs();
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, log), "pulled-runs");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(log.order.size(), PeerRig::kSamples / 2);
  EXPECT_TRUE(log.content_ok);
  EXPECT_TRUE(log.dense);
  const std::uint64_t n = a.stats().peer_hits_remote;
  ASSERT_EQ(n, log.order.size());
  const std::uint64_t handoffs = a.engine().cross_core_handoffs() - handoffs0;
  EXPECT_EQ(handoffs, runs);
  EXPECT_LT(handoffs, n);
  const dlsim::SimDuration per_sample =
      costs.completion_handling +
      dlsim::transfer_time(4096, costs.copy_bw_bytes_per_sec);
  EXPECT_EQ(a.engine().copy_busy_ns() - copy0,
            n * per_sample + runs * costs.cross_core_handoff);
  EXPECT_EQ(a.io_core().busy_ns() - io0,
            n * (costs.dir_lookup + costs.bread_per_sample));
}

TEST(PeerCache, PulledCopiesStayInlineWithoutCopyThreads) {
  // With no copy threads each landed pull is copied on the I/O core, one
  // sample at a time, and nothing crosses cores. So is each own-cache
  // hit: when client 0 is the holder, its whole epoch is served from its
  // own cache.
  for (const std::uint32_t holder : {1u, 0u}) {
    auto c = PeerRig::cfg(640);
    c.copy_threads = 0;
    PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0}, c);
    fill_holder(rig, rig.fleet.instance(holder));
    auto& a = rig.fleet.instance(0);
    a.sequence(7);
    const auto& costs = rig.fleet.config().calibration.dlfs;
    const dlsim::SimDuration io0 = a.io_core().busy_ns();
    const std::uint64_t hits0 = a.stats().cache_hits;
    DeliveryLog log;
    rig.sim.spawn(run_epoch_logged(rig.ds, a, log), "inline-copies");
    rig.sim.run_watchdog(rig.sim.now() + 30_sec);
    rig.sim.rethrow_failures();
    ASSERT_EQ(log.order.size(), PeerRig::kSamples / 2);
    EXPECT_TRUE(log.content_ok);
    EXPECT_TRUE(log.dense);
    const auto s = a.stats();
    const std::uint64_t n =
        holder == 0 ? s.cache_hits - hits0 : s.peer_hits_remote;
    ASSERT_EQ(n, log.order.size()) << "holder " << holder;
    EXPECT_EQ(a.engine().cross_core_handoffs(), 0u);
    EXPECT_EQ(a.engine().copy_busy_ns(), 0u);
    EXPECT_EQ(a.io_core().busy_ns() - io0,
              n * (costs.dir_lookup + costs.bread_per_sample +
                   costs.completion_handling +
                   dlsim::transfer_time(4096, costs.copy_bw_bytes_per_sec)))
        << "holder " << holder;
  }
}

TEST(PeerCache, OwnCacheHitsCopyOnTheCopyThreads) {
  // One client whose cache holds the whole dataset: its warm epoch is all
  // own-cache hits. Each is pinned at its read-ahead unit's acquire and
  // copied from the pin by the SCQ copy threads as a job of its own, so
  // the I/O core is charged only the breads' frontend, and the copy
  // threads completion handling, the memcpy and one handoff per hit.
  PeerRig rig(2, /*clients=*/{1}, /*storage=*/{0}, PeerRig::cfg(640));
  auto& a = rig.fleet.instance(0);
  fill_holder(rig, a);
  ASSERT_EQ(a.cache().resident_samples(), PeerRig::kSamples);
  ASSERT_EQ(rig.fleet.config().copy_threads, 2u);
  a.sequence(7);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  const dlsim::SimDuration io0 = a.io_core().busy_ns();
  const dlsim::SimDuration copy0 = a.engine().copy_busy_ns();
  const std::uint64_t handoffs0 = a.engine().cross_core_handoffs();
  const std::uint64_t hits0 = a.stats().cache_hits;
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, log), "own-hits");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  const std::uint64_t n = PeerRig::kSamples;
  ASSERT_EQ(log.order.size(), n);
  EXPECT_TRUE(log.content_ok);
  EXPECT_TRUE(log.dense);
  EXPECT_EQ(a.stats().cache_hits - hits0, n);
  EXPECT_EQ(a.engine().cross_core_handoffs() - handoffs0, n);
  EXPECT_EQ(a.io_core().busy_ns() - io0,
            n * (costs.dir_lookup + costs.bread_per_sample));
  EXPECT_EQ(a.engine().copy_busy_ns() - copy0,
            n * (costs.completion_handling +
                 dlsim::transfer_time(4096, costs.copy_bw_bytes_per_sec) +
                 costs.cross_core_handoff));
  expect_caches_drain(rig.fleet);
}

TEST(PeerCache, WarmBreadBeatsSerialInlineCopies) {
  // The pulls behind the first bread land while the trainer is away. Its
  // frontend is serial, but its copies run on the copy threads, so it
  // finishes before 16 serial frontend-plus-inline-copy charges would.
  OneHolderRig rig;
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  auto& a = rig.fleet.instance(0);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  const dlsim::SimDuration serial =
      16 * (costs.dir_lookup + costs.bread_per_sample +
            costs.completion_handling +
            dlsim::transfer_time(4096, costs.copy_bw_bytes_per_sec));
  std::vector<std::byte> arena(64_KiB);
  dlsim::SimDuration took = 0;
  bool done = false;
  rig.sim.spawn(timed_bread(rig.sim, a, arena, took, done), "timed-bread");
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  ASSERT_TRUE(done);
  EXPECT_EQ(a.stats().peer_hits_remote, 16u);
  EXPECT_LT(took, serial);
}

TEST(PeerCache, FirstCopyStartsBeforeTheLastLookup) {
  // The pulls behind the first bread land while the trainer is away. Each
  // pick pays its own lookup just before its acquire, so the first
  // read-ahead unit's run of pulls reaches the copy threads while later
  // picks are still being looked up: the copy threads start before the 16
  // lookups of the whole batch could have finished.
  OneHolderRig rig;
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  auto& a = rig.fleet.instance(0);
  const auto& costs = rig.fleet.config().calibration.dlfs;
  const dlsim::SimDuration frontend =
      16 * (costs.dir_lookup + costs.bread_per_sample);
  const dlsim::SimDuration copy0 = a.engine().copy_busy_ns();
  std::vector<std::byte> arena(64_KiB);
  dlsim::SimDuration took = 0;
  bool done = false;
  const dlsim::SimTime t0 = rig.sim.now();
  rig.sim.spawn(timed_bread(rig.sim, a, arena, took, done), "timed-bread");
  const dlsim::SimTime deadline = t0 + 1_sec;
  dlsim::SimTime first_copy = 0;
  while (!done && rig.sim.now() < deadline && rig.sim.step()) {
    if (first_copy == 0 && a.engine().copy_busy_ns() != copy0) {
      first_copy = rig.sim.now();
    }
  }
  rig.sim.rethrow_failures();
  ASSERT_TRUE(done);
  ASSERT_GT(first_copy, 0u);
  EXPECT_LT(first_copy - t0, frontend);
}

TEST(PeerCache, RefusedReadAheadPullFallsBackOnce) {
  // The holder evicts client 0's first sample after the daemon issued its
  // pull and before the holder pins it. The refusal counts one miss and
  // the extent fails over to the device inside the engine, ahead of the
  // first bread: the sample arrives once, read once from the device, and
  // enters the cache the way a demand read's device copy does.
  OneHolderRig rig;
  auto& a = rig.fleet.instance(0);
  auto& holder = rig.fleet.instance(1);
  const dlfs::core::EpochSequence order(rig.fleet.plan(), 7, 0,
                                        rig.fleet.num_clients());
  const std::uint32_t victim = order.unit_at(0)->samples.front().sample_id;
  const std::uint64_t posted0 = a.engine().requests_posted();
  // Every pull's request or forward hop takes a NIC latency, so running
  // the current instant issues the first units' pulls and pins nothing.
  rig.sim.run_until(rig.sim.now());
  ASSERT_GT(a.prefetcher().stats().units_issued, 0u);
  ASSERT_TRUE(holder.cache().valid(victim));
  holder.cache().evict(victim);
  ASSERT_FALSE(holder.cache().valid(victim));
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(a.stats().peer_misses, 1u);
  EXPECT_EQ(a.engine().requests_posted() - posted0, 1u);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, log), "refused-pull-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_EQ(std::count(log.order.begin(), log.order.end(), victim), 1);
  EXPECT_EQ(log.order.size(), PeerRig::kSamples / 2);
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_TRUE(log.content_ok);
  EXPECT_TRUE(log.dense);
  const auto s = a.stats();
  EXPECT_EQ(s.peer_misses, 1u);
  EXPECT_EQ(s.peer_hits_remote, log.order.size() - 1);
  EXPECT_EQ(a.engine().requests_posted() - posted0, 1u);
  EXPECT_TRUE(a.cache().valid(victim));
}

TEST(PeerCache, ReadWithNoPeerHolderPostsNoPull) {
  // OneHolderRig's fill: client 1 reads every sample while no one else
  // holds any. A miss no peer holds reads the device at once, so no read
  // asks a home client (client 0's node receives nothing) and none counts
  // a peer miss.
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0}, PeerRig::cfg(640));
  const std::uint64_t received0 = rig.cluster.fabric().bytes_received(1);
  fill_holder(rig, rig.fleet.instance(1));
  EXPECT_EQ(rig.fleet.instance(1).cache().resident_samples(),
            PeerRig::kSamples);
  EXPECT_EQ(rig.fleet.instance(1).stats().peer_misses, 0u);
  EXPECT_EQ(rig.cluster.fabric().bytes_received(1), received0);
}

/// Reads samples `ids` through `inst`'s read(), one at a time; clears
/// `ok` on a byte that differs from the dataset's.
Task<void> read_checked(const dlfs::dataset::Dataset& ds,
                        dlfs::core::DlfsInstance& inst,
                        std::vector<std::uint32_t> ids, bool& ok) {
  std::vector<std::byte> buf(4096);
  std::vector<std::byte> want(4096);
  for (const std::uint32_t id : ids) {
    const auto h = co_await inst.open_id(id);
    co_await inst.read(h, buf);
    ds.fill_content(id, 0, want);
    if (buf != want) ok = false;
  }
}

TEST(PeerCache, DemandReadPullsFromRemotePeer) {
  // OneHolderRig's topology and fill under a TenantGovernor, with no epoch
  // sequenced at client 0, so nothing reads ahead: each read() of a sample
  // only client 1 holds is a demand pull. The pump admits it (a pool
  // chunk and a grant), the bytes are copied by a one-sample copy job,
  // and no device command is posted and no pulled sample is cached.
  auto c = PeerRig::cfg(640);
  c.tenant.name = "puller";
  c.tenant.governor = std::make_shared<dlfs::core::TenantGovernor>();
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0}, c);
  fill_holder(rig, rig.fleet.instance(1));
  auto& a = rig.fleet.instance(0);
  const auto& tenant = *rig.fleet.tenant_handle();
  const auto s0 = a.stats();
  const std::uint64_t posted0 = a.engine().requests_posted();
  const std::uint64_t admitted0 = tenant.stats().bytes_admitted;
  std::vector<std::uint32_t> ids(16);
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i * 31;
  bool content_ok = true;
  rig.sim.spawn(read_checked(rig.ds, a, ids, content_ok), "demand-pulls");
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(content_ok);
  const auto s = a.stats();
  EXPECT_EQ(s.peer_hits_remote - s0.peer_hits_remote, 16u);
  EXPECT_EQ(s.peer_bytes - s0.peer_bytes, 16u * 4096);
  EXPECT_EQ(s.peer_misses, s0.peer_misses);
  EXPECT_EQ(a.engine().requests_posted(), posted0);
  EXPECT_GE(tenant.stats().bytes_admitted - admitted0, 16u * 4096);
  EXPECT_EQ(tenant.inflight(), 0u);
  EXPECT_EQ(a.pool().used_chunks(), a.cache().resident_chunks());
  for (const std::uint32_t id : ids) {
    EXPECT_FALSE(a.cache().valid(id)) << "pulled sample " << id;
  }
  expect_caches_drain(rig.fleet);
}

TEST(PeerCache, RefusedDemandPullReadsDeviceOnce) {
  // The holder evicts the sample after the demand pull's request hop left
  // and before the holder pins it. The refusal counts one miss and the
  // extent fails over to the device inside the engine: one device
  // command, the right bytes, and the sample cached like any device read.
  PeerRig rig(3, /*clients=*/{1, 2}, /*storage=*/{0}, PeerRig::cfg(640));
  fill_holder(rig, rig.fleet.instance(1));
  auto& a = rig.fleet.instance(0);
  auto& holder = rig.fleet.instance(1);
  constexpr std::uint32_t kVictim = 5;
  const dlfs::core::SampleHandle h{kVictim,
                                   rig.fleet.directory().lookup_id(kVictim)};
  const std::uint64_t posted0 = a.engine().requests_posted();
  std::vector<std::byte> buf(4096);
  rig.sim.spawn(
      [](dlfs::core::DlfsInstance& inst, dlfs::core::SampleHandle h,
         std::vector<std::byte>& buf) -> Task<void> {
        co_await inst.read(h, buf);
      }(a, h, buf),
      "refused-demand-pull");
  // The pull's request or forward hop takes a NIC latency, so running
  // the current instant starts the pull and pins nothing.
  rig.sim.run_until(rig.sim.now());
  ASSERT_TRUE(holder.cache().valid(kVictim));
  holder.cache().evict(kVictim);
  rig.sim.run_watchdog(rig.sim.now() + 1_sec);
  rig.sim.rethrow_failures();
  std::vector<std::byte> want(4096);
  rig.ds.fill_content(kVictim, 0, want);
  EXPECT_EQ(buf, want);
  EXPECT_EQ(a.stats().peer_misses, 1u);
  EXPECT_EQ(a.stats().peer_hits_remote, 0u);
  EXPECT_EQ(a.engine().requests_posted() - posted0, 1u);
  EXPECT_TRUE(a.cache().valid(kVictim));
}

TEST(PeerCache, RefusedPullOfDeadPrimaryReadsItsReplica) {
  // Client 1 holds every sample, but the link between the two clients'
  // nodes is cut, so every pull client 0 issues is refused. The extent
  // then moves to its device placement, whose storage node has crashed,
  // and fails over to the replica: the right bytes, one miss per sample
  // and no peer hit.
  auto c = PeerRig::cfg(640);
  c.fault.replication = dlfs::core::ReplicationConfig(2);
  PeerRig rig(4, /*clients=*/{2, 3}, /*storage=*/{0, 1}, c);
  fill_holder(rig, rig.fleet.instance(1));
  ASSERT_NE(rig.fleet.target(0), nullptr);
  rig.fleet.target(0)->crash();
  rig.cluster.fabric().fail_link(2, 3);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < PeerRig::kSamples; ++id) {
    if (rig.fleet.layout()[id].nid == 0) ids.push_back(id);
  }
  ASSERT_FALSE(ids.empty());
  auto& a = rig.fleet.instance(0);
  bool content_ok = true;
  rig.sim.spawn(read_checked(rig.ds, a, ids, content_ok), "refused-dead");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_TRUE(content_ok);
  const auto s = a.stats();
  EXPECT_EQ(s.peer_misses, ids.size());
  EXPECT_EQ(s.peer_hits_remote, 0u);
  EXPECT_EQ(s.samples_delivered, ids.size());
  EXPECT_EQ(s.nodes_down, 1u);
}

TEST(PeerCache, LandingChunksReturnToThePool) {
  // A pull lands in a requester pool chunk that lives until the copy job
  // carrying it has run: after a warm epoch of pulls the requester's
  // pool holds only its own cache, and no pulled sample entered that
  // cache.
  OneHolderRig rig;
  auto& a = rig.fleet.instance(0);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, log), "pull-epoch");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(log.order.size(), PeerRig::kSamples / 2);
  EXPECT_TRUE(log.content_ok);
  EXPECT_EQ(a.stats().peer_hits_remote, log.order.size());
  EXPECT_EQ(a.pool().used_chunks(), a.cache().resident_chunks());
  for (const std::uint32_t id : log.order) {
    EXPECT_FALSE(a.cache().valid(id)) << "pulled sample " << id;
  }
}

TEST(PeerCache, CoLocatedHolderBeatsRemoteHolder) {
  // Client 0 shares node 1 with client 1; client 2 is on node 2. Both
  // holders cache every sample, client 2 first, so client 2 is the first
  // holder the directory lists for each. Client 0's epoch must still take
  // every sample from its co-located holder: a shared-DRAM copy beats a
  // pull over the fabric.
  PeerRig rig(3, /*clients=*/{1, 1, 2}, /*storage=*/{0}, PeerRig::cfg(640));
  fill_holder(rig, rig.fleet.instance(2));
  // Node 1 is cut off from node 2 while client 1 fills, so its pulls from
  // client 2 are refused and its reads come from the device.
  rig.cluster.fabric().fail_link(1, 2);
  fill_holder(rig, rig.fleet.instance(1));
  rig.cluster.fabric().heal_link(1, 2);
  ASSERT_EQ(rig.fleet.instance(1).cache().resident_samples(),
            PeerRig::kSamples);
  ASSERT_EQ(rig.fleet.instance(2).cache().resident_samples(),
            PeerRig::kSamples);

  auto& a = rig.fleet.instance(0);
  a.sequence(3);
  const std::uint64_t sent0 = rig.cluster.fabric().bytes_sent(2);
  DeliveryLog log;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, log), "colocated-beats-remote");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  EXPECT_GT(log.order.size(), 0u);
  EXPECT_EQ(log.skipped, 0u);
  EXPECT_TRUE(log.content_ok);
  const auto s = a.stats();
  EXPECT_EQ(s.peer_hits_local, s.samples_delivered);
  EXPECT_EQ(s.peer_hits_remote, 0u);
  EXPECT_EQ(rig.cluster.fabric().bytes_sent(2), sent0);
}

TEST(PeerCache, CrashFailoverSkipsExactlyOncePerSample) {
  // Two storage nodes, two remote clients, no replication, peer cache on.
  // A mid-epoch-2 crash of one target makes its samples retry through
  // both the peer route and the (dead) replica-less device route; a
  // sample must land in exactly one bucket — served or skipped — never
  // both. Peer hits can rescue some of the dead node's samples (their
  // bytes live in a peer's DRAM), which is the cooperative cache's
  // availability win; the accounting identity must hold regardless.
  PeerRig rig(4, /*clients=*/{2, 3}, /*storage=*/{0, 1},
              PeerRig::cfg(/*cache_chunks=*/320));
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);

  a.sequence(1);
  b.sequence(1);
  DeliveryLog a1, b1;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a1), "failover-a-e1");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b1), "failover-b-e1");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  ASSERT_EQ(a1.skipped + b1.skipped, 0u);

  ASSERT_NE(rig.fleet.target(0), nullptr);
  rig.fleet.target(0)->crash_at(rig.sim.now() + 500_us);
  a.sequence(2);
  b.sequence(2);
  DeliveryLog a2, b2;
  rig.sim.spawn(run_epoch_logged(rig.ds, a, a2), "failover-a-e2");
  rig.sim.spawn(run_epoch_logged(rig.ds, b, b2), "failover-b-e2");
  rig.sim.run_watchdog(rig.sim.now() + 30_sec);
  rig.sim.rethrow_failures();
  // Exactly-once, conservation form: every sample of the epoch is served
  // once or skipped once (run_epoch_logged asserts the per-batch bound).
  EXPECT_EQ(a2.order.size() + a2.skipped + b2.order.size() + b2.skipped,
            PeerRig::kSamples);
  EXPECT_TRUE(a2.content_ok);
  EXPECT_TRUE(b2.content_ok);
  // The per-instance counter agrees with the per-batch tallies — no
  // double count when a sample unwound through peer and replica routes.
  EXPECT_EQ(a.stats().samples_skipped, a2.skipped);
  EXPECT_EQ(b.stats().samples_skipped, b2.skipped);
}

TEST(PeerCache, DisabledConfigKeepsCountersAtZero) {
  // peer_cache.enabled = false must leave the read path untouched: no
  // directory, all peer counters pinned at zero.
  auto c = PeerRig::cfg(/*cache_chunks=*/320);
  c.peer_cache.enabled = false;
  PeerRig rig(2, /*clients=*/{1, 1}, /*storage=*/{0}, c);
  auto& a = rig.fleet.instance(0);
  auto& b = rig.fleet.instance(1);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    a.sequence(seed);
    b.sequence(seed);
    DeliveryLog la, lb;
    rig.sim.spawn(run_epoch_logged(rig.ds, a, la), "disabled-a");
    rig.sim.spawn(run_epoch_logged(rig.ds, b, lb), "disabled-b");
    rig.sim.run_watchdog(rig.sim.now() + 30_sec);
    rig.sim.rethrow_failures();
    EXPECT_TRUE(la.content_ok);
    EXPECT_TRUE(lb.content_ok);
  }
  EXPECT_EQ(rig.fleet.peer_directory(), nullptr);
  for (auto* inst : {&a, &b}) {
    const auto s = inst->stats();
    EXPECT_EQ(s.peer_hits_local, 0u);
    EXPECT_EQ(s.peer_hits_remote, 0u);
    EXPECT_EQ(s.peer_misses, 0u);
    EXPECT_EQ(s.peer_bytes, 0u);
  }
}

}  // namespace
