// Cross-module property tests: randomized stress of the DES kernel
// (determinism, conservation), fabric accounting invariants, and
// whole-stack DLFS epoch properties swept over cluster size, batching
// mode, dataset shape, and chunk size.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

#include "cluster/cluster.hpp"
#include "cluster/pfs.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dataset/dataset.hpp"
#include "dlfs/avl_tree.hpp"
#include "dlfs/dlfs.hpp"
#include "dlfs/sample_entry.hpp"
#include "harness.hpp"
#include "hw/net/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace {

using dlfs::core::BatchingMode;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;
using namespace dlfs::byte_literals;

// ---------------------------------------------------------------------------
// DES kernel under randomized load

class SimStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimStress, RandomProcessSoupIsDeterministicAndConserves) {
  // A soup of producers/consumers over shared channels with random
  // delays: every token pushed must be popped, the run must terminate,
  // and two runs must produce identical event counts and final times.
  auto run = [&](std::uint64_t seed) {
    Simulator sim;
    dlfs::Rng rng(seed);
    constexpr int kChannels = 4;
    std::vector<std::unique_ptr<dlsim::Channel<int>>> chans;
    for (int i = 0; i < kChannels; ++i) {
      chans.push_back(std::make_unique<dlsim::Channel<int>>(
          sim, 1 + rng.next_below(8)));
    }
    std::uint64_t consumed = 0;
    const int kProducers = 6;
    const int kPerProducer = 50;
    int producers_left = kProducers * kChannels;
    for (int c = 0; c < kChannels; ++c) {
      for (int p = 0; p < kProducers; ++p) {
        sim.spawn([](Simulator& s, dlsim::Channel<int>& ch,
                     std::uint64_t d, int& left) -> Task<void> {
          for (int i = 0; i < kPerProducer; ++i) {
            co_await s.delay(d % 97 + 1);
            co_await ch.push(1);
          }
          if (--left == 0) {
            // no-op: consumers stop via close below
          }
          co_return;
        }(sim, *chans[c], rng.next(), producers_left));
      }
      sim.spawn([](dlsim::Channel<int>& ch, std::uint64_t& total) -> Task<void> {
        for (;;) {
          auto v = co_await ch.pop();
          if (!v) break;
          total += static_cast<std::uint64_t>(*v);
        }
      }(*chans[c], consumed));
    }
    // Closer: waits for all pushes (kProducers * kPerProducer per chan).
    sim.spawn([](Simulator& s,
                 std::vector<std::unique_ptr<dlsim::Channel<int>>>& cs)
                  -> Task<void> {
      co_await s.delay(100000);  // after every producer finished
      for (auto& c : cs) c->close();
    }(sim, chans));
    sim.run();
    return std::make_tuple(consumed, sim.now(), sim.events_processed());
  };
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  EXPECT_EQ(a, b);  // bit-for-bit deterministic
  EXPECT_EQ(std::get<0>(a),
            static_cast<std::uint64_t>(4 * 6 * 50));  // conservation
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimStress,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(SimStress, ThousandsOfProcessesDrain) {
  Simulator sim;
  std::uint64_t sum = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.spawn([](Simulator& s, std::uint64_t& out,
                 std::uint64_t d) -> Task<void> {
      co_await s.delay(d);
      out += 1;
    }(sim, sum, static_cast<std::uint64_t>(i % 17)));
  }
  sim.run();
  EXPECT_EQ(sum, 5000u);
  EXPECT_EQ(sim.live_processes(), 0u);
}

// ---------------------------------------------------------------------------
// Fabric invariants

class FabricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricProperty, ByteAccountingBalancesAndTimeRespectsBounds) {
  Simulator sim;
  constexpr std::uint32_t kNodes = 6;
  dlfs::hw::Fabric fabric(sim, kNodes);
  dlfs::Rng rng(GetParam());
  struct Flow {
    std::uint32_t src, dst;
    std::uint64_t bytes;
  };
  std::vector<Flow> flows;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 60; ++i) {
    Flow f{static_cast<std::uint32_t>(rng.next_below(kNodes)),
           static_cast<std::uint32_t>(rng.next_below(kNodes)),
           1 + rng.next_below(1_MiB)};
    total_bytes += f.bytes;
    flows.push_back(f);
  }
  for (const auto& f : flows) {
    sim.spawn([](dlfs::hw::Fabric& fab, Flow fl) -> Task<void> {
      co_await fab.transfer(fl.src, fl.dst, fl.bytes);
    }(fabric, f));
  }
  sim.run();
  // Conservation: sum sent == sum received == total.
  std::uint64_t sent = 0, recv = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    sent += fabric.bytes_sent(n);
    recv += fabric.bytes_received(n);
  }
  EXPECT_EQ(sent, total_bytes);
  EXPECT_EQ(recv, total_bytes);
  // Lower bound: the busiest egress pipe cannot beat wire speed.
  std::uint64_t max_pipe = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    std::uint64_t nic = 0;
    for (const auto& f : flows) {
      if (f.src == n && f.src != f.dst) nic += f.bytes;
    }
    max_pipe = std::max(max_pipe, nic);
  }
  EXPECT_GE(sim.now() + 1, dlsim::transfer_time(max_pipe, 6.8e9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricProperty,
                         ::testing::Values(3, 7, 31, 127));

// ---------------------------------------------------------------------------
// Whole-stack DLFS epoch properties

// gtest names each case by dumping the parameter's raw bytes, so every byte
// is an explicit, initialised field: left as padding, those bytes were
// uninitialised and the case names changed from run to run. case_tag pins
// the first of them to a fixed per-case value.
struct StackParam {
  std::uint32_t nodes;
  BatchingMode mode;
  bool variable_sizes;
  std::uint8_t case_tag;
  std::uint8_t reserved[6];
  std::uint64_t chunk_bytes;
};
static_assert(sizeof(StackParam) == 24);

class DlfsStackProperty : public ::testing::TestWithParam<StackParam> {};

TEST_P(DlfsStackProperty, EpochIsExactCoverWithExactBytes) {
  const StackParam p = GetParam();
  Simulator sim;
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;
  nc.device_capacity = 512_MiB;
  dlfs::cluster::Cluster cluster(sim, p.nodes, nc);
  auto ds = p.variable_sizes
                ? dlfs::dataset::make_imdb_like_dataset(300, 5)
                : dlfs::dataset::make_fixed_size_dataset(300, 3333, 5);
  dlfs::cluster::Pfs pfs(sim, ds);
  dlfs::core::DlfsConfig cfg;
  cfg.batching = p.mode;
  cfg.chunk_bytes = p.chunk_bytes;
  dlfs::core::DlfsFleet fleet(cluster, pfs, ds, cfg);
  fleet.mount();

  for (std::uint32_t c = 0; c < p.nodes; ++c) fleet.instance(c).sequence(9);
  std::vector<dlfs::bench::EpochLog> logs(p.nodes);
  for (std::uint32_t c = 0; c < p.nodes; ++c) {
    // An odd batch on purpose.
    sim.spawn(dlfs::bench::read_epoch_checked(fleet.instance(c), ds, 13,
                                              logs[c]));
  }
  sim.run();
  sim.rethrow_failures();
  std::uint64_t bytes = 0;
  for (const auto& log : logs) {
    bytes += log.bytes;
    EXPECT_TRUE(log.content_ok);
  }
  EXPECT_TRUE(dlfs::bench::exactly_once(logs, 300));
  EXPECT_EQ(bytes, ds.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlfsStackProperty,
    ::testing::Values(
        StackParam{1, BatchingMode::kChunkLevel, false, 0x00, {}, 256_KiB},
        StackParam{1, BatchingMode::kChunkLevel, true, 0xD0, {}, 64_KiB},
        StackParam{3, BatchingMode::kChunkLevel, true, 0xF0, {}, 256_KiB},
        StackParam{3, BatchingMode::kSampleLevel, true, 0xA0, {}, 256_KiB},
        StackParam{2, BatchingMode::kNone, false, 0x50, {}, 256_KiB},
        StackParam{5, BatchingMode::kChunkLevel, true, 0xB0, {}, 128_KiB},
        StackParam{4, BatchingMode::kChunkLevel, false, 0xF0, {}, 1_MiB}));

TEST(DlfsStackProperty, TwoEpochsDifferentSeedsBothCover) {
  Simulator sim;
  dlfs::cluster::NodeConfig nc;
  nc.synthetic_store = false;
  nc.device_capacity = 256_MiB;
  dlfs::cluster::Cluster cluster(sim, 2, nc);
  auto ds = dlfs::dataset::make_fixed_size_dataset(2048, 1000);
  dlfs::cluster::Pfs pfs(sim, ds);
  dlfs::core::DlfsFleet fleet(cluster, pfs, ds, dlfs::core::DlfsConfig{});
  fleet.mount();

  std::vector<std::vector<std::uint32_t>> epochs;
  for (std::uint64_t seed : {100ull, 200ull}) {
    for (std::uint32_t c = 0; c < 2; ++c) fleet.instance(c).sequence(seed);
    std::vector<dlfs::bench::EpochLog> logs(2);
    for (std::uint32_t c = 0; c < 2; ++c) {
      sim.spawn(dlfs::bench::read_epoch_checked(fleet.instance(c), ds, 8,
                                                logs[c]));
    }
    sim.run();
    sim.rethrow_failures();
    EXPECT_TRUE(dlfs::bench::exactly_once(logs, 2048));
    epochs.push_back(std::move(logs[0].order));
  }
  EXPECT_NE(epochs[0], epochs[1]);  // client 0 reshuffled between epochs
}

// ---------------------------------------------------------------------------
// SampleEntry bit-field packing (Fig. 3b: NID:16 | key:48 || off:40 |
// len:23 | V:1)

using dlfs::core::SampleEntry;

TEST(SampleEntryPacking, MaxValuesRoundTripExactly) {
  const auto nid = static_cast<std::uint16_t>(SampleEntry::kMaxNid);
  const SampleEntry e(nid, SampleEntry::kKeyMask, SampleEntry::kMaxOffset,
                      static_cast<std::uint32_t>(SampleEntry::kMaxLen),
                      /*valid_in_cache=*/true);
  EXPECT_EQ(e.nid(), nid);
  EXPECT_EQ(e.key(), SampleEntry::kKeyMask);
  EXPECT_EQ(e.offset(), SampleEntry::kMaxOffset);
  EXPECT_EQ(e.len(), SampleEntry::kMaxLen);
  EXPECT_TRUE(e.valid_in_cache());
  // All 128 bits are accounted for: every field at max + V set must
  // saturate both words.
  EXPECT_EQ(e.raw_hi(), ~0ull);
  EXPECT_EQ(e.raw_lo(), ~0ull);
}

TEST(SampleEntryPacking, ZeroEntryIsAllClear) {
  const SampleEntry e(0, 0, 0, 0, false);
  EXPECT_EQ(e.raw_hi(), 0u);
  EXPECT_EQ(e.raw_lo(), 0u);
  EXPECT_FALSE(e.valid_in_cache());
}

TEST(SampleEntryPacking, FieldsDoNotBleedIntoNeighbours) {
  // Each field alone at max must leave every other field zero — a shift
  // or mask bug would leak bits across the boundary.
  const SampleEntry only_nid(static_cast<std::uint16_t>(SampleEntry::kMaxNid),
                             0, 0, 0);
  EXPECT_EQ(only_nid.key(), 0u);
  EXPECT_EQ(only_nid.raw_lo(), 0u);

  const SampleEntry only_key(0, SampleEntry::kKeyMask, 0, 0);
  EXPECT_EQ(only_key.nid(), 0u);
  EXPECT_EQ(only_key.raw_lo(), 0u);

  const SampleEntry only_off(0, 0, SampleEntry::kMaxOffset, 0);
  EXPECT_EQ(only_off.raw_hi(), 0u);
  EXPECT_EQ(only_off.len(), 0u);
  EXPECT_FALSE(only_off.valid_in_cache());

  const SampleEntry only_len(
      0, 0, 0, static_cast<std::uint32_t>(SampleEntry::kMaxLen));
  EXPECT_EQ(only_len.raw_hi(), 0u);
  EXPECT_EQ(only_len.offset(), 0u);
  EXPECT_FALSE(only_len.valid_in_cache());
}

TEST(SampleEntryPacking, OverflowingAnyFieldIsRejected) {
  EXPECT_THROW(SampleEntry(0, SampleEntry::kKeyMask + 1, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(SampleEntry(0, 0, SampleEntry::kMaxOffset + 1, 0),
               std::invalid_argument);
  EXPECT_THROW(
      SampleEntry(0, 0, 0,
                  static_cast<std::uint32_t>(SampleEntry::kMaxLen + 1)),
      std::invalid_argument);
}

TEST(SampleEntryPacking, RandomizedRoundTripAndValidBitIsolation) {
  dlfs::Rng rng(0xf193b);  // deterministic seed, independent of others
  for (int i = 0; i < 5000; ++i) {
    const auto nid = static_cast<std::uint16_t>(rng.next_below(1ull << 16));
    const std::uint64_t key = rng.next_below(SampleEntry::kKeyMask + 1);
    const std::uint64_t off = rng.next_below(SampleEntry::kMaxOffset + 1);
    const auto len =
        static_cast<std::uint32_t>(rng.next_below(SampleEntry::kMaxLen + 1));
    const bool v = rng.next_below(2) == 1;
    SampleEntry e(nid, key, off, len, v);
    ASSERT_EQ(e.nid(), nid);
    ASSERT_EQ(e.key(), key);
    ASSERT_EQ(e.offset(), off);
    ASSERT_EQ(e.len(), len);
    ASSERT_EQ(e.valid_in_cache(), v);
    // Flipping V must not disturb any packed neighbour.
    e.set_valid_in_cache(!v);
    ASSERT_EQ(e.valid_in_cache(), !v);
    ASSERT_EQ(e.offset(), off);
    ASSERT_EQ(e.len(), len);
    ASSERT_EQ(e.raw_hi(), SampleEntry(nid, key, off, len, !v).raw_hi());
    ASSERT_EQ(e.raw_lo(), SampleEntry(nid, key, off, len, !v).raw_lo());
  }
}

// ---------------------------------------------------------------------------
// AvlTree duplicate-key and rebalance edge cases

using IntTree = dlfs::core::AvlTree<int, int>;

TEST(AvlTreeEdge, DuplicateInsertIsRejectedAndTreeUnchanged) {
  IntTree t;
  EXPECT_TRUE(t.insert(7, 70));
  EXPECT_FALSE(t.insert(7, 71));  // duplicate: refused...
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(7), 70);  // ...and the original value survives
  // Duplicates below an interior node must not trigger a rebalance or a
  // size bump either.
  for (int k : {3, 11, 1, 5, 9, 13}) EXPECT_TRUE(t.insert(k, k * 10));
  const std::size_t sz = t.size();
  const int h = t.height();
  for (int k : {3, 11, 1, 5, 9, 13, 7}) EXPECT_FALSE(t.insert(k, -1));
  EXPECT_EQ(t.size(), sz);
  EXPECT_EQ(t.height(), h);
  EXPECT_TRUE(t.validate());
  for (int k : {3, 11, 1, 5, 9, 13}) EXPECT_EQ(*t.find(k), k * 10);
}

TEST(AvlTreeEdge, MonotonicInsertsStayLogarithmic) {
  // Ascending and descending runs force every LL/RR rotation chain.
  for (const bool ascending : {true, false}) {
    IntTree t;
    constexpr int kN = 1024;
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(t.insert(ascending ? i : kN - i, i));
      ASSERT_TRUE(t.validate());
    }
    EXPECT_EQ(t.size(), static_cast<std::size_t>(kN));
    // AVL height bound: h <= 1.4405 * log2(n + 2).
    EXPECT_LE(t.height(), 15);  // 1.4405 * log2(1026) ~ 14.4
  }
}

TEST(AvlTreeEdge, ZigZagInsertsForceDoubleRotations) {
  // LR shape: insert 30, 10, 20 — root must become 20.
  IntTree lr;
  EXPECT_TRUE(lr.insert(30, 0));
  EXPECT_TRUE(lr.insert(10, 0));
  EXPECT_TRUE(lr.insert(20, 0));
  EXPECT_TRUE(lr.validate());
  EXPECT_EQ(lr.height(), 2);
  // RL shape: 10, 30, 20.
  IntTree rl;
  EXPECT_TRUE(rl.insert(10, 0));
  EXPECT_TRUE(rl.insert(30, 0));
  EXPECT_TRUE(rl.insert(20, 0));
  EXPECT_TRUE(rl.validate());
  EXPECT_EQ(rl.height(), 2);
}

TEST(AvlTreeEdge, EraseTwoChildNodeKeepsOrderAndBalance) {
  IntTree t;
  for (int k : {8, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15}) {
    ASSERT_TRUE(t.insert(k, k));
  }
  // Erase the root (two children) and interior two-child nodes; the
  // in-order successor replacement must preserve BST order + balance.
  for (int k : {8, 4, 12}) {
    ASSERT_TRUE(t.erase(k));
    ASSERT_FALSE(t.contains(k));
    ASSERT_TRUE(t.validate());
  }
  EXPECT_FALSE(t.erase(8));  // erasing twice reports absence
  std::vector<int> order;
  t.for_each([&](const int& k, const int&) { order.push_back(k); });
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(order.size(), 12u);
}

TEST(AvlTreeEdge, RandomizedInsertEraseMirrorsReferenceSet) {
  dlfs::Rng rng(20260806);
  IntTree t;
  std::set<int> ref;
  for (int step = 0; step < 4000; ++step) {
    const int key = static_cast<int>(rng.next_below(512));
    if (rng.next_below(3) == 0) {
      ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
    } else {
      ASSERT_EQ(t.insert(key, key), ref.insert(key).second);
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  ASSERT_TRUE(t.validate());
  std::vector<int> order;
  t.for_each([&](const int& k, const int&) { order.push_back(k); });
  EXPECT_TRUE(std::equal(order.begin(), order.end(), ref.begin(), ref.end()));
}

}  // namespace
