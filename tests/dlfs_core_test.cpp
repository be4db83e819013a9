// Tests for DLFS's core data structures: the 128-bit sample entry, the
// AVL tree (including property tests of its invariants), the partitioned
// sample directory, the LRU sample cache, and the batching planner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dlfs/avl_tree.hpp"
#include "dlfs/batching.hpp"
#include "dlfs/sample_cache.hpp"
#include "dlfs/sample_directory.hpp"
#include "dlfs/sample_entry.hpp"
#include "mem/hugepage_pool.hpp"

namespace {

using dlfs::core::AvlTree;
using dlfs::core::BatchingMode;
using dlfs::core::BatchPlan;
using dlfs::core::EpochSequence;
using dlfs::core::ReadUnit;
using dlfs::core::SampleCache;
using dlfs::core::SampleDirectory;
using dlfs::core::SampleEntry;
using dlfs::core::SampleLocation;
using namespace dlfs::byte_literals;

// ---------------------------------------------------------------------------
// SampleEntry

TEST(SampleEntry, RoundTripsAllFields) {
  SampleEntry e(/*nid=*/513, /*key=*/0xABCDEF012345ull,
                /*offset=*/(1ull << 39) + 77, /*len=*/(1u << 22) + 9,
                /*valid=*/true);
  EXPECT_EQ(e.nid(), 513);
  EXPECT_EQ(e.key(), 0xABCDEF012345ull);
  EXPECT_EQ(e.offset(), (1ull << 39) + 77);
  EXPECT_EQ(e.len(), (1u << 22) + 9);
  EXPECT_TRUE(e.valid_in_cache());
}

TEST(SampleEntry, Is128Bits) { EXPECT_EQ(sizeof(SampleEntry), 16u); }

TEST(SampleEntry, FieldLimitsEnforced) {
  EXPECT_THROW(SampleEntry(0, 1ull << 48, 0, 0), std::invalid_argument);
  EXPECT_THROW(SampleEntry(0, 0, 1ull << 40, 0), std::invalid_argument);
  EXPECT_THROW(SampleEntry(0, 0, 0, 1u << 23), std::invalid_argument);
  // Extremes are fine.
  EXPECT_NO_THROW(SampleEntry(0xffff, SampleEntry::kKeyMask,
                              SampleEntry::kMaxOffset,
                              static_cast<std::uint32_t>(SampleEntry::kMaxLen)));
}

TEST(SampleEntry, VBitToggles) {
  SampleEntry e(1, 2, 3, 4, false);
  EXPECT_FALSE(e.valid_in_cache());
  e.set_valid_in_cache(true);
  EXPECT_TRUE(e.valid_in_cache());
  EXPECT_EQ(e.len(), 4u);      // neighbours untouched
  EXPECT_EQ(e.offset(), 3u);
  e.set_valid_in_cache(false);
  EXPECT_FALSE(e.valid_in_cache());
}

TEST(SampleEntry, MaxLenIs8MiB) {
  EXPECT_EQ(SampleEntry::kMaxLen + 1, 8u * 1024 * 1024);
}

// ---------------------------------------------------------------------------
// AvlTree

TEST(AvlTree, InsertFindErase) {
  AvlTree<std::uint64_t, int> t;
  EXPECT_TRUE(t.insert(5, 50));
  EXPECT_TRUE(t.insert(3, 30));
  EXPECT_TRUE(t.insert(7, 70));
  EXPECT_FALSE(t.insert(5, 99));  // duplicate rejected
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(*t.find(3), 30);
  EXPECT_EQ(t.find(4), nullptr);
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(3), nullptr);
}

TEST(AvlTree, InOrderTraversalIsSorted) {
  AvlTree<std::uint64_t, int> t;
  dlfs::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    (void)t.insert(rng.next_below(100000), i);
  }
  std::vector<std::uint64_t> keys;
  t.for_each([&](const std::uint64_t& k, const int&) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), t.size());
}

TEST(AvlTree, StaysBalancedOnSortedInsert) {
  // The classic AVL stress: ascending inserts.
  AvlTree<std::uint64_t, int> t;
  constexpr int kN = 4096;
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(t.insert(i, i));
  EXPECT_TRUE(t.validate());
  // Height must be <= 1.44 * log2(n) + 2.
  EXPECT_LE(t.height(), static_cast<int>(1.44 * std::log2(kN)) + 2);
}

TEST(AvlTree, ValueMutationThroughFind) {
  AvlTree<std::uint64_t, SampleEntry> t;
  (void)t.insert(1, SampleEntry(0, 1, 100, 10, false));
  t.find(1)->set_valid_in_cache(true);
  EXPECT_TRUE(t.find(1)->valid_in_cache());
}

class AvlPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AvlPropertyTest, InvariantsHoldUnderRandomInsertErase) {
  AvlTree<std::uint64_t, std::uint64_t> t;
  std::set<std::uint64_t> reference;
  dlfs::Rng rng(GetParam());
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t k = rng.next_below(512);  // small space forces dups
    if (rng.next_below(3) != 0) {
      const bool inserted = t.insert(k, k * 2);
      EXPECT_EQ(inserted, reference.insert(k).second);
    } else {
      const bool erased = t.erase(k);
      EXPECT_EQ(erased, reference.erase(k) == 1);
    }
  }
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), reference.size());
  for (auto k : reference) {
    ASSERT_NE(t.find(k), nullptr);
    EXPECT_EQ(*t.find(k), k * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvlPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(AvlTree, LargeTreeTeardownDoesNotOverflowStack) {
  AvlTree<std::uint64_t, int> t;
  for (std::uint64_t i = 0; i < 200000; ++i) (void)t.insert(i, 0);
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(AvlTree, MoveSemantics) {
  AvlTree<std::uint64_t, int> a;
  (void)a.insert(1, 10);
  AvlTree<std::uint64_t, int> b = std::move(a);
  ASSERT_NE(b.find(1), nullptr);
  EXPECT_EQ(*b.find(1), 10);
}

// ---------------------------------------------------------------------------
// SampleDirectory

TEST(SampleDirectory, InsertAndLookupByName) {
  SampleDirectory dir(4);
  for (int i = 0; i < 100; ++i) {
    const std::string name = "img_" + std::to_string(i);
    const std::uint16_t owner = dir.owner_of(name);
    dir.insert(i, name, owner, static_cast<std::uint64_t>(i) * 4096, 1234);
  }
  EXPECT_EQ(dir.num_samples(), 100u);
  for (int i = 0; i < 100; ++i) {
    const auto* e = dir.lookup("img_" + std::to_string(i));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->offset(), static_cast<std::uint64_t>(i) * 4096);
    EXPECT_EQ(e->len(), 1234u);
  }
  EXPECT_EQ(dir.lookup("img_100"), nullptr);
}

TEST(SampleDirectory, LookupByIdMatchesName) {
  SampleDirectory dir(3);
  for (int i = 0; i < 50; ++i) {
    const std::string name = "s" + std::to_string(i);
    dir.insert(i, name, dir.owner_of(name), i * 100, 100);
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(dir.lookup_id(i), dir.lookup("s" + std::to_string(i)));
  }
  EXPECT_EQ(dir.lookup_id(999), nullptr);
}

TEST(SampleDirectory, PartitionSpreadsAcrossTrees) {
  SampleDirectory dir(8);
  for (int i = 0; i < 4000; ++i) {
    const std::string name = "f" + std::to_string(i);
    dir.insert(i, name, dir.owner_of(name), 0, 1);
  }
  // Every tree should hold roughly 500 entries (within 4x either way —
  // hash dispersion, not a strict balance guarantee).
  for (std::uint16_t n = 0; n < 8; ++n) {
    EXPECT_GT(dir.tree(n).size(), 125u);
    EXPECT_LT(dir.tree(n).size(), 2000u);
  }
}

TEST(SampleDirectory, RejectsWrongPlacement) {
  SampleDirectory dir(4);
  const std::string name = "x1";
  const std::uint16_t wrong = (dir.owner_of(name) + 1) % 4;
  EXPECT_THROW(dir.insert(0, name, wrong, 0, 1), std::invalid_argument);
}

TEST(SampleDirectory, ShardBytesCountEntries) {
  SampleDirectory dir(2);
  std::uint64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string name = "y" + std::to_string(i);
    dir.insert(i, name, dir.owner_of(name), 0, 1);
  }
  total = dir.shard_bytes(0) + dir.shard_bytes(1);
  EXPECT_EQ(total, 10u * 28u);
}

TEST(SampleDirectory, SingleNodeHoldsEverything) {
  SampleDirectory dir(1);
  for (int i = 0; i < 100; ++i) {
    dir.insert(i, "z" + std::to_string(i), 0, i, 1);
  }
  EXPECT_EQ(dir.tree(0).size(), 100u);
  EXPECT_TRUE(dir.tree(0).validate());
}

TEST(SampleDirectory, ReplicasAreRecordedInFailoverOrder) {
  SampleDirectory dir(4);
  const std::string name = "img_r";
  const std::uint16_t owner = dir.owner_of(name);
  dir.insert(0, name, owner, 4096, 512);
  EXPECT_TRUE(dir.replicas(0).empty());  // no replication by default
  const auto r1 = static_cast<std::uint16_t>((owner + 1) % 4);
  const auto r2 = static_cast<std::uint16_t>((owner + 2) % 4);
  dir.add_replica(0, r1, 8192);
  dir.add_replica(0, r2, 12288);
  const auto& hops = dir.replicas(0);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].nid, r1);
  EXPECT_EQ(hops[0].offset, 8192u);
  EXPECT_EQ(hops[1].nid, r2);
  EXPECT_EQ(hops[1].offset, 12288u);
  // Ids never inserted (or out of range) have no replicas and adding one
  // for them is a caller bug.
  EXPECT_TRUE(dir.replicas(7).empty());
  EXPECT_THROW(dir.add_replica(7, r1, 0), std::invalid_argument);
  EXPECT_THROW(dir.add_replica(0, 9, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SampleCache

struct CacheRig {
  dlfs::mem::HugePagePool pool{16 * 256_KiB, 256_KiB};
  SampleCache cache{pool, /*capacity_chunks=*/4, /*num_samples=*/100};

  // A landed read's buffers: 1000 bytes of a chunk each.
  void insert_sample(std::size_t id, std::size_t chunks = 1) {
    std::vector<dlfs::mem::DmaBuffer> pieces;
    for (std::size_t i = 0; i < chunks; ++i) {
      pieces.push_back(pool.allocate().slice(0, 1000));
    }
    cache.insert(id, std::move(pieces));
  }
};

TEST(SampleCache, InsertSetsVBit) {
  CacheRig rig;
  EXPECT_FALSE(rig.cache.valid(7));
  rig.insert_sample(7);
  EXPECT_TRUE(rig.cache.valid(7));
  EXPECT_EQ(rig.cache.resident_samples(), 1u);
  EXPECT_EQ(rig.cache.resident_chunks(), 1u);
}

TEST(SampleCache, PinReturnsSpansOfInsertedLengths) {
  // A pin is slices of the entry's buffers, each sized to its bytes.
  CacheRig rig;
  rig.insert_sample(3, 2);
  const std::vector<dlfs::mem::DmaBuffer> pin = rig.cache.pin(3);
  ASSERT_EQ(pin.size(), 2u);
  EXPECT_EQ(pin[0].size(), 1000u);
  EXPECT_EQ(pin[1].size(), 1000u);
  EXPECT_TRUE(pin[0].shared());  // with the entry's buffer
  EXPECT_TRUE(rig.cache.pin(4).empty());  // not resident
}

TEST(SampleCache, PinOutlivesItsCache) {
  // A pin taken before its cache and pool are destroyed still reads the
  // inserted bytes, as a copy job a suspended frame holds at teardown
  // does.
  std::vector<dlfs::mem::DmaBuffer> pin;
  {
    CacheRig rig;
    std::vector<dlfs::mem::DmaBuffer> pieces;
    pieces.push_back(rig.pool.allocate().slice(0, 1000));
    std::ranges::fill(pieces[0].span(), std::byte{0x5A});
    rig.cache.insert(4, std::move(pieces));
    pin = rig.cache.pin(4);
  }
  ASSERT_EQ(pin.size(), 1u);
  ASSERT_EQ(pin[0].size(), 1000u);
  EXPECT_EQ(std::ranges::count(pin[0].span(), std::byte{0x5A}), 1000);
}

TEST(SampleCache, InsertRejectsASharedChunk) {
  // An eviction must free whole chunks, so a sample whose chunk another
  // slice shares is never cached.
  CacheRig rig;
  const dlfs::mem::DmaBuffer chunk = rig.pool.allocate();
  std::vector<dlfs::mem::DmaBuffer> pieces;
  pieces.push_back(chunk.slice(0, 1000));
  EXPECT_THROW(rig.cache.insert(5, std::move(pieces)), std::logic_error);
  EXPECT_FALSE(rig.cache.valid(5));
  EXPECT_EQ(rig.cache.resident_chunks(), 0u);
}

TEST(SampleCache, LruEvictionClearsVBit) {
  CacheRig rig;  // capacity 4 chunks
  for (std::size_t id = 0; id < 4; ++id) rig.insert_sample(id);
  EXPECT_TRUE(rig.cache.valid(0));
  rig.insert_sample(4);  // evicts LRU = sample 0
  EXPECT_FALSE(rig.cache.valid(0));
  EXPECT_TRUE(rig.cache.valid(4));
  EXPECT_LE(rig.cache.resident_chunks(), 4u);
}

TEST(SampleCache, PinRefreshesRecency) {
  CacheRig rig;
  for (std::size_t id = 0; id < 4; ++id) rig.insert_sample(id);
  // Touch 0 so 1 becomes the LRU victim. The pin drops at once.
  (void)rig.cache.pin(0);
  rig.insert_sample(9);
  EXPECT_TRUE(rig.cache.valid(0));
  EXPECT_FALSE(rig.cache.valid(1));
}

TEST(SampleCache, PinnedEntriesSurviveEviction) {
  CacheRig rig;
  for (std::size_t id = 0; id < 4; ++id) rig.insert_sample(id);
  {
    const auto pin = rig.cache.pin(0);  // pin the LRU candidate
    rig.insert_sample(5);
    EXPECT_TRUE(rig.cache.valid(0));   // pinned: not evicted
    EXPECT_FALSE(rig.cache.valid(1));  // next victim instead
    rig.cache.evict(0);
    EXPECT_TRUE(rig.cache.valid(0));
  }
  rig.cache.evict(0);  // its last pin is gone
  EXPECT_FALSE(rig.cache.valid(0));
}

TEST(SampleCache, EvictLruOneSkipsPinnedEntries) {
  CacheRig rig;
  for (std::size_t id = 0; id < 4; ++id) rig.insert_sample(id);
  const auto pin0 = rig.cache.pin(0);
  const auto pin1 = rig.cache.pin(1);
  EXPECT_TRUE(rig.cache.evict_lru_one());  // oldest unpinned: 2
  EXPECT_FALSE(rig.cache.valid(2));
  EXPECT_TRUE(rig.cache.valid(3));
  const auto pin3 = rig.cache.pin(3);
  EXPECT_FALSE(rig.cache.evict_lru_one());  // everything left is pinned
  EXPECT_EQ(rig.cache.resident_samples(), 3u);
  EXPECT_TRUE(rig.cache.valid(0));
  EXPECT_TRUE(rig.cache.valid(1));
  EXPECT_TRUE(rig.cache.valid(3));
}

TEST(SampleCache, OversizedInsertIsSkipped) {
  CacheRig rig;  // capacity 4
  rig.insert_sample(1, 5);
  EXPECT_FALSE(rig.cache.valid(1));
  EXPECT_EQ(rig.cache.resident_chunks(), 0u);
}

TEST(SampleCache, ExplicitEvict) {
  CacheRig rig;
  rig.insert_sample(2);
  rig.cache.evict(2);
  EXPECT_FALSE(rig.cache.valid(2));
  rig.cache.evict(2);  // idempotent
}

// ---------------------------------------------------------------------------
// BatchPlan / EpochSequence

std::vector<SampleLocation> uniform_layout(std::size_t n, std::uint32_t size,
                                           std::uint16_t nodes) {
  // Round-robin samples over nodes, packed per node.
  std::vector<SampleLocation> layout(n);
  std::vector<std::uint64_t> off(nodes, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t nid = static_cast<std::uint16_t>(i % nodes);
    layout[i] = SampleLocation{nid, off[nid], size};
    off[nid] += size;
  }
  return layout;
}

TEST(BatchPlan, SampleLevelHasOneUnitPerSample) {
  auto layout = uniform_layout(100, 4096, 2);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kSampleLevel);
  EXPECT_EQ(plan.units().size(), 100u);
  EXPECT_EQ(plan.num_chunk_units(), 0u);
  for (const auto& u : plan.units()) {
    EXPECT_FALSE(u.is_chunk);
    EXPECT_EQ(u.samples.size(), 1u);
  }
}

TEST(BatchPlan, ChunkLevelAggregatesSmallSamples) {
  // 512 samples x 512 B on one node = 256 KiB = exactly one chunk.
  auto layout = uniform_layout(512, 512, 1);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  EXPECT_EQ(plan.num_chunk_units(), 1u);
  EXPECT_EQ(plan.num_edge_units(), 0u);
  EXPECT_EQ(plan.units()[0].samples.size(), 512u);
  EXPECT_EQ(plan.units()[0].len, 256_KiB);
}

TEST(BatchPlan, EdgeSamplesCrossChunkBoundaries) {
  // 3 samples of 100 KiB: [0,100K) in chunk 0, [100K,200K) crosses the
  // 256 KiB boundary? No — 200K < 256K. Use sizes that straddle:
  // sample sizes 200 KiB: s0 [0,200K) inside chunk0; s1 [200K,400K)
  // crosses; s2 [400K,600K) crosses chunk1->2 boundary? 400K..600K
  // crosses 512K. So: 1 contained, 2 edges.
  std::vector<SampleLocation> layout = {
      {0, 0, 200 * 1024},
      {0, 200 * 1024, 200 * 1024},
      {0, 400 * 1024, 200 * 1024},
  };
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  EXPECT_EQ(plan.num_edge_units(), 2u);
  EXPECT_EQ(plan.num_chunk_units(), 1u);
  std::size_t samples_total = 0;
  for (const auto& u : plan.units()) samples_total += u.samples.size();
  EXPECT_EQ(samples_total, 3u);  // every sample delivered exactly once
}

// Variable-size samples spread over three nodes, packed per node with
// `gap` bytes (a record header) in front of each sample.
std::vector<SampleLocation> variable_layout(std::size_t n,
                                            std::uint32_t gap = 0) {
  dlfs::Rng rng(77);
  std::vector<SampleLocation> layout;
  std::vector<std::uint64_t> off(3, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t nid = static_cast<std::uint16_t>(rng.next_below(3));
    const std::uint32_t size =
        static_cast<std::uint32_t>(512 + rng.next_below(100000));
    off[nid] += gap;
    layout.push_back(SampleLocation{nid, off[nid], size});
    off[nid] += size;
  }
  return layout;
}

TEST(BatchPlan, EverySampleAppearsExactlyOnce) {
  auto layout = variable_layout(1000);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  std::set<std::uint32_t> seen;
  for (const auto& u : plan.units()) {
    for (const auto& s : u.samples) {
      EXPECT_TRUE(seen.insert(s.sample_id).second);
      EXPECT_EQ(s.len, layout[s.sample_id].len);
      EXPECT_EQ(u.nid, layout[s.sample_id].nid);
      EXPECT_EQ(u.offset + s.offset_in_unit, layout[s.sample_id].offset);
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(BatchPlan, ChunkUnitsReadEachByteOnce) {
  // Packed samples: the units tile the data exactly, so the plan reads
  // every byte once — edge-sample bytes are not re-read by the chunks
  // around them — and no chunk unit outgrows its pool chunk.
  auto layout = variable_layout(1000);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  ASSERT_GT(plan.num_edge_units(), 0u);
  std::uint64_t unit_bytes = 0, sample_bytes = 0;
  for (const auto& s : layout) sample_bytes += s.len;
  for (const auto& u : plan.units()) {
    unit_bytes += u.len;
    if (u.is_chunk) {
      EXPECT_LE(u.len, 256_KiB);
    }
  }
  EXPECT_EQ(unit_bytes, sample_bytes);
}

TEST(BatchPlan, RecordFileChunkSpansFirstToLastPayload) {
  // 8-byte record headers sit between payloads: a chunk unit starts at
  // its first payload and ends at its last payload's end, so the header
  // in front of the first payload is not read.
  auto layout = variable_layout(1000, /*gap=*/8);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  ASSERT_GT(plan.num_chunk_units(), 0u);
  for (const auto& u : plan.units()) {
    if (!u.is_chunk) continue;
    const SampleLocation& first = layout[u.samples.front().sample_id];
    const SampleLocation& last = layout[u.samples.back().sample_id];
    EXPECT_EQ(u.offset, first.offset);
    EXPECT_EQ(u.offset + u.len, last.offset + last.len);
  }
}

TEST(BatchPlan, FinalChunkClippedToDataEnd) {
  // 3 x 1000 B on one node: data ends at 3000; single chunk clipped.
  auto layout = uniform_layout(3, 1000, 1);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  ASSERT_EQ(plan.units().size(), 1u);
  EXPECT_EQ(plan.units()[0].len, 3000u);
}

TEST(EpochSequence, SameSeedSameOrderAcrossClients) {
  auto layout = uniform_layout(64, 4096, 2);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kSampleLevel);
  EpochSequence a(plan, 42, 0, 1), b(plan, 42, 0, 1);
  auto pa = a.take(64), pb = b.take(64);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].unit, pb[i].unit);
  }
}

TEST(EpochSequence, ClientsPartitionDisjointly) {
  auto layout = uniform_layout(100, 4096, 2);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kSampleLevel);
  std::set<const ReadUnit*> seen;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    EpochSequence seq(plan, 7, c, 4);
    auto picks = seq.take(1000);
    for (const auto& pk : picks) {
      EXPECT_TRUE(seen.insert(pk.unit).second) << "unit delivered twice";
      total += pk.count;
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(EpochSequence, TakeRespectsBatchBoundaries) {
  auto layout = uniform_layout(512, 512, 1);  // one chunk of 512 samples
  BatchPlan plan(layout, 256_KiB, BatchingMode::kChunkLevel);
  EpochSequence seq(plan, 1, 0, 1);
  EXPECT_EQ(seq.remaining_samples(), 512u);
  auto p1 = seq.take(32);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].count, 32u);
  EXPECT_EQ(p1[0].first_sample, 0u);
  auto p2 = seq.take(32);
  EXPECT_EQ(p2[0].first_sample, 32u);  // resumes inside the same unit
  EXPECT_EQ(seq.remaining_samples(), 448u);
}

TEST(EpochSequence, ExhaustionReturnsShortThenEmpty) {
  auto layout = uniform_layout(10, 4096, 1);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kSampleLevel);
  EpochSequence seq(plan, 3, 0, 1);
  auto p1 = seq.take(8);
  std::size_t c1 = 0;
  for (auto& pk : p1) c1 += pk.count;
  EXPECT_EQ(c1, 8u);
  auto p2 = seq.take(8);
  std::size_t c2 = 0;
  for (auto& pk : p2) c2 += pk.count;
  EXPECT_EQ(c2, 2u);
  EXPECT_TRUE(seq.take(8).empty());
}

TEST(EpochSequence, DifferentSeedsDifferentOrder) {
  auto layout = uniform_layout(200, 4096, 1);
  BatchPlan plan(layout, 256_KiB, BatchingMode::kSampleLevel);
  EpochSequence a(plan, 1, 0, 1), b(plan, 2, 0, 1);
  auto pa = a.take(200), pb = b.take(200);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(pa.size(), pb.size()); ++i) {
    if (pa[i].unit != pb[i].unit) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
