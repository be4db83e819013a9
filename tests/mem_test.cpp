// Tests for the huge-page DMA pool.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/units.hpp"
#include "mem/hugepage_pool.hpp"

namespace {

using dlfs::mem::DmaBuffer;
using dlfs::mem::HugePagePool;
using dlfs::mem::PoolExhausted;
using namespace dlfs::byte_literals;

TEST(HugePagePool, CarvesRequestedChunks) {
  HugePagePool pool(1_MiB, 256_KiB);
  EXPECT_EQ(pool.total_chunks(), 4u);
  EXPECT_EQ(pool.free_chunks(), 4u);
  EXPECT_EQ(pool.chunk_size(), 256_KiB);
}

TEST(HugePagePool, RoundsUpToWholeChunks) {
  HugePagePool pool(100, 64);
  EXPECT_EQ(pool.total_chunks(), 2u);
}

TEST(HugePagePool, RejectsZeroChunkSize) {
  EXPECT_THROW(HugePagePool(1_MiB, 0), std::invalid_argument);
}

TEST(HugePagePool, AllocateAndAutoRelease) {
  HugePagePool pool(4 * 64_KiB, 64_KiB);
  {
    DmaBuffer a = pool.allocate();
    DmaBuffer b = pool.allocate();
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a.size(), 64_KiB);
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(pool.used_chunks(), 2u);
  }
  EXPECT_EQ(pool.used_chunks(), 0u);
  EXPECT_EQ(pool.peak_used_chunks(), 2u);
}

TEST(HugePagePool, ExhaustionThrows) {
  HugePagePool pool(2 * 4_KiB, 4_KiB);
  auto a = pool.allocate();
  auto b = pool.allocate();
  EXPECT_THROW(pool.allocate(), PoolExhausted);
  a.release();
  EXPECT_NO_THROW(pool.allocate());
}

TEST(HugePagePool, AllocateManyAllOrNothing) {
  HugePagePool pool(4 * 4_KiB, 4_KiB);
  EXPECT_THROW(pool.allocate_many(5), PoolExhausted);
  EXPECT_EQ(pool.free_chunks(), 4u);  // nothing leaked by the failed call
  auto bufs = pool.allocate_many(4);
  EXPECT_EQ(bufs.size(), 4u);
  EXPECT_EQ(pool.free_chunks(), 0u);
}

TEST(HugePagePool, OwnsIdentifiesPoolMemory) {
  HugePagePool pool(4 * 4_KiB, 4_KiB);
  auto buf = pool.allocate();
  EXPECT_TRUE(pool.owns(buf.data()));
  EXPECT_TRUE(pool.owns(buf.data() + buf.size() - 1));
  std::byte outside{};
  EXPECT_FALSE(pool.owns(&outside));
}

TEST(HugePagePool, MoveTransfersOwnership) {
  HugePagePool pool(2 * 4_KiB, 4_KiB);
  DmaBuffer a = pool.allocate();
  std::byte* p = a.data();
  DmaBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(pool.used_chunks(), 1u);
}

TEST(HugePagePool, ChunksAreWritable) {
  HugePagePool pool(4_KiB, 4_KiB);
  auto buf = pool.allocate();
  std::memset(buf.data(), 0xab, buf.size());
  EXPECT_EQ(static_cast<unsigned char>(buf.span()[100]), 0xabu);
}

TEST(HugePagePool, ReuseReturnsSameMemory) {
  HugePagePool pool(4_KiB, 4_KiB);
  std::byte* first = nullptr;
  {
    auto buf = pool.allocate();
    first = buf.data();
  }
  auto buf2 = pool.allocate();
  EXPECT_EQ(buf2.data(), first);
}

TEST(HugePagePool, BuffersOutliveTheirPool) {
  // A simulator destroys its suspended frames, and the buffers they hold,
  // after the pool's owner: the arena stays until the last buffer is
  // returned, and then goes (ASan reports a leak otherwise).
  auto pool = std::make_unique<HugePagePool>(2 * 4_KiB, 4_KiB);
  pool->set_scribble_on_free(true);
  DmaBuffer a = pool->allocate();
  DmaBuffer b = pool->allocate();
  std::memset(b.data(), 0xab, b.size());
  pool.reset();
  a.release();
  EXPECT_FALSE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(static_cast<unsigned char>(b.span()[100]), 0xabu);
}

}  // namespace
