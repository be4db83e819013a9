// Tests for the huge-page DMA pool.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

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

TEST(HugePagePool, ChunkReturnsWithItsLastSlice) {
  HugePagePool pool(2 * 4_KiB, 4_KiB);
  DmaBuffer chunk = pool.allocate();
  DmaBuffer a = chunk.slice(0, 1_KiB);
  DmaBuffer b = chunk.slice(1_KiB, 2_KiB);
  EXPECT_EQ(a.data(), chunk.data());
  EXPECT_EQ(b.data(), chunk.data() + 1_KiB);
  EXPECT_EQ(b.size(), 2_KiB);
  EXPECT_EQ(b.chunk_index(), chunk.chunk_index());
  EXPECT_TRUE(b.shared());
  EXPECT_THROW((void)chunk.slice(3_KiB, 2_KiB), std::out_of_range);
  chunk.release();
  a.release();
  EXPECT_EQ(pool.used_chunks(), 1u);
  EXPECT_FALSE(b.shared());  // the last buffer of its chunk
  b.release();
  EXPECT_EQ(pool.used_chunks(), 0u);
}

TEST(HugePagePool, PeakCountsASlicedChunkOnce) {
  HugePagePool pool(4 * 4_KiB, 4_KiB);
  std::vector<DmaBuffer> slices;
  {
    const DmaBuffer chunk = pool.allocate();
    for (std::size_t i = 0; i < 4; ++i) {
      slices.push_back(chunk.slice(i * 1_KiB, 1_KiB));
    }
  }
  EXPECT_EQ(pool.used_chunks(), 1u);
  EXPECT_EQ(pool.peak_used_chunks(), 1u);
}

TEST(HugePagePool, ScribblesOnTheLastSliceOnly) {
  HugePagePool pool(4_KiB, 4_KiB);
  pool.set_scribble_on_free(true);
  std::byte* base = nullptr;
  {
    DmaBuffer chunk = pool.allocate();
    base = chunk.data();
    std::memset(base, 0xab, chunk.size());
    DmaBuffer a = chunk.slice(0, 1_KiB);
    DmaBuffer b = chunk.slice(1_KiB, 1_KiB);
    chunk.release();
    a.release();
    // b still holds the chunk: none of it was scribbled or poisoned.
    EXPECT_EQ(static_cast<unsigned char>(base[0]), 0xabu);
    EXPECT_EQ(static_cast<unsigned char>(base[4_KiB - 1]), 0xabu);
  }
  // b went last, and the whole chunk with it. Allocating it again
  // unpoisons it without clearing it.
  const DmaBuffer again = pool.allocate();
  ASSERT_EQ(again.data(), base);
  EXPECT_EQ(static_cast<unsigned char>(again.span()[0]), 0xDDu);
  EXPECT_EQ(static_cast<unsigned char>(again.span()[4_KiB - 1]), 0xDDu);
}

TEST(HugePagePool, SlicesOutliveTheirPool) {
  // The last slice of the last chunk out frees an orphaned arena (ASan
  // reports a leak otherwise).
  auto pool = std::make_unique<HugePagePool>(2 * 4_KiB, 4_KiB);
  pool->set_scribble_on_free(true);
  DmaBuffer chunk = pool->allocate();
  std::memset(chunk.data(), 0xab, chunk.size());
  DmaBuffer a = chunk.slice(0, 1_KiB);
  DmaBuffer b = chunk.slice(2_KiB, 1_KiB);
  pool.reset();
  chunk.release();
  a.release();
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(static_cast<unsigned char>(b.span()[100]), 0xabu);
  b.release();
  EXPECT_FALSE(b.valid());
}

}  // namespace
