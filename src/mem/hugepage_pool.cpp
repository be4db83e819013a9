#include "mem/hugepage_pool.hpp"

#include <algorithm>
#include <cstring>

#include "common/units.hpp"

// ASan hooks for the scribble-on-free debug mode: poisoned freed chunks
// turn a stale zero-copy view into a hard ASan report instead of a
// silent read of 0xDD bytes.
#if defined(__SANITIZE_ADDRESS__)
#define DLFS_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLFS_POOL_ASAN 1
#endif
#endif
#if defined(DLFS_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace dlfs::mem {

namespace {
inline void poison_chunk(const std::byte* p, std::size_t n) {
#if defined(DLFS_POOL_ASAN)
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void unpoison_chunk(const std::byte* p, std::size_t n) {
#if defined(DLFS_POOL_ASAN)
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace

DmaBuffer& DmaBuffer::operator=(DmaBuffer&& o) noexcept {
  if (this != &o) {
    release();
    arena_ = std::exchange(o.arena_, nullptr);
    chunk_ = std::exchange(o.chunk_, 0);
    span_ = std::exchange(o.span_, {});
  }
  return *this;
}

DmaBuffer DmaBuffer::slice(std::size_t offset, std::size_t len) const {
  if (arena_ == nullptr || offset > size() || len > size() - offset) {
    throw std::out_of_range("DmaBuffer::slice: past the buffer's end");
  }
  ++arena_->buffers[chunk_];
  return DmaBuffer(arena_, chunk_, span_.subspan(offset, len));
}

void DmaBuffer::release() {
  if (arena_) {
    arena_->release(chunk_);
    arena_ = nullptr;
    span_ = {};
  }
}

namespace {
std::size_t checked_chunk_count(std::size_t total_bytes,
                                std::size_t chunk_size) {
  if (chunk_size == 0) throw std::invalid_argument("chunk_size must be > 0");
  return ceil_div(total_bytes, chunk_size);
}
}  // namespace

namespace detail {

PoolArena::PoolArena(std::size_t chunk_bytes, std::size_t chunks)
    : chunk_size(chunk_bytes),
      total_chunks(chunks),
      // for_overwrite: skip zero-initialization — chunk contents are always
      // written by DMA before being read (multi-hundred-MiB pools otherwise
      // cost a memset per benchmark configuration).
      bytes(std::make_unique_for_overwrite<std::byte[]>(chunks * chunk_bytes)),
      buffers(chunks, 0) {
  free_list.reserve(total_chunks);
  // Push in reverse so allocation order starts at chunk 0.
  for (std::size_t i = total_chunks; i > 0; --i) free_list.push_back(i - 1);
}

PoolArena::~PoolArena() {
  // The arena's heap pages go back to the allocator; make sure no stale
  // poisoning outlives the pool (the allocator may recycle the range).
  if (scribble_on_free) unpoison_chunk(bytes.get(), total_chunks * chunk_size);
}

void PoolArena::release(std::size_t idx) {
  if (--buffers[idx] > 0) return;  // a slice still shares the chunk
  if (scribble_on_free) {
    std::byte* base = bytes.get() + idx * chunk_size;
    std::memset(base, 0xDD, chunk_size);
    poison_chunk(base, chunk_size);
  }
  free_list.push_back(idx);
  if (orphaned && free_list.size() == total_chunks) delete this;
}

}  // namespace detail

HugePagePool::HugePagePool(std::size_t total_bytes, std::size_t chunk_size)
    : arena_(std::make_unique<detail::PoolArena>(
          chunk_size, checked_chunk_count(total_bytes, chunk_size))) {
  if (arena_->total_chunks == 0) {
    throw std::invalid_argument("pool must hold at least one chunk");
  }
}

HugePagePool::~HugePagePool() {
  // Buffers still out keep the arena: the last one returned frees it.
  if (used_chunks() > 0) {
    arena_->orphaned = true;
    (void)arena_.release();
  }
}

DmaBuffer HugePagePool::allocate() {
  std::vector<std::size_t>& free_list = arena_->free_list;
  if (free_list.empty()) throw PoolExhausted{};
  const std::size_t idx = free_list.back();
  free_list.pop_back();
  peak_used_ = std::max(peak_used_, used_chunks());
  const std::size_t n = arena_->chunk_size;
  std::byte* base = arena_->bytes.get() + idx * n;
  if (arena_->scribble_on_free) unpoison_chunk(base, n);
  arena_->buffers[idx] = 1;
  return DmaBuffer(arena_.get(), idx, std::span<std::byte>(base, n));
}

std::vector<DmaBuffer> HugePagePool::allocate_many(std::size_t n) {
  if (free_chunks() < n) throw PoolExhausted{};
  std::vector<DmaBuffer> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(allocate());
  return out;
}

}  // namespace dlfs::mem
