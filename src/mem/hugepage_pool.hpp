#pragma once

// HugePagePool: the pinned-memory arena SPDK-style I/O requires.
//
// The real SPDK mandates that all I/O buffers live on huge pages so the
// user-space driver can pin and DMA-map them. We reproduce the *rule*
// (device I/O rejects buffers not carved from a registered pool — see
// spdk::NvmeDriver) with an arena allocator: one contiguous host
// allocation carved into fixed-size chunks, handed out as RAII DmaBuffer
// handles. DLFS's sample cache (§III-C.1 of the paper) sits directly on
// top of this pool, with the 256 KiB default chunk size the paper uses.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dlfs::mem {

class HugePagePool;

namespace detail {

/// A pool's memory: its chunks and its free list. The pool owns it, but
/// a pool destroyed while some of its buffers are still out leaves it to
/// them, and the last one returned frees it. A simulator destroys the
/// frames of its suspended processes, and the buffers they hold, after
/// the objects that own their pools.
struct PoolArena {
  PoolArena(std::size_t chunk_bytes, std::size_t chunks);
  ~PoolArena();
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  /// Returns chunk `idx`; an orphaned arena frees itself with its last.
  void free_chunk(std::size_t idx);

  std::size_t chunk_size;
  std::size_t total_chunks;
  std::unique_ptr<std::byte[]> bytes;
  std::vector<std::size_t> free_list;
  bool scribble_on_free = false;
  bool orphaned = false;  // the pool is gone
};

}  // namespace detail

/// RAII handle to one pool chunk. Movable; returns the chunk on destruction.
class DmaBuffer {
 public:
  DmaBuffer() = default;
  DmaBuffer(DmaBuffer&& o) noexcept
      : arena_(std::exchange(o.arena_, nullptr)),
        chunk_(std::exchange(o.chunk_, 0)),
        span_(std::exchange(o.span_, {})) {}
  DmaBuffer& operator=(DmaBuffer&& o) noexcept;
  DmaBuffer(const DmaBuffer&) = delete;
  DmaBuffer& operator=(const DmaBuffer&) = delete;
  ~DmaBuffer() { release(); }

  [[nodiscard]] bool valid() const { return arena_ != nullptr; }
  [[nodiscard]] std::span<std::byte> span() const { return span_; }
  [[nodiscard]] std::byte* data() const { return span_.data(); }
  [[nodiscard]] std::size_t size() const { return span_.size(); }
  [[nodiscard]] std::size_t chunk_index() const { return chunk_; }

  void release();

 private:
  friend class HugePagePool;
  DmaBuffer(detail::PoolArena* arena, std::size_t chunk,
            std::span<std::byte> span)
      : arena_(arena), chunk_(chunk), span_(span) {}

  detail::PoolArena* arena_ = nullptr;
  std::size_t chunk_ = 0;
  std::span<std::byte> span_{};
};

/// Thrown when the pool is exhausted.
class PoolExhausted : public std::runtime_error {
 public:
  PoolExhausted() : std::runtime_error("huge-page pool exhausted") {}
};

class HugePagePool {
 public:
  /// `total_bytes` is rounded up to a whole number of chunks.
  HugePagePool(std::size_t total_bytes, std::size_t chunk_size);
  ~HugePagePool();

  HugePagePool(const HugePagePool&) = delete;
  HugePagePool& operator=(const HugePagePool&) = delete;

  /// Debug aid for zero-copy lifetime bugs: when on, recycled chunks are
  /// scribbled with 0xDD on free — and poisoned under AddressSanitizer —
  /// so a stale view (read after release) sees garbage / faults instead
  /// of silently reading recycled bytes. Off by default (memset cost).
  void set_scribble_on_free(bool on) { arena_->scribble_on_free = on; }
  [[nodiscard]] bool scribble_on_free() const {
    return arena_->scribble_on_free;
  }

  /// Allocates one chunk; throws PoolExhausted when empty.
  [[nodiscard]] DmaBuffer allocate();

  /// Allocates n chunks (all-or-nothing).
  [[nodiscard]] std::vector<DmaBuffer> allocate_many(std::size_t n);

  /// True if `p` points inside this pool — the SPDK "is this DMA-safe
  /// memory" check enforced by the user-level driver.
  [[nodiscard]] bool owns(const std::byte* p) const {
    const std::byte* base = arena_->bytes.get();
    return p >= base && p < base + total_chunks() * chunk_size();
  }

  [[nodiscard]] std::size_t chunk_size() const { return arena_->chunk_size; }
  [[nodiscard]] std::size_t total_chunks() const {
    return arena_->total_chunks;
  }
  [[nodiscard]] std::size_t free_chunks() const {
    return arena_->free_list.size();
  }
  [[nodiscard]] std::size_t used_chunks() const {
    return total_chunks() - free_chunks();
  }
  /// High-water mark of simultaneously used chunks.
  [[nodiscard]] std::size_t peak_used_chunks() const { return peak_used_; }

 private:
  std::unique_ptr<detail::PoolArena> arena_;
  std::size_t peak_used_ = 0;
};

}  // namespace dlfs::mem
