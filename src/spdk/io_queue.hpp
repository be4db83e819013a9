#pragma once

// IoQueue: the queue-pair abstraction DLFS's backend programs against.
//
// The paper's design is location-transparent: "the allocated NVMe devices
// may be local or remote with respect to the compute nodes" (§III). The
// DLFS I/O engine therefore talks to this interface; spdk::NvmeDriver
// provides the local implementation and spdk::NvmfTarget::connect() the
// NVMe-over-Fabrics one.
//
// Semantics mirror an SPDK I/O queue pair: submit() is non-blocking and
// fails with kQueueFull at the configured queue depth; completions are
// harvested by busy polling (poll()), and wait_for_completion() is the
// simulation-friendly way to express "poll until something completes"
// without an event per poll iteration (the caller charges the elapsed
// time to its core as busy-polling, preserving SPDK's CPU semantics).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hw/nvme/nvme_device.hpp"
#include "sim/task.hpp"

namespace dlfs::spdk {

using hw::IoCompletion;
using hw::IoOp;
using hw::IoStatus;

/// Transport-level fault counters. Local queues stay at zero; the NVMe-oF
/// initiator counts command timeouts, reconnects and replays.
struct IoQueueStats {
  std::uint64_t timeouts = 0;
  std::uint64_t connections_lost = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t replays = 0;
};

class IoQueue {
 public:
  virtual ~IoQueue() = default;

  /// Posts one command. Buffers must come from the driver's huge-page
  /// pool (kInvalidBuffer otherwise — the SPDK DMA-safety rule).
  [[nodiscard]] virtual IoStatus submit(IoOp op, std::uint64_t offset,
                                        std::span<std::byte> buf,
                                        std::uint64_t user_tag) = 0;

  /// Harvests up to `max` ready completions (non-blocking).
  [[nodiscard]] virtual std::vector<IoCompletion> poll(
      std::size_t max = SIZE_MAX) = 0;

  /// Suspends until >= 1 completion is visible; returns immediately when
  /// nothing is outstanding.
  [[nodiscard]] virtual dlsim::Task<void> wait_for_completion() = 0;

  [[nodiscard]] virtual std::uint32_t outstanding() const = 0;
  [[nodiscard]] virtual std::uint32_t depth() const = 0;

  /// If the time of the earliest outstanding completion is knowable
  /// (local device queues), returns it; nullopt for event-driven queues
  /// (NVMe-oF initiators) — callers then busy-poll at a fixed quantum,
  /// matching SPDK's polling semantics.
  [[nodiscard]] virtual std::optional<dlsim::SimTime> next_completion_at()
      const {
    return std::nullopt;
  }

  /// Whether the path to the device is currently believed usable. Local
  /// queues are always connected; the NVMe-oF initiator reports false
  /// once its reconnect budget is exhausted.
  [[nodiscard]] virtual bool connected() const { return true; }

  /// One explicit revalidation attempt for a queue whose path died (no
  /// backoff, no budget — the caller paces these, e.g. once per epoch).
  /// Returns true when the queue is usable again.
  [[nodiscard]] virtual dlsim::Task<bool> reprobe() {
    return []() -> dlsim::Task<bool> { co_return true; }();
  }

  [[nodiscard]] virtual IoQueueStats transport_stats() const { return {}; }
};

}  // namespace dlfs::spdk
