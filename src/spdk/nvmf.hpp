#pragma once

// NVMe over Fabrics: user-level target and initiator (SPDK nvmf).
//
// An NvmfTarget runs on the storage node and exports one NVMe device.
// Each client connection gets its own server-side I/O queue pair (as in
// SPDK, where each host connection maps to a dedicated qpair), serviced
// by two daemon coroutines on the target:
//
//   dispatcher: inbound command capsules -> device submission (bounded by
//               the connection's queue depth via a slot semaphore)
//   harvester:  device completions (FIFO per qpair) -> RDMA-write of the
//               data back into the client's registered buffer -> client
//               completion
//
// All target-side per-command CPU work serializes on the target's single
// poller core (SPDK reactor model), so a flood of small commands from
// many clients saturates the target CPU — one of the effects chunk-level
// batching exists to avoid.
//
// The initiator side (RemoteIoQueue) implements spdk::IoQueue, so DLFS
// cannot tell a remote device from a local one — the disaggregation
// transparency the paper builds on.

#include <deque>
#include <memory>
#include <vector>

#include "hw/net/fabric.hpp"
#include "mem/hugepage_pool.hpp"
#include "sim/cpu.hpp"
#include "sim/sync.hpp"
#include "spdk/io_queue.hpp"

namespace dlfs::spdk {

class RemoteIoQueue;

/// Fault-handling knobs for one NVMe-oF connection. The command timeout
/// must exceed the worst legitimate target-side queueing delay (a full
/// queue of large commands), otherwise healthy-but-busy targets get
/// declared dead.
struct NvmfFaultParams {
  dlsim::SimDuration command_timeout = 50'000'000;     // 50 ms
  dlsim::SimDuration reconnect_backoff = 500'000;      // first retry: 500 us
  dlsim::SimDuration reconnect_backoff_max = 8'000'000;
  std::uint32_t reconnect_attempts = 6;
  // Backoff jitter is drawn from the owning Simulator's RNG stream
  // (Simulator::rand64), not from per-queue state: one seed_rng() call
  // reproduces every reconnect schedule in the run, which is what lets
  // chaos-soak failures replay deterministically.

  bool operator==(const NvmfFaultParams&) const = default;
};

class NvmfTarget {
 public:
  NvmfTarget(dlsim::Simulator& sim, hw::Fabric& fabric, hw::NodeId node,
             hw::NvmeDevice& device);
  NvmfTarget(const NvmfTarget&) = delete;
  NvmfTarget& operator=(const NvmfTarget&) = delete;
  ~NvmfTarget();

  /// Establishes a connection from `client_node`; returns the initiator's
  /// queue. `client_pool` is the client's registered (huge-page) memory —
  /// RDMA writes land only there. depth 0 = device max.
  [[nodiscard]] std::unique_ptr<IoQueue> connect(
      hw::NodeId client_node, mem::HugePagePool& client_pool,
      std::uint32_t depth = 0, const NvmfFaultParams& fault = {});

  [[nodiscard]] hw::NodeId node() const { return node_; }
  [[nodiscard]] hw::NvmeDevice& device() { return *device_; }
  /// The target's poller core: its utilization measures target-side CPU.
  [[nodiscard]] dlsim::CpuCore& poller_core() { return poller_core_; }

  // --- fault injection -----------------------------------------------------
  /// Fail-stop the target process: inbound capsules are dropped, pending
  /// returns never leave the node, and new connections are refused. The
  /// NVMe device itself survives (data is intact after recover()).
  void crash();
  void recover();
  [[nodiscard]] bool crashed() const { return crashed_; }
  void crash_at(dlsim::SimTime when);
  void recover_at(dlsim::SimTime when);
  /// Whether a (re)connect attempt would be admitted right now.
  [[nodiscard]] bool accepting() const;

  /// NVMe-oF-style metadata exchange for the sharded sample directory:
  /// one request capsule from `client_node`, `service` of directory-walk
  /// CPU serialized on the poller core (metadata storms contend with the
  /// data path's capsule handling), and a `reply_bytes` response. True
  /// when the reply was delivered; false when the target is down or a
  /// link dropped either leg — the caller falls back / fails over.
  [[nodiscard]] dlsim::Task<bool> metadata_rpc(hw::NodeId client_node,
                                               dlsim::SimDuration service,
                                               std::uint64_t reply_bytes);

  /// Live server-side connections (reaped connections excluded).
  [[nodiscard]] std::size_t connection_count() const {
    return connections_.size();
  }

 private:
  friend class RemoteIoQueue;
  struct Connection;

  /// Admits one connection and starts its service daemons; returns nullptr
  /// when the target is down.
  Connection* open_connection(hw::NodeId client_node, std::uint32_t depth,
                              RemoteIoQueue* queue);
  /// Severs the initiator from a connection and reaps it once its daemons
  /// and in-flight returns have drained.
  void detach_connection(Connection* conn);
  void maybe_reap(Connection* conn);

  dlsim::Task<void> dispatcher_loop(Connection& conn);
  dlsim::Task<void> harvester_loop(Connection& conn);
  dlsim::Task<void> return_data(Connection& conn, IoCompletion completion,
                                std::uint64_t bytes);

  dlsim::Simulator* sim_;
  hw::Fabric* fabric_;
  hw::NodeId node_;
  hw::NvmeDevice* device_;
  dlsim::CpuCore poller_core_;
  dlsim::Mutex poller_mutex_;  // serializes work on the single poller core
  bool crashed_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace dlfs::spdk
