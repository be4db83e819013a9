// Multi-tenant QoS for shared storage nodes. Dozens of jobs (fleets)
// run against the same NVMe devices and fabric links; without admission
// control one job with a deep prefetch window monopolises every device
// queue and the others' tail latency explodes. The governor sits in the
// IoEngine submit path: before a piece is posted the engine asks its
// tenant handle for admission, and every harvested completion returns
// the grant. Three mechanisms compose:
//
//   * per-tenant in-flight caps (`TenantQos::max_inflight`) bound how
//     many commands one job may have outstanding fleet-wide, which
//     bounds its occupancy of the shared device pipes;
//   * weighted fair bandwidth shares via start-time virtual time: each
//     admitted command advances the tenant's virtual clock by
//     bytes / effective_weight, and a tenant whose clock has run ahead
//     of the slowest *active* tenant's by more than the burst allowance
//     is deferred until the others catch up;
//   * priority classes: kHigh multiplies the weight (latency-sensitive
//     jobs overtake at the same nominal share), kBackground trickles —
//     at most one command in flight while any foreground tenant is
//     busy, full speed on an otherwise idle fleet.
//
// The governor is sim-global state shared by every fleet that registers
// with it; the simulator is single-threaded, so no locking is needed —
// determinism comes for free. A job with no governor configured pays
// nothing (the engine hook is one null check).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dlfs::core {

class TenantGovernor;

/// Priority class of one tenant (one job / fleet).
enum class QosClass : std::uint8_t {
  kHigh,        // latency-sensitive: weight boosted by kHighBoost
  kNormal,      // weighted fair share
  kBackground,  // trickle while any foreground tenant is active
};

/// Static QoS parameters a job registers with.
struct TenantQos {
  std::string name;                        ///< for telemetry / errors
  std::uint32_t weight = 1;                ///< relative bandwidth share
  QosClass priority = QosClass::kNormal;   ///< class (see above)
  std::uint32_t max_inflight = 0;          ///< outstanding-cmd cap; 0 = none
};

/// Per-tenant counters, readable any time.
struct TenantQosStats {
  std::uint64_t admitted = 0;    ///< grants handed out
  std::uint64_t deferred = 0;    ///< admission refusals (retried later)
  std::uint64_t bytes_admitted = 0;
};

/// One registered tenant. Engines hold a shared_ptr and call the
/// admission trio below; all state mutation funnels through the
/// governor so the fairness floor sees every tenant.
class TenantHandle {
 public:
  [[nodiscard]] const TenantQosStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t inflight() const { return inflight_; }

  /// Ask to put `bytes` on the wire. False = deferred; the engine stops
  /// posting and retries after the next completion/poll quantum.
  bool try_admit(std::uint32_t bytes);
  /// Undo an admission whose submit never reached the device
  /// (queue-full race, connection lost mid-prep).
  void cancel_admit(std::uint32_t bytes);
  /// A previously admitted command completed at the transport.
  void on_complete(std::uint32_t bytes);

 private:
  friend class TenantGovernor;
  TenantQos cfg_;
  TenantGovernor* gov_ = nullptr;
  std::uint32_t inflight_ = 0;
  double vtime_ = 0;  ///< virtual clock, advances by bytes/effective_weight
  TenantQosStats stats_;
};

/// The shared arbiter. One instance per simulated deployment; every
/// fleet that should be governed registers a tenant and wires the
/// returned handle into its engines.
class TenantGovernor {
 public:
  /// How far one tenant's virtual clock may run ahead of the fairness
  /// floor (divided by its effective weight), i.e. the scheduling
  /// granularity: 1 MiB, a handful of chunks.
  static constexpr std::uint64_t kBurstBytes = 1 << 20;

  std::shared_ptr<TenantHandle> register_tenant(TenantQos cfg);

  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }

  /// kHigh tenants behave like a tenant with weight * kHighBoost.
  static constexpr std::uint32_t kHighBoost = 8;

 private:
  friend class TenantHandle;
  /// Effective weight after the priority-class multiplier.
  static double effective_weight(const TenantQos& q);
  bool admit(TenantHandle& t, std::uint32_t bytes);
  void cancel(TenantHandle& t, std::uint32_t bytes);
  void complete(TenantHandle& t, std::uint32_t bytes);
  /// Min virtual clock over tenants with work in flight; `t`'s own
  /// clock when the fleet is otherwise idle (then `t` never self-blocks).
  [[nodiscard]] double floor_vtime(const TenantHandle& t) const;
  [[nodiscard]] bool foreground_busy(const TenantHandle& t) const;

  std::vector<std::shared_ptr<TenantHandle>> tenants_;
};

}  // namespace dlfs::core
