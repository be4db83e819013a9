#include "dlfs/qos.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlfs::core {

bool TenantHandle::try_admit(std::uint32_t bytes) {
  return gov_->admit(*this, bytes);
}

void TenantHandle::cancel_admit(std::uint32_t bytes) {
  gov_->cancel(*this, bytes);
}

void TenantHandle::on_complete(std::uint32_t bytes) {
  gov_->complete(*this, bytes);
}

std::shared_ptr<TenantHandle> TenantGovernor::register_tenant(TenantQos cfg) {
  if (cfg.weight == 0) {
    throw std::invalid_argument("TenantQos::weight must be >= 1 (tenant '" +
                                cfg.name + "')");
  }
  auto h = std::make_shared<TenantHandle>();
  h->cfg_ = std::move(cfg);
  h->gov_ = this;
  // A late joiner starts at the current floor, not at zero: otherwise it
  // would owe the whole fleet's history and monopolise the devices until
  // its clock caught up.
  double floor = 0;
  bool any = false;
  for (const auto& t : tenants_) {
    if (!any || t->vtime_ < floor) floor = t->vtime_;
    any = true;
  }
  h->vtime_ = any ? floor : 0;
  tenants_.push_back(h);
  return h;
}

double TenantGovernor::effective_weight(const TenantQos& q) {
  double w = q.weight;
  if (q.priority == QosClass::kHigh) w *= kHighBoost;
  return w;
}

double TenantGovernor::floor_vtime(const TenantHandle& t) const {
  double floor = t.vtime_;
  bool any = false;
  for (const auto& other : tenants_) {
    if (other->inflight_ == 0) continue;
    if (!any || other->vtime_ < floor) floor = other->vtime_;
    any = true;
  }
  return floor;
}

bool TenantGovernor::foreground_busy(const TenantHandle& t) const {
  for (const auto& other : tenants_) {
    if (other.get() == &t) continue;
    if (other->cfg_.priority == QosClass::kBackground) continue;
    if (other->inflight_ > 0) return true;
  }
  return false;
}

bool TenantGovernor::admit(TenantHandle& t, std::uint32_t bytes) {
  // 1. Hard occupancy cap.
  if (t.cfg_.max_inflight != 0 && t.inflight_ >= t.cfg_.max_inflight) {
    ++t.stats_.deferred;
    return false;
  }
  // 2. Background trickle: while any foreground tenant has work in
  //    flight, a background tenant keeps at most one command going.
  if (t.cfg_.priority == QosClass::kBackground && t.inflight_ >= 1 &&
      foreground_busy(t)) {
    ++t.stats_.deferred;
    return false;
  }
  // 3. Weighted fairness: defer when this tenant's virtual clock has run
  //    more than one burst ahead of the slowest active tenant.
  const double ew = effective_weight(t.cfg_);
  const double floor = floor_vtime(t);
  if (t.vtime_ > floor + static_cast<double>(kBurstBytes) / ew) {
    ++t.stats_.deferred;
    return false;
  }
  // Snap an idle tenant's clock up to the floor so unused share is not
  // banked (classic start-time fair queueing).
  t.vtime_ = std::max(t.vtime_, floor) + static_cast<double>(bytes) / ew;
  ++t.inflight_;
  ++t.stats_.admitted;
  t.stats_.bytes_admitted += bytes;
  return true;
}

void TenantGovernor::cancel(TenantHandle& t, std::uint32_t bytes) {
  if (t.inflight_ == 0) {
    throw std::logic_error("TenantGovernor::cancel with nothing admitted");
  }
  --t.inflight_;
  t.vtime_ -= static_cast<double>(bytes) / effective_weight(t.cfg_);
  --t.stats_.admitted;
  t.stats_.bytes_admitted -= bytes;
}

void TenantGovernor::complete(TenantHandle& t, std::uint32_t bytes) {
  (void)bytes;  // the clock advanced at admission; completion frees the slot
  if (t.inflight_ == 0) {
    throw std::logic_error("TenantGovernor::complete with nothing admitted");
  }
  --t.inflight_;
}

}  // namespace dlfs::core
