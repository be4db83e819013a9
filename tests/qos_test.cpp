// Unit tests for the tenant QoS layer: weighted-fair admission clocks,
// priority classes, per-tenant inflight caps, and the grant lifecycle
// (admit / cancel / complete). Pure governor logic — no simulator.

#include <gtest/gtest.h>

#include <stdexcept>

#include "dlfs/qos.hpp"

namespace {

using dlfs::core::QosClass;
using dlfs::core::TenantGovernor;
using dlfs::core::TenantQos;

TEST(TenantGovernor, SingleTenantAdmitsFreely) {
  TenantGovernor gov;
  auto t = gov.register_tenant(TenantQos{"solo", 1, QosClass::kNormal, 0});
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(t->try_admit(1 << 20));
    t->on_complete(1 << 20);
  }
  EXPECT_EQ(t->stats().admitted, 64u);
  EXPECT_EQ(t->stats().deferred, 0u);
}

TEST(TenantGovernor, ZeroWeightIsRejected) {
  TenantGovernor gov;
  EXPECT_THROW((void)gov.register_tenant(TenantQos{"bad", 0}),
               std::invalid_argument);
}

TEST(TenantGovernor, HeavierTenantAdmitsProportionallyMore) {
  // Both tenants keep work in flight; the vtime clocks advance at
  // bytes / weight, so with the burst window exhausted the weight-3
  // tenant admits ~3x the bytes of the weight-1 tenant.
  TenantGovernor gov;
  auto heavy = gov.register_tenant(TenantQos{"heavy", 3});
  auto light = gov.register_tenant(TenantQos{"light", 1});
  // Seed both with one in-flight grant so neither is "idle" (idle tenants
  // snap to the floor and always admit).
  ASSERT_TRUE(heavy->try_admit(1 << 16));
  ASSERT_TRUE(light->try_admit(1 << 16));
  std::uint64_t heavy_bytes = 0;
  std::uint64_t light_bytes = 0;
  for (int round = 0; round < 1000; ++round) {
    if (heavy->try_admit(1 << 16)) {
      heavy_bytes += 1 << 16;
      heavy->on_complete(1 << 16);
    }
    if (light->try_admit(1 << 16)) {
      light_bytes += 1 << 16;
      light->on_complete(1 << 16);
    }
  }
  ASSERT_GT(light_bytes, 0u);
  const double ratio =
      static_cast<double>(heavy_bytes) / static_cast<double>(light_bytes);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

TEST(TenantGovernor, HighPriorityOutweighsNormal) {
  TenantGovernor gov;
  auto high = gov.register_tenant(TenantQos{"high", 1, QosClass::kHigh});
  auto norm = gov.register_tenant(TenantQos{"norm", 1, QosClass::kNormal});
  ASSERT_TRUE(high->try_admit(4096));
  ASSERT_TRUE(norm->try_admit(4096));
  std::uint64_t hb = 0;
  std::uint64_t nb = 0;
  for (int round = 0; round < 2000; ++round) {
    if (high->try_admit(1 << 16)) {
      hb += 1 << 16;
      high->on_complete(1 << 16);
    }
    if (norm->try_admit(1 << 16)) {
      nb += 1 << 16;
      norm->on_complete(1 << 16);
    }
  }
  ASSERT_GT(nb, 0u);
  // kHigh multiplies the effective weight by kHighBoost (8x).
  EXPECT_GT(static_cast<double>(hb) / static_cast<double>(nb), 4.0);
}

TEST(TenantGovernor, BackgroundTricklesWhileForegroundBusy) {
  TenantGovernor gov;
  auto fg = gov.register_tenant(TenantQos{"fg", 1, QosClass::kNormal});
  auto bg = gov.register_tenant(TenantQos{"bg", 1, QosClass::kBackground});
  ASSERT_TRUE(fg->try_admit(4096));  // foreground has work in flight
  EXPECT_TRUE(bg->try_admit(4096));  // one background grant is allowed...
  EXPECT_FALSE(bg->try_admit(4096));  // ...but never a second one
  EXPECT_EQ(bg->stats().deferred, 1u);
  // Once the foreground drains, background runs at full depth.
  fg->on_complete(4096);
  EXPECT_TRUE(bg->try_admit(4096));
  EXPECT_EQ(bg->inflight(), 2u);
}

TEST(TenantGovernor, MaxInflightCapsAdmission) {
  TenantGovernor gov;
  auto t = gov.register_tenant(TenantQos{"capped", 1, QosClass::kNormal, 2});
  EXPECT_TRUE(t->try_admit(4096));
  EXPECT_TRUE(t->try_admit(4096));
  EXPECT_FALSE(t->try_admit(4096));
  t->on_complete(4096);
  EXPECT_TRUE(t->try_admit(4096));
}

TEST(TenantGovernor, CancelAdmitRewindsTheClock) {
  TenantGovernor gov;
  auto t = gov.register_tenant(TenantQos{"t", 1});
  ASSERT_TRUE(t->try_admit(4096));
  EXPECT_EQ(t->stats().admitted, 1u);
  EXPECT_EQ(t->stats().bytes_admitted, 4096u);
  t->cancel_admit(4096);  // the command never reached a device
  EXPECT_EQ(t->stats().admitted, 0u);
  EXPECT_EQ(t->stats().bytes_admitted, 0u);
  EXPECT_EQ(t->inflight(), 0u);
  EXPECT_THROW(t->cancel_admit(4096), std::logic_error);
  EXPECT_THROW(t->on_complete(4096), std::logic_error);
}

TEST(TenantGovernor, IdleTenantDoesNotBankShare) {
  // A tenant that sat idle while another streamed must not monopolize on
  // return: its vtime snaps to the current floor, so both make progress.
  TenantGovernor gov;
  auto busy = gov.register_tenant(TenantQos{"busy", 1});
  auto idle = gov.register_tenant(TenantQos{"idle", 1});
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(busy->try_admit(1 << 16));
    busy->on_complete(1 << 16);
  }
  // The idle tenant wakes up: it admits, and does NOT lock busy out for
  // 500 rounds of "catch-up".
  ASSERT_TRUE(busy->try_admit(1 << 16));  // keep busy in flight
  ASSERT_TRUE(idle->try_admit(1 << 16));
  int busy_admits = 0;
  for (int i = 0; i < 100; ++i) {
    if (busy->try_admit(1 << 16)) {
      ++busy_admits;
      busy->on_complete(1 << 16);
    }
    if (idle->try_admit(1 << 16)) idle->on_complete(1 << 16);
  }
  EXPECT_GT(busy_admits, 20);
}

TEST(TenantGovernor, LateRegistrantStartsAtTheFloor) {
  TenantGovernor gov;
  auto first = gov.register_tenant(TenantQos{"first", 1});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(first->try_admit(1 << 16));
    first->on_complete(1 << 16);
  }
  auto late = gov.register_tenant(TenantQos{"late", 1});
  ASSERT_TRUE(first->try_admit(1 << 16));
  ASSERT_TRUE(late->try_admit(1 << 16));
  // The newcomer competes fairly from "now" — it cannot starve first.
  int first_admits = 0;
  for (int i = 0; i < 100; ++i) {
    if (first->try_admit(1 << 16)) {
      ++first_admits;
      first->on_complete(1 << 16);
    }
    if (late->try_admit(1 << 16)) late->on_complete(1 << 16);
  }
  EXPECT_GT(first_admits, 20);
  EXPECT_EQ(gov.tenant_count(), 2u);
}

}  // namespace
