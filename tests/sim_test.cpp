// Tests for the discrete-event simulation kernel: the event loop, Task
// composition, and every synchronization primitive. Everything downstream
// (devices, file systems, the DLFS core) assumes these semantics, so this
// suite is deliberately picky about ordering and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using dlsim::Channel;
using dlsim::CpuCore;
using dlsim::Event;
using dlsim::Mutex;
using dlsim::Process;
using dlsim::Semaphore;
using dlsim::SimTime;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;

TEST(SimTime, Literals) {
  EXPECT_EQ(1_ns, 1u);
  EXPECT_EQ(1_us, 1000u);
  EXPECT_EQ(1_ms, 1000000u);
  EXPECT_EQ(1_sec, 1000000000u);
  EXPECT_EQ(3_us + 500_ns, 3500u);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(dlsim::to_seconds(1_sec), 1.0);
  EXPECT_DOUBLE_EQ(dlsim::to_micros(2500_ns), 2.5);
  EXPECT_DOUBLE_EQ(dlsim::to_millis(1500_us), 1.5);
}

TEST(SimTime, TransferTime) {
  // 1 GiB at 1 GB/s is ~1.0737 seconds.
  EXPECT_EQ(dlsim::transfer_time(1000000000ull, 1e9), 1_sec);
  EXPECT_EQ(dlsim::transfer_time(4096, 2.5e9), 1638u);
  EXPECT_EQ(dlsim::transfer_time(0, 1e9), 0u);
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, DelayAdvancesTime) {
  Simulator sim;
  SimTime observed = 0;
  sim.spawn([](Simulator& s, SimTime& out) -> Task<void> {
    co_await s.delay(42_us);
    out = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 42_us);
  EXPECT_EQ(sim.now(), 42_us);
}

TEST(Simulator, ZeroDelayRunsAtSameTime) {
  Simulator sim;
  SimTime observed = 1;
  sim.spawn([](Simulator& s, SimTime& out) -> Task<void> {
    co_await s.delay(0);
    co_await s.yield();
    out = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 0u);
}

TEST(Simulator, FifoOrderWithinSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
      co_await s.delay(10_ns);
      ord.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsInterleaveByTimestamp) {
  Simulator sim;
  std::vector<std::string> trace;
  auto proc = [](Simulator& s, std::vector<std::string>& t, std::string name,
                 dlsim::SimDuration step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      t.push_back(name + std::to_string(i));
    }
  };
  sim.spawn(proc(sim, trace, "a", 10_ns));
  sim.spawn(proc(sim, trace, "b", 15_ns));
  sim.run();
  // a: 10,20,30; b: 15,30,45. At t=30 'a2' was scheduled before 'b1'... no:
  // b1 fires at 30 — scheduled at t=15, a2 scheduled at t=20: a2 first? No:
  // scheduling order: a2 scheduled when a1 ran (t=20); b1 scheduled when b0
  // ran (t=15). Both fire at 30; b1 was enqueued earlier so runs first.
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2",
                                             "b2"}));
}

TEST(Simulator, NestedTasksPropagateValues) {
  Simulator sim;
  int result = 0;
  auto leaf = [](Simulator& s) -> Task<int> {
    co_await s.delay(5_ns);
    co_return 21;
  };
  auto mid = [&leaf](Simulator& s) -> Task<int> {
    int v = co_await leaf(s);
    co_return v * 2;
  };
  sim.spawn([](Simulator& s, decltype(mid)& m, int& out) -> Task<void> {
    out = co_await m(s);
  }(sim, mid, result));
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Simulator, ExceptionsPropagateThroughTaskChain) {
  Simulator sim;
  auto thrower = [](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  sim.spawn([](Simulator& s, decltype(thrower)& t, bool& c) -> Task<void> {
    try {
      co_await t(s);
    } catch (const std::runtime_error& e) {
      c = std::string(e.what()) == "boom";
    }
  }(sim, thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, ProcessFailureIsReported) {
  Simulator sim;
  Process p = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::logic_error("fatal");
  }(sim));
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.rethrow(), std::logic_error);
  EXPECT_THROW(sim.rethrow_failures(), std::logic_error);
}

TEST(Simulator, JoinWaitsForCompletion) {
  Simulator sim;
  SimTime joined_at = 0;
  Process worker = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(100_ns);
  }(sim));
  sim.spawn([](Simulator& s, Process w, SimTime& out) -> Task<void> {
    co_await w.join();
    out = s.now();
  }(sim, worker, joined_at));
  sim.run();
  EXPECT_EQ(joined_at, 100_ns);
}

TEST(Simulator, JoinOnFinishedProcessReturnsImmediately) {
  Simulator sim;
  Process worker = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(10_ns);
  }(sim));
  sim.run();
  SimTime joined_at = 123;
  sim.spawn([](Simulator& s, Process w, SimTime& out) -> Task<void> {
    co_await w.join();
    out = s.now();
  }(sim, worker, joined_at));
  sim.run();
  EXPECT_EQ(joined_at, 10_ns);  // no extra time passed
}

TEST(Simulator, JoinRethrowsProcessError) {
  Simulator sim;
  Process worker = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::runtime_error("worker died");
  }(sim));
  bool caught = false;
  sim.spawn([](Simulator&, Process w, bool& c) -> Task<void> {
    try {
      co_await w.join();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, worker, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, RunUntilStopsMidway) {
  Simulator sim;
  int ticks = 0;
  sim.spawn([](Simulator& s, int& t) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s.delay(10_ns);
      ++t;
    }
  }(sim, ticks));
  sim.run_until(35_ns);
  EXPECT_EQ(sim.now(), 35_ns);
  EXPECT_EQ(ticks, 3);  // events at 10, 20, 30 ran; 40 is still queued
  sim.run();
  EXPECT_EQ(ticks, 10);
}

TEST(Simulator, DeadlockDetected) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(ev));
  EXPECT_THROW(sim.run(), dlsim::DeadlockError);
}

TEST(Simulator, DeadlockErrorNamesBlockedProcesses) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(ev),
            "stuck-reader");
  // Daemons idle forever by design; they must not be named as culprits.
  sim.spawn_daemon([](Event& e) -> Task<void> { co_await e.wait(); }(ev),
                   "idle-server");
  try {
    sim.run();
    FAIL() << "expected DeadlockError";
  } catch (const dlsim::DeadlockError& e) {
    EXPECT_EQ(e.blocked_processes, 1u);
    ASSERT_EQ(e.blocked_names.size(), 1u);
    EXPECT_EQ(e.blocked_names[0], "stuck-reader");
    EXPECT_NE(std::string(e.what()).find("stuck-reader"), std::string::npos);
  }
}

TEST(Simulator, WatchdogPassesWhenWorkFinishesInTime) {
  Simulator sim;
  bool done = false;
  sim.spawn([](Simulator& s, bool& d) -> Task<void> {
    co_await s.delay(1000);
    d = true;
  }(sim, done));
  EXPECT_NO_THROW(sim.run_watchdog(/*deadline=*/5000));
  EXPECT_TRUE(done);
}

TEST(Simulator, WatchdogThrowsWhenProcessOutlivesDeadline) {
  Simulator sim;
  Event never(sim);
  sim.spawn(
      [](Simulator& s, Event& e) -> Task<void> {
        co_await s.delay(100);
        co_await e.wait();
      }(sim, never),
      "hung-recovery");
  // A ticking daemon keeps the queue non-empty forever: without the
  // deadline the loop would spin past the hang indefinitely.
  sim.spawn_daemon(
      [](Simulator& s) -> Task<void> {
        // Deliberate busy-ticker: this test exists to prove the watchdog
        // catches exactly this shape. DLFSLINT-ALLOW: CL007
        for (;;) co_await s.delay(1000);
      }(sim),
      "ticker");
  try {
    sim.run_watchdog(/*deadline=*/5000);
    FAIL() << "expected DeadlockError";
  } catch (const dlsim::DeadlockError& e) {
    ASSERT_EQ(e.blocked_names.size(), 1u);
    EXPECT_EQ(e.blocked_names[0], "hung-recovery");
  }
}

TEST(Simulator, AllowBlockedSuppressesDeadlock) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(ev));
  EXPECT_NO_THROW(sim.run(/*allow_blocked=*/true));
  EXPECT_EQ(sim.live_processes(), 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
        co_await s.delay(static_cast<dlsim::SimDuration>((id * 7) % 5));
        co_await s.delay(static_cast<dlsim::SimDuration>((id * 3) % 4));
        ord.push_back(id);
      }(sim, order, i));
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Event

TEST(SimEvent, WaitersWakeWhenSet) {
  Simulator sim;
  Event ev(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, std::vector<int>& ord, int id) -> Task<void> {
      co_await e.wait();
      ord.push_back(id);
    }(ev, order, i));
  }
  sim.spawn([](Simulator& s, Event& e) -> Task<void> {
    co_await s.delay(50_ns);
    e.set();
  }(sim, ev));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(ev.is_set());
}

TEST(SimEvent, WaitOnSetEventDoesNotSuspend) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  SimTime t = 1;
  sim.spawn([](Simulator& s, Event& e, SimTime& out) -> Task<void> {
    co_await e.wait();
    out = s.now();
  }(sim, ev, t));
  sim.run();
  EXPECT_EQ(t, 0u);
}

TEST(SimEvent, ResetRearmsEvent) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

// ---------------------------------------------------------------------------
// Mutex

TEST(SimMutex, MutualExclusion) {
  Simulator sim;
  Mutex mu(sim);
  int inside = 0;
  int max_inside = 0;
  auto critical = [](Simulator& s, Mutex& m, int& in, int& mx) -> Task<void> {
    auto guard = co_await m.scoped_lock();
    ++in;
    mx = std::max(mx, in);
    co_await s.delay(10_ns);
    --in;
  };
  for (int i = 0; i < 4; ++i) {
    sim.spawn(critical(sim, mu, inside, max_inside));
  }
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_FALSE(mu.locked());
}

TEST(SimMutex, FifoHandoff) {
  Simulator sim;
  Mutex mu(sim);
  std::vector<int> order;
  auto grab = [](Simulator& s, Mutex& m, std::vector<int>& ord,
                 int id) -> Task<void> {
    auto guard = co_await m.scoped_lock();
    ord.push_back(id);
    co_await s.delay(5_ns);
  };
  for (int i = 0; i < 5; ++i) sim.spawn(grab(sim, mu, order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimMutex, ScopedLockMoveTransfersOwnership) {
  Simulator sim;
  Mutex mu(sim);
  sim.spawn([](Mutex& m) -> Task<void> {
    auto a = co_await m.scoped_lock();
    dlsim::ScopedLock b = std::move(a);
    EXPECT_TRUE(m.locked());
    // b unlocks at scope exit; a must not double-unlock.
  }(mu));
  sim.run();
  EXPECT_FALSE(mu.locked());
}

TEST(SimMutex, TeardownLeavesAGoneMutexAlone) {
  // The simulator destroys its suspended frames after the objects they
  // point into: a guard held across a suspension must not unlock a mutex
  // whose owner is already gone.
  Simulator sim;
  auto mu = std::make_unique<Mutex>(sim);
  sim.spawn([](Simulator& sim, Mutex& m) -> Task<void> {
    auto guard = co_await m.scoped_lock();
    co_await sim.delay(1_ms);
  }(sim, *mu));
  sim.run_until(500_us);
  EXPECT_TRUE(mu->locked());
  mu.reset();
}

// ---------------------------------------------------------------------------
// Semaphore

TEST(SimSemaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int inside = 0;
  int max_inside = 0;
  auto body = [](Simulator& s, Semaphore& sm, int& in, int& mx) -> Task<void> {
    co_await sm.acquire();
    ++in;
    mx = std::max(mx, in);
    co_await s.delay(10_ns);
    --in;
    sm.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(body(sim, sem, inside, max_inside));
  sim.run();
  EXPECT_EQ(max_inside, 2);
  EXPECT_EQ(sem.count(), 2u);
}

TEST(SimSemaphore, TryAcquire) {
  Simulator sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

// ---------------------------------------------------------------------------
// Channel

TEST(SimChannel, FifoDelivery) {
  Simulator sim;
  Channel<int> ch(sim, 16);
  std::vector<int> received;
  sim.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await c.push(i);
    c.close();
  }(ch));
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    for (;;) {
      auto v = co_await c.pop();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimChannel, BoundedCapacityBlocksProducer) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  SimTime producer_done = 0;
  sim.spawn([](Simulator& s, Channel<int>& c, SimTime& done) -> Task<void> {
    for (int i = 0; i < 4; ++i) co_await c.push(i);
    done = s.now();
    c.close();
  }(sim, ch, producer_done));
  sim.spawn([](Simulator& s, Channel<int>& c) -> Task<void> {
    for (;;) {
      co_await s.delay(100_ns);  // slow consumer
      auto v = co_await c.pop();
      if (!v) break;
    }
  }(sim, ch));
  sim.run();
  // Producer had to wait for the slow consumer to drain two slots.
  EXPECT_GE(producer_done, 200_ns);
}

TEST(SimChannel, PushAfterCloseThrows) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  ch.close();
  bool threw = false;
  sim.spawn([](Channel<int>& c, bool& t) -> Task<void> {
    try {
      co_await c.push(1);
    } catch (const dlsim::ChannelClosed&) {
      t = true;
    }
  }(ch, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(SimChannel, CloseDrainsRemainingItems) {
  Simulator sim;
  Channel<int> ch(sim, 8);
  std::vector<int> received;
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    EXPECT_TRUE(c.try_push(1));
    EXPECT_TRUE(c.try_push(2));
    c.close();
    for (;;) {
      auto v = co_await c.pop();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{1, 2}));
}

TEST(SimChannel, TryPop) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  EXPECT_EQ(ch.try_pop(), std::nullopt);
  EXPECT_TRUE(ch.try_push(7));
  auto v = ch.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(SimChannel, ManyProducersOneConsumer) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  int sum = 0;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 10;
  int producers_left = kProducers;
  for (int p = 0; p < kProducers; ++p) {
    sim.spawn([](Simulator& s, Channel<int>& c, int id, int& left) -> Task<void> {
      for (int i = 0; i < kPerProducer; ++i) {
        co_await s.delay(static_cast<dlsim::SimDuration>(id + 1));
        co_await c.push(1);
      }
      if (--left == 0) c.close();
    }(sim, ch, p, producers_left));
  }
  sim.spawn([](Channel<int>& c, int& total) -> Task<void> {
    for (;;) {
      auto v = co_await c.pop();
      if (!v) break;
      total += *v;
    }
  }(ch, sum));
  sim.run();
  EXPECT_EQ(sum, kProducers * kPerProducer);
}

// ---------------------------------------------------------------------------
// CpuCore

TEST(SimCpu, ComputeAccruesBusyTime) {
  Simulator sim;
  CpuCore core(sim, "c0");
  sim.spawn([](Simulator& s, CpuCore& c) -> Task<void> {
    co_await c.compute(30_ns);
    co_await s.delay(70_ns);  // blocked, not busy
  }(sim, core));
  sim.run();
  EXPECT_EQ(core.busy_ns(), 30_ns);
  EXPECT_EQ(core.elapsed_ns(), 100_ns);
  EXPECT_DOUBLE_EQ(core.utilization(), 0.3);
}

TEST(SimCpu, ChargeWithoutSuspend) {
  Simulator sim;
  CpuCore core(sim);
  core.charge(500_ns);
  EXPECT_EQ(core.busy_ns(), 500_ns);
}

TEST(SimCpu, ResetAccounting) {
  Simulator sim;
  CpuCore core(sim);
  sim.spawn([](CpuCore& c) -> Task<void> { co_await c.compute(10_ns); }(core));
  sim.run();
  core.reset_accounting();
  EXPECT_EQ(core.busy_ns(), 0u);
  EXPECT_EQ(core.elapsed_ns(), 0u);
}

TEST(SimRng, SameSeedSameStreamDifferentSeedDifferentStream) {
  // The simulation-wide RNG is the reproducibility anchor for jitter and
  // chaos schedules: one seed must replay the exact draw sequence, and
  // reseeding must rewind it.
  Simulator a;
  Simulator b;
  a.seed_rng(42);
  b.seed_rng(42);
  std::vector<std::uint64_t> sa;
  std::vector<std::uint64_t> sb;
  for (int i = 0; i < 64; ++i) sa.push_back(a.rand64());
  for (int i = 0; i < 64; ++i) sb.push_back(b.rand64());
  EXPECT_EQ(sa, sb);
  // Reseeding rewinds the stream.
  a.seed_rng(42);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.rand64(), sa[i]);
  // A different seed diverges immediately (splitmix64 mixes the seed into
  // the first output).
  b.seed_rng(43);
  EXPECT_NE(b.rand64(), sa[0]);
  // The stream is not trivially degenerate: 64 draws, no repeats.
  std::vector<std::uint64_t> sorted = sa;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
