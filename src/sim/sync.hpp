#pragma once

// Simulated-concurrency primitives: Event, Mutex, Semaphore, Channel.
//
// All primitives are single-(host-)threaded; "blocking" means suspending
// the current coroutine and parking its handle until another simulated
// activity wakes it. Wakeups always go through the Simulator queue (never
// resume inline), which keeps execution order deterministic and stacks
// shallow. Waiters use Mesa semantics: a woken coroutine re-checks its
// predicate, so spurious-looking wakeups are harmless by construction.

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <source_location>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/check.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dlsim {

namespace detail {

/// FIFO list of suspended coroutines. The building block for every
/// primitive below. Each parked handle carries the identity of the
/// process that parked it, so a wake attributes the resumed slice to the
/// *waiter*, not to whoever called wake_one().
class WaitList {
 public:
  explicit WaitList(Simulator& sim) : sim_(&sim) {}

  [[nodiscard]] bool empty() const { return waiters_.empty(); }
  [[nodiscard]] std::size_t size() const { return waiters_.size(); }

  /// Awaitable that always suspends and parks the coroutine here.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      WaitList& wl;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        wl.waiters_.push_back(detail::Parked{h, wl.sim_->current_process()});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Schedules the oldest waiter (if any) at the current time.
  void wake_one() {
    if (waiters_.empty()) return;
    const detail::Parked& w = waiters_.front();
    sim_->schedule_now(w.h, w.owner);
    waiters_.pop_front();
  }

  void wake_all() {
    while (!waiters_.empty()) wake_one();
  }

 private:
  Simulator* sim_;
  std::deque<detail::Parked> waiters_;
};

}  // namespace detail

/// One-shot (resettable) event flag.
class Event {
 public:
  explicit Event(Simulator& sim) : waiters_(sim) {}

  [[nodiscard]] bool is_set() const { return set_; }

  /// Awaitable; returns immediately if the event is already set.
  [[nodiscard]] Task<void> wait() {
    while (!set_) co_await waiters_.wait();
  }

  void set() {
    set_ = true;
    waiters_.wake_all();
  }

  void reset() { set_ = false; }

 private:
  bool set_ = false;
  detail::WaitList waiters_;
};

class Mutex;

/// RAII lock ownership for Mutex (analogous to std::unique_lock). A guard
/// in a suspended frame that the simulator's destructor destroys leaves
/// its mutex alone: the mutex may have died with its owner first.
class ScopedLock {
 public:
  ScopedLock() = default;
  explicit ScopedLock(Mutex& m);
  ScopedLock(ScopedLock&& o) noexcept
      : m_(std::exchange(o.m_, nullptr)), sim_(o.sim_) {}
  ScopedLock& operator=(ScopedLock&& o) noexcept {
    release();
    m_ = std::exchange(o.m_, nullptr);
    sim_ = o.sim_;
    return *this;
  }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;
  ~ScopedLock() { release(); }

  void release();

 private:
  Mutex* m_ = nullptr;
  const Simulator* sim_ = nullptr;
};

/// FIFO mutex. Ownership hands off directly to the oldest waiter, so the
/// lock cannot be barged.
///
/// Every acquisition attempt is recorded in the Simulator's
/// LockOrderGraph (sim/check.hpp) together with the acquiring task and
/// the call site, so two tasks taking two mutexes in opposite orders
/// raise PotentialDeadlockError at the attempt that closes the cycle —
/// usually before the schedule actually deadlocks. Give contended
/// mutexes a name; it is what the diagnostic prints.
class Mutex {
 public:
  explicit Mutex(Simulator& sim, std::string name = {})
      : sim_(&sim),
        waiters_(sim),
        id_(sim.lock_graph().register_lock(std::move(name))) {}

  [[nodiscard]] bool locked() const { return locked_; }
  [[nodiscard]] std::string name() const {
    return sim_->lock_graph().lock_name(id_);
  }

  /// Awaitable lock acquisition.
  [[nodiscard]] Task<void> lock(
      std::source_location site = std::source_location::current()) {
    const std::string site_str = format_site(site);
    sim_->lock_graph().on_attempt(id_, sim_->current_process(),
                                  sim_->current_task_name(), site_str);
    if (!locked_) {
      locked_ = true;
    } else {
      // Park; unlock() transfers ownership to us before waking, so no
      // re-check loop is needed (FIFO handoff, not Mesa, for fairness).
      co_await waiters_.wait();
    }
    owner_ = sim_->current_process();
    sim_->lock_graph().on_acquired(id_, owner_, site_str);
  }

  /// Awaitable returning an RAII guard.
  [[nodiscard]] Task<ScopedLock> scoped_lock(
      std::source_location site = std::source_location::current()) {
    co_await lock(site);
    co_return ScopedLock{*this};
  }

  void unlock() {
    sim_->lock_graph().on_release(id_, owner_);
    owner_ = nullptr;
    if (!waiters_.empty()) {
      // Ownership passes to the woken waiter; locked_ stays true.
      waiters_.wake_one();
    } else {
      locked_ = false;
    }
  }

 private:
  friend class ScopedLock;
  Simulator* sim_;
  bool locked_ = false;
  detail::WaitList waiters_;
  LockOrderGraph::LockId id_;
  detail::ProcessState* owner_ = nullptr;
};

inline ScopedLock::ScopedLock(Mutex& m) : m_(&m), sim_(m.sim_) {}

inline void ScopedLock::release() {
  if (m_ && !sim_->tearing_down()) m_->unlock();
  m_ = nullptr;
}

/// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t initial)
      : count_(initial), waiters_(sim) {}

  [[nodiscard]] std::size_t count() const { return count_; }

  [[nodiscard]] Task<void> acquire() {
    while (count_ == 0) co_await waiters_.wait();
    --count_;
  }

  [[nodiscard]] bool try_acquire() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  void release(std::size_t n = 1) {
    count_ += n;
    for (std::size_t i = 0; i < n; ++i) waiters_.wake_one();
  }

 private:
  std::size_t count_;
  detail::WaitList waiters_;
};

/// Counts down from n; waiters resume when it reaches zero.
class CountdownLatch {
 public:
  CountdownLatch(Simulator& sim, std::size_t n) : count_(n), waiters_(sim) {}

  [[nodiscard]] std::size_t count() const { return count_; }

  void count_down(std::size_t n = 1) {
    count_ = n >= count_ ? 0 : count_ - n;
    if (count_ == 0) waiters_.wake_all();
  }

  /// Adds more work before anyone could have been released.
  void add(std::size_t n) { count_ += n; }

  [[nodiscard]] Task<void> wait() {
    while (count_ > 0) co_await waiters_.wait();
  }

 private:
  std::size_t count_;
  detail::WaitList waiters_;
};

/// Thrown when pushing into a closed Channel.
class ChannelClosed : public std::runtime_error {
 public:
  ChannelClosed() : std::runtime_error("push into closed channel") {}
};

/// Bounded FIFO channel between simulated activities. pop() on a closed,
/// drained channel yields nullopt — the canonical worker-shutdown signal.
template <typename T>
class Channel {
 public:
  Channel(Simulator& sim, std::size_t capacity)
      : capacity_(capacity), pop_waiters_(sim), push_waiters_(sim) {}

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] bool is_closed() const { return closed_; }

  [[nodiscard]] Task<void> push(T v) {
    for (;;) {
      if (closed_) throw ChannelClosed{};
      if (items_.size() < capacity_) {
        items_.push_back(std::move(v));
        pop_waiters_.wake_one();
        co_return;
      }
      co_await push_waiters_.wait();
    }
  }

  /// Non-blocking push; returns false when full.
  [[nodiscard]] bool try_push(T v) {
    if (closed_) throw ChannelClosed{};
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(v));
    pop_waiters_.wake_one();
    return true;
  }

  [[nodiscard]] Task<std::optional<T>> pop() {
    for (;;) {
      if (!items_.empty()) {
        T v = std::move(items_.front());
        items_.pop_front();
        push_waiters_.wake_one();
        co_return std::optional<T>(std::move(v));
      }
      if (closed_) co_return std::nullopt;
      co_await pop_waiters_.wait();
    }
  }

  [[nodiscard]] std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    push_waiters_.wake_one();
    return v;
  }

  /// Closes the channel: pending pops drain remaining items then observe
  /// nullopt; further pushes throw.
  void close() {
    closed_ = true;
    pop_waiters_.wake_all();
    push_waiters_.wake_all();
  }

 private:
  std::size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
  detail::WaitList pop_waiters_;
  detail::WaitList push_waiters_;
};

}  // namespace dlsim
