#include "sim/simulator.hpp"

#include <cassert>

namespace dlsim {

Simulator* Simulator::current_sim_ = nullptr;

std::string current_task_label() {
  Simulator* sim = Simulator::current();
  return sim ? sim->current_task_name() : std::string("<main>");
}

const void* current_task_id() {
  Simulator* sim = Simulator::current();
  return sim ? static_cast<const void*>(sim->current_process()) : nullptr;
}

std::string Simulator::current_task_name() const {
  if (!current_) return "<main>";
  return current_->name.empty() ? "<unnamed>" : current_->name;
}

Simulator::~Simulator() {
  // Tear down an aborted simulation without double-frees: queue entries are
  // *non-owning* references to suspended frames, so they are never destroyed
  // directly. Instead we destroy each live process' root frame; destroying a
  // suspended coroutine runs the destructors of its locals, which recursively
  // destroys every child Task frame it owns (including any whose handle sits
  // in the queue).
  tearing_down_ = true;
  while (!queue_.empty()) queue_.pop();
  for (auto& p : processes_) {
    if (p->root) {
      p->root.destroy();
      p->root = {};
    }
  }
}

void Simulator::schedule_at(SimTime t, std::coroutine_handle<> h,
                            detail::ProcessState* owner) {
  assert(h && "scheduling a null coroutine handle");
  assert(t >= now_ && "scheduling into the past");
  queue_.push(Item{t, seq_++, h, owner});
}

Task<void> Simulator::process_wrapper(
    Task<void> inner, std::shared_ptr<detail::ProcessState> st, bool daemon) {
  try {
    co_await std::move(inner);
  } catch (...) {
    st->error = std::current_exception();
  }
  st->done = true;
  st->root = {};  // the frame self-destroys at final suspend
  if (!daemon) --live_;
  for (const auto& j : st->joiners) schedule_now(j.h, j.owner);
  st->joiners.clear();
}

Process Simulator::spawn_impl(Task<void> t, std::string name, bool daemon) {
  assert(t.valid() && "spawning an empty Task");
  auto st = std::make_shared<detail::ProcessState>();
  st->name = std::move(name);
  st->daemon = daemon;
  processes_.push_back(st);
  if (!daemon) ++live_;
  Task<void> wrapper = process_wrapper(std::move(t), st, daemon);
  auto h = wrapper.release();
  h.promise().self_destroy = true;
  st->root = h;
  schedule_now(h, st.get());
  return Process{st};
}

Process Simulator::spawn(Task<void> t, std::string name) {
  return spawn_impl(std::move(t), std::move(name), /*daemon=*/false);
}

Process Simulator::spawn_daemon(Task<void> t, std::string name) {
  return spawn_impl(std::move(t), std::move(name), /*daemon=*/true);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  Item item = queue_.top();
  queue_.pop();
  now_ = item.t;
  ++processed_;
  // Publish the running task's identity for the duration of this slice
  // (saved/restored so a simulation stepped from inside another
  // simulation's process attributes correctly).
  Simulator* prev_sim = current_sim_;
  current_sim_ = this;
  current_ = item.owner;
  item.h.resume();
  current_ = nullptr;
  current_sim_ = prev_sim;
  return true;
}

void Simulator::run(bool allow_blocked) {
  while (step()) {
  }
  if (!allow_blocked && live_ > 0) {
    throw DeadlockError(blocked_process_names(), now_);
  }
}

void Simulator::run_watchdog(SimTime deadline) {
  while (!queue_.empty() && (live_ == 0 || queue_.top().t <= deadline)) {
    step();
  }
  if (live_ > 0) throw DeadlockError(blocked_process_names(), now_);
}

std::vector<std::string> Simulator::blocked_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (!p->done && !p->daemon) names.push_back(p->name);
  }
  return names;
}

void Simulator::run_until(SimTime t) {
  while (!queue_.empty() && queue_.top().t <= t) step();
  if (t > now_) now_ = t;
}

void Simulator::rethrow_failures() const {
  for (const auto& p : processes_) {
    if (p->error) std::rethrow_exception(p->error);
  }
}

Task<void> Process::join() const {
  auto st = state_;
  if (!st) co_return;
  if (!st->done) {
    struct Awaiter {
      detail::ProcessState* st;
      bool await_ready() const noexcept { return st->done; }
      void await_suspend(std::coroutine_handle<> h) {
        Simulator* sim = Simulator::current();
        st->joiners.push_back(
            detail::Parked{h, sim ? sim->current_process() : nullptr});
      }
      void await_resume() const noexcept {}
    };
    co_await Awaiter{st.get()};
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace dlsim
