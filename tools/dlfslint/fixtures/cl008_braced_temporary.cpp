// dlfslint fixture: CL008 — a braced temporary among a co_awaited call's
// arguments, `co_await f(..., Name{...}, ...)`. g++ 12.2 destroys such a
// temporary twice (a double free, or a heap-use-after-free under ASan).
// The fix is a named local moved in.

#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace fixture {

struct Extent {
  int key = 0;
  std::vector<int> buffers;
};

struct Awaiter {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

dlsim::Task<void> deliver(Extent x, int* dst);
Extent make_extent(int key);
void consume(Extent x);

struct Engine {
  dlsim::Task<void> deliver(Extent x, int* dst);
};

namespace io {
dlsim::Task<void> deliver(Extent x, int* dst);
}  // namespace io

dlsim::Task<void> bad_free_call(int* dst) {
  co_await deliver(Extent{1, {}}, dst);  // DLFSLINT-EXPECT: CL008
}

dlsim::Task<void> bad_member_call(Engine* engine, int* dst) {
  co_await engine->deliver(Extent{2, {}}, dst);  // DLFSLINT-EXPECT: CL008
}

dlsim::Task<void> bad_qualified_call(int* dst) {
  co_await io::deliver(fixture::Extent{3, {}}, dst);  // DLFSLINT-EXPECT: CL008
}

dlsim::Task<void> bad_spread(int* dst) {
  Engine engine;
  co_await engine.deliver(
      Extent{4, std::vector<int>(4)},  // DLFSLINT-EXPECT: CL008
      dst);
}

// --- negative cases ---------------------------------------------------------

// A named local moved in: the sanctioned shape.
dlsim::Task<void> ok_moved_local(int* dst) {
  Extent x{5, {}};
  co_await deliver(std::move(x), dst);
}

// A function-call prvalue is not a braced temporary.
dlsim::Task<void> ok_prvalue(int* dst) {
  co_await deliver(make_extent(6), dst);
}

// Braced init outside co_await is not the miscompiled shape.
void ok_plain_call() { consume(Extent{7, {}}); }

// The braced temporary is the awaited operand itself, not an argument.
dlsim::Task<void> ok_awaiter() { co_await Awaiter{}; }

}  // namespace fixture
