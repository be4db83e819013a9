// dlfslint fixture: CL006 — view/span escape.
//
// Spans handed out by bread_views / ViewBatch::samples[i].pieces borrow
// the batch's slices of pool chunks; the lease (ViewLease, or
// release_views) drops the slices, and the pool scribbles a chunk its
// last buffer left (scribble_on_free). Any span stored into state that
// outlives the lease — a member, a static, a member container — is a
// use-after-free waiting for the next recycle. Copy the bytes instead.
//
// Fixtures are scanned, never compiled.

#include <cstddef>
#include <span>
#include <vector>

#include "dlfs/dlfs.hpp"

namespace fixture {

class Escaper {
 public:
  dlsim::Task<void> bad_member_span(core::DlfsInstance* inst) {
    auto vb = co_await inst->bread_views(8);
    first_ = vb.samples[0].pieces[0];  // DLFSLINT-EXPECT: CL006
  }

  dlsim::Task<void> bad_member_batch(core::DlfsInstance* inst) {
    batch_ = co_await inst->bread_views(8);  // DLFSLINT-EXPECT: CL006
  }

  dlsim::Task<void> bad_container_insert(core::DlfsInstance* inst) {
    auto vb = co_await inst->bread_views(8);
    for (const auto& s : vb.samples) {
      spans_.push_back(s.pieces[0]);  // DLFSLINT-EXPECT: CL006
    }
  }

  dlsim::Task<void> bad_static_span(core::DlfsInstance* inst) {
    auto vb = co_await inst->bread_views(8);
    static std::span<const std::byte> last =
        vb.samples[0].pieces[0];  // DLFSLINT-EXPECT: CL006
    (void)last;
  }

  // Negative: consuming the spans inside the lease scope is the whole
  // point of zero-copy delivery.
  dlsim::Task<std::size_t> ok_consume_in_scope(core::DlfsInstance* inst) {
    auto vb = co_await inst->bread_views(8);
    std::size_t total = 0;
    for (const auto& s : vb.samples) {
      for (const auto piece : s.pieces) total += piece.size();
    }
    co_return total;
  }

  // Negative: copying the bytes out is always safe.
  dlsim::Task<void> ok_copy_bytes(core::DlfsInstance* inst) {
    auto vb = co_await inst->bread_views(8);
    std::vector<std::byte> keep;
    for (const auto& s : vb.samples) {
      const auto piece = s.pieces[0];
      keep.insert(keep.end(), piece.begin(), piece.end());
    }
  }

  // Negative: building the batch's own piece list (local receiver) is
  // the producer side, not an escape.
  static void ok_producer_side(core::ViewSample* vs,
                               std::span<const std::byte> piece) {
    vs->pieces.push_back(piece);
  }

 private:
  std::span<const std::byte> first_;
  core::ViewBatch batch_;
  std::vector<std::span<const std::byte>> spans_;
};

}  // namespace fixture
