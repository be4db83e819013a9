#pragma once

// SampleEntry: the 128-bit directory entry of Fig. 3(b).
//
// Two 64-bit units:
//   unit 1:  NID (16 bits)  | key (48 bits, hash of sample name + attrs)
//   unit 2:  offset (40 bits) | len (23 bits) | V (1 bit)
//
// NID identifies the storage node holding the sample; (offset, len) is
// its location on that node's NVMe device; V tracks whether a copy is
// currently resident in the local sample cache. The layout caps a
// deployment at 65,536 storage nodes, 1 TiB of addressed bytes per
// device, and 8 MiB per sample — all stated or implied by the paper.

#include <cstdint>
#include <stdexcept>

namespace dlfs::core {

class SampleEntry {
 public:
  static constexpr std::uint64_t kMaxNid = (1ull << 16) - 1;
  static constexpr std::uint64_t kKeyMask = (1ull << 48) - 1;
  static constexpr std::uint64_t kMaxOffset = (1ull << 40) - 1;
  static constexpr std::uint64_t kMaxLen = (1ull << 23) - 1;

  SampleEntry() = default;

  SampleEntry(std::uint16_t nid, std::uint64_t key48, std::uint64_t offset,
              std::uint32_t len, bool valid_in_cache = false) {
    if (key48 > kKeyMask) throw std::invalid_argument("key exceeds 48 bits");
    if (offset > kMaxOffset) {
      throw std::invalid_argument("offset exceeds 40 bits (1 TiB)");
    }
    if (len > kMaxLen) {
      throw std::invalid_argument("sample length exceeds 23 bits (8 MiB)");
    }
    hi_ = (static_cast<std::uint64_t>(nid) << 48) | key48;
    lo_ = (offset << 24) | (static_cast<std::uint64_t>(len) << 1) |
          (valid_in_cache ? 1u : 0u);
  }

  [[nodiscard]] std::uint16_t nid() const {
    return static_cast<std::uint16_t>(hi_ >> 48);
  }
  [[nodiscard]] std::uint64_t key() const { return hi_ & kKeyMask; }
  [[nodiscard]] std::uint64_t offset() const { return lo_ >> 24; }
  [[nodiscard]] std::uint32_t len() const {
    return static_cast<std::uint32_t>((lo_ >> 1) & kMaxLen);
  }
  [[nodiscard]] bool valid_in_cache() const { return (lo_ & 1) != 0; }

  void set_valid_in_cache(bool v) {
    lo_ = (lo_ & ~1ull) | (v ? 1u : 0u);
  }

  [[nodiscard]] std::uint64_t raw_hi() const { return hi_; }
  [[nodiscard]] std::uint64_t raw_lo() const { return lo_; }

  friend bool operator==(const SampleEntry& a, const SampleEntry& b) {
    return a.hi_ == b.hi_ && a.lo_ == b.lo_;
  }

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

static_assert(sizeof(SampleEntry) == 16,
              "a sample entry must be exactly 128 bits (paper, Fig. 3b)");

// The class of an extent's current route: kStorage reads the device
// extent (nid, offset); kPeer pulls the extent's sample (its key) out of
// a peer's DRAM and, refused, reads the device extent instead; kCache
// pins the sample in the reader's own cache, which must hold it.
enum class HopClass : std::uint8_t { kStorage, kPeer, kCache };

// RouteHop: one alternate placement of a sample (replica location). Read
// paths carry a short list of these alongside the primary (nid, offset)
// so a downed node becomes a routing decision instead of a skip. The
// length is not repeated: every copy of a sample has the primary's length.
struct RouteHop {
  std::uint16_t nid = 0;
  std::uint64_t offset = 0;

  bool operator==(const RouteHop&) const = default;
};

}  // namespace dlfs::core
