#pragma once

// TFRecord-like batched sample format.
//
// The paper (§II-B) discusses preprocessing small samples into large
// batched files (TFRecord / CIFAR10 format) to avoid small random I/O —
// at the cost of shuffle quality, because frameworks then shuffle within
// a bounded buffer. This module implements such a format:
//
//   record  := u32 length | u32 crc32(payload) | payload
//   file    := record*
//
// plus a per-record offset index — the paper's basis for DLFS's "direct
// access to any samples in a TFRecord file" (§III-B.1). The DLFS mount
// here stores raw per-sample extents; examples/shuffle_quality reads
// this format.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace dlfs::dataset {

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected).
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data);

/// Incremental CRC-32 for streamed payloads.
[[nodiscard]] std::uint32_t crc32_init();
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         std::span<const std::byte> data);
[[nodiscard]] std::uint32_t crc32_final(std::uint32_t state);

/// Serializes the 8-byte record header (u32 length | u32 crc).
void write_record_header(std::span<std::byte, 8> out, std::uint32_t length,
                         std::uint32_t crc);

struct RecordRef {
  std::uint64_t offset = 0;   // file offset of the record header
  std::uint32_t length = 0;   // payload length
  [[nodiscard]] std::uint64_t payload_offset() const { return offset + 8; }
};

class RecordFileWriter {
 public:
  /// Appends one record; returns its reference.
  RecordRef append(std::span<const std::byte> payload);

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(bytes_); }
  [[nodiscard]] const std::vector<RecordRef>& index() const { return index_; }

 private:
  std::vector<std::byte> bytes_;
  std::vector<RecordRef> index_;
};

class RecordFileReader {
 public:
  explicit RecordFileReader(std::span<const std::byte> file) : file_(file) {}

  /// Scans the whole file, validating structure and checksums.
  /// Returns the record index, or nullopt if the file is corrupt.
  [[nodiscard]] std::optional<std::vector<RecordRef>> scan() const;

  /// Reads one record's payload by reference (validates the checksum).
  /// Returns nullopt on corruption.
  [[nodiscard]] std::optional<std::span<const std::byte>> read(
      const RecordRef& ref) const;

 private:
  std::span<const std::byte> file_;
};

}  // namespace dlfs::dataset
