// Checkpoint container format.
//
// A checkpoint file is a small set of named binary sections under one
// header, each integrity-checked independently:
//
//   offset  size  field
//   0       8     magic "FCACKPT\0"
//   8       4     u32 format version (kFormatVersion)
//   12      4     u32 section count
//   per section:
//           4     u32 name length
//           n     name bytes (ASCII, e.g. "meta", "client/3")
//           8     u64 payload length
//           4     u32 CRC32 (IEEE) of the payload
//           m     payload bytes
//
// All integers are little-endian (the library already assumes a
// little-endian host for tensor serialization). Versioning rule: any change
// to the section layout or to a section's internal encoding bumps
// kFormatVersion; readers accept versions 1..kFormatVersion (decoders
// branch on SectionReader::version() to default fields a version predates)
// and reject newer ones outright rather than guessing.
//
// Writing streams: SectionWriter writes the file header at construction and
// each section's header + payload straight into a temp file as it is added,
// then fills in the section count on commit(), so a save holds one section
// in memory at a time, never a whole-file image. The temp file is renamed over
// the target on commit() and removed if the writer dies first (no fsync;
// see utils/atomic_io.hpp), so a crash mid-save can never leave a
// truncated file under the final name — and if anything else corrupts one,
// the per-section CRC catches it on load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "utils/atomic_io.hpp"
#include "utils/error.hpp"

namespace fca::ckpt {

// v2: meta gained the fault-event marker, the network section gained
// FaultStats, and metrics rows gained selected/survivor counts and
// per-round fault events.
// v3: real (non-injected) transport-fault accounting — meta gained the
// real-fault marker, FaultStats gained real_peer_faults, and metrics rows
// gained real_fault_events.
// v4: O(active-cohort) checkpoints — client sections are written only for
// the store's dirty set, a "clients" index section lists which ids are
// present, and lazy-init runs add a "bootstrap" section so re-derived clean
// clients start from the armed payload. v1..v3 readers treat a missing
// index as "every client recorded".
inline constexpr uint32_t kFormatVersion = 4;

/// CRC32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) of `data`.
uint32_t crc32(std::span<const std::byte> data);

/// Little-endian scalar/byte-string encoder for section payloads. Encoders
/// that know their payload size pass it to the constructor so the buffer
/// is allocated once and take() returns it with capacity() == size().
class ByteWriter {
 public:
  explicit ByteWriter(size_t capacity = 0) { out_.reserve(capacity); }
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i64(int64_t v);
  void f64(double v);
  void str(std::string_view s);  // u32 length + bytes
  /// u64 length + `size` bytes that `fill(buffer)` appends in place — the
  /// single-copy way to embed another encoder's output (e.g.
  /// models::append_state) without building it in a buffer of its own.
  template <typename Fill>
  void blob(size_t size, Fill&& fill) {
    u64(size);
    const size_t start = out_.size();
    fill(out_);
    FCA_CHECK_MSG(out_.size() - start == size,
                  "blob encoder wrote " << out_.size() - start
                                        << " bytes, announced " << size);
  }
  /// Returns the accumulated bytes and resets the writer.
  std::vector<std::byte> take() {
    std::vector<std::byte> v = std::move(out_);
    out_.clear();
    return v;
  }

 private:
  void put(const void* p, size_t n);
  std::vector<std::byte> out_;
};

/// Strict decoder matching ByteWriter; throws fca::Error on truncation.
/// Every length is compared against the bytes remaining (never as
/// `pos + len`, which a length near 2^64 would wrap).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}
  uint32_t u32();
  uint64_t u64();
  int64_t i64();
  double f64();
  std::string str();
  /// u64 length + bytes, as a view into the payload (no copy).
  std::span<const std::byte> blob();
  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }
  /// Asserts the payload was consumed exactly.
  void expect_done() const;

 private:
  std::span<const std::byte> take(uint64_t n);
  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

/// Streams a checkpoint container to `path`: the file header goes out at
/// construction, each add() writes one section (header + payload) straight
/// to the temp file, and commit() fills in the section count and renames
/// the file into place. Destroyed before commit — an exception while
/// producing a later section — it removes the temp file, leaving any
/// previous file at `path` byte-identical.
class SectionWriter {
 public:
  /// The version override exists for tests that fabricate older-format
  /// files; production saves always stamp kFormatVersion.
  explicit SectionWriter(const std::string& path,
                         uint32_t version = kFormatVersion);
  /// Writes a section; names must be unique within one file.
  void add(std::string_view name, std::span<const std::byte> payload);
  /// Atomically replaces the target; returns the file size in bytes.
  uint64_t commit();

 private:
  AtomicFileWriter file_;
  std::vector<std::string> names_;
};

/// Parses and fully validates a checkpoint file: magic, version, structure,
/// and every section's CRC32. Throws fca::Error on any mismatch, so a
/// truncated or bit-flipped file is rejected before any state is touched.
class SectionReader {
 public:
  explicit SectionReader(const std::string& path);

  bool has(const std::string& name) const;
  /// Payload of a section; throws if absent.
  std::span<const std::byte> section(const std::string& name) const;
  size_t file_size() const { return file_.size(); }
  /// Format version the file was written with (1..kFormatVersion).
  uint32_t version() const { return version_; }

 private:
  std::vector<std::byte> file_;
  uint32_t version_ = kFormatVersion;
  std::vector<std::pair<std::string, std::span<const std::byte>>> sections_;
};

}  // namespace fca::ckpt
