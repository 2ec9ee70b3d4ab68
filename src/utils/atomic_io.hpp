// Atomic file writes.
//
// Result files (checkpoints, page files, CSV artifacts, images, model
// states) must never be observable half-written: a bench or experiment
// killed mid-write would otherwise leave a truncated file that a later
// resume or plot silently consumes. Every write goes through one path:
// AtomicFileWriter streams into a hidden temp file in the same directory and
// commit() renames it over the target — rename(2) within one filesystem is
// atomic, so readers see either the old complete file or the new one. There
// is no fsync: the guarantee is against a crashed or killed process, not
// against losing power.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace fca {

/// Streams a file's bytes into `.<name>.tmp` beside `path`; commit() renames
/// it over `path`. Destroyed before commit (an exception mid-stream), it
/// removes the temp file and leaves any previous file at `path` untouched.
/// Parent directories must exist. Throws fca::Error on any I/O failure.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Appends `data` to the temp file (no buffering: one write(2) loop).
  void write(std::span<const std::byte> data);
  /// Overwrites already-written bytes at `offset` (e.g. a header field
  /// known only once the body is out); the append position is unchanged.
  void write_at(uint64_t offset, std::span<const std::byte> data);
  /// Closes the temp file and renames it over the target; returns the file
  /// size. Must be called exactly once.
  uint64_t commit();

 private:
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  uint64_t written_ = 0;
  bool committed_ = false;
};

/// Atomically replaces `path` with `data`: an AtomicFileWriter with one
/// write.
void atomic_write_file(const std::string& path,
                       std::span<const std::byte> data);

/// Text overload.
void atomic_write_file(const std::string& path, std::string_view text);

}  // namespace fca
