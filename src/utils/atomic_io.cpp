#include "utils/atomic_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "utils/error.hpp"

namespace fca {
namespace {

/// Temp name beside the target so the final rename stays on one filesystem.
std::string temp_path_for(const std::string& path) {
  const std::filesystem::path p(path);
  std::filesystem::path tmp = p;
  tmp.replace_filename("." + p.filename().string() + ".tmp");
  return tmp.string();
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_(temp_path_for(path_)) {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  FCA_CHECK_MSG(fd_ >= 0, "cannot open " << tmp_ << " for writing: "
                                         << std::strerror(errno));
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  if (fd_ >= 0) ::close(fd_);
  std::remove(tmp_.c_str());
}

void AtomicFileWriter::write(std::span<const std::byte> data) {
  FCA_CHECK_MSG(fd_ >= 0, "write to " << tmp_ << " after commit");
  const std::byte* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    FCA_CHECK_MSG(n > 0, "write to " << tmp_ << " failed: "
                                     << std::strerror(errno));
    p += n;
    left -= static_cast<size_t>(n);
  }
  written_ += data.size();
}

void AtomicFileWriter::write_at(uint64_t offset,
                                std::span<const std::byte> data) {
  FCA_CHECK_MSG(fd_ >= 0, "write to " << tmp_ << " after commit");
  FCA_CHECK_MSG(offset + data.size() <= written_,
                "write_at past the end of " << tmp_);
  const ssize_t n = ::pwrite(fd_, data.data(), data.size(),
                             static_cast<off_t>(offset));
  FCA_CHECK_MSG(n == static_cast<ssize_t>(data.size()),
                "write to " << tmp_ << " failed: " << std::strerror(errno));
}

uint64_t AtomicFileWriter::commit() {
  FCA_CHECK_MSG(fd_ >= 0, tmp_ << " committed twice");
  const int rc = ::close(fd_);
  fd_ = -1;
  FCA_CHECK_MSG(rc == 0, "write to " << tmp_ << " failed: "
                                     << std::strerror(errno));
  FCA_CHECK_MSG(::rename(tmp_.c_str(), path_.c_str()) == 0,
                "rename " << tmp_ << " -> " << path_
                          << " failed: " << std::strerror(errno));
  committed_ = true;
  return written_;
}

void atomic_write_file(const std::string& path,
                       std::span<const std::byte> data) {
  AtomicFileWriter file(path);
  file.write(data);
  file.commit();
}

void atomic_write_file(const std::string& path, std::string_view text) {
  atomic_write_file(path,
                    std::span<const std::byte>(
                        reinterpret_cast<const std::byte*>(text.data()),
                        text.size()));
}

}  // namespace fca
