#include "ckpt/format.hpp"

#include <cstring>
#include <fstream>

#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fca::ckpt {
namespace {

constexpr char kMagic[8] = {'F', 'C', 'A', 'C', 'K', 'P', 'T', '\0'};

}  // namespace

uint32_t crc32(std::span<const std::byte> data) {
  // Same polynomial/parameters as always; the shared slice-by-8 kernel in
  // utils/crc32.hpp now serves both checkpoint sections and wire frames.
  return fca::crc32(data);
}

void ByteWriter::put(const void* p, size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out_.insert(out_.end(), b, b + n);
}
void ByteWriter::u32(uint32_t v) { put(&v, sizeof(v)); }
void ByteWriter::u64(uint64_t v) { put(&v, sizeof(v)); }
void ByteWriter::i64(int64_t v) { put(&v, sizeof(v)); }
void ByteWriter::f64(double v) { put(&v, sizeof(v)); }
void ByteWriter::str(std::string_view s) {
  u32(static_cast<uint32_t>(s.size()));
  put(s.data(), s.size());
}

std::span<const std::byte> ByteReader::take(uint64_t n) {
  FCA_CHECK_MSG(n <= remaining(), "truncated checkpoint payload");
  const std::span<const std::byte> out =
      bytes_.subspan(pos_, static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return out;
}
uint32_t ByteReader::u32() {
  uint32_t v;
  std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
  return v;
}
uint64_t ByteReader::u64() {
  uint64_t v;
  std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
  return v;
}
int64_t ByteReader::i64() {
  int64_t v;
  std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
  return v;
}
double ByteReader::f64() {
  double v;
  std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
  return v;
}
std::string ByteReader::str() {
  const std::span<const std::byte> s = take(u32());
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}
std::span<const std::byte> ByteReader::blob() { return take(u64()); }
void ByteReader::expect_done() const {
  FCA_CHECK_MSG(done(), "trailing bytes in checkpoint payload");
}

namespace {
// Offset of the u32 section count in the file header.
constexpr uint64_t kSectionCountOffset = sizeof(kMagic) + sizeof(uint32_t);
}  // namespace

SectionWriter::SectionWriter(const std::string& path, uint32_t version)
    : file_(path) {
  file_.write(std::as_bytes(std::span(kMagic)));
  ByteWriter header;
  header.u32(version);
  header.u32(0);  // section count, patched by commit()
  file_.write(header.take());
}

void SectionWriter::add(std::string_view name,
                        std::span<const std::byte> payload) {
  for (const std::string& n : names_) {
    FCA_CHECK_MSG(n != name, "duplicate checkpoint section " << name);
  }
  names_.emplace_back(name);
  ByteWriter header;
  header.str(name);
  header.u64(payload.size());
  header.u32(crc32(payload));
  file_.write(header.take());
  file_.write(payload);
}

uint64_t SectionWriter::commit() {
  const auto count = static_cast<uint32_t>(names_.size());
  file_.write_at(kSectionCountOffset, std::as_bytes(std::span(&count, 1)));
  return file_.commit();
}

SectionReader::SectionReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  FCA_CHECK_MSG(in.good(), "cannot open checkpoint " << path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  file_.resize(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(file_.data()), size);
  }
  FCA_CHECK_MSG(in.good(), "cannot read checkpoint " << path);

  FCA_CHECK_MSG(file_.size() >= sizeof(kMagic) &&
                    std::memcmp(file_.data(), kMagic, sizeof(kMagic)) == 0,
                path << " is not an FCA checkpoint file");
  ByteReader r(std::span<const std::byte>(file_).subspan(sizeof(kMagic)));
  version_ = r.u32();
  FCA_CHECK_MSG(version_ >= 1 && version_ <= kFormatVersion,
                path << " has checkpoint format version " << version_
                     << ", this build reads versions 1.." << kFormatVersion);
  const uint32_t count = r.u32();
  size_t offset = sizeof(kMagic) + 2 * sizeof(uint32_t);
  for (uint32_t i = 0; i < count; ++i) {
    ByteReader hr(std::span<const std::byte>(file_).subspan(offset));
    const std::string name = hr.str();
    const uint64_t len = hr.u64();
    const uint32_t expected_crc = hr.u32();
    const size_t header_size =
        sizeof(uint32_t) + name.size() + sizeof(uint64_t) + sizeof(uint32_t);
    const size_t payload_offset = offset + header_size;
    FCA_CHECK_MSG(len <= file_.size() - payload_offset,
                  path << ": section " << name << " truncated");
    const std::span<const std::byte> payload =
        std::span<const std::byte>(file_).subspan(payload_offset,
                                                  static_cast<size_t>(len));
    FCA_CHECK_MSG(crc32(payload) == expected_crc,
                  path << ": CRC mismatch in section " << name);
    sections_.emplace_back(name, payload);
    offset = payload_offset + static_cast<size_t>(len);
  }
  FCA_CHECK_MSG(offset == file_.size(),
                path << ": trailing bytes after last section");
}

bool SectionReader::has(const std::string& name) const {
  for (const auto& [n, p] : sections_) {
    if (n == name) return true;
  }
  return false;
}

std::span<const std::byte> SectionReader::section(
    const std::string& name) const {
  for (const auto& [n, p] : sections_) {
    if (n == name) return p;
  }
  FCA_CHECK_MSG(false, "checkpoint has no section " << name);
  return {};
}

}  // namespace fca::ckpt
