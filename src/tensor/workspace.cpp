#include "tensor/workspace.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "utils/error.hpp"

namespace fca {
namespace {

// 64-byte alignment keeps packed panels on cache-line (and widest-SIMD)
// boundaries. Chunks start at 256 KiB so typical layer geometries fit in
// one or two chunks.
constexpr size_t kAlignFloats = 16;  // 16 floats == 64 bytes
constexpr size_t kMinChunkFloats = 64 * 1024;

size_t align_up(size_t n) {
  return (n + kAlignFloats - 1) & ~(kAlignFloats - 1);
}

}  // namespace

Workspace& Workspace::tls() {
  thread_local Workspace ws;
  return ws;
}

size_t Workspace::capacity_floats() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.cap;
  return total;
}

Workspace::Frame::Mark Workspace::mark() const {
  if (chunks_.empty()) return {0, 0};
  return {cur_, chunks_[cur_].used};
}

void Workspace::rewind(const Frame::Mark& m) {
  if (chunks_.empty()) return;
  if (m.chunk == 0 && m.used == 0 && chunks_.size() > 1) {
    // Outermost rewind: nothing is live, so the ladder of chunks that growth
    // left behind is replaced by one chunk that holds the high-water mark.
    // Later frames replaying the same requests then bump through it without
    // growing, and the arena stops retaining every outgrown chunk.
    chunks_.clear();
    cur_ = 0;
    // This runs in Frame's destructor and must not throw: if the mapping
    // fails, the arena stays empty and the next alloc() grows on demand.
    try {
      add_chunk(high_water_);
    } catch (const std::bad_alloc&) {
    }
    return;
  }
  // Chunks past the mark keep their capacity but drop their contents.
  for (size_t i = m.chunk + 1; i <= cur_ && i < chunks_.size(); ++i) {
    chunks_[i].used = 0;
  }
  cur_ = std::min(m.chunk, chunks_.size() - 1);
  chunks_[cur_].used = m.used;
}

void Workspace::Unmap::operator()(float* p) const { ::munmap(p, bytes); }

float* Workspace::alloc(int64_t n) {
  FCA_CHECK(n >= 0);
  const size_t need = std::max<size_t>(static_cast<size_t>(n), 1);
  // Bump within the current chunk, or advance to a later retained chunk
  // that fits. Chunk bases are 64-byte aligned and offsets are rounded to
  // 16 floats, so every returned pointer is 64-byte aligned.
  float* p = nullptr;
  while (cur_ < chunks_.size()) {
    Chunk& c = chunks_[cur_];
    const size_t at = align_up(c.used);
    if (at + need <= c.cap) {
      c.used = at + need;
      p = c.data.get() + at;
      break;
    }
    if (cur_ + 1 >= chunks_.size()) break;
    ++cur_;
    chunks_[cur_].used = 0;
  }
  if (p == nullptr) {
    add_chunk(need);
    chunks_.back().used = need;
    cur_ = chunks_.size() - 1;
    p = chunks_[cur_].data.get();
  }
  // Live floats as one chunk would lay them out: every earlier chunk's
  // used prefix (aligned, as the next request would start there) plus the
  // current one. Coalescing to the maximum of this replays any request
  // sequence seen so far without growing.
  size_t live = chunks_[cur_].used;
  for (size_t i = 0; i < cur_; ++i) live += align_up(chunks_[i].used);
  high_water_ = std::max(high_water_, live);
  return p;
}

void Workspace::add_chunk(size_t floats) {
  const size_t cap = std::max(align_up(floats), kMinChunkFloats);
  // Chunks are mapped directly rather than taken from malloc: glibc raises
  // its dynamic mmap threshold to the size of any mmapped block it frees,
  // so a coalesced ladder released through free() would push every later
  // tensor allocation below that size onto the retained heap. Mappings are
  // page-aligned (so 64-byte aligned) and their untouched pages cost no RSS.
  const size_t bytes = cap * sizeof(float);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  chunks_.push_back(Chunk{
      std::unique_ptr<float[], Unmap>(static_cast<float*>(p), Unmap{bytes}),
      cap});
  ++chunks_created_;
}

}  // namespace fca
