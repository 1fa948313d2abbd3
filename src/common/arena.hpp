// Chunked bump allocator for per-session bookkeeping.
//
// The session reactor (core::SessionEngine) keeps every in-flight
// session's control record alive for exactly one engine run; a
// general-purpose heap is the wrong tool for that lifetime shape — it
// charges a malloc per admission and a free per retirement, and its
// metadata scatters the records across the address space. The Arena
// carves objects out of large chunks with a bump pointer: admission is a
// pointer increment (amortised — a fresh chunk is malloc'd only every
// `chunk_bytes`), the steady-state step path never touches the arena at
// all, and everything is destroyed together when the run ends. Objects
// with non-trivial destructors are tracked on an intrusive finalizer
// list (nodes live in the arena too) and destroyed in reverse creation
// order by reset()/the destructor.
//
// Not thread-safe: callers serialise create() (the engine admits under
// its admission lock). This is deliberate — an internal mutex would tax
// the common case to protect the rare one.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace neuropuls::common {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes < 256 ? 256 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { reset(); }

  /// Raw aligned storage; lives until reset(). `align` must be a power
  /// of two. Oversized requests get a dedicated chunk.
  void* allocate(std::size_t size, std::size_t align) {
    if (size == 0) size = 1;
    if (!chunks_.empty()) {
      Chunk& chunk = chunks_.back();
      const std::size_t aligned = (chunk.used + (align - 1)) & ~(align - 1);
      if (aligned + size <= chunk.capacity) {
        chunk.used = aligned + size;
        return chunk.data.get() + aligned;
      }
    }
    const std::size_t capacity = size > chunk_bytes_ ? size : chunk_bytes_;
    // max_align_t-aligned via new[]; bump offsets preserve any smaller
    // power-of-two alignment.
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(capacity), size,
                            capacity});
    return chunks_.back().data.get();
  }

  /// Constructs a T in the arena. Destroyed (reverse creation order) by
  /// reset()/~Arena — never individually.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    T* object = new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      auto* node = static_cast<Finalizer*>(
          allocate(sizeof(Finalizer), alignof(Finalizer)));
      node->destroy = [](void* p) { static_cast<T*>(p)->~T(); };
      node->object = object;
      node->next = finalizers_;
      finalizers_ = node;
    }
    return object;
  }

  /// Destroys every created object and releases every chunk.
  void reset() {
    for (Finalizer* node = finalizers_; node != nullptr; node = node->next) {
      node->destroy(node->object);
    }
    finalizers_ = nullptr;
    chunks_.clear();
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t used = 0;
    std::size_t capacity = 0;
  };
  struct Finalizer {
    void (*destroy)(void*);
    void* object;
    Finalizer* next;
  };

  std::vector<Chunk> chunks_;
  Finalizer* finalizers_ = nullptr;
  std::size_t chunk_bytes_;
};

}  // namespace neuropuls::common
