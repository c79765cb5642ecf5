// Bump-pointer region allocator for the enumeration hot path.
//
// Top-down CMD enumeration constructs millions of candidate plan nodes on
// dense/cycle queries and discards all but one; paying a heap allocation
// plus two atomic refcount operations per candidate (the shared_ptr path)
// dominates optimization time. An Arena turns each candidate into a
// pointer bump: allocations come out of geometrically reused blocks, are
// never individually freed, and die together when the arena does.
//
// Lifetime rules (see DESIGN.md §12):
//   * Everything allocated here must be trivially destructible — New<T>
//     enforces it — because Reset()/~Arena() run no destructors.
//   * Reset() is O(#blocks): it retains every block and rewinds the bump
//     pointer, so a warm arena allocates without touching malloc at all.
//   * Arenas are single-threaded. Each TdCmdCore owns one and keeps it
//     for its lifetime, since the memo points into it.
//
// Under AddressSanitizer every block is poisoned on creation and on
// Reset(), and each allocation unpoisons exactly its own bytes, so
// use-after-reset and inter-allocation overflows fault immediately
// (arena_test has the death tests).

#ifndef PARQO_COMMON_ARENA_H_
#define PARQO_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>  // parqo-lint: allow(naked-new) header for placement new
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define PARQO_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARQO_ASAN 1
#endif
#endif

#if defined(PARQO_ASAN)
#include <sanitizer/asan_interface.h>
#define PARQO_ARENA_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define PARQO_ARENA_UNPOISON(addr, size) \
  ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define PARQO_ARENA_POISON(addr, size) ((void)(addr), (void)(size))
#define PARQO_ARENA_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace parqo {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 16;

  /// Pad under ASan so a sequential overflow lands on poisoned bytes
  /// instead of the next candidate node.
#if defined(PARQO_ASAN)
  static constexpr std::size_t kRedzone = 8;
#else
  static constexpr std::size_t kRedzone = 0;
#endif

  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation; `align` must be a power of two. Never returns null.
  /// The in-block fast path is inline — a mask, a compare, and a bump —
  /// because this is the per-candidate cost the whole design is about;
  /// crossing a block boundary takes the out-of-line slow path.
  void* Allocate(std::size_t size, std::size_t align) {
    PARQO_DCHECK(align > 0 && (align & (align - 1)) == 0);
    if (size == 0) size = 1;
    std::uintptr_t p = reinterpret_cast<std::uintptr_t>(ptr_);
    std::uintptr_t aligned = (p + align - 1) & ~(std::uintptr_t{align} - 1);
    std::size_t needed = (aligned - p) + size + kRedzone;
    if (ptr_ == nullptr ||
        needed > static_cast<std::size_t>(end_ - ptr_)) {
      return AllocateSlow(size, align);
    }
    ptr_ += needed;
    bytes_used_ += size;
    void* out = reinterpret_cast<void*>(aligned);
    PARQO_ARENA_UNPOISON(out, size);
    return out;
  }

  /// Constructs a T in the arena. T must be trivially destructible: the
  /// arena never runs destructors.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must not need destruction");
    // parqo-lint: allow(naked-new) placement new into the arena region
    return ::new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Uninitialized array of n trivially destructible (and, since callers
  /// copy into it raw, trivially copyable) elements.
  template <typename T>
  T* NewArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  std::is_trivially_copyable_v<T>);
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds every block without releasing memory. All prior allocations
  /// become invalid (and poisoned under ASan).
  void Reset();

  /// Bytes handed out since construction/Reset (excludes alignment pad).
  std::size_t bytes_used() const { return bytes_used_; }
  /// Total capacity of all retained blocks.
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  /// Block-boundary path of Allocate: finds or creates a block that fits
  /// and retries the bump there.
  void* AllocateSlow(std::size_t size, std::size_t align);

  /// Finds or creates a block that fits `size` and makes it current.
  void NextBlock(std::size_t size);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // active block index (meaningless when empty)
  char* ptr_ = nullptr;      // bump pointer into the active block
  char* end_ = nullptr;
  std::size_t block_bytes_;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace parqo

#endif  // PARQO_COMMON_ARENA_H_
