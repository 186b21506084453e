#include "sim/message.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

namespace rise::sim {

namespace {

/// Heap payload capacities are powers of two in [kMinHeapWords, 2^32), so a
/// freed buffer can be recycled for any later payload of the same class.
constexpr std::uint32_t kMinHeapWords = PayloadWords::kInlineWords * 2;

/// Largest capacity the arena pools (128 KiB of words). Bigger spills — rare
/// one-off constructions — go straight to the allocator.
constexpr std::uint32_t kMaxPooledWords = 1u << 14;

/// Free buffers retained per size class; bounds arena memory at
/// sum_c kMaxPerClass * 2^c words (< 17 MiB worst case, far less in
/// practice since only fast-wakeup payloads spill at all).
constexpr std::size_t kMaxPerClass = 64;

constexpr std::size_t kNumClasses = 12;  // caps 2^3 .. 2^14

std::uint32_t round_up_pow2(std::uint32_t v) {
  std::uint32_t p = kMinHeapWords;
  while (p < v) p <<= 1;
  return p;
}

std::size_t class_of(std::uint32_t pow2_cap) {
  std::size_t c = 0;
  while ((std::uint32_t{kMinHeapWords} << c) < pow2_cap) ++c;
  return c;
}

/// Thread-local freelist of power-of-two payload buffers; per-thread, so
/// it needs no locks. A buffer may be freed on another thread than the one
/// that allocated it: the round-parallel sync engine allocates a spilled
/// payload on the worker that steps the sender and frees it on the worker
/// that steps the receiver a round later. The buffer then joins the
/// freeing thread's pool (kMaxPerClass bounds every pool either way).
class PayloadArena {
 public:
  ~PayloadArena() {
    destroyed_ = true;
    for (auto& cls : classes_) {
      for (std::uint64_t* p : cls) delete[] p;
    }
  }

  /// True once this thread's arena has been torn down (static-destruction
  /// order): late frees must bypass the pool.
  static bool destroyed() { return destroyed_; }

  std::uint64_t* acquire(std::uint32_t cap) {
    auto& cls = classes_[class_of(cap)];
    if (cls.empty()) return nullptr;
    std::uint64_t* p = cls.back();
    cls.pop_back();
    return p;
  }

  bool stash(std::uint64_t* p, std::uint32_t cap) {
    auto& cls = classes_[class_of(cap)];
    if (cls.size() >= kMaxPerClass) return false;
    cls.push_back(p);
    return true;
  }

 private:
  static thread_local bool destroyed_;
  std::array<std::vector<std::uint64_t*>, kNumClasses> classes_;
};

thread_local bool PayloadArena::destroyed_ = false;

PayloadArena& arena() {
  static thread_local PayloadArena a;
  return a;
}

std::uint64_t* allocate_words(std::uint32_t cap) {
  if (cap <= kMaxPooledWords && !PayloadArena::destroyed()) {
    if (std::uint64_t* p = arena().acquire(cap)) return p;
  }
  return new std::uint64_t[cap];
}

void deallocate_words(std::uint64_t* p, std::uint32_t cap) {
  if (cap <= kMaxPooledWords && !PayloadArena::destroyed() &&
      arena().stash(p, cap)) {
    return;
  }
  delete[] p;
}

}  // namespace

void PayloadWords::grow(std::uint32_t new_cap) {
  new_cap = round_up_pow2(std::max(new_cap, kMinHeapWords));
  // RAII owner for the copy window: if anything throws before the handover
  // below, the fresh buffer is reclaimed (arena buffers are plain new[]
  // arrays, so delete[] is always the right disposal).
  std::unique_ptr<std::uint64_t[]> fresh(allocate_words(new_cap));
  std::memcpy(fresh.get(), data(), size_ * sizeof(std::uint64_t));
  release();
  heap_ = fresh.release();
  cap_ = new_cap;
}

void PayloadWords::release_heap() { deallocate_words(heap_, cap_); }

Message make_message(std::uint32_t type, PayloadWords payload,
                     std::uint64_t bits) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  m.declared_bits = bits;
  return m;
}

}  // namespace rise::sim
