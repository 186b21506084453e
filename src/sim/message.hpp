// Messages exchanged by processes.
//
// A message is an algorithm-defined type tag plus a payload of 64-bit words.
// Each message also carries a *logical bit size* used for CONGEST accounting:
// algorithms state how many bits their message would occupy on the wire
// (e.g. a node ID costs O(log n) bits even though we store it in a uint64).
// If no explicit size is given, a conservative default of
// 8 + 64 * payload_words bits is charged.
//
// The payload container (PayloadWords) stores up to kInlineWords words
// inline, so the messages of flooding, gossip and ranked DFS (whose visited
// list travels as a handle plus its length, charged in logical bits) never
// touch the heap; only large payloads (fast-wakeup label lists) spill to an
// allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "sim/types.hpp"

namespace rise::sim {

/// A vector of 64-bit payload words with a small-buffer optimization.
class PayloadWords {
 public:
  static constexpr std::uint32_t kInlineWords = 4;

  using value_type = std::uint64_t;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  PayloadWords() = default;

  PayloadWords(std::initializer_list<std::uint64_t> init) {
    append(init.begin(), init.end());
  }

  /// Implicit for source compatibility with std::vector payload call sites.
  PayloadWords(const std::vector<std::uint64_t>& v) {  // NOLINT
    append(v.begin(), v.end());
  }

  PayloadWords(const PayloadWords& other) { append(other.begin(), other.end()); }

  PayloadWords(PayloadWords&& other) noexcept { steal(other); }

  PayloadWords& operator=(const PayloadWords& other) {
    if (this != &other) {
      clear();
      append(other.begin(), other.end());
    }
    return *this;
  }

  PayloadWords& operator=(PayloadWords&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~PayloadWords() { release(); }

  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Words the container can hold without reallocating (kInlineWords while
  /// inline). Heap capacities are always powers of two — the invariant the
  /// thread-local payload arena's size classes rely on.
  std::uint32_t capacity() const { return cap_; }

  std::uint64_t* data() { return is_inline() ? inline_ : heap_; }
  const std::uint64_t* data() const { return is_inline() ? inline_ : heap_; }

  std::uint64_t& operator[](std::size_t i) { return data()[i]; }
  std::uint64_t operator[](std::size_t i) const { return data()[i]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(static_cast<std::uint32_t>(n));
  }

  void push_back(std::uint64_t w) {
    if (size_ == cap_) grow(cap_ * 2);
    data()[size_++] = w;
  }

  template <typename It>
  void append(It first, It last) {
    for (; first != last; ++first) push_back(static_cast<std::uint64_t>(*first));
  }

  friend bool operator==(const PayloadWords& a, const PayloadWords& b) {
    if (a.size_ != b.size_) return false;
    return std::memcmp(a.data(), b.data(), a.size_ * sizeof(std::uint64_t)) == 0;
  }

 private:
  bool is_inline() const { return cap_ <= kInlineWords; }

  void grow(std::uint32_t new_cap);

  /// Returns the heap buffer (if any) to the thread-local payload arena so
  /// the next spill of the same size class skips the allocator. Inline so
  /// the overwhelmingly common inline-payload case (every flooding/gossip/
  /// DFS-control message; one destructor call per delivery) is a branch,
  /// not a cross-TU call.
  void release() {
    if (!is_inline()) release_heap();
  }

  void release_heap();

  /// Takes other's contents; leaves other empty and inline.
  void steal(PayloadWords& other) noexcept {
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.is_inline()) {
      std::memcpy(inline_, other.inline_, size_ * sizeof(std::uint64_t));
    } else {
      heap_ = other.heap_;
    }
    other.size_ = 0;
    other.cap_ = kInlineWords;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineWords;  // > kInlineWords iff heap-allocated
  union {
    std::uint64_t inline_[kInlineWords];
    std::uint64_t* heap_;
  };
};

struct Message {
  std::uint32_t type = 0;
  PayloadWords payload;
  std::uint64_t declared_bits = 0;  // 0 => use the conservative default

  std::uint64_t logical_bits() const {
    return declared_bits != 0 ? declared_bits
                              : 8 + 64 * static_cast<std::uint64_t>(payload.size());
  }
};

/// Convenience factory with an explicit logical size.
Message make_message(std::uint32_t type, PayloadWords payload,
                     std::uint64_t bits);

/// A delivered message as seen by the receiving process.
struct Incoming {
  Port port = kInvalidPort;  ///< the receiver's port the message arrived on
  Message msg;
};

}  // namespace rise::sim
