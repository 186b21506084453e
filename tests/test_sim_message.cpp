// PayloadWords unit tests: the satellite fix for the payload grow path (RAII
// buffer handling, power-of-two heap capacities) and the thread-local
// payload arena that recycles spilled buffers.
#include "sim/message.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace rise::sim {
namespace {

bool is_pow2(std::uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }

TEST(PayloadWords, StaysInlineUpToInlineCapacity) {
  PayloadWords p;
  EXPECT_EQ(p.capacity(), PayloadWords::kInlineWords);
  for (std::uint64_t i = 0; i < PayloadWords::kInlineWords; ++i) {
    p.push_back(i);
  }
  EXPECT_EQ(p.capacity(), PayloadWords::kInlineWords);  // no spill yet
  EXPECT_EQ(p.size(), PayloadWords::kInlineWords);
}

TEST(PayloadWords, GrowthPreservesContentsAndKeepsPow2Capacity) {
  PayloadWords p;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    p.push_back(i * 0x9E3779B97F4A7C15ull);
    ASSERT_TRUE(is_pow2(p.capacity())) << "cap " << p.capacity();
    ASSERT_GE(p.capacity(), p.size());
  }
  ASSERT_EQ(p.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(p[i], i * 0x9E3779B97F4A7C15ull) << "index " << i;
  }
}

TEST(PayloadWords, ReserveRoundsUpToPow2AndNeverShrinks) {
  PayloadWords p;
  p.push_back(7);
  p.reserve(100);
  EXPECT_GE(p.capacity(), 100u);
  EXPECT_TRUE(is_pow2(p.capacity()));
  const std::uint32_t cap = p.capacity();
  p.reserve(10);  // smaller request: no-op
  EXPECT_EQ(p.capacity(), cap);
  EXPECT_EQ(p[0], 7u);
}

TEST(PayloadWords, CopyAndMoveSemantics) {
  PayloadWords big;
  for (std::uint64_t i = 0; i < 64; ++i) big.push_back(i);

  PayloadWords copy(big);
  EXPECT_EQ(copy, big);

  PayloadWords moved(std::move(copy));
  EXPECT_EQ(moved, big);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move): pinned state
  EXPECT_EQ(copy.capacity(), PayloadWords::kInlineWords);

  PayloadWords assigned;
  assigned.push_back(1);
  assigned = big;
  EXPECT_EQ(assigned, big);
  assigned = std::move(moved);
  EXPECT_EQ(assigned, big);

  // Self-assignment must be harmless.
  PayloadWords& alias = assigned;
  assigned = alias;
  EXPECT_EQ(assigned, big);
}

TEST(PayloadWords, VectorConversionAndEquality) {
  const std::vector<std::uint64_t> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const PayloadWords p = v;  // implicit, by design
  ASSERT_EQ(p.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(p[i], v[i]);
  PayloadWords q = v;
  EXPECT_EQ(p, q);
  q.push_back(10);
  EXPECT_FALSE(p == q);
}

TEST(PayloadWords, ClearKeepsCapacityForRefill) {
  PayloadWords p;
  for (std::uint64_t i = 0; i < 500; ++i) p.push_back(i);
  const std::uint32_t cap = p.capacity();
  p.clear();
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.capacity(), cap);  // clear() must not release the buffer
  for (std::uint64_t i = 0; i < 500; ++i) p.push_back(i + 1);
  EXPECT_EQ(p.capacity(), cap);  // refill within capacity: no realloc
  EXPECT_EQ(p[499], 500u);
}

TEST(PayloadWords, ArenaRecyclesSpilledBuffers) {
  // Spill a buffer, destroy the payload, spill again in the same size class:
  // the thread-local arena hands the same buffer back (LIFO freelist), so
  // steady-state message churn does not touch the allocator.
  const std::uint64_t* first = nullptr;
  std::uint32_t first_cap = 0;
  {
    PayloadWords p;
    for (std::uint64_t i = 0; i < 100; ++i) p.push_back(i);
    first = p.data();
    first_cap = p.capacity();
  }
  PayloadWords q;
  q.reserve(first_cap);
  EXPECT_EQ(q.data(), first);
  EXPECT_EQ(q.capacity(), first_cap);
  for (std::uint64_t i = 0; i < 100; ++i) q.push_back(i ^ 0xFFu);
  EXPECT_EQ(q[99], 99u ^ 0xFFu);
}

TEST(PayloadWords, SpillFreedOnAnotherThreadIsRecycledThere) {
  // The round-parallel sync engine spills a payload on the worker that
  // steps the sender and frees it on the worker that steps the receiver a
  // round later. The buffer must land in the freeing thread's arena and be
  // reused by that thread's next spill of the same size class.
  PayloadWords spilled;
  for (std::uint64_t i = 0; i < 100; ++i) spilled.push_back(i);
  const std::uint64_t* buffer = spilled.data();
  const std::uint32_t cap = spilled.capacity();
  const std::uint64_t* reused = nullptr;
  std::thread other([&] {
    { PayloadWords dying(std::move(spilled)); }
    PayloadWords next;
    next.reserve(cap);
    reused = next.data();
  });
  other.join();
  EXPECT_EQ(reused, buffer);
}

TEST(PayloadWords, HugePayloadsBeyondArenaPoolingStillWork) {
  // Above the arena's pooled-size cap buffers go straight to the allocator;
  // correctness must not depend on pooling.
  PayloadWords p;
  const std::uint64_t n = 40000;  // > 1 << 14 words
  for (std::uint64_t i = 0; i < n; ++i) p.push_back(i);
  ASSERT_EQ(p.size(), n);
  EXPECT_TRUE(is_pow2(p.capacity()));
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[n - 1], n - 1);
  PayloadWords copy = p;
  EXPECT_EQ(copy, p);
}

TEST(Message, LogicalBitsDefaultAndDeclared) {
  Message plain;
  plain.payload = {1, 2, 3};
  EXPECT_EQ(plain.logical_bits(), 8u + 64u * 3u);  // conservative default
  const Message sized = make_message(5, {1, 2, 3}, 17);
  EXPECT_EQ(sized.logical_bits(), 17u);
  EXPECT_EQ(sized.type, 5u);
}

}  // namespace
}  // namespace rise::sim
