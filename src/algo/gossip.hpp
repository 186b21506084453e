// Push gossip baseline (Sec. 1.3 related work).
//
// In each synchronous round, every awake node pushes a wake-up message to one
// uniformly random neighbor. Gossip underlies the O(n*T)-message broadcast
// protocols discussed in the paper, but it cannot be used directly for
// wake-up because sleeping nodes cannot *pull*. Footnote 3's counterexample:
// on a complete graph K_{n-1} plus one pendant vertex, push-only gossip needs
// Omega(n) rounds in expectation to reach the pendant even though the graph
// has constant vertex expansion — bench_gossip_footnote3 reproduces this.
//
// Each node pushes for at most `round_budget` local rounds (gossip has no
// natural termination), so a run always quiesces.
#pragma once

#include "sim/kernel.hpp"

namespace rise::algo {

inline constexpr std::uint32_t kGossipPush = 0x0609;

sim::KernelRunner push_gossip_kernel(std::uint64_t round_budget);

}  // namespace rise::algo
