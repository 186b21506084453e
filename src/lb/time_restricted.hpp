// The matching achievable side of Theorem 2: time-restricted KT1 strategies
// on the high-girth family G_k.
//
// Theorem 2 shows every (k+1)-time algorithm needs Omega(n^{1+1/k}) messages
// when rho_awk = 1. The trivial matching strategy is a 1-round broadcast by
// the initially-awake centers: on G_k it sends exactly
// sum_i deg(v_i) = n (n^{1/k} + 1) messages and wakes everyone — the k-sweep
// of bench_thm2_tradeoff traces the n^{1+1/k} curve from the achievable
// side. ttl_flood generalizes this to an r-time-unit budget (flooding with a
// hop-count TTL), interpolating between broadcast and full flooding.
#pragma once

#include "sim/kernel.hpp"

namespace rise::lb {

inline constexpr std::uint32_t kTimedWake = 0x07F1;

/// Adversary-woken nodes broadcast once; everyone else stays silent. A
/// 1-time-unit wake-up algorithm whenever the awake set is dominating.
sim::KernelRunner centers_broadcast_kernel();

/// Flooding with a TTL: adversary-woken nodes send TTL = ttl; receivers
/// rebroadcast with TTL-1 while positive. ttl = 1 equals centers_broadcast.
sim::KernelRunner ttl_flood_kernel(std::uint32_t ttl);

}  // namespace rise::lb
