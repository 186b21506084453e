// The Needles-in-Haystack (NIH) problem and the executable Lemma-1
// reduction.
//
// NIH (Sec. 2): on a lower-bound family instance, every center v_i must
// output the port leading to its crucial neighbor w_i (KT0) or w_i's ID
// (KT1). Lemma 1 turns any wake-up algorithm A into an NIH algorithm B at
// the cost of +n messages and +1 time unit: each degree-1 node (exactly the
// W nodes in both families) answers its first incoming message with a
// special response, from which the center reads off the port/ID.
//
// nih_reduction_kernel wraps an arbitrary wake-up family in exactly that
// transformation, making the reduction itself a tested artifact.
#pragma once

#include "lb/lower_bound_graphs.hpp"
#include "sim/kernel.hpp"
#include "sim/metrics.hpp"

namespace rise::lb {

inline constexpr std::uint32_t kNihResponse = 0x017E;

/// Lemma 1: wrap a wake-up algorithm into an NIH solver. Each node runs the
/// inner family's Process (inner.process_factory()) behind the wrapper.
sim::KernelRunner nih_reduction_kernel(const sim::KernelRunner& inner);

/// Expected NIH outputs for every center (port of w_i under KT0, ID of w_i
/// under KT1); indexed by center index i in [0, n).
std::vector<std::uint64_t> nih_expected_outputs(
    const sim::Instance& instance, const LowerBoundFamily& family);

/// Number of centers whose recorded output matches the expectation.
graph::NodeId nih_correct_count(const sim::RunResult& result,
                                const sim::Instance& instance,
                                const LowerBoundFamily& family);

}  // namespace rise::lb
