// Theorem 5(A): deterministic advising scheme in the asynchronous KT0
// CONGEST model with O(D) time, O(n^{3/2}) messages, maximum advice length
// O(sqrt(n) log n), and average advice length O(log n).
//
// The oracle computes a BFS tree T. A node with at most sqrt(n) tree
// neighbors is a *low degree tree node* and receives the list of its tree
// ports (<= sqrt(n) entries of log n bits). A node with more than sqrt(n)
// tree neighbors is a *high degree tree node* and receives a single 1-bit;
// it simply broadcasts on all its ports when it wakes. Because T has n-1
// edges there are O(sqrt(n)) high degree tree nodes, so the total message
// count is O(sqrt(n)) * n + n * sqrt(n) = O(n^{3/2}).
#pragma once

#include <memory>

#include "advice/advice.hpp"

namespace rise::advice {

/// `threshold` overrides the high/low cutoff on tree degree; 0 means the
/// theorem's sqrt(n). Sweeping it (bench_ablations A4) exposes the
/// n*t + n^2/t trade-off whose optimum at t = sqrt(n) gives the O(n^{3/2})
/// bound.
std::unique_ptr<AdvisingOracle> sqrt_threshold_oracle(graph::NodeId root = 0,
                                                      double threshold = 0.0);
sim::KernelRunner sqrt_threshold_kernel();
AdvisingScheme sqrt_threshold_scheme(graph::NodeId root = 0);

}  // namespace rise::advice
