// Theorem 5(B): the child-encoding scheme (CEN) — a deterministic advising
// scheme in the asynchronous KT0 CONGEST model with O(D log n) time, O(n)
// messages, and a *maximum* advice length of only O(log n) bits.
//
// The O(log n) bound is impossible if every node must store all of its BFS
// children ports, so the oracle distributes that information among the
// children themselves (Sec. 4.2.1). Each node w receives the tuple
// (p_w, fc_w, next_w):
//   * p_w  — the port at w leading to its BFS parent;
//   * fc_w — the port at w leading to w's *first child*;
//   * next_w — a pair of port numbers AT W'S PARENT u identifying w's two
//     "next siblings": the children of u are arranged as a balanced binary
//     heap c_1, c_2, ..., c_t (ordered by port at u), and c_i stores the
//     ports of c_{2i} and c_{2i+1}.
//
// Wake-up protocol: an awake node notifies its parent (kCenWakeParent) and
// sends kCenWakeChild to its first child. A child receiving kCenWakeChild
// replies with its next_w pair (kCenNext), which lets the parent continue
// the binary dissemination among the siblings — so all t children of a node
// wake within 2*ceil(log2(t+1)) rounds using 2 messages per child. Every
// node sends at most 3 messages total (O(n) overall), each of O(log n) bits
// (CONGEST-safe), and the sibling heaps add only a log-factor to the O(D)
// tree depth.
#pragma once

#include <memory>

#include "advice/advice.hpp"

namespace rise::advice {

inline constexpr std::uint32_t kCenWakeChild = 0x0CE1;
inline constexpr std::uint32_t kCenNext = 0x0CE2;
inline constexpr std::uint32_t kCenWakeParent = 0x0CE3;

/// `arity` selects the sibling-dissemination structure: 2 (default) is the
/// balanced binary heap giving O(log n) latency per tree level; 1 is the
/// ablation — a plain linked list of siblings, whose per-level latency
/// degrades to Theta(max degree) while advice and messages are unchanged
/// (bench_ablations quantifies the gap).
std::unique_ptr<AdvisingOracle> child_encoding_oracle(graph::NodeId root = 0,
                                                      unsigned arity = 2);
sim::KernelRunner child_encoding_kernel();
AdvisingScheme child_encoding_scheme(graph::NodeId root = 0);

/// Decoded form of a node's CEN advice (exposed for tests).
struct CenAdvice {
  bool has_parent = false;
  sim::Port parent = sim::kInvalidPort;
  bool has_first_child = false;
  sim::Port first_child = sim::kInvalidPort;
  bool has_next_a = false;
  sim::Port next_a = sim::kInvalidPort;  // port at the parent
  bool has_next_b = false;
  sim::Port next_b = sim::kInvalidPort;  // port at the parent
};

CenAdvice decode_cen_advice(const BitString& bits);

}  // namespace rise::advice
