// The "computing with advice" framework (Sec. 1.1, Sec. 4).
//
// An advising scheme is (1) an oracle that observes the whole instance —
// topology, IDs, and port mappings, but NOT the set of initially awake
// nodes — and assigns each node a bit string, and (2) a distributed
// algorithm that uses the advice. Time/message complexity of a scheme refer
// to the algorithm; advice length (max and average bits per node) is the
// third complexity measure of Table 1.
#pragma once

#include <memory>
#include <vector>

#include "sim/instance.hpp"
#include "sim/kernel.hpp"

namespace rise::advice {

class AdvisingOracle {
 public:
  virtual ~AdvisingOracle() = default;

  /// Computes one advice string per node.
  virtual std::vector<BitString> advise(const sim::Instance& instance) const = 0;
};

/// Runs the oracle and installs the advice into the instance.
sim::Instance::AdviceStats apply_oracle(sim::Instance& instance,
                                        const AdvisingOracle& oracle);

/// An oracle + algorithm pair. `algorithm` is the family's one handle
/// (sim/kernel.hpp), run as sim::run_async(..., scheme.algorithm) or
/// through KernelRunner::run_async / run_sync.
struct AdvisingScheme {
  std::unique_ptr<AdvisingOracle> oracle;
  sim::KernelRunner algorithm;
};

}  // namespace rise::advice
