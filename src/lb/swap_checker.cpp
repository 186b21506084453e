#include "lb/swap_checker.hpp"

#include "sim/trace.hpp"

namespace rise::lb {

TraceResult run_and_trace_sync(const sim::Instance& instance,
                               const sim::WakeSchedule& schedule,
                               std::uint64_t seed,
                               const sim::KernelRunner& kernel) {
  sim::EdgeUsageSink sink;
  TraceResult trace;
  trace.run = sim::run_sync(instance, schedule, seed, kernel, {}, &sink);
  trace.used_edges = sink.used_edges();
  return trace;
}

sim::Instance swapped_instance(const sim::Instance& instance, graph::NodeId a,
                               graph::NodeId b) {
  return instance.with_swapped_labels(a, b);
}

}  // namespace rise::lb
