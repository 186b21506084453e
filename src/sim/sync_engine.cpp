#include "sim/sync_engine.hpp"

#include "sim/kernel.hpp"

namespace rise::sim {

SyncEngine::SyncEngine(const Instance& instance, WakeSchedule schedule,
                       std::uint64_t seed)
    : instance_(instance), schedule_(std::move(schedule)), seed_(seed) {}

RunResult SyncEngine::run(const ProcessFactory& factory,
                          const SyncRunLimits& limits) {
  SyncKernelArgs args;
  args.instance = &instance_;
  args.schedule = &schedule_;
  args.seed = seed_;
  args.limits = limits;
  args.trace = trace_;
  args.probe = probe_;
  args.workspace = workspace_;
  args.parallel = parallel_;
  return internal::run_flat_sync(ProcessAlgorithm{factory}, args);
}

RunResult run_sync(const Instance& instance, const WakeSchedule& schedule,
                   std::uint64_t seed, const ProcessFactory& factory,
                   const SyncRunLimits& limits, TraceSink* trace) {
  SyncEngine engine(instance, schedule, seed);
  engine.set_trace(trace);
  return engine.run(factory, limits);
}

}  // namespace rise::sim
