#include "sim/async_engine.hpp"

#include "sim/kernel.hpp"

namespace rise::sim {

AsyncEngine::AsyncEngine(const Instance& instance, const DelayPolicy& delays,
                         WakeSchedule schedule, std::uint64_t seed)
    : instance_(instance),
      delays_(delays),
      schedule_(std::move(schedule)),
      seed_(seed) {}

RunResult AsyncEngine::run(const ProcessFactory& factory,
                           const RunLimits& limits) {
  AsyncKernelArgs args;
  args.instance = &instance_;
  args.delays = &delays_;
  args.schedule = &schedule_;
  args.seed = seed_;
  args.limits = limits;
  args.trace = trace_;
  args.probe = probe_;
  args.queue_mode = queue_mode_;
  args.workspace = workspace_;
  return internal::run_flat_async(ProcessAlgorithm{factory}, args);
}

RunResult run_async(const Instance& instance, const DelayPolicy& delays,
                    const WakeSchedule& schedule, std::uint64_t seed,
                    const ProcessFactory& factory, const RunLimits& limits,
                    TraceSink* trace) {
  AsyncEngine engine(instance, delays, schedule, seed);
  engine.set_trace(trace);
  return engine.run(factory, limits);
}

}  // namespace rise::sim
