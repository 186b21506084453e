// One definition per algorithm family, one engine handler.
//
// Every family is written once, as an *algorithm type*: its data members
// are the family's immutable configuration, `State` is the per-node mutable
// state, and the hooks are const templates over the context type:
//
//   struct Flooding {
//     struct State {};                    // per-node state (may be empty)
//     template <class Ctx> void on_wake(Ctx&, State&, WakeCause) const;
//     template <class Ctx> void on_message(Ctx&, State&, const Incoming&) const;
//     // Optional; the default feeds each inbox message to on_message.
//     template <class Ctx>
//     void on_round(Ctx&, State&, std::span<const Incoming>) const;
//     // Optional; for a State that must know its engine node id.
//     State make_state(NodeId) const;
//   };
//
// Hooks use only the sim::Context surface, so one body compiles against
// every context the engines provide. The engines run every algorithm type
// through one generic Handler, FlatHandler<A>: it owns the per-node states
// as a std::vector<State> held in the workspace's type-tagged slot (an
// empty State gets no vector at all), and the hooks are instantiated on the
// engine's final context types, so every ctx call inlines into the event
// loop — no vtable on either side of the hot path and no per-node
// allocation.
//
// KernelRunner is the type-erased handle of one configured family and the
// only thing an engine runs: two std::functions run it under either engine
// (KernelRunner::run_async / run_sync, or the positional sim::run_async /
// sim::run_sync below), and process_factory() yields the same family as one
// heap Process per node (one AlgorithmProcess holding one State). The
// algorithm object is shared (immutable) by every run and every process
// made from the handle, so one handle may serve concurrent campaign
// workers; all mutable state lives in the per-run handler and the
// per-thread workspace.
//
// A hand-written ProcessFactory is one more algorithm type
// (ProcessAlgorithm): its State is the node's heap Process and its hooks
// forward to the virtual ones, so make_kernel(ProcessAlgorithm{factory})
// runs it through the same FlatHandler. The NIH wrapper is built that way,
// and the kernel-vs-Process differentials (test_sim_kernels, the fuzzer's
// dispatch-divergence check, bench_engine_micro's virtual-vs-kernel row)
// swap a handle for make_kernel(ProcessAlgorithm{h.process_factory()}). The
// generated Process runs the same hook bodies with the same RNG draws,
// message encodings and probe marks, so the two agree digest for digest.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/engine_impl.hpp"
#include "sim/process.hpp"
#include "sim/workspace.hpp"

namespace rise::sim {

/// Everything an async kernel run needs; pointer members because the struct
/// is assembled piecemeal by callers with different defaulting needs.
struct AsyncKernelArgs {
  const Instance* instance = nullptr;
  const DelayPolicy* delays = nullptr;
  const WakeSchedule* schedule = nullptr;
  std::uint64_t seed = 0;
  RunLimits limits;
  TraceSink* trace = nullptr;
  obs::Probe* probe = nullptr;
  EventQueue::Mode queue_mode = EventQueue::Mode::kAuto;
  RunWorkspace* workspace = nullptr;
};

struct SyncKernelArgs {
  const Instance* instance = nullptr;
  const WakeSchedule* schedule = nullptr;
  std::uint64_t seed = 0;
  SyncRunLimits limits;
  TraceSink* trace = nullptr;
  obs::Probe* probe = nullptr;
  RunWorkspace* workspace = nullptr;
  /// Round chunking (sim/parallel.hpp); default = one chunk, inline.
  /// Bit-identical results for any chunk count.
  SyncParallel parallel;
};

/// Type-erased handle of one configured algorithm family. Default-built
/// handles are empty (operator bool is false).
class KernelRunner {
 public:
  using AsyncFn = std::function<RunResult(const AsyncKernelArgs&)>;
  using SyncFn = std::function<RunResult(const SyncKernelArgs&)>;

  KernelRunner() = default;
  KernelRunner(AsyncFn run_async, SyncFn run_sync, ProcessFactory factory)
      : async_(std::move(run_async)),
        sync_(std::move(run_sync)),
        factory_(std::move(factory)) {}

  explicit operator bool() const { return static_cast<bool>(async_); }

  RunResult run_async(const AsyncKernelArgs& args) const {
    return async_(args);
  }
  RunResult run_sync(const SyncKernelArgs& args) const { return sync_(args); }

  /// The same family as one heap Process per node, for wrappers (lb/nih)
  /// and kernel-vs-Process differentials; bit-identical to run_async /
  /// run_sync when run as make_kernel(ProcessAlgorithm{...}).
  const ProcessFactory& process_factory() const { return factory_; }

 private:
  AsyncFn async_;
  SyncFn sync_;
  ProcessFactory factory_;
};

namespace internal {

template <class A>
typename A::State make_state(const A& algo, NodeId u) {
  if constexpr (requires { algo.make_state(u); }) {
    return algo.make_state(u);
  } else {
    return typename A::State{};
  }
}

template <class A, class Ctx>
void dispatch_round(const A& algo, Ctx& ctx, typename A::State& self,
                    std::span<const Incoming> inbox) {
  if constexpr (requires { algo.on_round(ctx, self, inbox); }) {
    algo.on_round(ctx, self, inbox);
  } else {
    for (const Incoming& in : inbox) algo.on_message(ctx, self, in);
  }
}

/// The engines' one Handler (sim/engine_impl.hpp): node state in one
/// vector indexed by engine node id, borrowed from the workspace's
/// type-tagged slot so back-to-back runs of a family reuse its capacity.
template <class A>
class FlatHandler {
 public:
  using State = typename A::State;
  using States = std::vector<State>;

  FlatHandler(const A& algo, const Instance& instance, RunWorkspace* workspace)
      : algo_(algo) {
    if constexpr (!std::is_empty_v<State>) {
      states_ = &own_;
      if (workspace != nullptr) {
        if (workspace->kernel_state_type != &typeid(States)) {
          workspace->kernel_state = std::make_shared<States>();
          workspace->kernel_state_type = &typeid(States);
        }
        states_ = static_cast<States*>(workspace->kernel_state.get());
      }
      const NodeId n = instance.num_nodes();
      states_->clear();
      if constexpr (requires { algo.make_state(n); }) {
        states_->reserve(n);
        for (NodeId u = 0; u < n; ++u) states_->push_back(algo.make_state(u));
      } else {
        states_->resize(n);
      }
    }
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, WakeCause cause) {
    algo_.on_wake(ctx, state(ctx.node()), cause);
  }
  template <class Ctx>
  void on_message(Ctx& ctx, const Incoming& in) {
    algo_.on_message(ctx, state(ctx.node()), in);
  }
  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const Incoming> inbox) {
    dispatch_round(algo_, ctx, state(ctx.node()), inbox);
  }

 private:
  State& state(NodeId u) {
    if constexpr (std::is_empty_v<State>) {
      return empty_;
    } else {
      return (*states_)[u];
    }
  }

  const A& algo_;
  States* states_ = nullptr;
  States own_;
  [[no_unique_address]] State empty_{};
};

/// One asynchronous run of `algo`. The runner is destroyed before the
/// handler and the core, so storage goes back to the workspace in the same
/// order it was borrowed from it.
template <class A>
RunResult run_flat_async(const A& algo, const AsyncKernelArgs& a) {
  EngineCore core(*a.instance, a.delays->max_delay(), a.seed, a.trace,
                  a.probe, a.workspace);
  FlatHandler<A> handler(algo, *a.instance, a.workspace);
  AsyncRunner<FlatHandler<A>> runner(handler, core, *a.delays, *a.schedule,
                                     a.limits, a.queue_mode, a.workspace);
  return runner.run();
}

/// One synchronous run of `algo`; same ownership order as run_flat_async.
template <class A>
RunResult run_flat_sync(const A& algo, const SyncKernelArgs& a) {
  EngineCore core(*a.instance, /*tau=*/1, a.seed, a.trace, a.probe,
                  a.workspace);
  FlatHandler<A> handler(algo, *a.instance, a.workspace);
  SyncRunner<FlatHandler<A>> runner(handler, core, *a.schedule, a.limits,
                                    a.workspace, a.parallel);
  return runner.run();
}

/// The generated Process: one State, hooks instantiated on sim::Context.
template <class A>
class AlgorithmProcess final : public Process {
 public:
  AlgorithmProcess(std::shared_ptr<const A> algo, NodeId u)
      : algo_(std::move(algo)), self_(make_state(*algo_, u)) {}

  void on_wake(Context& ctx, WakeCause cause) override {
    algo_->on_wake(ctx, self_, cause);
  }
  void on_message(Context& ctx, const Incoming& in) override {
    algo_->on_message(ctx, self_, in);
  }
  void on_round(Context& ctx, std::span<const Incoming> inbox) override {
    dispatch_round(*algo_, ctx, self_, inbox);
  }

 private:
  std::shared_ptr<const A> algo_;
  [[no_unique_address]] typename A::State self_;
};

template <class A>
ProcessFactory process_factory(std::shared_ptr<const A> algo) {
  return [algo = std::move(algo)](NodeId u) -> std::unique_ptr<Process> {
    return std::make_unique<AlgorithmProcess<A>>(algo, u);
  };
}

}  // namespace internal

/// A ProcessFactory as an algorithm type: each node's State is the Process
/// the factory makes for it (created once per run, in node order), and each
/// hook forwards to the Process's virtual one.
struct ProcessAlgorithm {
  ProcessFactory factory;

  using State = std::unique_ptr<Process>;

  State make_state(NodeId u) const { return factory(u); }
  template <class Ctx>
  void on_wake(Ctx& ctx, State& self, WakeCause cause) const {
    self->on_wake(ctx, cause);
  }
  template <class Ctx>
  void on_message(Ctx& ctx, State& self, const Incoming& in) const {
    self->on_message(ctx, in);
  }
  template <class Ctx>
  void on_round(Ctx& ctx, State& self, std::span<const Incoming> inbox) const {
    self->on_round(ctx, inbox);
  }
};

/// The family as a KernelRunner: both engine paths plus the equivalent
/// ProcessFactory, all sharing one immutable algorithm object.
template <class A>
KernelRunner make_kernel(A algorithm) {
  auto algo = std::make_shared<const A>(std::move(algorithm));
  return KernelRunner(
      [algo](const AsyncKernelArgs& a) {
        return internal::run_flat_async(*algo, a);
      },
      [algo](const SyncKernelArgs& a) {
        return internal::run_flat_sync(*algo, a);
      },
      internal::process_factory(algo));
}

/// One asynchronous run of `kernel` with default workspace, probe and
/// queue backend; fill AsyncKernelArgs for the rest.
inline RunResult run_async(const Instance& instance, const DelayPolicy& delays,
                           const WakeSchedule& schedule, std::uint64_t seed,
                           const KernelRunner& kernel,
                           const RunLimits& limits = {},
                           TraceSink* trace = nullptr) {
  AsyncKernelArgs args;
  args.instance = &instance;
  args.delays = &delays;
  args.schedule = &schedule;
  args.seed = seed;
  args.limits = limits;
  args.trace = trace;
  return kernel.run_async(args);
}

/// One synchronous run of `kernel` (wake times are round numbers); fill
/// SyncKernelArgs for a workspace, probe or round chunking.
inline RunResult run_sync(const Instance& instance,
                          const WakeSchedule& schedule, std::uint64_t seed,
                          const KernelRunner& kernel,
                          const SyncRunLimits& limits = {},
                          TraceSink* trace = nullptr) {
  SyncKernelArgs args;
  args.instance = &instance;
  args.schedule = &schedule;
  args.seed = seed;
  args.limits = limits;
  args.trace = trace;
  return kernel.run_sync(args);
}

}  // namespace rise::sim
