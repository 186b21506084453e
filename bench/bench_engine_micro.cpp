// google-benchmark micro-benchmarks for the substrates: simulator event
// throughput, graph generators, the greedy spanner, the D(k,q) construction,
// and girth computation. These quantify the cost of the experiment harness
// itself, independent of any paper claim.
#include <benchmark/benchmark.h>

#include "algo/flooding.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/sleeping.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/high_girth.hpp"
#include "graph/spanner.hpp"
#include "obs/probe.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace rise;

sim::Instance make_inst(const graph::Graph& g, sim::Knowledge k) {
  sim::InstanceOptions opt;
  opt.knowledge = k;
  Rng rng(1);
  return sim::Instance::create(g, opt, rng);
}

/// The family's generated Process path: one heap Process per node, virtual
/// hooks — what the flat-kernel rows are priced against.
sim::KernelRunner as_processes(const sim::KernelRunner& kernel) {
  return sim::make_kernel(sim::ProcessAlgorithm{kernel.process_factory()});
}

/// Flooding on the generated Process path, fresh engine storage per trial.
void BM_AsyncFloodingEvents(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const sim::KernelRunner processes = as_processes(algo::flooding_kernel());
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = sim::run_async(inst, *delays, sim::wake_single(0), 1,
                                       processes);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
// n = 10^4 is the acceptance-gate size for the engine refactor; see
// EXPERIMENTS.md "Engine micro-benchmarks" and BENCH_engine_micro.json.
BENCHMARK(BM_AsyncFloodingEvents)->Arg(1000)->Arg(4000)->Arg(10000);

/// Same workload on the flat-kernel path with a warm workspace — the
/// steady-state campaign trial. The n = 10^4 ratio against
/// BM_AsyncFloodingEvents/10000 is the kernel-layer acceptance gate (>= 2x,
/// BENCH_engine_micro.json); past the warm-up trial the loop body performs
/// zero heap allocations (bench_million_node gates that at n = 10^6).
void BM_KernelFloodingEvents(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.workspace = &workspace;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
    workspace.recycle_result(std::move(result));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelFloodingEvents)->Arg(10000);

/// The tentpole size: flooding on G(10^6, 8/n), wake-all, kernel path.
/// connected_gnp is hopeless at this n (hundreds of expected isolated
/// nodes), so the graph is plain gnp and the schedule wakes everyone —
/// every node and edge is exercised regardless of connectivity.
void BM_MillionNodeKernelFlooding(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(1);
  const auto g = graph::gnp(n, 8.0 / static_cast<double>(n), rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const auto schedule = sim::wake_all(n);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::RunWorkspace workspace;
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 7;
  args.workspace = &workspace;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
    workspace.recycle_result(std::move(result));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MillionNodeKernelFlooding)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

/// Same flooding workload under adversarial random delays in [1, tau], run
/// once per timeline backend so a regression in either the calendar queue or
/// the heap fallback is visible in isolation.
void BM_AsyncFloodingTimeline(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto mode = state.range(1) == 0 ? sim::EventQueue::Mode::kBuckets
                                        : sim::EventQueue::Mode::kHeap;
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::random_delay(16, 5);
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = algo::flooding_kernel();
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.queue_mode = mode;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AsyncFloodingTimeline)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->ArgNames({"n", "heap"});

/// A flooding clone with zero probe calls — the pre-observability hot path.
/// Paired with BM_ProbeDisabledFlooding below (flooding's generated Process,
/// so both arms run a heap Process per node), it prices the disabled-probe
/// branches (Context::probe() + the NodeProbe null checks in the production
/// algo::flooding) that now sit on every wake. tools/check_probe_overhead.py
/// gates the pair at <= 2% in CI.
class ProbeFreeFlooding final : public sim::Process {
 public:
  void on_wake(sim::Context& ctx, sim::WakeCause) override {
    ctx.broadcast(sim::make_message(algo::kFloodWake, {}, 8));
  }
  void on_message(sim::Context&, const sim::Incoming&) override {}
};

sim::KernelRunner probe_free_flooding_kernel() {
  return sim::make_kernel(sim::ProcessAlgorithm{
      [](sim::NodeId) { return std::make_unique<ProbeFreeFlooding>(); }});
}

void probe_overhead_workload(benchmark::State& state,
                             const sim::KernelRunner& kernel,
                             obs::Probe* probe) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  const auto delays = sim::unit_delay();
  const auto schedule = sim::wake_single(0);
  sim::AsyncKernelArgs args;
  args.instance = &inst;
  args.delays = delays.get();
  args.schedule = &schedule;
  args.seed = 1;
  args.probe = probe;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = kernel.run_async(args);
    events += result.metrics.events;
    benchmark::DoNotOptimize(result.metrics.messages);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_ProbeFreeFlooding(benchmark::State& state) {
  probe_overhead_workload(state, probe_free_flooding_kernel(), nullptr);
}
BENCHMARK(BM_ProbeFreeFlooding)->Arg(10000);

void BM_ProbeDisabledFlooding(benchmark::State& state) {
  // Production flooding (probe calls compiled in), no probe attached: every
  // NodeProbe call is one branch on nullptr. This is the default rise_cli
  // path, so the <= 2% gate is the cost every unprofiled run pays.
  probe_overhead_workload(state, as_processes(algo::flooding_kernel()),
                          nullptr);
}
BENCHMARK(BM_ProbeDisabledFlooding)->Arg(10000);

void BM_ProbeEnabledFlooding(benchmark::State& state) {
  // Informative (not gated): full attribution — phase marks, counters,
  // per-send accounting, queue statistics.
  obs::Probe probe;
  probe_overhead_workload(state, as_processes(algo::flooding_kernel()),
                          &probe);
}
BENCHMARK(BM_ProbeEnabledFlooding)->Arg(10000);

void BM_SyncFloodingRounds(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT0);
  for (auto _ : state) {
    const auto result =
        sim::run_sync(inst, sim::wake_single(0), 1, algo::flooding_kernel());
    benchmark::DoNotOptimize(result.metrics.rounds);
  }
}
BENCHMARK(BM_SyncFloodingRounds)->Arg(1000)->Arg(4000);

/// Sleeping-model families on the virtual-process path: prices the nap
/// bookkeeping (asleep_until scans, drop accounting) the sleeping engine adds
/// per round. state.range(1) selects the family (0 = smis, 1 = smatching).
void BM_SyncSleepingRounds(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const bool matching = state.range(1) == 1;
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = sim::Bandwidth::CONGEST;
  Rng irng(1);
  const auto inst = sim::Instance::create(g, opt, irng);
  sim::SyncRunLimits limits;
  limits.sleeping_model = true;
  const sim::KernelRunner processes =
      as_processes(matching ? algo::sleeping_matching_kernel()
                            : algo::sleeping_mis_kernel());
  for (auto _ : state) {
    const auto result =
        sim::run_sync(inst, sim::wake_single(0), 1, processes, limits);
    benchmark::DoNotOptimize(result.metrics.sleep_dropped);
  }
}
BENCHMARK(BM_SyncSleepingRounds)
    ->Args({1000, 0})
    ->Args({4000, 0})
    ->Args({1000, 1})
    ->Args({4000, 1})
    ->ArgNames({"n", "matching"});

/// Same workloads on the flat-kernel path with a warm workspace — the
/// campaign steady state for the sleeping families (bit-identical to the
/// virtual path by test_sim_kernels).
void BM_KernelSleepingRounds(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const bool matching = state.range(1) == 1;
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = sim::Bandwidth::CONGEST;
  Rng irng(1);
  const auto inst = sim::Instance::create(g, opt, irng);
  const auto schedule = sim::wake_single(0);
  const sim::KernelRunner kernel = matching ? algo::sleeping_matching_kernel()
                                            : algo::sleeping_mis_kernel();
  sim::RunWorkspace workspace;
  sim::SyncKernelArgs args;
  args.instance = &inst;
  args.schedule = &schedule;
  args.seed = 1;
  args.limits.sleeping_model = true;
  args.workspace = &workspace;
  for (auto _ : state) {
    auto result = kernel.run_sync(args);
    benchmark::DoNotOptimize(result.metrics.sleep_dropped);
    workspace.recycle_result(std::move(result));
  }
}
BENCHMARK(BM_KernelSleepingRounds)
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->ArgNames({"n", "matching"});

void BM_RankedDfs(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  const auto inst = make_inst(g, sim::Knowledge::KT1);
  const auto delays = sim::unit_delay();
  for (auto _ : state) {
    const auto result = sim::run_async(inst, *delays, sim::wake_all(n), 1,
                                       algo::ranked_dfs_kernel());
    benchmark::DoNotOptimize(result.metrics.messages);
  }
}
BENCHMARK(BM_RankedDfs)->Arg(250)->Arg(500);

/// Args: n, edge probability in thousandths, k. {1000, 8, 3} is the
/// table1_campaign graph (cgnp:1000:0.008) with spanner:3; k = 10 is
/// Corollary 2's k at n = 1000.
void BM_GreedySpanner(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 1000.0;
  const auto k = static_cast<unsigned>(state.range(2));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, p, rng);
  for (auto _ : state) {
    const auto s = graph::greedy_spanner(g, k);
    benchmark::DoNotOptimize(s.num_edges());
  }
}
BENCHMARK(BM_GreedySpanner)
    ->Args({300, 100, 3})
    ->Args({600, 100, 3})
    ->Args({1000, 8, 3})
    ->Args({1000, 8, 10})
    ->Unit(benchmark::kMillisecond);

void BM_LazebnikUstimenkoD3(benchmark::State& state) {
  const auto q = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto bg = graph::lazebnik_ustimenko_d(3, q);
    benchmark::DoNotOptimize(bg.graph.num_edges());
  }
}
BENCHMARK(BM_LazebnikUstimenkoD3)->Arg(5)->Arg(11);

void BM_Girth(benchmark::State& state) {
  const auto q = static_cast<std::uint64_t>(state.range(0));
  const auto bg = graph::lazebnik_ustimenko_d(3, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::girth(bg.graph));
  }
}
BENCHMARK(BM_Girth)->Arg(5)->Arg(7);

void BM_BfsTree(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(n);
  const auto g = graph::connected_gnp(n, 8.0 / n, rng);
  for (auto _ : state) {
    const auto t = graph::bfs_tree(g, 0);
    benchmark::DoNotOptimize(t.depth.back());
  }
}
BENCHMARK(BM_BfsTree)->Arg(10000);

}  // namespace
