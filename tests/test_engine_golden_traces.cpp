// Golden-trace pinning for the engine refactor (PR 2).
//
// Each scenario fixes a (graph, schedule, seed) triple, runs an algorithm,
// and serializes *everything* observable about the run — the full CSV trace,
// wake times, outputs, and every metrics counter — into a digest string. The
// FNV-1a hashes below were produced by the pre-refactor engines (hash-keyed
// channel state, lazily-seeded RNG map, std::priority_queue timeline); the
// refactored engines must reproduce them bit-for-bit, which pins the event
// ordering contract (time, then push sequence) and with it every Table-1
// output.
//
// The same scenarios additionally assert that the two event-timeline
// backends (calendar/bucket queue vs binary heap) are interchangeable, and
// the synchronous ones that every chunk count of the round loop is.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "algo/fast_wakeup.hpp"
#include "algo/flooding.hpp"
#include "algo/gossip.hpp"
#include "algo/ranked_dfs.hpp"
#include "algo/sleeping.hpp"
#include "graph/generators.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"

namespace {

using namespace rise;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Serializes everything observable about a run. Two runs are
/// "bit-identical" iff their digests match.
std::string digest(const sim::RunResult& r, const std::string& trace) {
  std::ostringstream os;
  os << trace << "|";
  for (auto t : r.wake_time) os << t << ",";
  os << "|";
  for (auto o : r.outputs) os << o << ",";
  os << "|" << r.metrics.messages << "," << r.metrics.bits << ","
     << r.metrics.deliveries << "," << r.metrics.events << ","
     << r.metrics.first_wake << "," << r.metrics.last_wake << ","
     << r.metrics.last_delivery << "," << r.metrics.rounds << ","
     << r.metrics.tau;
  for (auto v : r.metrics.sent_per_node) os << "," << v;
  for (auto v : r.metrics.received_per_node) os << "," << v;
  return os.str();
}

struct AsyncScenario {
  sim::Instance instance;
  std::unique_ptr<sim::DelayPolicy> delays;
  sim::WakeSchedule schedule;
  std::uint64_t seed;
  sim::KernelRunner kernel;
};

std::string run_async_digest(const AsyncScenario& s,
                             sim::EventQueue::Mode mode) {
  std::ostringstream trace;
  sim::CsvTraceSink sink(trace);
  sim::AsyncKernelArgs args;
  args.instance = &s.instance;
  args.delays = s.delays.get();
  args.schedule = &s.schedule;
  args.seed = s.seed;
  args.trace = &sink;
  args.queue_mode = mode;
  const auto r = s.kernel.run_async(args);
  return digest(r, trace.str());
}

AsyncScenario flooding_scenario() {
  Rng grng(7);
  auto g = graph::connected_gnp(60, 0.12, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  Rng irng(101);
  return {sim::Instance::create(std::move(g), opt, irng),
          sim::random_delay(5, 11), sim::wake_single(0), 42,
          algo::flooding_kernel()};
}

AsyncScenario gossip_scenario() {
  Rng grng(21);
  auto g = graph::connected_gnp(40, 0.15, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  Rng irng(102);
  Rng srng(9);
  return {sim::Instance::create(std::move(g), opt, irng),
          sim::slow_channels_delay(6, 4, 5),
          sim::staggered_doubling(40, 3, 2.0, srng), 43,
          algo::push_gossip_kernel(20)};
}

AsyncScenario ranked_dfs_scenario() {
  Rng grng(33);
  auto g = graph::connected_gnp(24, 0.2, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  Rng irng(103);
  Rng srng(17);
  return {sim::Instance::create(std::move(g), opt, irng),
          sim::random_delay(7, 99), sim::wake_random_subset(24, 0.25, srng),
          44, algo::ranked_dfs_kernel()};
}

/// The leader-election announce pass (kDfsLeader) on top of the wake-up
/// tokens: the trace pins both passes and every node's recorded leader.
AsyncScenario leader_scenario() {
  Rng grng(45);
  auto g = graph::connected_gnp(30, 0.18, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  Rng irng(108);
  Rng srng(19);
  return {sim::Instance::create(std::move(g), opt, irng),
          sim::random_delay(9, 31), sim::wake_random_subset(30, 0.3, srng),
          49, algo::ranked_dfs_leader_kernel()};
}

/// The no-discard ablation: every token runs its DFS to completion, so the
/// trace holds several complete traversals crossing each other.
AsyncScenario ranked_dfs_no_discard_scenario() {
  Rng grng(57);
  auto g = graph::connected_gnp(20, 0.25, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  Rng irng(109);
  Rng srng(23);
  return {sim::Instance::create(std::move(g), opt, irng),
          sim::random_delay(5, 61), sim::wake_random_subset(20, 0.3, srng),
          50, algo::ranked_dfs_no_discard_kernel()};
}

/// Runs a scenario in every backend and checks the golden hash plus
/// backend-for-backend bit-identity.
void check_async_golden(const AsyncScenario& s, std::uint64_t golden_hash) {
  const std::string auto_digest =
      run_async_digest(s, sim::EventQueue::Mode::kAuto);
  EXPECT_EQ(fnv1a(auto_digest), golden_hash)
      << "refactored engine diverged from the pre-refactor golden trace";
  EXPECT_EQ(run_async_digest(s, sim::EventQueue::Mode::kBuckets), auto_digest);
  EXPECT_EQ(run_async_digest(s, sim::EventQueue::Mode::kHeap), auto_digest);
}

// Golden hashes generated from the seed (pre-refactor) engines at commit
// 15a4e0a; see DESIGN.md "Engine internals" for the regeneration recipe.
// The two random-delay hashes were regenerated after the channel_hash fix
// (the old sponge xor-ed into the seed instead of chaining SplitMix64
// steps, so the per-message jitter streams changed); the slow-channels
// gossip scenario was re-verified bit-identical under both hashes — its
// staggered schedule wakes every node by adversary and the push budget
// expires before any message crosses a channel, so its trace never
// depended on the delay policy at all.
//
// Four hashes were regenerated again when the G(n,p) generators switched
// from per-pair Bernoulli draws to geometric skipping (same distribution,
// different rng consumption, so the same seeds legitimately produce
// different graphs — the chi-square test in test_graph_generators pins the
// distribution itself). The gossip scenario's hash was unaffected: its
// round-driven algorithm sends nothing under the async engine, so the
// digest observes only the schedule, never the topology.
TEST(GoldenTraces, AsyncFloodingKt0RandomDelays) {
  check_async_golden(flooding_scenario(), 17321354922888636337ULL);
}

TEST(GoldenTraces, AsyncGossipSlowChannelsStaggeredWakeup) {
  check_async_golden(gossip_scenario(), 3759774500227404071ULL);
}

TEST(GoldenTraces, AsyncRankedDfsKt1RandomAwakeSet) {
  check_async_golden(ranked_dfs_scenario(), 1470553050188468364ULL);
}

// Recorded on the engines and RankedDFS encoding that preceded the
// store-once token logs (each hop then copied the whole visited list into
// the payload); the logs must reproduce them bit-for-bit.
TEST(GoldenTraces, AsyncLeaderKt1RandomAwakeSet) {
  check_async_golden(leader_scenario(), 6127987707891711691ULL);
}

TEST(GoldenTraces, AsyncRankedDfsNoDiscardKt1) {
  check_async_golden(ranked_dfs_no_discard_scenario(), 11187109692023050234ULL);
}

/// Serializes a synchronous run; the sleeping-model variant below adds the
/// awake accounting.
using SyncDigestFn = std::string (*)(const sim::RunResult&, const std::string&);

/// Runs a synchronous scenario with its rounds cut into 1, 2 and 5 chunks
/// on the inline executor and checks every digest against the golden hash.
void check_sync_golden(const sim::Instance& inst,
                       const sim::WakeSchedule& schedule, std::uint64_t seed,
                       const sim::KernelRunner& kernel,
                       const sim::SyncRunLimits& limits, SyncDigestFn digest_of,
                       std::uint64_t golden_hash) {
  sim::SerialChunkExecutor serial;
  for (const std::uint32_t jobs : {1u, 2u, 5u}) {
    std::ostringstream trace;
    sim::CsvTraceSink sink(trace);
    sim::SyncKernelArgs args;
    args.instance = &inst;
    args.schedule = &schedule;
    args.seed = seed;
    args.limits = limits;
    args.trace = &sink;
    args.parallel = {&serial, jobs};
    const auto r = kernel.run_sync(args);
    EXPECT_EQ(fnv1a(digest_of(r, trace.str())), golden_hash)
        << "round chunks: " << jobs;
  }
}

TEST(GoldenTraces, SyncFlooding) {
  Rng grng(55);
  const auto g = graph::connected_gnp(50, 0.1, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  Rng irng(104);
  const auto inst = sim::Instance::create(g, opt, irng);
  check_sync_golden(inst, sim::wake_single(3), 45, algo::flooding_kernel(), {},
                    digest, 14962057253583692410ULL);
}

TEST(GoldenTraces, SyncGossipWithTicks) {
  Rng grng(77);
  const auto g = graph::connected_gnp(30, 0.2, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  Rng irng(105);
  const auto inst = sim::Instance::create(g, opt, irng);
  check_sync_golden(inst, sim::wake_single(0), 46,
                    algo::push_gossip_kernel(10), {}, digest,
                    3706472348911091400ULL);
}

// FastWakeUp (Theorem 4) sends the most tick requests and the deepest
// payloads of any synchronous family. Its hash was recorded by running
// this test on commit 8695475, whose engine stepped one chunk with a
// separate serial loop; 2 and 5 chunks matched it there too.
TEST(GoldenTraces, SyncFastWakeupKt1) {
  Rng grng(66);
  const auto g = graph::connected_gnp(60, 0.1, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT1;
  Rng irng(110);
  const auto inst = sim::Instance::create(g, opt, irng);
  Rng srng(31);
  check_sync_golden(inst, sim::wake_random_subset(60, 0.1, srng), 51,
                    algo::fast_wakeup_kernel(), {}, digest,
                    5674033838999817335ULL);
}

// ---- sleeping-model golden traces (PR 9) ---------------------------------
//
// The sleeping-model digests additionally pin the awake accounting — the
// per-node awake-round vector and the sleep-dropped counter — so any change
// to nap scheduling, drop semantics, or awake charging shows up here. The
// hashes were generated from the first production sleeping engines (the PR
// that introduced them) and every later engine must reproduce them.

std::string sleeping_digest(const sim::RunResult& r, const std::string& trace) {
  std::ostringstream os;
  os << digest(r, trace) << "|" << r.metrics.sleep_dropped;
  for (auto v : r.awake_rounds) os << "," << v;
  return os.str();
}

sim::SyncRunLimits sleeping_limits() {
  sim::SyncRunLimits limits;
  limits.sleeping_model = true;
  return limits;
}

TEST(GoldenTraces, SyncSleepingMisStaggeredWakeup) {
  Rng grng(88);
  const auto g = graph::connected_gnp(40, 0.15, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = sim::Bandwidth::CONGEST;
  Rng irng(106);
  const auto inst = sim::Instance::create(g, opt, irng);
  Rng srng(29);
  check_sync_golden(inst, sim::staggered_doubling(40, 2, 2.0, srng), 47,
                    algo::sleeping_mis_kernel(), sleeping_limits(),
                    sleeping_digest, 4340464772212699452ULL);
}

TEST(GoldenTraces, SyncSleepingMatchingSingleWakeup) {
  Rng grng(99);
  const auto g = graph::connected_gnp(36, 0.18, grng);
  sim::InstanceOptions opt;
  opt.knowledge = sim::Knowledge::KT0;
  opt.bandwidth = sim::Bandwidth::CONGEST;
  Rng irng(107);
  const auto inst = sim::Instance::create(g, opt, irng);
  check_sync_golden(inst, sim::wake_single(5), 48,
                    algo::sleeping_matching_kernel(), sleeping_limits(),
                    sleeping_digest, 14952119359751456757ULL);
}

/// Property: on fresh random graphs (not pinned), the two timeline backends
/// stay bit-identical for all three algorithm families. This is the
/// refactor-equivalence property test — any future event-ordering change
/// must break both backends in exactly the same way to pass.
TEST(EngineEquivalence, BucketAndHeapBackendsBitIdentical) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng grng(900 + trial);
    auto g = graph::connected_gnp(20 + 7 * static_cast<graph::NodeId>(trial),
                                  0.2, grng);
    sim::InstanceOptions opt;
    opt.knowledge = trial % 2 == 0 ? sim::Knowledge::KT1 : sim::Knowledge::KT0;
    Rng irng(1000 + trial);
    AsyncScenario s{sim::Instance::create(std::move(g), opt, irng),
                    sim::random_delay(3 + 5 * trial, 17 * trial + 1),
                    sim::wake_single(static_cast<sim::NodeId>(trial % 5)),
                    2000 + trial,
                    trial % 2 == 0 ? algo::ranked_dfs_kernel()
                                   : algo::push_gossip_kernel(15)};
    const auto bucket = run_async_digest(s, sim::EventQueue::Mode::kBuckets);
    const auto heap = run_async_digest(s, sim::EventQueue::Mode::kHeap);
    EXPECT_EQ(bucket, heap) << "trial " << trial;
    // Determinism: the same scenario re-run must reproduce itself.
    EXPECT_EQ(run_async_digest(s, sim::EventQueue::Mode::kAuto), bucket);
  }
}

}  // namespace
