#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/flooding.hpp"
#include "check/scenario.hpp"
#include "graph/generators.hpp"
#include "runner/thread_pool.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::sim {
namespace {

TEST(SyncEngine, FloodingAdvancesOneHopPerRound) {
  const auto g = graph::path(6);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  for (graph::NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(result.wake_time[u], u);  // delivered at start of round u
  }
}

TEST(SyncEngine, LocalRoundCounterStartsAtOne) {
  const auto g = graph::path(3);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::uint64_t> observed;
  const ProcessFactory probe = [&observed](graph::NodeId) {
    class P final : public Process {
     public:
      explicit P(std::vector<std::uint64_t>* obs) : obs_(obs) {}
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        obs_->push_back(ctx.local_round());
        if (ctx.local_round() < 3) ctx.request_tick();
      }
      std::vector<std::uint64_t>* obs_;
    };
    return std::make_unique<P>(&observed);
  };
  run_sync(inst, wake_single(1), 1, make_kernel(ProcessAlgorithm{probe}));
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed[0], 1u);
  EXPECT_EQ(observed[1], 2u);
  EXPECT_EQ(observed[2], 3u);
}

TEST(SyncEngine, NoGlobalClockForLateWakers) {
  // A node woken at round 50 sees local_round 1.
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::pair<graph::NodeId, std::uint64_t>> observed;
  const ProcessFactory probe = [&observed](graph::NodeId node) {
    class P final : public Process {
     public:
      P(std::vector<std::pair<graph::NodeId, std::uint64_t>>* obs,
        graph::NodeId node)
          : obs_(obs), node_(node) {}
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        obs_->push_back({node_, ctx.local_round()});
      }
      std::vector<std::pair<graph::NodeId, std::uint64_t>>* obs_;
      graph::NodeId node_;
    };
    return std::make_unique<P>(&observed, node);
  };
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {50, 1}};
  run_sync(inst, schedule, 1, make_kernel(ProcessAlgorithm{probe}));
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], (std::pair<graph::NodeId, std::uint64_t>{0, 1}));
  EXPECT_EQ(observed[1], (std::pair<graph::NodeId, std::uint64_t>{1, 1}));
}

TEST(SyncEngine, MessagesDeliveredNextRound) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_EQ(result.wake_time[1], 1u);
  // Node 1's own broadcast echoes back to node 0 in round 2.
  EXPECT_EQ(result.metrics.last_delivery, 2u);
}

TEST(SyncEngine, InboxBatchesAllSendersOfPreviousRound) {
  const auto g = graph::star(5);  // hub 0
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::size_t hub_batch = 0;
  const ProcessFactory probe = [&hub_batch](graph::NodeId node) {
    class P final : public Process {
     public:
      P(std::size_t* batch, bool is_hub) : batch_(batch), is_hub_(is_hub) {}
      void on_wake(Context& ctx, WakeCause cause) override {
        if (!is_hub_ && cause == WakeCause::kAdversary) {
          ctx.send(0, make_message(1, {}, 8));
        }
      }
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context&, std::span<const Incoming> inbox) override {
        if (is_hub_) *batch_ = inbox.size();
      }
      std::size_t* batch_;
      bool is_hub_;
    };
    return std::make_unique<P>(&hub_batch, node == 0);
  };
  run_sync(inst, wake_set({1, 2, 3, 4}), 1,
           make_kernel(ProcessAlgorithm{probe}));
  EXPECT_EQ(hub_batch, 4u);
}

TEST(SyncEngine, QuiescesWithoutTicksOrMessages) {
  const auto g = graph::path(4);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto result =
      run_sync(inst, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_LE(result.metrics.rounds, 5u);  // 3 hops + final echo round
}

TEST(SyncEngine, FastForwardsIdleGaps) {
  const auto g = graph::Graph::from_edges(2, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {1'000'000, 1}};
  SyncRunLimits limits;
  limits.max_rounds = 2'000'000;  // would time out without fast-forward
  const auto result =
      run_sync(inst, schedule, 1, algo::flooding_kernel(), limits);
  EXPECT_EQ(result.wake_time[1], 1u);  // woken by flooding long before
}

TEST(SyncEngine, MaxRoundsEnforced) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const ProcessFactory forever = [](graph::NodeId) {
    class Forever final : public Process {
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        ctx.request_tick();
      }
    };
    return std::make_unique<Forever>();
  };
  SyncRunLimits limits;
  limits.max_rounds = 100;
  EXPECT_THROW(run_sync(inst, wake_single(0), 1,
                        make_kernel(ProcessAlgorithm{forever}), limits),
               CheckError);
}

TEST(SyncEngine, ZeroChunksPerRoundIsRejected) {
  // SyncParallel::jobs is the chunk count of every round; there is no
  // chunk-free path for 0 to fall back on.
  const auto g = graph::path(3);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const WakeSchedule schedule = wake_single(0);
  SyncKernelArgs args;
  args.instance = &inst;
  args.schedule = &schedule;
  args.parallel.jobs = 0;
  EXPECT_THROW(algo::flooding_kernel().run_sync(args), CheckError);
}

TEST(SyncEngine, DeterministicAcrossRuns) {
  Rng rng(5);
  const auto g = graph::connected_gnp(30, 0.15, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto r1 = run_sync(inst, wake_single(7), 9, algo::flooding_kernel());
  const auto r2 = run_sync(inst, wake_single(7), 9, algo::flooding_kernel());
  EXPECT_EQ(r1.wake_time, r2.wake_time);
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
}

TEST(SyncEngine, RepeatedTickRequestsStepANodeOnce) {
  // Each node wakes one hop after its left neighbour and, for its first
  // four local rounds, requests a tick twice and sends on every port. So a
  // node is often due in a round for several reasons at once: two tick
  // requests and a non-empty inbox, and for nodes 1 to 3 also their slot
  // in the adversary's schedule (node 1 and node 2 are already awake then,
  // woken by a message). It must still be stepped exactly once per round.
  const auto g = graph::path(4);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::pair<graph::NodeId, Time>> steps;
  const ProcessFactory chatty = [&steps](graph::NodeId node) {
    class P final : public Process {
     public:
      P(std::vector<std::pair<graph::NodeId, Time>>* steps,
        graph::NodeId node)
          : steps_(steps), node_(node) {}
      void on_wake(Context&, WakeCause) override {}
      void on_message(Context&, const Incoming&) override {}
      void on_round(Context& ctx, std::span<const Incoming>) override {
        steps_->emplace_back(node_, ctx.now());
        if (ctx.local_round() > 4) return;
        ctx.request_tick();
        ctx.request_tick();
        for (Port p = 0; p < ctx.degree(); ++p) {
          ctx.send(p, make_message(1, {}, 8));
        }
      }

     private:
      std::vector<std::pair<graph::NodeId, Time>>* steps_;
      graph::NodeId node_;
    };
    return std::make_unique<P>(&steps, node);
  };
  const KernelRunner kernel = make_kernel(ProcessAlgorithm{chatty});
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {2, 1}, {3, 2}, {3, 3}};
  SerialChunkExecutor serial;
  std::vector<std::uint64_t> digests;
  for (const std::uint32_t jobs : {1u, 3u}) {
    SCOPED_TRACE(jobs);
    steps.clear();
    SyncKernelArgs args;
    args.instance = &inst;
    args.schedule = &schedule;
    args.seed = 1;
    args.parallel = {&serial, jobs};
    const RunResult result = kernel.run_sync(args);
    const std::set<std::pair<graph::NodeId, Time>> distinct(steps.begin(),
                                                             steps.end());
    EXPECT_EQ(distinct.size(), steps.size());
    // Node u is stepped in rounds u .. u + 5 (node 3, with no right
    // neighbour to hear from, in rounds 3 .. 7).
    EXPECT_EQ(result.awake_rounds,
              (std::vector<std::uint32_t>{6, 6, 6, 5}));
    EXPECT_EQ(result.metrics.events, 23u);
    EXPECT_EQ(result.metrics.events, steps.size());
    EXPECT_EQ(result.metrics.rounds, 8u);
    digests.push_back(check::digest_run(result));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(SyncEngine, RoundParallelRaisesTheErrorTheSerialLoopReachesFirst) {
  // One round raises two errors: a message over the CONGEST budget (caught
  // when the send is accounted, which the round-parallel engine does in its
  // reduction) and a send on a port the node does not have (caught on the
  // worker). The serial loop reaches the CONGEST send first in both cases,
  // so every job count must surface it:
  //   * node 0 sends the fat message, node 3 (the last chunk) the bad port;
  //   * node 3 sends both, the fat one first — the reduction must replay
  //     the failing step's sends up to the throw.
  const auto g = graph::path(4);
  const Instance inst =
      test::make_instance(g, Knowledge::KT1, Bandwidth::CONGEST);
  for (const graph::NodeId fat_node : {0u, 3u}) {
    SCOPED_TRACE(fat_node);
    const ProcessFactory two_faults = [fat_node](graph::NodeId node) {
      class P final : public Process {
       public:
        P(bool fat, bool bad_port) : fat_(fat), bad_port_(bad_port) {}
        void on_wake(Context& ctx, WakeCause) override {
          if (fat_) {
            std::vector<std::uint64_t> payload(100, 7);
            ctx.send(0, make_message(9, std::move(payload), 6400));
          }
          if (bad_port_) ctx.send(5, Message{});
        }
        void on_message(Context&, const Incoming&) override {}

       private:
        bool fat_;
        bool bad_port_;
      };
      return std::make_unique<P>(node == fat_node, node == 3);
    };
    const KernelRunner kernel = make_kernel(ProcessAlgorithm{two_faults});
    const WakeSchedule schedule = wake_all(4);
    const auto error_at = [&](std::uint32_t jobs,
                              ChunkExecutor* executor) -> std::string {
      SyncKernelArgs args;
      args.instance = &inst;
      args.schedule = &schedule;
      args.seed = 1;
      args.parallel = {executor, jobs};
      try {
        kernel.run_sync(args);
      } catch (const CheckError& e) {
        return e.what();
      }
      return "no error";
    };
    SerialChunkExecutor serial;
    runner::ThreadPool pool(2);
    runner::PoolChunkExecutor pooled(&pool);
    const std::string expected = error_at(1, &serial);
    EXPECT_NE(expected.find("CONGEST violation"), std::string::npos)
        << expected;
    EXPECT_EQ(error_at(2, &serial), expected);
    EXPECT_EQ(error_at(4, &serial), expected);
    EXPECT_EQ(error_at(2, &pooled), expected);
  }
}

}  // namespace
}  // namespace rise::sim
