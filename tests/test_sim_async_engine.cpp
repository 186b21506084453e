#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "algo/flooding.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace rise::sim {
namespace {

/// Sends `count` numbered messages to port 0 on wake; receivers log arrival
/// order.
class Numbered final : public Process {
 public:
  Numbered(int count, std::vector<std::uint64_t>* log)
      : count_(count), log_(log) {}

  void on_wake(Context& ctx, WakeCause cause) override {
    if (cause != WakeCause::kAdversary) return;
    for (int i = 0; i < count_; ++i) {
      ctx.send(0, make_message(1, {static_cast<std::uint64_t>(i)}, 32));
    }
  }

  void on_message(Context&, const Incoming& in) override {
    if (log_ != nullptr) log_->push_back(in.msg.payload[0]);
  }

 private:
  int count_;
  std::vector<std::uint64_t>* log_;
};

TEST(AsyncEngine, FifoUnderAdversarialDelays) {
  // Random delays would reorder messages without the FIFO clamp.
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  std::vector<std::uint64_t> log;
  const auto delays = random_delay(50, 333);
  const auto result = run_async(
      inst, *delays, wake_single(0), 1,
      make_kernel(ProcessAlgorithm{[&log](graph::NodeId u) {
        return std::make_unique<Numbered>(u == 0 ? 64 : 0, &log);
      }}));
  ASSERT_EQ(log.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(log[i], i);
}

TEST(AsyncEngine, MessageWakesSleepingNode) {
  const auto g = graph::path(3);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, wake_single(0), 1, algo::flooding_kernel());
  EXPECT_TRUE(result.all_awake());
  EXPECT_EQ(result.wake_time[0], 0u);
  EXPECT_EQ(result.wake_time[1], 1u);
  EXPECT_EQ(result.wake_time[2], 2u);
}

TEST(AsyncEngine, TimeUnitsNormalizedByTau) {
  const auto g = graph::path(11);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  for (Time tau : {1ull, 4ull, 9ull}) {
    const auto delays = fixed_delay(tau);
    const auto result =
        run_async(inst, *delays, wake_single(0), 1, algo::flooding_kernel());
    EXPECT_TRUE(result.all_awake());
    // 10 hops to the far end plus the final echo back — the paper counts
    // until the last message is *received*.
    EXPECT_DOUBLE_EQ(result.metrics.time_units(), 11.0) << "tau=" << tau;
  }
}

TEST(AsyncEngine, CountsMessagesAndBits) {
  const auto g = graph::complete(5);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, wake_all(5), 1, algo::flooding_kernel());
  // Every node broadcasts once: 5 * 4 messages of 8 bits.
  EXPECT_EQ(result.metrics.messages, 20u);
  EXPECT_EQ(result.metrics.bits, 160u);
  EXPECT_EQ(result.metrics.deliveries, 20u);
  EXPECT_EQ(result.metrics.sent_per_node[2], 4u);
}

TEST(AsyncEngine, AdversaryWakeOfAwakeNodeIsIgnored) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {5, 0}, {3, 1}};
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, schedule, 1, algo::flooding_kernel());
  EXPECT_EQ(result.wake_time[0], 0u);
  EXPECT_EQ(result.wake_time[1], 1u);  // woken by message before round 3
}

TEST(AsyncEngine, LateAdversaryWake) {
  // Node 2 is disconnected; only the adversary can wake it, at time 100.
  const auto g = graph::Graph::from_edges(3, {{0, 1}});
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  WakeSchedule schedule;
  schedule.wakes = {{0, 0}, {100, 2}};
  const auto delays = unit_delay();
  const auto result =
      run_async(inst, *delays, schedule, 1, algo::flooding_kernel());
  EXPECT_EQ(result.wake_time[2], 100u);
  EXPECT_TRUE(result.all_awake());
}

TEST(AsyncEngine, CongestViolationThrows) {
  const auto g = graph::path(2);
  const Instance inst =
      test::make_instance(g, Knowledge::KT1, Bandwidth::CONGEST);
  const auto delays = unit_delay();
  const ProcessFactory fat = [](graph::NodeId) {
    class Fat final : public Process {
      void on_wake(Context& ctx, WakeCause) override {
        std::vector<std::uint64_t> payload(100, 7);
        ctx.send(0, make_message(9, std::move(payload), 6400));
      }
      void on_message(Context&, const Incoming&) override {}
    };
    return std::make_unique<Fat>();
  };
  EXPECT_THROW(run_async(inst, *delays, wake_single(0), 1,
                         make_kernel(ProcessAlgorithm{fat})),
               CheckError);
}

TEST(AsyncEngine, DeterministicAcrossRuns) {
  Rng rng(31);
  const auto g = graph::connected_gnp(40, 0.1, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = random_delay(7, 99);
  const auto r1 =
      run_async(inst, *delays, wake_single(3), 42, algo::flooding_kernel());
  const auto r2 =
      run_async(inst, *delays, wake_single(3), 42, algo::flooding_kernel());
  EXPECT_EQ(r1.metrics.messages, r2.metrics.messages);
  EXPECT_EQ(r1.wake_time, r2.wake_time);
}

TEST(AsyncEngine, MaxEventsLimitEnforced) {
  const auto g = graph::cycle(4);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  // Ping-pong forever.
  const ProcessFactory pingpong = [](graph::NodeId) {
    class PingPong final : public Process {
      void on_wake(Context& ctx, WakeCause cause) override {
        if (cause == WakeCause::kAdversary) {
          ctx.send(0, make_message(1, {}, 8));
        }
      }
      void on_message(Context& ctx, const Incoming& in) override {
        ctx.send(in.port, make_message(1, {}, 8));
      }
    };
    return std::make_unique<PingPong>();
  };
  const auto delays = unit_delay();
  RunLimits limits;
  limits.max_events = 1000;
  EXPECT_THROW(
      run_async(inst, *delays, wake_single(0), 1,
                make_kernel(ProcessAlgorithm{pingpong}), limits),
      CheckError);
}

TEST(AsyncEngine, MaxTimeDropsDeliveriesButChargesSends) {
  // fixed_delay(5) on a path: node 0's message would arrive at t=5, past the
  // max_time horizon of 3 — the send is charged, the delivery never happens.
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT1);
  const auto delays = fixed_delay(5);
  RunLimits limits;
  limits.max_time = 3;
  CountingSink sink;
  const auto result = run_async(inst, *delays, wake_single(0), 1,
                                algo::flooding_kernel(), limits, &sink);
  EXPECT_EQ(result.metrics.messages, 1u);
  EXPECT_EQ(result.metrics.bits, 8u);
  EXPECT_EQ(result.metrics.sent_per_node[0], 1u);
  EXPECT_EQ(result.metrics.deliveries, 0u);
  EXPECT_EQ(result.metrics.received_per_node[1], 0u);
  EXPECT_EQ(sink.sends(), 1u);
  EXPECT_EQ(sink.deliveries(), 0u);
  EXPECT_EQ(result.wake_time[1], kNever);
}

TEST(AsyncEngine, DeliveriesNeverExceedMessagesUnderTruncation) {
  // Sweep truncation horizons over a flooding run: the invariant
  // deliveries <= messages (with equality iff nothing was dropped) must
  // hold at every horizon. See process.hpp "Dropped-message semantics".
  Rng rng(77);
  const auto g = graph::connected_gnp(30, 0.15, rng);
  const Instance inst = test::make_instance(g, Knowledge::KT0);
  const auto delays = random_delay(6, 5);
  const auto full = run_async(inst, *delays, wake_single(0), 9,
                              algo::flooding_kernel());
  EXPECT_EQ(full.metrics.deliveries, full.metrics.messages);
  for (Time horizon : {0ull, 1ull, 3ull, 7ull, 15ull}) {
    RunLimits limits;
    limits.max_time = horizon;
    const auto r = run_async(inst, *delays, wake_single(0), 9,
                             algo::flooding_kernel(), limits);
    EXPECT_LE(r.metrics.deliveries, r.metrics.messages)
        << "horizon " << horizon;
    EXPECT_LE(r.metrics.last_delivery, horizon) << "horizon " << horizon;
  }
}

TEST(AsyncEngine, SlowChannelsDelayPolicyRespectsTau) {
  const auto delays = slow_channels_delay(20, 3, 1);
  EXPECT_EQ(delays->max_delay(), 20u);
  for (graph::NodeId a = 0; a < 10; ++a) {
    for (graph::NodeId b = 0; b < 10; ++b) {
      const Time d = delays->delay(a, b, 0, 0);
      EXPECT_TRUE(d == 1 || d == 20);
    }
  }
}

TEST(AsyncEngine, KT0ContextHidesNeighborLabels) {
  const auto g = graph::path(2);
  const Instance inst = test::make_instance(g, Knowledge::KT0);
  const ProcessFactory nosy = [](graph::NodeId) {
    class Nosy final : public Process {
      void on_wake(Context& ctx, WakeCause) override {
        ctx.neighbor_labels();  // model violation under KT0
      }
      void on_message(Context&, const Incoming&) override {}
    };
    return std::make_unique<Nosy>();
  };
  const auto delays = unit_delay();
  EXPECT_THROW(run_async(inst, *delays, wake_single(0), 1,
                         make_kernel(ProcessAlgorithm{nosy})),
               CheckError);
}

}  // namespace
}  // namespace rise::sim
