#include "lb/nih.hpp"

#include "support/check.hpp"

namespace rise::lb {

namespace {

class NihWrapper final : public sim::Process {
 public:
  explicit NihWrapper(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {}

  void on_wake(sim::Context& ctx, sim::WakeCause cause) override {
    inner_->on_wake(ctx, cause);
  }

  void on_message(sim::Context& ctx, const sim::Incoming& in) override {
    if (in.msg.type == kNihResponse) {
      // A degree-1 node confirmed itself: record the answer in the format
      // the model asks for (port under KT0, neighbor ID under KT1).
      if (ctx.knowledge() == sim::Knowledge::KT0) {
        ctx.set_output(in.port);
      } else {
        ctx.set_output(ctx.neighbor_labels()[in.port]);
      }
      return;  // response messages are outside the inner algorithm
    }
    if (ctx.degree() == 1 && !responded_) {
      responded_ = true;
      ctx.send(in.port, sim::make_message(kNihResponse, {}, 8));
    }
    inner_->on_message(ctx, in);
  }

  void on_round(sim::Context& ctx,
                std::span<const sim::Incoming> inbox) override {
    // Intercept NIH traffic, forward the rest in one batch.
    std::vector<sim::Incoming> forwarded;
    forwarded.reserve(inbox.size());
    for (const sim::Incoming& in : inbox) {
      if (in.msg.type == kNihResponse) {
        if (ctx.knowledge() == sim::Knowledge::KT0) {
          ctx.set_output(in.port);
        } else {
          ctx.set_output(ctx.neighbor_labels()[in.port]);
        }
        continue;
      }
      if (ctx.degree() == 1 && !responded_) {
        responded_ = true;
        ctx.send(in.port, sim::make_message(kNihResponse, {}, 8));
      }
      forwarded.push_back(in);
    }
    inner_->on_round(ctx, forwarded);
  }

 private:
  std::unique_ptr<sim::Process> inner_;
  bool responded_ = false;
};

}  // namespace

sim::KernelRunner nih_reduction_kernel(const sim::KernelRunner& inner) {
  return sim::make_kernel(sim::ProcessAlgorithm{
      [inner = inner.process_factory()](sim::NodeId node) {
        return std::make_unique<NihWrapper>(inner(node));
      }});
}

std::vector<std::uint64_t> nih_expected_outputs(
    const sim::Instance& instance, const LowerBoundFamily& family) {
  std::vector<std::uint64_t> expected(family.n);
  for (graph::NodeId i = 0; i < family.n; ++i) {
    const graph::NodeId v = family.center(i);
    const graph::NodeId w = family.crucial_neighbor(i);
    if (instance.knowledge() == sim::Knowledge::KT0) {
      expected[i] = instance.neighbor_to_port(v, w);
    } else {
      expected[i] = instance.label(w);
    }
  }
  return expected;
}

graph::NodeId nih_correct_count(const sim::RunResult& result,
                                const sim::Instance& instance,
                                const LowerBoundFamily& family) {
  const auto expected = nih_expected_outputs(instance, family);
  graph::NodeId correct = 0;
  for (graph::NodeId i = 0; i < family.n; ++i) {
    if (result.outputs[family.center(i)] == expected[i]) ++correct;
  }
  return correct;
}

}  // namespace rise::lb
