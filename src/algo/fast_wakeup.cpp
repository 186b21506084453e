#include "algo/fast_wakeup.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Message;
using sim::Port;

Message labels_message(std::uint32_t type, Label root,
                       const std::vector<Label>& labels, unsigned label_bits) {
  sim::PayloadWords payload;
  payload.reserve(2 + labels.size());
  payload.push_back(root);
  payload.push_back(labels.size());
  payload.append(labels.begin(), labels.end());
  return sim::make_message(type, std::move(payload),
                           16 + label_bits * (1 + labels.size()));
}

/// Grouped payload: [root, #groups, (key, count, labels...) ...].
Message groups_message(std::uint32_t type, Label root,
                       const std::map<Label, std::vector<Label>>& groups,
                       unsigned label_bits) {
  sim::PayloadWords payload{root, groups.size()};
  std::uint64_t label_count = 1;
  for (const auto& [key, labels] : groups) {
    payload.push_back(key);
    payload.push_back(labels.size());
    payload.append(labels.begin(), labels.end());
    label_count += 1 + labels.size();
  }
  return sim::make_message(type, std::move(payload),
                           16 + label_bits * label_count);
}

std::vector<Label> parse_labels(const Message& msg) {
  RISE_CHECK(msg.payload.size() >= 2);
  const std::uint64_t count = msg.payload[1];
  RISE_CHECK(msg.payload.size() == 2 + count);
  return {msg.payload.begin() + 2, msg.payload.end()};
}

std::map<Label, std::vector<Label>> parse_groups(const Message& msg) {
  RISE_CHECK(msg.payload.size() >= 2);
  std::map<Label, std::vector<Label>> groups;
  std::size_t i = 2;
  for (std::uint64_t g = 0; g < msg.payload[1]; ++g) {
    RISE_CHECK(i + 2 <= msg.payload.size());
    const Label key = msg.payload[i++];
    const std::uint64_t count = msg.payload[i++];
    RISE_CHECK(i + count <= msg.payload.size());
    groups[key].assign(msg.payload.begin() + static_cast<std::ptrdiff_t>(i),
                       msg.payload.begin() + static_cast<std::ptrdiff_t>(i + count));
    i += count;
  }
  RISE_CHECK(i == msg.payload.size());
  return groups;
}

/// Synchronous-engine only.
struct FastWakeup {
  FastWakeupProbe* probe;
  double root_probability;

  enum class Status : std::uint8_t {
    kUnwoken,
    kActive,
    kJoined,  ///< woken by joining a tree at level 1/2; never broadcasts
    kDeactivated,
  };

  struct RootState {
    std::map<Label, std::vector<Label>> l1_lists;   // L1 label -> its nbrs
    std::map<Label, std::vector<Label>> s2_assign;  // L1 label -> L2 children
    std::map<Label, Label> l2_parent;               // L2 label -> L1 parent
    std::size_t expected_l1 = 0;
    std::size_t expected_fwd = 0;
    std::map<Label, std::vector<Label>> l2_lists;   // L2 label -> its nbrs
    bool s2_done = false;
    bool s3_done = false;
  };

  struct L1State {
    Port parent = sim::kInvalidPort;
    std::vector<Label> children;                    // assigned L2 children
    std::map<Label, std::vector<Label>> collected;  // child -> its nbr list
    bool forwarded = false;
  };

  struct L2State {
    Port parent = sim::kInvalidPort;
  };

  struct State {
    Status status = Status::kUnwoken;
    bool pending_activation = false;
    bool woke_by_message = false;
    bool is_root = false;
    bool broadcasted = false;
    std::uint64_t activation_round = 0;
    std::uint64_t deact_deadline = sim::kNever;
    RootState root_state;
    std::size_t fwd_received = 0;
    std::map<Label, L1State> l1_states;
    std::map<Label, L2State> l2_states;
  };

  template <class Ctx>
  void on_wake(Ctx&, State& self, sim::WakeCause cause) const {
    if (cause == sim::WakeCause::kAdversary) {
      self.pending_activation = true;
    } else {
      self.woke_by_message = true;  // classified while processing the inbox
    }
  }

  template <class Ctx>
  void on_message(Ctx&, State&, const Incoming&) const {
    RISE_CHECK_MSG(false, "FastWakeup requires the synchronous engine");
  }

  template <class Ctx>
  void on_round(Ctx& ctx, State& self,
                std::span<const Incoming> inbox) const {
    // Deactivation deadlines fire before anything else in a round, so a
    // node deactivated by a completing tree never executes the broadcast
    // step of the same round (Sec. 3.2.1 status updates).
    if (self.deact_deadline != sim::kNever &&
        ctx.local_round() >= self.deact_deadline) {
      self.status = Status::kDeactivated;
    }
    if (self.pending_activation) {
      self.pending_activation = false;
      become_active(ctx, self);
    }

    for (const Incoming& in : inbox) handle(ctx, self, in);
    self.woke_by_message = false;

    if (self.status == Status::kActive) {
      run_active_step(ctx, self);
    }
    if (self.status == Status::kActive ||
        (self.deact_deadline != sim::kNever &&
         self.status != Status::kDeactivated)) {
      ctx.request_tick();
    }
  }

  template <class Ctx>
  void become_active(Ctx& ctx, State& self) const {
    if (self.status != Status::kUnwoken) return;
    self.status = Status::kActive;
    self.activation_round = ctx.local_round();
    ctx.probe().phase("fw.sample");
    sample(ctx, self);
  }

  template <class Ctx>
  void sample(Ctx& ctx, State& self) const {
    double p = root_probability;
    if (p < 0.0) {
      const double n = static_cast<double>(ctx.n_upper_bound());
      p = std::sqrt(std::log(n) / n);
    }
    if (ctx.rng().chance(p)) {
      self.is_root = true;
      if (probe != nullptr) ++probe->roots_sampled;
      // Construction takes 9 rounds; deactivate when it completes.
      self.deact_deadline =
          std::min(self.deact_deadline, ctx.local_round() + 9);
      start_tree(ctx, self);
    }
  }

  template <class Ctx>
  void start_tree(Ctx& ctx, State& self) const {
    obs::NodeProbe obs_probe = ctx.probe();
    obs_probe.phase("fw.tree");
    obs_probe.node_class("root");
    obs_probe.count("fw.roots_sampled");
    self.root_state.expected_l1 = ctx.degree();
    const Label me = ctx.my_label();
    for (Port p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, sim::make_message(kFwInvite1, {me},
                                    16 + ctx.label_bits()));
    }
    if (self.root_state.expected_l1 == 0) {
      compute_s2(ctx, self);  // degenerate isolated root
    }
  }

  template <class Ctx>
  void handle(Ctx& ctx, State& self, const Incoming& in) const {
    switch (in.msg.type) {
      case kFwInvite1: {
        const Label root = in.msg.payload[0];
        if (probe != nullptr) ++probe->l1_joins;
        obs::NodeProbe obs_probe = ctx.probe();
        obs_probe.phase("fw.tree");
        obs_probe.node_class("l1");
        obs_probe.count("fw.l1_joins");
        L1State& st = self.l1_states[root];
        st.parent = in.port;
        schedule_tree_deactivation(ctx, self, /*rounds_to_completion=*/8);
        std::vector<Label> nbrs(ctx.neighbor_labels().begin(),
                                ctx.neighbor_labels().end());
        ctx.send(in.port, labels_message(kFwNbrList1, root, nbrs,
                                         ctx.label_bits()));
        break;
      }
      case kFwNbrList1: {
        const Label sender = ctx.neighbor_labels()[in.port];
        self.root_state.l1_lists[sender] = parse_labels(in.msg);
        if (self.root_state.l1_lists.size() == self.root_state.expected_l1 &&
            !self.root_state.s2_done) {
          compute_s2(ctx, self);
        }
        break;
      }
      case kFwS2Assign: {
        const Label root = in.msg.payload[0];
        L1State& st = self.l1_states[root];
        st.children = parse_labels(in.msg);
        for (Label child : st.children) {
          ctx.send_to_label(child,
                            sim::make_message(kFwInvite2, {root},
                                              16 + ctx.label_bits()));
        }
        break;
      }
      case kFwInvite2: {
        const Label root = in.msg.payload[0];
        if (probe != nullptr) ++probe->l2_joins;
        obs::NodeProbe obs_probe = ctx.probe();
        obs_probe.phase("fw.tree");
        obs_probe.node_class("l2");
        obs_probe.count("fw.l2_joins");
        self.l2_states[root].parent = in.port;
        schedule_tree_deactivation(ctx, self, /*rounds_to_completion=*/5);
        std::vector<Label> nbrs(ctx.neighbor_labels().begin(),
                                ctx.neighbor_labels().end());
        ctx.send(in.port, labels_message(kFwNbrList2, root, nbrs,
                                         ctx.label_bits()));
        break;
      }
      case kFwNbrList2: {
        const Label root = in.msg.payload[0];
        const Label child = ctx.neighbor_labels()[in.port];
        L1State& st = self.l1_states[root];
        st.collected[child] = parse_labels(in.msg);
        if (!st.forwarded && st.collected.size() == st.children.size()) {
          st.forwarded = true;
          ctx.send(st.parent, groups_message(kFwFwdLists, root, st.collected,
                                             ctx.label_bits()));
        }
        break;
      }
      case kFwFwdLists: {
        for (const auto& [l2, list] : parse_groups(in.msg)) {
          self.root_state.l2_lists[l2] = list;
        }
        ++self.fwd_received;
        if (self.fwd_received == self.root_state.expected_fwd &&
            !self.root_state.s3_done) {
          compute_s3(ctx, self);
        }
        break;
      }
      case kFwS3ToL1: {
        const Label root = in.msg.payload[0];
        for (const auto& [l2, l3_children] : parse_groups(in.msg)) {
          ctx.send_to_label(l2, labels_message(kFwS3ToL2, root, l3_children,
                                               ctx.label_bits()));
        }
        break;
      }
      case kFwS3ToL2: {
        const Label root = in.msg.payload[0];
        for (Label l3 : parse_labels(in.msg)) {
          ctx.send_to_label(l3,
                            sim::make_message(kFwInvite3, {root},
                                              16 + ctx.label_bits()));
        }
        break;
      }
      case kFwInvite3:
      case kFwActivate: {
        if (in.msg.type == kFwInvite3) {
          if (probe != nullptr) ++probe->l3_invites;
          ctx.probe().count("fw.l3_invites");
        }
        // A sleeping node joining at level 3, or receiving <activate!>,
        // becomes active (Sec. 3.2.1 status updates).
        if (self.woke_by_message && self.status == Status::kUnwoken) {
          become_active(ctx, self);
        }
        break;
      }
      default:
        RISE_CHECK_MSG(false, "FastWakeup: unknown message type "
                                  << in.msg.type);
    }
    // A node woken this round that only joined trees (level 1/2) ends up
    // Joined: awake, silent, deactivating at tree completion.
    if (self.woke_by_message && self.status == Status::kUnwoken &&
        (!self.l1_states.empty() || !self.l2_states.empty())) {
      self.status = Status::kJoined;
    }
  }

  template <class Ctx>
  void schedule_tree_deactivation(Ctx& ctx, State& self,
                                  std::uint64_t rounds_to_completion) const {
    self.deact_deadline = std::min(self.deact_deadline,
                                   ctx.local_round() + rounds_to_completion);
  }

  template <class Ctx>
  void compute_s2(Ctx& ctx, State& self) const {
    self.root_state.s2_done = true;
    std::set<Label> known{ctx.my_label()};
    for (const auto& lbl : ctx.neighbor_labels()) known.insert(lbl);
    // Assign each level-2 candidate to its smallest-ID level-1 neighbor.
    for (const auto& [l1, nbrs] : self.root_state.l1_lists) {
      for (Label w : nbrs) {
        if (known.count(w)) continue;
        known.insert(w);
        self.root_state.s2_assign[l1].push_back(w);
        self.root_state.l2_parent[w] = l1;
      }
    }
    self.root_state.expected_fwd = self.root_state.s2_assign.size();
    // Distribute S2 to all level-1 nodes (empty lists included: the paper's
    // root "sends it to its neighbors").
    for (const auto& [l1, nbrs] : self.root_state.l1_lists) {
      auto it = self.root_state.s2_assign.find(l1);
      const std::vector<Label> empty;
      const std::vector<Label>& children =
          it != self.root_state.s2_assign.end() ? it->second : empty;
      ctx.send_to_label(l1, labels_message(kFwS2Assign, ctx.my_label(),
                                           children, ctx.label_bits()));
    }
    if (self.root_state.expected_fwd == 0) compute_s3(ctx, self);
  }

  template <class Ctx>
  void compute_s3(Ctx& ctx, State& self) const {
    self.root_state.s3_done = true;
    std::set<Label> known{ctx.my_label()};
    for (const auto& lbl : ctx.neighbor_labels()) known.insert(lbl);
    for (const auto& [l2, parent] : self.root_state.l2_parent) {
      known.insert(l2);
    }
    // Per level-1 node: groups (its L2 child -> that child's L3 children).
    std::map<Label, std::map<Label, std::vector<Label>>> per_l1;
    for (const auto& [l2, nbrs] : self.root_state.l2_lists) {
      const Label l1 = self.root_state.l2_parent.at(l2);
      for (Label w : nbrs) {
        if (known.count(w)) continue;
        known.insert(w);
        per_l1[l1][l2].push_back(w);
      }
    }
    for (const auto& [l1, groups] : per_l1) {
      ctx.send_to_label(l1, groups_message(kFwS3ToL1, ctx.my_label(), groups,
                                           ctx.label_bits()));
    }
  }

  template <class Ctx>
  void run_active_step(Ctx& ctx, State& self) const {
    const std::uint64_t active_round =
        ctx.local_round() - self.activation_round + 1;
    if (!self.is_root && active_round == 10 && !self.broadcasted) {
      self.broadcasted = true;
      if (probe != nullptr) ++probe->activate_broadcasts;
      obs::NodeProbe obs_probe = ctx.probe();
      obs_probe.phase("fw.activate");
      obs_probe.count("fw.activate_broadcasts");
      ctx.broadcast(sim::make_message(kFwActivate, {}, 8));
      self.deact_deadline =
          std::min(self.deact_deadline, ctx.local_round() + 1);
    }
  }

};

}  // namespace

sim::KernelRunner fast_wakeup_kernel(FastWakeupProbe* probe,
                                     double root_probability) {
  return sim::make_kernel(FastWakeup{probe, root_probability});
}

}  // namespace rise::algo
