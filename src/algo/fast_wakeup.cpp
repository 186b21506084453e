// FastWakeUp's per-node state is flat: no std::map, std::set or
// per-message std::vector.
//
//   * A level-1 or level-2 tree membership is a small record or a flag in
//     the node's State; a root's tables (the neighbour lists its level-1
//     and level-2 nodes report, and the labels S2 assigned) live behind one
//     pointer that only roots allocate.
//   * Every label list is a Group — a key plus a [begin, begin + count)
//     slice of one pool vector — and received payloads are read in place
//     as spans.
//   * compute_s2 / compute_s3 deduplicate candidate labels with one sort on
//     per-thread buffers that are reused from root to root.
//
// The send order is fixed by label orders, exactly as the std::map
// version's iteration was: S2 assignments go to level-1 nodes in ascending
// label order, S2 candidates are taken from the level-1 lists in that
// order, S3 candidates from the level-2 lists in ascending level-2 label
// order, and every grouped payload (a level-1 node's forwarded lists, a
// root's S3 slice for one level-1 node) lists its groups in ascending key
// order. Charged bits are unchanged: 16 + label_bits * (1 + labels), where
// a grouped payload counts each group's key with its labels.
#include "algo/fast_wakeup.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

namespace {

using sim::Incoming;
using sim::Label;
using sim::Message;
using sim::Port;

/// One keyed label list of a flat table: `key`'s labels are
/// pool[begin, begin + count) of the pool the table is paired with.
struct Group {
  Label key = 0;
  Label parent = 0;  ///< a root's level-2 lists: the level-1 node that sent it
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

/// Appends `labels` to `pool` as a new group of `groups`.
void append_group(std::vector<Group>& groups, std::vector<Label>& pool,
                  Label key, std::span<const Label> labels,
                  Label parent = 0) {
  groups.push_back(Group{key, parent, static_cast<std::uint32_t>(pool.size()),
                         static_cast<std::uint32_t>(labels.size())});
  pool.insert(pool.end(), labels.begin(), labels.end());
}

std::span<const Label> labels_of(const Group& g,
                                 const std::vector<Label>& pool) {
  return {pool.data() + g.begin, g.count};
}

void sort_by_key(std::vector<Group>& groups) {
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.key < b.key; });
}

/// Payload [root, count, labels...].
Message labels_message(std::uint32_t type, Label root,
                       std::span<const Label> labels, unsigned label_bits) {
  sim::PayloadWords payload;
  payload.reserve(2 + labels.size());
  payload.push_back(root);
  payload.push_back(labels.size());
  payload.append(labels.begin(), labels.end());
  return sim::make_message(type, std::move(payload),
                           16 + label_bits * (1 + labels.size()));
}

/// Grouped payload [root, #groups, (key, count, labels...) ...], groups in
/// the given order.
Message groups_message(std::uint32_t type, Label root,
                       std::span<const Group> groups,
                       const std::vector<Label>& pool, unsigned label_bits) {
  std::size_t words = 2;
  std::uint64_t label_count = 1;  // the root, then each key and its labels
  for (const Group& g : groups) {
    words += 2 + g.count;
    label_count += 1 + g.count;
  }
  sim::PayloadWords payload;
  payload.reserve(words);
  payload.push_back(root);
  payload.push_back(groups.size());
  for (const Group& g : groups) {
    payload.push_back(g.key);
    payload.push_back(g.count);
    const std::span<const Label> labels = labels_of(g, pool);
    payload.append(labels.begin(), labels.end());
  }
  return sim::make_message(type, std::move(payload),
                           16 + label_bits * label_count);
}

/// The label list of a labels_message, read in place.
std::span<const Label> labels_of(const Message& msg) {
  RISE_CHECK(msg.payload.size() >= 2);
  RISE_CHECK(msg.payload.size() == 2 + msg.payload[1]);
  return {msg.payload.begin() + 2, msg.payload.end()};
}

/// Calls fn(key, labels) for each group of a groups_message, in payload
/// order, reading the labels in place.
template <class Fn>
void for_each_group(const Message& msg, Fn&& fn) {
  const sim::PayloadWords& w = msg.payload;
  RISE_CHECK(w.size() >= 2);
  std::size_t i = 2;
  for (std::uint64_t g = 0; g < w[1]; ++g) {
    RISE_CHECK(i + 2 <= w.size());
    const Label key = w[i];
    const std::uint64_t count = w[i + 1];
    i += 2;
    RISE_CHECK(i + count <= w.size());
    fn(key, std::span<const Label>(w.begin() + i, count));
    i += count;
  }
  RISE_CHECK(i == w.size());
}

/// Buffers for compute_s2 / compute_s3, reused by every root a thread
/// steps, so a warm thread deduplicates without allocating.
struct Scratch {
  std::vector<Label> known;       ///< labels already in the tree
  std::vector<Label> candidates;  ///< in the order they are considered
  std::vector<std::pair<Label, std::uint32_t>> order;
  std::vector<std::uint8_t> keep;
  std::vector<Group> groups;      ///< compute_s3's output groups
  std::vector<Label> pool;
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

/// Sets s.keep[i] iff s.candidates[i] is not in s.known and no earlier
/// candidate has its label: the candidates a growing "known" set would
/// admit, walked in candidate order. One sort of (label, position) pairs,
/// in which known labels take position 0 and so sort first.
void keep_first_unknown(Scratch& s) {
  s.order.clear();
  for (const Label k : s.known) s.order.emplace_back(k, 0);
  for (std::size_t i = 0; i < s.candidates.size(); ++i) {
    s.order.emplace_back(s.candidates[i], static_cast<std::uint32_t>(i + 1));
  }
  std::sort(s.order.begin(), s.order.end());
  s.keep.assign(s.candidates.size(), 0);
  for (std::size_t i = 0; i < s.order.size();) {
    const Label label = s.order[i].first;
    if (s.order[i].second != 0) s.keep[s.order[i].second - 1] = 1;
    while (i < s.order.size() && s.order[i].first == label) ++i;
  }
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

  /// What a root keeps while its tree is built.
  struct RootTables {
    std::vector<Group> l1_lists;  ///< level-1 label -> its neighbour list
    std::vector<Group> l2_lists;  ///< level-2 label -> its neighbour list
    std::vector<Label> pool;      ///< both tables' lists
    std::vector<Label> level2;    ///< every label S2 assigned
    std::size_t expected_fwd = 0;
    std::size_t fwd_received = 0;
    bool s2_done = false;
    bool s3_done = false;
  };

  /// A node's membership at level 1 of one root's tree.
  struct L1Role {
    Label root = 0;
    Port parent = sim::kInvalidPort;
    std::uint32_t num_children = 0;  ///< level-2 children S2 assigned here
    bool forwarded = false;
    std::vector<Group> collected;    ///< child label -> its neighbour list
    std::vector<Label> pool;
  };

  struct State {
    Status status = Status::kUnwoken;
    bool pending_activation = false;
    bool woke_by_message = false;
    bool is_root = false;
    bool broadcasted = false;
    bool l2_member = false;  ///< joined some tree at level 2
    std::uint64_t activation_round = 0;
    std::uint64_t deact_deadline = sim::kNever;
    std::unique_ptr<RootTables> root;  ///< roots only
    std::vector<L1Role> l1_roles;
  };

  static RootTables& root_tables(State& self) {
    RISE_CHECK_MSG(self.root != nullptr,
                   "FastWakeup: tree report at a node that is no root");
    return *self.root;
  }

  static L1Role& l1_role(State& self, Label root) {
    const auto it = std::find_if(
        self.l1_roles.begin(), self.l1_roles.end(),
        [root](const L1Role& r) { return r.root == root; });
    RISE_CHECK_MSG(it != self.l1_roles.end(),
                   "FastWakeup: no level-1 membership for root " << root);
    return *it;
  }

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
    self.root = std::make_unique<RootTables>();
    const Label me = ctx.my_label();
    for (Port p = 0; p < ctx.degree(); ++p) {
      ctx.send(p, sim::make_message(kFwInvite1, {me},
                                    16 + ctx.label_bits()));
    }
    if (ctx.degree() == 0) {
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
        L1Role& role = self.l1_roles.emplace_back();
        role.root = root;
        role.parent = in.port;
        schedule_tree_deactivation(ctx, self, /*rounds_to_completion=*/8);
        ctx.send(in.port, labels_message(kFwNbrList1, root,
                                         ctx.neighbor_labels(),
                                         ctx.label_bits()));
        break;
      }
      case kFwNbrList1: {
        RootTables& t = root_tables(self);
        append_group(t.l1_lists, t.pool, ctx.neighbor_labels()[in.port],
                     labels_of(in.msg));
        if (t.l1_lists.size() == ctx.degree() && !t.s2_done) {
          compute_s2(ctx, self);
        }
        break;
      }
      case kFwS2Assign: {
        const Label root = in.msg.payload[0];
        const std::span<const Label> children = labels_of(in.msg);
        l1_role(self, root).num_children =
            static_cast<std::uint32_t>(children.size());
        for (Label child : children) {
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
        self.l2_member = true;
        schedule_tree_deactivation(ctx, self, /*rounds_to_completion=*/5);
        ctx.send(in.port, labels_message(kFwNbrList2, root,
                                         ctx.neighbor_labels(),
                                         ctx.label_bits()));
        break;
      }
      case kFwNbrList2: {
        const Label root = in.msg.payload[0];
        L1Role& role = l1_role(self, root);
        append_group(role.collected, role.pool,
                     ctx.neighbor_labels()[in.port], labels_of(in.msg));
        if (!role.forwarded && role.collected.size() == role.num_children) {
          role.forwarded = true;
          sort_by_key(role.collected);
          ctx.send(role.parent,
                   groups_message(kFwFwdLists, root, role.collected,
                                  role.pool, ctx.label_bits()));
        }
        break;
      }
      case kFwFwdLists: {
        // A level-1 node forwards exactly its own S2 children's lists, so
        // the sender is each listed level-2 node's parent.
        RootTables& t = root_tables(self);
        const Label sender = ctx.neighbor_labels()[in.port];
        for_each_group(in.msg, [&](Label l2, std::span<const Label> list) {
          append_group(t.l2_lists, t.pool, l2, list, sender);
        });
        ++t.fwd_received;
        if (t.fwd_received == t.expected_fwd && !t.s3_done) {
          compute_s3(ctx, self);
        }
        break;
      }
      case kFwS3ToL1: {
        const Label root = in.msg.payload[0];
        for_each_group(in.msg, [&](Label l2, std::span<const Label> l3s) {
          ctx.send_to_label(l2, labels_message(kFwS3ToL2, root, l3s,
                                               ctx.label_bits()));
        });
        break;
      }
      case kFwS3ToL2: {
        const Label root = in.msg.payload[0];
        for (Label l3 : labels_of(in.msg)) {
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
        (!self.l1_roles.empty() || self.l2_member)) {
      self.status = Status::kJoined;
    }
  }

  template <class Ctx>
  void schedule_tree_deactivation(Ctx& ctx, State& self,
                                  std::uint64_t rounds_to_completion) const {
    self.deact_deadline = std::min(self.deact_deadline,
                                   ctx.local_round() + rounds_to_completion);
  }

  /// Starts the known set with the root and its neighbours.
  template <class Ctx>
  static void know_root_and_neighbours(Ctx& ctx, Scratch& s) {
    const std::span<const Label> nbrs = ctx.neighbor_labels();
    s.known.assign(nbrs.begin(), nbrs.end());
    s.known.push_back(ctx.my_label());
  }

  template <class Ctx>
  void compute_s2(Ctx& ctx, State& self) const {
    RootTables& t = *self.root;
    t.s2_done = true;
    // Assign each level-2 candidate to its smallest-label level-1
    // neighbour: walk the level-1 lists in label order and keep each new
    // label's first sighting.
    sort_by_key(t.l1_lists);
    Scratch& s = scratch();
    know_root_and_neighbours(ctx, s);
    s.candidates.clear();
    for (const Group& g : t.l1_lists) {
      const std::span<const Label> list = labels_of(g, t.pool);
      s.candidates.insert(s.candidates.end(), list.begin(), list.end());
    }
    keep_first_unknown(s);
    // Distribute S2 to all level-1 nodes in label order (empty lists
    // included: the paper's root "sends it to its neighbors").
    std::size_t c = 0;
    for (const Group& g : t.l1_lists) {
      const std::size_t first = t.level2.size();
      for (std::uint32_t j = 0; j < g.count; ++j, ++c) {
        if (s.keep[c] != 0) t.level2.push_back(s.candidates[c]);
      }
      const std::span<const Label> children(t.level2.data() + first,
                                            t.level2.size() - first);
      if (!children.empty()) ++t.expected_fwd;
      ctx.send_to_label(g.key, labels_message(kFwS2Assign, ctx.my_label(),
                                              children, ctx.label_bits()));
    }
    if (t.expected_fwd == 0) compute_s3(ctx, self);
  }

  template <class Ctx>
  void compute_s3(Ctx& ctx, State& self) const {
    RootTables& t = *self.root;
    t.s3_done = true;
    Scratch& s = scratch();
    know_root_and_neighbours(ctx, s);
    s.known.insert(s.known.end(), t.level2.begin(), t.level2.end());
    // Level-3 candidates: the level-2 lists in label order.
    sort_by_key(t.l2_lists);
    s.candidates.clear();
    for (const Group& g : t.l2_lists) {
      const std::span<const Label> list = labels_of(g, t.pool);
      s.candidates.insert(s.candidates.end(), list.begin(), list.end());
    }
    keep_first_unknown(s);
    // Per level-2 node, its new level-3 children; then one grouped message
    // per level-1 node (ascending), its groups in ascending level-2 order.
    s.groups.clear();
    s.pool.clear();
    std::size_t c = 0;
    for (const Group& g : t.l2_lists) {
      const auto first = static_cast<std::uint32_t>(s.pool.size());
      for (std::uint32_t j = 0; j < g.count; ++j, ++c) {
        if (s.keep[c] != 0) s.pool.push_back(s.candidates[c]);
      }
      const auto count = static_cast<std::uint32_t>(s.pool.size()) - first;
      if (count != 0) s.groups.push_back(Group{g.key, g.parent, first, count});
    }
    std::sort(s.groups.begin(), s.groups.end(),
              [](const Group& a, const Group& b) {
                return a.parent != b.parent ? a.parent < b.parent
                                            : a.key < b.key;
              });
    for (std::size_t i = 0; i < s.groups.size();) {
      std::size_t j = i;
      while (j < s.groups.size() && s.groups[j].parent == s.groups[i].parent) {
        ++j;
      }
      ctx.send_to_label(
          s.groups[i].parent,
          groups_message(kFwS3ToL1, ctx.my_label(),
                         std::span<const Group>(s.groups.data() + i, j - i),
                         s.pool, ctx.label_bits()));
      i = j;
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
