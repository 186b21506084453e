// The engines' event loops, written once.
//
// Asynchronous model (Sec. 1.1–1.2 of the paper):
//   * Channels are error-free, bidirectional and FIFO; the engine clamps
//     per-directed-channel delivery times to be monotone so FIFO holds for
//     any delay policy.
//   * Message delays are chosen by an oblivious DelayPolicy with maximum
//     delay tau; one time unit = tau ticks.
//   * The adversary wakes nodes per a WakeSchedule; a message delivered to a
//     sleeping node wakes it and is processed upon awakening.
//   * Local computation is instantaneous: a callback may send any number of
//     messages at the current tick.
//
// Synchronous model (Sec. 3.2): computation proceeds in rounds; every
// message sent in round r is delivered at the start of round r+1. The
// adversary wakes nodes at round boundaries (wake times are round numbers);
// a message delivered to a sleeping node wakes it. Nodes have NO global
// clock — a process only sees its local round counter (rounds since its own
// wake-up), per footnote 4. A node is stepped (on_round) in a round iff it
// has a non-empty inbox, it just woke up, or it called
// Context::request_tick() in the previous round; quiescence (no inbox, no
// pending wakes, no tick requests) terminates the run, which keeps
// simulated complexity proportional to actual activity.
//
// The round's active set is built without sorting or allocating. Every node
// has one mark byte (kept in the RunWorkspace). A tick request (applied by
// the reduction below), the round's adversary-wake slice and the end of a
// nap set it; one ascending sweep over marks and inboxes then emits the
// active set already sorted and deduplicated, clearing each mark as it
// goes. A node due for several reasons at once (two tick requests, a
// message and an adversary wake) is stepped once. Nap ends are kept in a
// std::map keyed by round; only the sleeping-model families ever fill it.
//
// Every round is stepped one way: the active set is cut into
// SyncParallel::jobs contiguous chunks (one, run inline, by default). Each
// chunk records its sends and shared effects into a SyncChunkOutbox, one
// sequential reduction applies them in active-set order, and a scatter
// moves the messages into next round's inboxes — so results are the same
// for any chunk count and executor (SyncRunner::step_round, DESIGN.md §14).
//
// Sleeping model (SyncRunLimits::sleeping_model): nodes may additionally
// declare themselves asleep with Context::sleep_until(r) — they are not
// stepped again before round r, pay no awake cost, and messages arriving
// during the nap are dropped. This mode deliberately grants nodes the
// synchronized global clock the sleeping-model literature assumes
// (Context::now() as a round number), a documented divergence from the
// paper's footnote-4 no-global-clock stance; see DESIGN.md §13.
//
// Both engines are deterministic given (instance, delay policy, schedule,
// seed).
//
// AsyncRunner and SyncRunner hold the two loops, templated on a Handler
// with
//
//   handler.on_wake(ctx, cause)      // ctx.node() is the woken node
//   handler.on_message(ctx, in)
//   handler.on_round(ctx, inbox)
//
// There is one Handler: sim/kernel.hpp's FlatHandler<A>, generated from an
// algorithm type. Every built-in family is such a type, and so are
// hand-written Processes (ProcessAlgorithm), so every run — production
// kernels, test Processes, the NIH wrapper — goes through this code.
// The handler's template hooks inline into the loop with the final context
// types below, devirtualizing every ctx call a family makes; a Process
// still sees them through sim::Context.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <utility>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/delay_policy.hpp"
#include "sim/engine_core.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/workspace.hpp"
#include "support/check.hpp"

namespace rise::sim {

struct RunLimits {
  std::uint64_t max_events = 200'000'000;  ///< hard safety cap; exceeded => throws
  Time max_time = kNever;                  ///< stop scheduling past this tick
};

struct SyncRunLimits {
  std::uint64_t max_rounds = 10'000'000;
  std::uint64_t max_messages = 500'000'000;

  /// Enables the sleeping model (DESIGN.md §13): Context::sleep_until
  /// becomes legal, declared-asleep nodes are never stepped, and messages
  /// arriving at them are dropped (counted in Metrics::sleep_dropped).
  /// Off, the engine reproduces the historical lock-step semantics (and
  /// traces) bit for bit.
  bool sleeping_model = false;
};

}  // namespace rise::sim

namespace rise::sim::internal {

template <class Handler>
class AsyncRunner;

template <class Handler>
class AsyncRunnerContext final : public CoreContext {
 public:
  AsyncRunnerContext(AsyncRunner<Handler>& engine, EngineCore& core)
      : CoreContext(core), engine_(engine) {}

  void send(Port p, Message msg) override {
    engine_.send_from(node_, p, std::move(msg));
  }
  Time now() const override { return engine_.now(); }
  std::uint64_t local_round() const override { return 0; }
  void request_tick() override {
    RISE_CHECK_MSG(false, "request_tick is a synchronous-engine feature");
  }

 private:
  AsyncRunner<Handler>& engine_;
};

template <class Handler>
class AsyncRunner {
 public:
  AsyncRunner(Handler& handler, EngineCore& core, const DelayPolicy& delays,
              const WakeSchedule& schedule, const RunLimits& limits,
              EventQueue::Mode queue_mode, RunWorkspace* workspace)
      : handler_(handler),
        core_(core),
        delays_(delays),
        max_delay_(delays.max_delay()),
        // Every shipped policy with max_delay() == 1 returns exactly 1 (the
        // engine-enforced legal range is [1, max_delay]), so the per-send
        // virtual delay() call can be skipped entirely on the unit-delay
        // hot path. Fault-injection wrappers (check::LateDeliveryFault)
        // declare max_delay() >= 2 and therefore never take the fast path.
        unit_delays_(delays.max_delay() == 1),
        limits_(limits),
        ctx_(*this, core),
        workspace_(workspace),
        probe_(core.probe()) {
    const Instance& instance = core_.instance();
    if (workspace_ != nullptr) {
      channels_ = std::move(workspace_->channels);
      events_ = std::move(workspace_->events);
    }
    channels_.assign(instance.num_directed_edges(), ChannelState{});
    events_.reset(max_delay_, queue_mode);
    if (probe_ != nullptr) {
      probe_->set_backend(events_.using_buckets() ? "buckets" : "heap");
    }
    const NodeId n = instance.num_nodes();
    for (const auto& [t, u] : schedule.wakes) {
      RISE_CHECK(u < n);
      events_.push({t, next_seq_++, EventKind::kWake, u, kInvalidPort, {}});
    }
  }

  ~AsyncRunner() {
    if (workspace_ == nullptr) return;
    workspace_->channels = std::move(channels_);
    workspace_->events = std::move(events_);
  }

  RunResult run() {
    const Instance& instance = core_.instance();
    Metrics& metrics = core_.result().metrics;
    std::vector<std::uint32_t>& awake_rounds = core_.result().awake_rounds;
    TraceSink* trace = core_.trace();
    while (!events_.empty()) {
      // Consume the front event in place: copy the scalars, steal the
      // message, and drop the slot *before* dispatching (handlers send,
      // which may reallocate the queue's storage under a front() reference).
      Event& front = events_.front();
      const EventKind kind = front.kind;
      const NodeId node = front.node;
      const Port port = front.port;
      now_ = front.t;
      Incoming in{port, std::move(front.msg)};
      events_.drop_front();
      ++metrics.events;
      if (probe_ != nullptr) probe_->on_event_pop(events_.size());
      RISE_CHECK_MSG(metrics.events <= limits_.max_events,
                     "async engine exceeded max_events ("
                         << limits_.max_events << ") — runaway algorithm?");
      switch (kind) {
        case EventKind::kWake:
          // A duplicate adversary wake of an already-awake node is a no-op
          // and costs the node nothing.
          if (!core_.is_awake(node)) {
            ++awake_rounds[node];
            wake_node(node, WakeCause::kAdversary);
          }
          break;
        case EventKind::kDeliver: {
          ++awake_rounds[node];
          core_.account_delivery(node, now_);
          if (trace != nullptr) {
            trace->on_deliver(now_, instance.port_to_neighbor(node, port),
                              node, in.msg);
          }
          wake_node(node, WakeCause::kMessage);
          ctx_.attach(node);
          handler_.on_message(ctx_, in);
          break;
        }
      }
    }
    return core_.take_result();
  }

  void send_from(NodeId from, Port p, Message msg) {
    const Instance& instance = core_.instance();
    RISE_CHECK_MSG(p < instance.graph().degree(from),
                   "send on invalid port " << p << " at node " << from);
    core_.account_send(from, msg, now_);
    const NodeId to = instance.port_to_neighbor(from, p);
    if (core_.trace() != nullptr) core_.trace()->on_send(now_, from, to, msg);
    auto& chan = channels_[instance.directed_edge_id(from, p)];
    Time d = 1;
    if (!unit_delays_) {
      d = delays_.delay(from, to, chan.msg_index, now_);
      RISE_CHECK_MSG(d >= 1 && d <= max_delay_, "delay policy out of range");
    }
    ++chan.msg_index;
    Time arrive = now_ + d;
    arrive = std::max(arrive, chan.last_delivery);  // FIFO clamp
    chan.last_delivery = arrive;

    // A delivery clamped past max_time is dropped: the send was already
    // charged, so metrics.deliveries stays <= metrics.messages.
    if (limits_.max_time != kNever && arrive > limits_.max_time) return;
    const Port receiver_port = instance.reverse_port(from, p);
    events_.emplace(arrive, next_seq_++, EventKind::kDeliver, to,
                    receiver_port, std::move(msg));
    if (probe_ != nullptr) {
      probe_->on_queue_push(events_.size(), events_.ring_occupancy(),
                            events_.overflow_occupancy());
    }
  }

  Time now() const { return now_; }

 private:
  void wake_node(NodeId u, WakeCause cause) {
    if (!core_.mark_awake(u, now_, cause)) return;
    ctx_.attach(u);
    handler_.on_wake(ctx_, cause);
  }

  Handler& handler_;
  EngineCore& core_;
  const DelayPolicy& delays_;
  Time max_delay_;
  bool unit_delays_;
  RunLimits limits_;
  AsyncRunnerContext<Handler> ctx_;
  RunWorkspace* workspace_;

  std::vector<ChannelState> channels_;
  EventQueue events_;
  obs::Probe* probe_ = nullptr;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
};

template <class Handler>
class SyncRunner;

/// Context used while stepping a node inside a round chunk
/// (SyncRunner::step_chunk). Sends are *recorded* into the chunk's outbox
/// instead of applied, and tick requests / naps land in the node's
/// SyncStepRecord, so the reduction can apply every shared-state effect in
/// active-set order. Reads (now, local_round, rng, advice, probe, ...) touch
/// only state that is frozen or owned by the stepped node during the step
/// phase.
template <class Handler>
class SyncRunnerContext final : public CoreContext {
 public:
  SyncRunnerContext(SyncRunner<Handler>& engine, EngineCore& core,
                    SyncChunkOutbox& outbox)
      : CoreContext(core), engine_(engine), outbox_(outbox) {}

  void attach_step(NodeId u, SyncStepRecord* step) {
    attach(u);
    step_ = step;
  }

  void send(Port p, Message msg) override {
    engine_.record_send(outbox_, node_, p, std::move(msg));
  }
  Time now() const override { return engine_.round(); }
  std::uint64_t local_round() const override {
    return engine_.local_round(node_);
  }
  void request_tick() override { step_->tick = true; }
  void sleep_until(Time round) override {
    engine_.sleep_local(node_, round, *step_);
  }

 private:
  SyncRunner<Handler>& engine_;
  SyncChunkOutbox& outbox_;
  SyncStepRecord* step_ = nullptr;
};

template <class Handler>
class SyncRunner {
 public:
  /// Each stepped round is partitioned into `parallel.jobs` contiguous
  /// chunks of the sorted active set; the chunks run on `parallel.executor`
  /// (inline when it is null), and a sequential reduction applies metrics /
  /// trace / probe effects in active-set order — so the run is
  /// bit-identical for any chunk count and executor. See step_round below
  /// and DESIGN.md §14.
  SyncRunner(Handler& handler, EngineCore& core, const WakeSchedule& schedule,
             const SyncRunLimits& limits, RunWorkspace* workspace,
             SyncParallel parallel = {})
      : handler_(handler),
        core_(core),
        limits_(limits),
        executor_(parallel.executor),
        workspace_(workspace),
        probe_(core.probe()) {
    RISE_CHECK_MSG(parallel.jobs >= 1, "SyncParallel::jobs must be >= 1");
    if (executor_ == nullptr) {
      static SerialChunkExecutor inline_executor;
      executor_ = &inline_executor;
    }
    if (probe_ != nullptr) probe_->set_backend("sync");
    const Instance& instance = core_.instance();
    n_ = instance.num_nodes();
    if (workspace_ != nullptr) {
      wake_round_ = std::move(workspace_->wake_round);
      asleep_until_ = std::move(workspace_->asleep_until);
      inbox_ = std::move(workspace_->inbox);
      next_inbox_ = std::move(workspace_->next_inbox);
      wakes_ = std::move(workspace_->sync_wakes);
      active_ = std::move(workspace_->sync_active);
      marks_ = std::move(workspace_->sync_marks);
      outboxes_ = std::move(workspace_->sync_outboxes);
    }
    wake_round_.assign(n_, kNever);
    marks_.assign(n_, 0);
    asleep_until_.assign(n_, 0);
    reset_boxes(inbox_, n_);
    reset_boxes(next_inbox_, n_);
    wakes_.clear();
    for (const auto& [t, u] : schedule.wakes) {
      RISE_CHECK(u < n_);
      wakes_.emplace_back(t, u);
    }
    // Sorted by (round, node): each round's wake-ups form one contiguous,
    // node-sorted slice that run() consumes with a cursor and
    // adversary_woke() binary-searches — replacing a per-run
    // std::map<Time, vector> whose node allocations broke the steady-state
    // zero-allocation contract. The insertion order the map preserved
    // within one round is irrelevant: the wakes only set marks, and
    // wake-cause lookup is a membership test.
    std::sort(wakes_.begin(), wakes_.end());
    active_.clear();
    outboxes_.resize(parallel.jobs);
  }

  ~SyncRunner() {
    if (workspace_ == nullptr) return;
    workspace_->wake_round = std::move(wake_round_);
    workspace_->asleep_until = std::move(asleep_until_);
    workspace_->inbox = std::move(inbox_);
    workspace_->next_inbox = std::move(next_inbox_);
    workspace_->sync_wakes = std::move(wakes_);
    workspace_->sync_active = std::move(active_);
    workspace_->sync_marks = std::move(marks_);
    workspace_->sync_outboxes = std::move(outboxes_);
  }

  RunResult run() {
    const Instance& instance = core_.instance();
    const NodeId n = n_;
    Metrics& metrics = core_.result().metrics;
    TraceSink* trace = core_.trace();
    const bool sleeping = limits_.sleeping_model;
    for (round_ = 0;; ++round_) {
      RISE_CHECK_MSG(round_ <= limits_.max_rounds,
                     "sync engine exceeded max_rounds");
      // 1. Deliver messages sent in the previous round.
      std::swap(inbox_, next_inbox_);
      for (auto& box : next_inbox_) box.clear();

      // 1b. Sleeping model: drop deliveries at declared-asleep nodes, then
      // trace the survivors. (The legacy path traces deliveries eagerly at
      // send time; naps make delivery conditional, so the sleeping path
      // defers the on_deliver record until the nap filter has run.)
      if (sleeping) {
        for (NodeId u = 0; u < n; ++u) {
          if (inbox_[u].empty()) continue;
          if (is_asleep(u)) {
            metrics.sleep_dropped += inbox_[u].size();
            inbox_[u].clear();
          } else if (trace != nullptr) {
            for (const Incoming& in : inbox_[u]) {
              trace->on_deliver(round_, instance.port_to_neighbor(u, in.port),
                                u, in.msg);
            }
          }
        }
      }

      // 2. Mark this round's adversary wake-ups and nap ends; tick requests
      // of the previous round are already marked.
      const std::size_t wake_lo = wake_cursor_;
      while (wake_cursor_ < wakes_.size() &&
             wakes_[wake_cursor_].first == round_) {
        marks_[wakes_[wake_cursor_].second] = 1;
        ++wake_cursor_;
      }
      round_wakes_begin_ = wakes_.data() + wake_lo;
      round_wakes_end_ = wakes_.data() + wake_cursor_;
      if (const auto it = pending_sleep_wakes_.find(round_);
          it != pending_sleep_wakes_.end()) {
        // A node's nap ends at its declared round: it is stepped again
        // (usually with an empty inbox) so it can resume its protocol.
        for (NodeId u : it->second) marks_[u] = 1;
        pending_sleep_wakes_.erase(it);
      }

      // 2b. One ascending sweep: marked nodes and nodes with mail, already
      // sorted and deduplicated; every mark is clear afterwards.
      active_.clear();
      for (NodeId u = 0; u < n; ++u) {
        if (marks_[u] != 0 || !inbox_[u].empty()) {
          marks_[u] = 0;
          active_.push_back(u);
        }
      }
      if (sleeping) {
        // Declared-asleep nodes receive no events at all — an adversary
        // wake or stale tick request aimed at a napping node evaporates.
        active_.erase(
            std::remove_if(active_.begin(), active_.end(),
                           [this](NodeId u) { return is_asleep(u); }),
            active_.end());
      }

      if (active_.empty()) {
        Time next = wake_cursor_ < wakes_.size() ? wakes_[wake_cursor_].first
                                                 : kNever;
        if (!pending_sleep_wakes_.empty()) {
          next = std::min(next, pending_sleep_wakes_.begin()->first);
        }
        if (next == kNever) break;  // quiescent
        // Fast-forward idle rounds to the next scheduled wake-up or nap end.
        round_ = next - 1;
        continue;
      }

      // 3. Step every active node.
      step_round();
      metrics.events += active_.size();
      metrics.rounds = round_ + 1;
      if (probe_ != nullptr) probe_->on_sync_round(active_.size());
    }
    return core_.take_result();
  }

  /// SyncRunnerContext::send: validate the port, resolve the receiver, and
  /// append the message to the chunk's outbox. All accounting, limit
  /// checks and trace events happen later, in reduce_outboxes, in
  /// active-set order.
  void record_send(SyncChunkOutbox& ob, NodeId from, Port p, Message&& msg) {
    const Instance& instance = core_.instance();
    RISE_CHECK_MSG(p < instance.graph().degree(from),
                   "send on invalid port " << p << " at node " << from);
    const NodeId to = instance.port_to_neighbor(from, p);
    ob.sends.emplace_back(instance.reverse_port(from, p), std::move(msg));
    ob.receivers.push_back(to);
    ++ob.num_sends;
  }

  Time round() const { return round_; }
  std::uint64_t local_round(NodeId u) const {
    return core_.is_awake(u) ? (round_ - wake_round_[u] + 1) : 0;
  }

  /// SyncRunnerContext::sleep_until: the node naps over rounds
  /// (round_, target) exclusive and is stepped again at `target`. Only the
  /// node-owned asleep_until_ slot is written here; the reduction registers
  /// the nap end from the step record.
  void sleep_local(NodeId u, Time target, SyncStepRecord& step) {
    RISE_CHECK_MSG(limits_.sleeping_model,
                   "sleep_until requires SyncRunLimits::sleeping_model");
    RISE_CHECK_MSG(target > round_,
                   "sleep_until(" << target << ") in round " << round_
                                  << " must target a strictly future round");
    RISE_CHECK_MSG(asleep_until_[u] <= round_,
                   "node " << u << " re-declared sleep while a nap is pending");
    asleep_until_[u] = target;
    step.slept = true;
    step.sleep_target = target;
  }

 private:
  /// Clears each recycled inbox (an aborted run can leave messages behind)
  /// and sizes the vector for n nodes, keeping all inner capacity.
  static void reset_boxes(std::vector<std::vector<Incoming>>& boxes,
                          NodeId n) {
    for (auto& box : boxes) box.clear();
    boxes.resize(n);
  }

  /// Was u woken by the adversary *this round*? Binary search over the
  /// current round's (node-sorted) slice of the flat wake schedule.
  bool adversary_woke(NodeId u) const {
    const auto* it = std::lower_bound(
        round_wakes_begin_, round_wakes_end_, u,
        [](const std::pair<Time, NodeId>& w, NodeId v) {
          return w.second < v;
        });
    return it != round_wakes_end_ && it->second == u;
  }

  // ---- stepping one round ----------------------------------------------
  //
  // Three phases, bit-identical for any chunk count:
  //
  //   1. step (parallel): chunk c steps active_[c*A/jobs, (c+1)*A/jobs).
  //      Workers touch only node-owned state (awake flag, wake_round_,
  //      asleep_until_, RNG stream, outputs, awake_rounds, own inbox) and
  //      record everything shared — sends, wake causes, delivered counts,
  //      naps, tick requests, probe marks — into their chunk outbox.
  //   2. reduce (sequential): walk outboxes in chunk order, steps in step
  //      order, applying wake accounting, per-send accounting + CONGEST /
  //      max_messages checks + trace events, deferred probe marks (by send
  //      sequence number), nap registrations and tick requests — in
  //      active-set order, the order each node's effects happened in.
  //   3. scatter (parallel): worker j moves every chunk's send records
  //      for receivers in [j*n/jobs, (j+1)*n/jobs) into their next_inbox_.
  //      Exactly one worker ever touches next_inbox_[u], and walking
  //      chunks in order puts each receiver's mail in active-set send
  //      order.
  //
  // A worker-side failure (invalid port, sleep-contract violation) is
  // caught into its chunk's outbox together with the failing step's
  // partial record, sends up to the throw included. The reduction walks
  // chunks in order up to and including that step, then rethrows: a
  // reduction-side error (CONGEST / max_messages) raised by an earlier
  // send wins, and otherwise the stored error is raised — the first error
  // in active-set order either way, for any chunk count.
  void step_round() {
    const std::size_t jobs = outboxes_.size();
    executor_->run(jobs, &SyncRunner::step_chunk_thunk, this);
    reduce_outboxes();
    executor_->run(jobs, &SyncRunner::scatter_chunk_thunk, this);
  }

  static void step_chunk_thunk(void* arg, std::size_t chunk) {
    static_cast<SyncRunner*>(arg)->step_chunk(chunk);
  }
  static void scatter_chunk_thunk(void* arg, std::size_t part) {
    static_cast<SyncRunner*>(arg)->scatter_chunk(part);
  }

  void step_chunk(std::size_t chunk) noexcept {
    SyncChunkOutbox& ob = outboxes_[chunk];
    const std::size_t jobs = outboxes_.size();
    const std::size_t total = active_.size();
    const std::size_t begin = chunk * total / jobs;
    const std::size_t end = (chunk + 1) * total / jobs;
    std::vector<std::uint32_t>& awake_rounds = core_.result().awake_rounds;
    ob.reset();  // last round's records, already moved from by the scatter
    obs::DeferredMarkScope defer(&ob.marks, &ob.num_sends);
    SyncRunnerContext<Handler> ctx(*this, core_, ob);
    try {
      // Room for every record, so `st` stays valid while its node steps.
      ob.steps.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId u = active_[i];
        SyncStepRecord& st = ob.steps.emplace_back();
        st.node = u;
        ++awake_rounds[u];
        ctx.attach_step(u, &st);
        if (!core_.is_awake(u)) {
          st.woke = true;
          st.cause = adversary_woke(u) ? WakeCause::kAdversary
                                       : WakeCause::kMessage;
          // local_round() must read 1 inside on_wake, so set the base first.
          wake_round_[u] = round_;
          core_.mark_awake_local(u, round_);
          handler_.on_wake(ctx, st.cause);
          ctx.attach_step(u, &st);
        }
        st.delivered = static_cast<std::uint32_t>(inbox_[u].size());
        handler_.on_round(ctx, inbox_[u]);
        inbox_[u].clear();
        st.send_end = static_cast<std::uint32_t>(ob.sends.size());
      }
    } catch (...) {
      ob.error = std::current_exception();
      // The failing step keeps its sends before the throw, for the
      // reduction.
      if (!ob.steps.empty()) {
        ob.steps.back().send_end = static_cast<std::uint32_t>(ob.sends.size());
      }
    }
  }

  void reduce_outboxes() {
    Metrics& metrics = core_.result().metrics;
    TraceSink* trace = core_.trace();
    for (SyncChunkOutbox& ob : outboxes_) {
      auto mark = ob.marks.begin();
      std::uint64_t s = 0;
      for (const SyncStepRecord& st : ob.steps) {
        if (st.woke) core_.account_wake(round_, st.node, st.cause);
        for (; s < st.send_end; ++s) {
          // A mark stamped with seq <= s happened before send s (after
          // send s-1), so it must land before send s's phase attribution.
          while (mark != ob.marks.end() && mark->seq <= s) {
            if (probe_ != nullptr) probe_->replay(*mark);
            ++mark;
          }
          const Message& msg = ob.sends[s].msg;
          core_.account_send(st.node, msg, round_);
          RISE_CHECK_MSG(metrics.messages <= limits_.max_messages,
                         "sync engine exceeded max_messages");
          if (trace != nullptr) {
            const NodeId to = ob.receivers[s];
            trace->on_send(round_, st.node, to, msg);
            // Sleeping model: delivery is conditional on the receiver
            // being awake next round, so run() traces it after the nap
            // filter instead.
            if (!limits_.sleeping_model) {
              trace->on_deliver(round_ + 1, st.node, to, msg);
            }
          }
        }
        // deliveries / received_per_node / last_delivery are commutative
        // counters with no trace or probe hooks, so the step's delivery can
        // be applied after its sends.
        if (st.delivered != 0) {
          core_.account_delivery(st.node, round_, st.delivered);
        }
        if (st.slept) pending_sleep_wakes_[st.sleep_target].push_back(st.node);
        if (st.tick) marks_[st.node] = 1;
      }
      for (; mark != ob.marks.end(); ++mark) {
        if (probe_ != nullptr) probe_->replay(*mark);
      }
      // The failing step was this chunk's last record; every earlier
      // effect in active-set order has now been applied.
      if (ob.error != nullptr) std::rethrow_exception(ob.error);
    }
  }

  void scatter_chunk(std::size_t part) noexcept {
    const std::uint64_t parts = outboxes_.size();
    const auto lo = static_cast<NodeId>(part * n_ / parts);
    const auto width = static_cast<NodeId>((part + 1) * n_ / parts - lo);
    for (SyncChunkOutbox& ob : outboxes_) {
      for (std::size_t i = 0; i < ob.receivers.size(); ++i) {
        const NodeId to = ob.receivers[i];
        if (to - lo >= width) continue;  // another worker's receiver
        next_inbox_[to].emplace_back(ob.sends[i].receiver_port,
                                     std::move(ob.sends[i].msg));
      }
    }
  }

  Handler& handler_;
  EngineCore& core_;
  SyncRunLimits limits_;
  ChunkExecutor* executor_;
  RunWorkspace* workspace_;
  obs::Probe* probe_ = nullptr;

  /// True while u is inside a declared nap: asleep_until_[u] is the round
  /// the nap ends at, and a node with no pending nap has it <= round_.
  bool is_asleep(NodeId u) const { return asleep_until_[u] > round_; }

  Time round_ = 0;
  NodeId n_ = 0;
  std::vector<Time> wake_round_;
  std::vector<Time> asleep_until_;
  std::vector<std::vector<Incoming>> inbox_;
  std::vector<std::vector<Incoming>> next_inbox_;
  /// Flat adversary wake schedule, sorted by (round, node); consumed once
  /// by a cursor. The current round's slice is published for
  /// adversary_woke().
  std::vector<std::pair<Time, NodeId>> wakes_;
  std::size_t wake_cursor_ = 0;
  const std::pair<Time, NodeId>* round_wakes_begin_ = nullptr;
  const std::pair<Time, NodeId>* round_wakes_end_ = nullptr;
  std::vector<NodeId> active_;
  /// One byte per node, set when the node is due in the next sweep (tick
  /// request, adversary wake or nap end); the sweep clears it.
  std::vector<std::uint8_t> marks_;
  std::vector<SyncChunkOutbox> outboxes_;  ///< one per chunk
  /// Nap ends by round; sleeping model only, so a std::map is no cost
  /// elsewhere.
  std::map<Time, std::vector<NodeId>> pending_sleep_wakes_;
};

}  // namespace rise::sim::internal
