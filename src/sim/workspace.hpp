// Reusable per-worker run storage.
//
// A campaign runs thousands of engine instances back to back; constructing
// each one from scratch re-allocates the same node-indexed vectors, channel
// tables, event-queue calendar and result buffers every time. A RunWorkspace
// owns that storage between runs: engines constructed with a workspace move
// the vectors in, size them with assign()/resize() (which reuse capacity),
// and move them back out on destruction — so steady-state trials on a fixed
// topology perform near-zero heap allocations outside the algorithm itself.
// The algorithm's per-node state — a family's flat States, or the Processes
// of a make_kernel(ProcessAlgorithm{...}) handle — is recycled the same
// way, through one type-tagged handler slot.
//
// A workspace is single-threaded state: it must only ever be used by one
// engine at a time, on one thread (the campaign runner keeps one per worker
// thread). Reusing a workspace never changes results — a run with a dirty
// workspace is bit-identical to one with a fresh engine, which
// test_sim_workspace pins across engines, queue backends and algorithms.
#pragma once

#include <exception>
#include <memory>
#include <typeinfo>
#include <utility>
#include <vector>

#include "obs/probe.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace rise::sim {

/// Per-directed-channel state, indexed by Instance::directed_edge_id — a
/// flat array lookup where the engine previously hashed a (from, to) key.
struct ChannelState {
  std::uint64_t msg_index = 0;  // messages sent so far on this channel
  Time last_delivery = 0;       // FIFO clamp
};

/// One send recorded by a sync round chunk (SyncRunner::step_chunk); its
/// receiver is the matching SyncChunkOutbox::receivers entry. The
/// sequential reduction reads `msg` for accounting/tracing; the scatter
/// pass then moves it into the receiver's inbox.
struct SyncSendRecord {
  Port receiver_port = kInvalidPort;
  Message msg;
};

/// Everything one stepped node did during a sync round chunk, in step
/// order. The sequential reduction replays these records to apply metrics,
/// trace events, tick requests, and nap registrations in active-set order.
struct SyncStepRecord {
  NodeId node = 0;
  WakeCause cause = WakeCause::kAdversary;
  bool woke = false;
  bool tick = false;
  bool slept = false;
  Time sleep_target = 0;
  std::uint32_t delivered = 0;  ///< inbox size when stepped
  std::uint32_t send_end = 0;   ///< this step's sends end here in `sends`
};

/// Per-chunk output of one sync round. Pooled in RunWorkspace so
/// steady-state rounds allocate nothing: every vector keeps its high-water
/// capacity across rounds and trials.
struct SyncChunkOutbox {
  std::vector<SyncSendRecord> sends;  ///< in the chunk's send order
  /// The receiver of sends[i], kept apart so each scatter worker can scan
  /// for the receivers it owns without touching the others' records.
  std::vector<NodeId> receivers;
  std::vector<SyncStepRecord> steps;
  std::vector<obs::DeferredMark> marks;  ///< deferred probe mutations
  std::uint64_t num_sends = 0;  ///< == sends.size(); mark seq source
  std::exception_ptr error;     ///< first failure in this chunk

  void reset() {
    sends.clear();
    receivers.clear();
    steps.clear();
    marks.clear();
    num_sends = 0;
    error = nullptr;
  }
};

struct RunWorkspace {
  // EngineCore storage (both engines).
  std::vector<Rng> rngs;
  std::vector<std::uint8_t> awake;
  RunResult result;  ///< recycled result buffers; see recycle_result()

  // Asynchronous engine storage.
  std::vector<ChannelState> channels;
  EventQueue events;

  // Synchronous engine storage.
  std::vector<Time> wake_round;
  std::vector<Time> asleep_until;  // sleeping model (declared naps)
  std::vector<std::vector<Incoming>> inbox;
  std::vector<std::vector<Incoming>> next_inbox;
  std::vector<std::pair<Time, NodeId>> sync_wakes;  // flat wake schedule
  std::vector<NodeId> sync_active;                  // per-round active set
  std::vector<std::uint8_t> sync_marks;             // per-node "due" marks
  std::vector<SyncChunkOutbox> sync_outboxes;       // one per round chunk

  // Handler storage (sim/kernel.hpp): one type-tagged slot holding the
  // current algorithm type's node-state vector — a family's flat States, or
  // the Processes of a ProcessAlgorithm handle — so back-to-back runs of
  // the same type reuse its capacity. Switching types replaces the slot
  // (campaigns run one family per campaign, so this never thrashes in
  // practice).
  std::shared_ptr<void> kernel_state;
  const std::type_info* kernel_state_type = nullptr;

  /// Returns a finished run's per-node vectors (wake times, outputs, metrics
  /// counters) to the workspace so the next engine reuses their capacity.
  /// Call after extracting everything you need from the result.
  void recycle_result(RunResult&& finished) { result = std::move(finished); }
};

}  // namespace rise::sim
