// Indexed, event-driven implementation of Algorithm 1 over a compiled plan.
//
// A literal transcription re-scans the whole frontier on every dispatch and
// erases from the middle of a vector — O(N·F) on the wide graphs the
// distributed and P3 what-ifs produce. This engine runs over a SimPlan
// (src/core/sim_plan.h): the graph's structure is frozen into SoA/CSR arrays
// and the policy's tie-break into packed integer keys, so one dispatch costs
// O(log F) with no virtual calls and no graph indirection:
//
//   per lane:     now    — ready tasks whose earliest-start bound has already
//                          passed; they are feasible exactly at the lane's
//                          progress, so only the pre-resolved key orders them
//                          (a min-heap of packed uint64 keys).
//                 future — ready tasks still gated by a parent's completion,
//                          ordered by (earliest bound, key). When the lane's
//                          progress advances past a bound the task migrates
//                          to `now` (each task migrates at most once).
//   globally:     one entry per lane — its head task keyed by feasible time
//                 and key — in an ordered index; the minimum is the next
//                 dispatch, exactly the task Algorithm 1's scan would pick.
//
// Dispatching a task touches only its own lane's structures plus the lanes
// of any children it makes ready, so the engine is event-driven in the DES
// sense: dispatch times are non-decreasing and no state is recomputed.
//
// There is one dispatch body, SimPlan::LaneDispatch: a group of lanes' ready
// sets, their head index and the one-task step. SimPlan::Run drains one group
// holding every lane; ShardPlan::Run drives one group per shard through
// synchronization windows. The two differ only in where a released child
// goes — the step takes that routing as an inlined callback.
#include "src/core/sim_plan.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace daydream {
namespace {

// Plan index of a packed order key (upper 32 bits are the policy key).
inline size_t IndexOf(uint64_t packed) { return static_cast<size_t>(packed & 0xffffffffu); }

constexpr TimeNs kInfTime = std::numeric_limits<TimeNs>::max();

// All ready structures are binary min-heaps over plain vectors (std::*_heap
// needs a "greater" comparator for a min-heap): no per-node allocation, and
// every comparison is a plain integer compare on pre-resolved keys.

struct LaneState {
  TimeNs progress = 0;
  TimeNs busy = 0;  // sum of dispatched durations (SimResult::lane_busy)
  std::vector<uint64_t> now;  // packed keys; heap over std::greater
  // (bound, packed key): pair's lexicographic order is exactly (bound, key).
  std::vector<std::pair<TimeNs, uint64_t>> future;
  // Generation stamp for lazy invalidation of head-index entries: bumped on
  // every head change, so stale entries are skipped when they surface.
  uint32_t stamp = 0;
  // Shares the stamp's word: at 72 bytes (80 with the flag after `busy`) the
  // serial drain measured about 8% faster per dispatch.
  bool dispatched_any = false;
};

// One head-index entry: a lane's head task at the time it was pushed.
struct HeadEntry {
  TimeNs feasible = 0;
  uint64_t packed = 0;
  uint32_t lane = 0;
  uint32_t stamp = 0;
};

struct HeadCmp {
  bool operator()(const HeadEntry& a, const HeadEntry& b) const {
    if (a.feasible != b.feasible) {
      return b.feasible < a.feasible;
    }
    return b.packed < a.packed;  // same head, different stamps: order irrelevant
  }
};

// One cross-shard completion: the CSR child to update plus the window entry
// (owned by the target shard) that the source's completion publishes.
struct ShardDelivery {
  int32_t child = 0;
  int32_t window_pos = 0;
  TimeNs end = 0;
};

}  // namespace

// A group of lanes' ready sets and head index, plus the one-task dispatch
// step. Lane indices are local to the group; AddLane maps them to plan lanes.
//
// The per-task state lives in Shared, one per run. Groups of one run share
// it, and each group writes only the entries of tasks on its own lanes.
//
// The members the step runs per task are forced inline: left to the
// compiler, Release and Refresh stayed calls and the serial drain slowed.
class SimPlan::LaneDispatch {
 public:
  struct Shared {
    explicit Shared(const SimPlan& plan)
        : earliest(plan.structure_->task_ids.size(), 0), refs(plan.structure_->pred_count) {
      const Structure& s = *plan.structure_;
      result.start.assign(static_cast<size_t>(s.capacity), -1);
      result.end.assign(static_cast<size_t>(s.capacity), -1);
      result.lane_threads = s.lane_threads;
      result.lane_busy.assign(s.lane_threads.size(), 0);
      result.lane_end.assign(s.lane_threads.size(), -1);
    }

    SimResult result;
    std::vector<TimeNs> earliest;  // latest parent end so far, by plan index
    std::vector<int32_t> refs;     // parents not yet finished, by plan index
  };

  LaneDispatch(const SimPlan& plan, Shared* shared, size_t num_lanes)
      : lane_offset_(plan.structure_->lane_offset.data()),
        task_ids_(plan.structure_->task_ids.data()),
        succ_offset_(plan.structure_->succ_offset.data()),
        succ_(plan.structure_->succ.data()),
        duration_(plan.duration_.data()),
        gap_(plan.gap_.data()),
        order_key_(plan.order_key_.data()),
        earliest_(shared->earliest.data()),
        refs_(shared->refs.data()),
        start_(shared->result.start.data()),
        end_(shared->result.end.data()) {
    lane_ids_.reserve(num_lanes);
    lanes_.reserve(num_lanes);
    heap_.reserve(num_lanes + 16);
  }

  // Adds plan lane `lane` to the group; returns its local index.
  uint32_t AddLane(uint32_t lane) {
    lane_ids_.push_back(lane);
    LaneState& state = lanes_.emplace_back();
    // A lane's ready set never exceeds its task count.
    const size_t lane_tasks = static_cast<size_t>(lane_offset_[lane + 1] - lane_offset_[lane]);
    state.now.reserve(std::min<size_t>(lane_tasks, 64));
    state.future.reserve(std::min<size_t>(lane_tasks, 64));
    return static_cast<uint32_t>(lanes_.size() - 1);
  }

  // An initially ready task: its bound 0 <= progress 0, straight into now.
  void Seed(uint32_t local, size_t idx) { lanes_[local].now.push_back(order_key_[idx]); }

  // Heapifies the seeded ready sets and indexes every lane's head.
  void Start() {
    for (uint32_t li = 0; li < lanes_.size(); ++li) {
      std::make_heap(lanes_[li].now.begin(), lanes_[li].now.end(), std::greater<uint64_t>());
      Refresh(li);
    }
  }

  // The group's next dispatch — the minimal (feasible, key) lane head — or
  // nullptr when every lane is drained. Drops stale index entries on the way.
  [[gnu::always_inline]] const HeadEntry* Next() {
    while (!heap_.empty()) {
      const HeadEntry& top = heap_.front();
      if (top.stamp == lanes_[top.lane].stamp) {
        return &top;
      }
      std::pop_heap(heap_.begin(), heap_.end(), HeadCmp());
      heap_.pop_back();
    }
    return nullptr;
  }

  // Dispatches Next()'s task (Algorithm 1's loop body) and releases its
  // children. route(slot, child, end) returns the local lane of a child this
  // group owns, or -1 once it has handed the child (CSR slot `slot`, parent
  // ending at `end`) elsewhere.
  template <typename Route>
  [[gnu::always_inline]] void DispatchNext(const Route& route) {
    std::pop_heap(heap_.begin(), heap_.end(), HeadCmp());
    const HeadEntry entry = heap_.back();
    heap_.pop_back();
    LaneState& lane = lanes_[entry.lane];
    const size_t idx = IndexOf(entry.packed);
    if (!lane.now.empty()) {
      DD_CHECK_EQ(lane.now.front(), entry.packed);
      std::pop_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
      lane.now.pop_back();
    } else {
      DD_CHECK_EQ(lane.future.front().second, entry.packed);
      std::pop_heap(lane.future.begin(), lane.future.end(),
                    std::greater<std::pair<TimeNs, uint64_t>>());
      lane.future.pop_back();
    }

    const TimeNs start = entry.feasible;
    const TimeNs end = start + duration_[idx];
    const size_t id = static_cast<size_t>(task_ids_[idx]);
    start_[id] = start;
    end_[id] = end;
    lane.progress = end + gap_[idx];  // gap occupies the lane (Alg. 1 line 13)
    lane.dispatched_any = true;
    lane.busy += duration_[idx];
    makespan_ = std::max(makespan_, end);
    ++dispatched_;

    // Bounds the lane just crossed become plain tie-break candidates.
    while (!lane.future.empty() && lane.future.front().first <= lane.progress) {
      const uint64_t migrated = lane.future.front().second;
      std::pop_heap(lane.future.begin(), lane.future.end(),
                    std::greater<std::pair<TimeNs, uint64_t>>());
      lane.future.pop_back();
      lane.now.push_back(migrated);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    }

    const int32_t* child = succ_ + succ_offset_[idx];
    const int32_t* const child_end = succ_ + succ_offset_[idx + 1];
    for (; child != child_end; ++child) {
      const size_t ci = static_cast<size_t>(*child);
      const int32_t cl = route(static_cast<int32_t>(child - succ_), ci, end);
      if (cl >= 0 && Release(ci, end, static_cast<uint32_t>(cl)) &&
          static_cast<uint32_t>(cl) != entry.lane) {
        Refresh(static_cast<uint32_t>(cl));
      }
    }
    Refresh(entry.lane);
  }

  // Counts one finished parent (ending at `end`) of task `ci`, which lives on
  // local lane `local`. Returns true when that was the last parent: `ci` is
  // then in the lane's ready set, and the caller refreshes the lane's head.
  [[gnu::always_inline]] bool Release(size_t ci, TimeNs end, uint32_t local) {
    TimeNs& e = earliest_[ci];
    // Deviation from Algorithm 1 line 16: the trailing gap is CPU-thread-
    // local overhead, so it delays the task's own lane (via progress) but
    // not cross-lane children (a kernel may start right when its launch
    // API returns).
    e = std::max(e, end);
    if (--refs_[ci] != 0) {
      return false;
    }
    LaneState& lane = lanes_[local];
    if (e <= lane.progress) {
      lane.now.push_back(order_key_[ci]);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    } else {
      lane.future.emplace_back(e, order_key_[ci]);
      std::push_heap(lane.future.begin(), lane.future.end(),
                     std::greater<std::pair<TimeNs, uint64_t>>());
    }
    return true;
  }

  // Pushes the lane's current head (if any) and invalidates older entries.
  // Tasks in `now` are feasible at `progress`, which is <= every bound in
  // `future`, so `now`'s head wins whenever it exists.
  [[gnu::always_inline]] void Refresh(uint32_t local) {
    LaneState& lane = lanes_[local];
    ++lane.stamp;
    if (lane.now.empty() && lane.future.empty()) {
      return;
    }
    heap_.push_back(lane.now.empty() ? HeadEntry{lane.future.front().first,
                                                  lane.future.front().second, local, lane.stamp}
                                     : HeadEntry{lane.progress, lane.now.front(), local, lane.stamp});
    std::push_heap(heap_.begin(), heap_.end(), HeadCmp());
  }

  // Adds the group's lane accounting, makespan and dispatch count to `result`.
  void Finish(SimResult* result) const {
    for (size_t li = 0; li < lanes_.size(); ++li) {
      result->lane_busy[lane_ids_[li]] = lanes_[li].busy;
      if (lanes_[li].dispatched_any) {
        result->lane_end[lane_ids_[li]] = lanes_[li].progress;
      }
    }
    result->makespan = std::max(result->makespan, makespan_);
    result->dispatched += dispatched_;
  }

 private:
  // Plan arrays, read-only; indexed by plan index (lane_offset_ by lane).
  const int32_t* lane_offset_;
  const TaskId* task_ids_;
  const int32_t* succ_offset_;
  const int32_t* succ_;
  const TimeNs* duration_;
  const TimeNs* gap_;
  const uint64_t* order_key_;
  // Shared per-task state; start_/end_ are indexed by task id.
  TimeNs* earliest_;
  int32_t* refs_;
  TimeNs* start_;
  TimeNs* end_;

  std::vector<uint32_t> lane_ids_;  // local lane -> plan lane
  std::vector<LaneState> lanes_;
  std::vector<HeadEntry> heap_;
  TimeNs makespan_ = 0;
  int dispatched_ = 0;
};

SimResult SimPlan::Run() const {
  if (empty()) {
    return SimResult{};
  }
  const Structure& s = *structure_;
  LaneDispatch::Shared shared(*this);
  LaneDispatch dispatch(*this, &shared, s.lane_threads.size());
  for (uint32_t lane = 0; lane < s.lane_threads.size(); ++lane) {
    dispatch.AddLane(lane);
  }
  for (const int32_t idx : s.initial_ready) {
    dispatch.Seed(static_cast<uint32_t>(s.lane[static_cast<size_t>(idx)]),
                  static_cast<size_t>(idx));
  }
  dispatch.Start();
  // One group holds every lane, under its plan index: a child stays home.
  const auto route = [&s](int32_t, size_t child, TimeNs) { return s.lane[child]; };
  while (dispatch.Next() != nullptr) {
    dispatch.DispatchNext(route);
  }
  dispatch.Finish(&shared.result);
  DD_CHECK_EQ(shared.result.dispatched, static_cast<int>(s.task_ids.size()))
      << "cycle or disconnected bookkeeping";
  return std::move(shared.result);
}

// ---------------------------------------------------------------------------
// Sharded dispatch: the one dispatch body, run per shard between
// conservative synchronization windows.
//
// Why this is exact and not approximate: a task's simulated start is
// max(lane progress, earliest bound), both of which depend only on the
// *per-lane* dispatch order — never on how dispatches interleave across
// lanes. A shard may therefore dispatch its locally minimal (feasible,
// packed-key) candidate at feasible time f as long as no still-pending
// cross-shard edge could introduce a competitor at or before f. The shard's
// horizon H — the minimum static completion bound over unpublished incoming
// cross-shard edges — guarantees every pending delivery lands with an
// earliest bound >= H, so while f < H (strictly, which settles key ties at
// equal feasible times) the serial engine would have made the identical
// pick. When every shard stalls at its horizon, the globally minimal
// candidate across shards *is* the serial engine's next dispatch: the
// orchestrator dispatches exactly that one task, publishes it, and resumes
// the rounds — so equality holds unconditionally, zero-duration chains and
// bound ties included.
//
// Thread discipline (what makes this TSan-clean without atomics): every
// task, lane, and window entry has one owner shard. During a dispatch round
// a shard writes only its own tasks' result/earliest/refs entries and
// appends to per-(source, target) outboxes; during a delivery round a shard
// drains only the outboxes addressed to it and flips only its own published
// flags. The phases are separated by ParallelFor joins, whose mutex
// publication orders every write before every cross-thread read.
SimResult ShardPlan::Run(ThreadPool* pool, const Deadline* deadline, bool* deadline_hit) const {
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  if (plan_->empty()) {
    return SimResult{};
  }
  const SimPlan::Structure& s = *plan_->structure_;
  const size_t n = s.task_ids.size();
  const int S = num_shards_;
  SimPlan::LaneDispatch::Shared shared(*plan_);

  struct Shard {
    SimPlan::LaneDispatch dispatch;
    size_t window_cursor = 0;  // relative to the shard's window range
    int round_dispatched = 0;
  };
  std::vector<Shard> shards;
  shards.reserve(static_cast<size_t>(S));
  std::vector<uint32_t> local_of_lane(s.lane_threads.size(), 0);
  for (int sh = 0; sh < S; ++sh) {
    const int32_t begin = shard_lane_offset_[static_cast<size_t>(sh)];
    const int32_t end = shard_lane_offset_[static_cast<size_t>(sh) + 1];
    Shard& shard = shards.emplace_back(
        Shard{SimPlan::LaneDispatch(*plan_, &shared, static_cast<size_t>(end - begin))});
    for (int32_t j = begin; j < end; ++j) {
      const uint32_t lane = static_cast<uint32_t>(shard_lanes_[static_cast<size_t>(j)]);
      local_of_lane[lane] = shard.dispatch.AddLane(lane);
    }
  }
  for (const int32_t idx : s.initial_ready) {
    const uint32_t lane = static_cast<uint32_t>(s.lane[static_cast<size_t>(idx)]);
    shards[static_cast<size_t>(shard_of_lane_[lane])].dispatch.Seed(local_of_lane[lane],
                                                                     static_cast<size_t>(idx));
  }
  for (Shard& shard : shards) {
    shard.dispatch.Start();
  }
  // Owner-partitioned: only the shard owning a window entry flips its flag.
  std::vector<uint8_t> published(window_end_.size(), 0);

  // outbox[source * S + target]: completions crossing between two shards this
  // round. Written by the source's dispatch, drained by the target's delivery.
  std::vector<std::vector<ShardDelivery>> outbox(static_cast<size_t>(S) * static_cast<size_t>(S));

  // Shard `sh`'s child routing: its own lanes' children stay home, the rest
  // go to the target shard's outbox.
  auto route_from = [&](int sh) {
    return [&, sh](int32_t slot, size_t child, TimeNs end) -> int32_t {
      const uint32_t lane = static_cast<uint32_t>(s.lane[child]);
      const int32_t target = shard_of_lane_[lane];
      if (target == sh) {
        return static_cast<int32_t>(local_of_lane[lane]);
      }
      outbox[static_cast<size_t>(sh) * static_cast<size_t>(S) + static_cast<size_t>(target)]
          .push_back(ShardDelivery{static_cast<int32_t>(child),
                                   edge_window_pos_[static_cast<size_t>(slot)], end});
      return -1;
    };
  };

  // One dispatch round: advance the horizon over newly published entries,
  // then dispatch while the shard's head is strictly inside it.
  auto dispatch_phase = [&](int sh) {
    Shard& shard = shards[static_cast<size_t>(sh)];
    const size_t wbegin = static_cast<size_t>(window_offset_[static_cast<size_t>(sh)]);
    const size_t wend = static_cast<size_t>(window_offset_[static_cast<size_t>(sh) + 1]);
    while (wbegin + shard.window_cursor < wend && published[wbegin + shard.window_cursor] != 0) {
      ++shard.window_cursor;
    }
    const TimeNs horizon =
        wbegin + shard.window_cursor < wend ? window_end_[wbegin + shard.window_cursor] : kInfTime;
    const auto route = route_from(sh);
    shard.round_dispatched = 0;
    for (const HeadEntry* head = shard.dispatch.Next();
         head != nullptr && head->feasible < horizon; head = shard.dispatch.Next()) {
      shard.dispatch.DispatchNext(route);
      ++shard.round_dispatched;
    }
  };

  // One delivery round: apply every completion addressed to this shard and
  // publish the corresponding window entries.
  auto delivery_phase = [&](int sh) {
    SimPlan::LaneDispatch& dispatch = shards[static_cast<size_t>(sh)].dispatch;
    for (int src = 0; src < S; ++src) {
      std::vector<ShardDelivery>& box =
          outbox[static_cast<size_t>(src) * static_cast<size_t>(S) + static_cast<size_t>(sh)];
      for (const ShardDelivery& d : box) {
        published[static_cast<size_t>(d.window_pos)] = 1;
        const size_t ci = static_cast<size_t>(d.child);
        const uint32_t local = local_of_lane[static_cast<size_t>(s.lane[ci])];
        if (dispatch.Release(ci, d.end, local)) {
          dispatch.Refresh(local);
        }
      }
      box.clear();
    }
  };

  size_t total = 0;
  bool expired = false;
  while (total < n) {
    // Cooperative cancellation between dispatch rounds: a round is the
    // natural quiescent point (no shard mid-phase, outboxes drained), so
    // abandoning here leaves no thread wedged — the result is simply partial
    // and the caller reports deadline_exceeded instead of a makespan.
    if (deadline != nullptr && deadline->Expired()) {
      expired = true;
      break;
    }
    if (pool != nullptr && S > 1) {
      pool->ParallelFor(S, dispatch_phase);
      pool->ParallelFor(S, delivery_phase);
    } else {
      for (int sh = 0; sh < S; ++sh) {
        dispatch_phase(sh);
      }
      for (int sh = 0; sh < S; ++sh) {
        delivery_phase(sh);
      }
    }
    size_t round = 0;
    for (const Shard& shard : shards) {
      round += static_cast<size_t>(shard.round_dispatched);
    }
    total += round;
    if (round != 0 || total >= n) {
      continue;
    }
    // Every shard stalled at its horizon without progress, so nothing moved
    // since the round read each shard's head. The globally minimal head is
    // exactly the serial engine's next dispatch (see the note above):
    // dispatch that single task and publish it immediately — the pool is
    // idle between rounds, so the orchestrator may touch any shard's state.
    int best = -1;
    const HeadEntry* best_head = nullptr;
    for (int sh = 0; sh < S; ++sh) {
      const HeadEntry* head = shards[static_cast<size_t>(sh)].dispatch.Next();
      if (head != nullptr &&
          (best_head == nullptr || head->feasible < best_head->feasible ||
           (head->feasible == best_head->feasible && head->packed < best_head->packed))) {
        best = sh;
        best_head = head;
      }
    }
    DD_CHECK_GE(best, 0) << "sharded dispatch stalled with no candidates";
    shards[static_cast<size_t>(best)].dispatch.DispatchNext(route_from(best));
    for (int sh = 0; sh < S; ++sh) {
      delivery_phase(sh);
    }
    ++total;
  }

  for (const Shard& shard : shards) {
    shard.dispatch.Finish(&shared.result);
  }
  if (deadline_hit != nullptr) {
    *deadline_hit = expired;
  }
  if (!expired) {
    DD_CHECK_EQ(shared.result.dispatched, static_cast<int>(n))
        << "cycle or disconnected bookkeeping";
  }
  return std::move(shared.result);
}

SimResult RunPlanParallel(const SimPlan& plan, int sim_jobs, ThreadPool* pool,
                          const Deadline* deadline, bool* deadline_hit) {
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  if (sim_jobs > 1 && !plan.empty()) {
    const ShardPlan shards = ShardPlan::Compile(plan, sim_jobs);
    // One shard is the serial drain below: the barrier loop would only add
    // its per-round bookkeeping.
    if (shards.num_shards() > 1) {
      if (pool != nullptr) {
        return shards.Run(pool, deadline, deadline_hit);
      }
      ThreadPool local(shards.num_shards() - 1);
      return shards.Run(&local, deadline, deadline_hit);
    }
  }
  if (deadline != nullptr && deadline->Expired()) {
    if (deadline_hit != nullptr) {
      *deadline_hit = true;
    }
    return SimResult{};
  }
  return plan.Run();
}

}  // namespace daydream
