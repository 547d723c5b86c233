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

// Sentinel for "lane has no ready task".
constexpr uint64_t kNoHead = ~uint64_t{0};

// All ready structures are binary min-heaps over plain vectors (std::*_heap
// needs a "greater" comparator for a min-heap): no per-node allocation, and
// every comparison is a plain integer compare on pre-resolved keys.

struct LaneState {
  TimeNs progress = 0;
  bool dispatched_any = false;
  std::vector<uint64_t> now;  // packed keys; heap over std::greater
  // (bound, packed key): pair's lexicographic order is exactly (bound, key).
  std::vector<std::pair<TimeNs, uint64_t>> future;
  // Generation stamp for lazy invalidation of global-index entries: bumped on
  // every head change, so stale entries are skipped when popped.
  uint32_t stamp = 0;
};

// One global-index entry: a lane's head task at the time it was pushed.
struct GlobalEntry {
  TimeNs feasible = 0;
  uint64_t packed = 0;
  uint32_t lane = 0;
  uint32_t stamp = 0;
};

struct GlobalHeapCmp {
  bool operator()(const GlobalEntry& a, const GlobalEntry& b) const {
    if (a.feasible != b.feasible) {
      return b.feasible < a.feasible;
    }
    return b.packed < a.packed;  // same head, different stamps: order irrelevant
  }
};

}  // namespace

SimResult RunEventEngine(const SimPlan& plan) {
  SimResult result;
  if (plan.empty()) {
    return result;
  }
  const SimPlan::Structure& s = *plan.structure_;
  const std::vector<TimeNs>& duration = plan.duration_;
  const std::vector<TimeNs>& gap = plan.gap_;
  const std::vector<uint64_t>& order_key = plan.order_key_;
  const size_t n = s.task_ids.size();

  result.start.assign(static_cast<size_t>(s.capacity), -1);
  result.end.assign(static_cast<size_t>(s.capacity), -1);
  result.lane_threads = s.lane_threads;
  result.lane_busy.assign(s.lane_threads.size(), 0);
  result.lane_end.assign(s.lane_threads.size(), -1);

  std::vector<TimeNs> earliest(n, 0);
  std::vector<int32_t> refs = s.pred_count;

  std::vector<LaneState> lanes(s.lane_threads.size());
  // Per-lane heap capacity: a lane's ready set never exceeds its task count.
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    const size_t lane_tasks = static_cast<size_t>(s.lane_offset[lane + 1] - s.lane_offset[lane]);
    lanes[lane].now.reserve(std::min<size_t>(lane_tasks, 64));
    lanes[lane].future.reserve(std::min<size_t>(lane_tasks, 64));
  }

  auto insert_ready = [&](LaneState& lane, size_t idx, TimeNs bound) {
    if (bound <= lane.progress) {
      lane.now.push_back(order_key[idx]);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    } else {
      lane.future.emplace_back(bound, order_key[idx]);
      std::push_heap(lane.future.begin(), lane.future.end(),
                     std::greater<std::pair<TimeNs, uint64_t>>());
    }
  };

  // The initial ready set: all bounds are 0 <= progress 0, straight into now.
  for (int32_t idx : s.initial_ready) {
    LaneState& lane = lanes[static_cast<size_t>(s.lane[static_cast<size_t>(idx)])];
    lane.now.push_back(order_key[static_cast<size_t>(idx)]);
  }
  for (LaneState& lane : lanes) {
    std::make_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
  }

  // Feasible time + packed key of a lane's next dispatch. Tasks in `now` are
  // feasible at `progress`, which is <= every bound in `future`, so `now`'s
  // head wins whenever it exists.
  auto head = [](const LaneState& lane) -> std::pair<TimeNs, uint64_t> {
    if (!lane.now.empty()) {
      return {lane.progress, lane.now.front()};
    }
    if (!lane.future.empty()) {
      return lane.future.front();
    }
    return {0, kNoHead};
  };

  std::vector<GlobalEntry> global;
  global.reserve(lanes.size() + 16);
  const GlobalHeapCmp global_cmp;
  // Pushes the lane's current head (if any) and invalidates older entries.
  auto refresh = [&](uint32_t li) {
    LaneState& lane = lanes[li];
    ++lane.stamp;
    const auto [feasible, packed] = head(lane);
    if (packed != kNoHead) {
      global.push_back(GlobalEntry{feasible, packed, li, lane.stamp});
      std::push_heap(global.begin(), global.end(), global_cmp);
    }
  };
  for (uint32_t li = 0; li < lanes.size(); ++li) {
    refresh(li);
  }

  while (!global.empty()) {
    std::pop_heap(global.begin(), global.end(), global_cmp);
    const GlobalEntry entry = global.back();
    global.pop_back();
    LaneState& lane = lanes[entry.lane];
    if (entry.stamp != lane.stamp) {
      continue;  // stale: this lane's head changed since the push
    }
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
    const TimeNs end = start + duration[idx];
    const size_t id = static_cast<size_t>(s.task_ids[idx]);
    result.start[id] = start;
    result.end[id] = end;
    lane.progress = end + gap[idx];  // gap occupies the lane (Alg. 1 line 13)
    lane.dispatched_any = true;
    result.lane_busy[entry.lane] += duration[idx];
    result.makespan = std::max(result.makespan, end);
    ++result.dispatched;

    // Bounds the lane just crossed become plain tie-break candidates.
    while (!lane.future.empty() && lane.future.front().first <= lane.progress) {
      const uint64_t migrated = lane.future.front().second;
      std::pop_heap(lane.future.begin(), lane.future.end(),
                    std::greater<std::pair<TimeNs, uint64_t>>());
      lane.future.pop_back();
      lane.now.push_back(migrated);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    }

    const int32_t* child = s.succ.data() + s.succ_offset[idx];
    const int32_t* child_end = s.succ.data() + s.succ_offset[idx + 1];
    for (; child != child_end; ++child) {
      const size_t ci = static_cast<size_t>(*child);
      TimeNs& e = earliest[ci];
      // Deviation from Algorithm 1 line 16: the trailing gap is CPU-thread-
      // local overhead, so it delays the task's own lane (via progress) but
      // not cross-lane children (a kernel may start right when its launch
      // API returns).
      e = std::max(e, end);
      if (--refs[ci] == 0) {
        const uint32_t cl = static_cast<uint32_t>(s.lane[ci]);
        insert_ready(lanes[cl], ci, e);
        if (cl != entry.lane) {
          refresh(cl);
        }
      }
    }
    refresh(entry.lane);
  }

  for (size_t li = 0; li < lanes.size(); ++li) {
    if (lanes[li].dispatched_any) {
      result.lane_end[li] = lanes[li].progress;
    }
  }
  DD_CHECK_EQ(result.dispatched, static_cast<int>(n)) << "cycle or disconnected bookkeeping";
  return result;
}

// ---------------------------------------------------------------------------
// Sharded dispatch: the serial engine's loop, run per shard between
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

namespace {

constexpr TimeNs kInfTime = std::numeric_limits<TimeNs>::max();

// One cross-shard completion: the CSR child to update plus the window entry
// (owned by the target shard) that the source's completion publishes.
struct ShardDelivery {
  int32_t child = 0;
  int32_t window_pos = 0;
  TimeNs end = 0;
};

// Per-shard engine state: the serial engine's lane/heap structures,
// restricted to the shard's lanes (heap entries hold *local* lane indices).
struct ShardEngineState {
  std::vector<uint32_t> lane_ids;  // local lane index -> global lane
  std::vector<LaneState> lanes;
  std::vector<GlobalEntry> heap;
  size_t window_cursor = 0;  // relative to the shard's window range
  // Head candidate recorded when the shard stalls at its horizon.
  TimeNs cand_feasible = 0;
  uint64_t cand_packed = kNoHead;
  int round_dispatched = 0;
  TimeNs makespan = 0;
  int dispatched = 0;
};

}  // namespace

SimResult RunShardedEngine(const ShardPlan& shards, ThreadPool* pool, const Deadline* deadline,
                           bool* deadline_hit) {
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  const SimPlan& plan = *shards.plan_;
  SimResult result;
  if (plan.empty()) {
    return result;
  }
  const SimPlan::Structure& s = *plan.structure_;
  const std::vector<TimeNs>& duration = plan.duration_;
  const std::vector<TimeNs>& gap = plan.gap_;
  const std::vector<uint64_t>& order_key = plan.order_key_;
  const size_t n = s.task_ids.size();
  const int S = shards.num_shards_;

  result.start.assign(static_cast<size_t>(s.capacity), -1);
  result.end.assign(static_cast<size_t>(s.capacity), -1);
  result.lane_threads = s.lane_threads;
  result.lane_busy.assign(s.lane_threads.size(), 0);
  result.lane_end.assign(s.lane_threads.size(), -1);
  if (n == 0) {
    return result;
  }

  // Owner-partitioned shared arrays: only the shard owning a task writes its
  // entries (see the thread-discipline note above).
  std::vector<TimeNs> earliest(n, 0);
  std::vector<int32_t> refs = s.pred_count;
  std::vector<uint8_t> published(shards.window_end_.size(), 0);

  std::vector<int32_t> local_of_lane(s.lane_threads.size(), -1);
  std::vector<ShardEngineState> st(static_cast<size_t>(S));
  for (int sh = 0; sh < S; ++sh) {
    ShardEngineState& ss = st[static_cast<size_t>(sh)];
    const int32_t begin = shards.shard_lane_offset_[static_cast<size_t>(sh)];
    const int32_t end = shards.shard_lane_offset_[static_cast<size_t>(sh) + 1];
    ss.lane_ids.reserve(static_cast<size_t>(end - begin));
    ss.lanes.resize(static_cast<size_t>(end - begin));
    for (int32_t j = begin; j < end; ++j) {
      const uint32_t lane = static_cast<uint32_t>(shards.shard_lanes_[static_cast<size_t>(j)]);
      local_of_lane[lane] = static_cast<int32_t>(ss.lane_ids.size());
      ss.lane_ids.push_back(lane);
      const size_t lane_tasks = static_cast<size_t>(s.lane_offset[lane + 1] - s.lane_offset[lane]);
      LaneState& state = ss.lanes[ss.lane_ids.size() - 1];
      state.now.reserve(std::min<size_t>(lane_tasks, 64));
      state.future.reserve(std::min<size_t>(lane_tasks, 64));
    }
    ss.heap.reserve(ss.lanes.size() + 16);
  }

  auto insert_ready = [&](LaneState& lane, size_t idx, TimeNs bound) {
    if (bound <= lane.progress) {
      lane.now.push_back(order_key[idx]);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    } else {
      lane.future.emplace_back(bound, order_key[idx]);
      std::push_heap(lane.future.begin(), lane.future.end(),
                     std::greater<std::pair<TimeNs, uint64_t>>());
    }
  };
  auto head = [](const LaneState& lane) -> std::pair<TimeNs, uint64_t> {
    if (!lane.now.empty()) {
      return {lane.progress, lane.now.front()};
    }
    if (!lane.future.empty()) {
      return lane.future.front();
    }
    return {0, kNoHead};
  };
  const GlobalHeapCmp heap_cmp;
  auto refresh = [&](ShardEngineState& ss, uint32_t local_lane) {
    LaneState& lane = ss.lanes[local_lane];
    ++lane.stamp;
    const auto [feasible, packed] = head(lane);
    if (packed != kNoHead) {
      ss.heap.push_back(GlobalEntry{feasible, packed, local_lane, lane.stamp});
      std::push_heap(ss.heap.begin(), ss.heap.end(), heap_cmp);
    }
  };

  for (const int32_t idx : s.initial_ready) {
    const uint32_t lane = static_cast<uint32_t>(s.lane[static_cast<size_t>(idx)]);
    ShardEngineState& ss = st[static_cast<size_t>(shards.shard_of_lane_[lane])];
    ss.lanes[static_cast<size_t>(local_of_lane[lane])].now.push_back(
        order_key[static_cast<size_t>(idx)]);
  }
  for (ShardEngineState& ss : st) {
    for (uint32_t li = 0; li < ss.lanes.size(); ++li) {
      std::make_heap(ss.lanes[li].now.begin(), ss.lanes[li].now.end(), std::greater<uint64_t>());
      refresh(ss, li);
    }
  }

  // outbox[source * S + target]: completions crossing between two shards this
  // round. Written by the source's dispatch, drained by the target's delivery.
  std::vector<std::vector<ShardDelivery>> outbox(static_cast<size_t>(S) * static_cast<size_t>(S));

  // Dispatches one popped-and-fresh heap entry; the serial engine's dispatch
  // body with cross-shard children routed to the outboxes.
  auto dispatch_entry = [&](int sh, const GlobalEntry& entry) {
    ShardEngineState& ss = st[static_cast<size_t>(sh)];
    LaneState& lane = ss.lanes[entry.lane];
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
    const TimeNs end = start + duration[idx];
    const size_t id = static_cast<size_t>(s.task_ids[idx]);
    result.start[id] = start;
    result.end[id] = end;
    lane.progress = end + gap[idx];
    lane.dispatched_any = true;
    result.lane_busy[ss.lane_ids[entry.lane]] += duration[idx];
    ss.makespan = std::max(ss.makespan, end);
    ++ss.dispatched;

    while (!lane.future.empty() && lane.future.front().first <= lane.progress) {
      const uint64_t migrated = lane.future.front().second;
      std::pop_heap(lane.future.begin(), lane.future.end(),
                    std::greater<std::pair<TimeNs, uint64_t>>());
      lane.future.pop_back();
      lane.now.push_back(migrated);
      std::push_heap(lane.now.begin(), lane.now.end(), std::greater<uint64_t>());
    }

    for (int32_t k = s.succ_offset[idx]; k < s.succ_offset[idx + 1]; ++k) {
      const size_t ci = static_cast<size_t>(s.succ[static_cast<size_t>(k)]);
      const uint32_t cl = static_cast<uint32_t>(s.lane[ci]);
      const int32_t cs = shards.shard_of_lane_[cl];
      if (cs != sh) {
        outbox[static_cast<size_t>(sh) * static_cast<size_t>(S) + static_cast<size_t>(cs)]
            .push_back(ShardDelivery{static_cast<int32_t>(ci), shards.edge_window_pos_[static_cast<size_t>(k)], end});
        continue;
      }
      TimeNs& e = earliest[ci];
      e = std::max(e, end);
      if (--refs[ci] == 0) {
        const uint32_t local = static_cast<uint32_t>(local_of_lane[cl]);
        insert_ready(ss.lanes[local], ci, e);
        if (local != entry.lane) {
          refresh(ss, local);
        }
      }
    }
    refresh(ss, entry.lane);
  };

  // One dispatch round: advance the horizon over newly published entries,
  // then drain the shard's heap while the head is strictly inside it.
  auto dispatch_phase = [&](int sh) {
    ShardEngineState& ss = st[static_cast<size_t>(sh)];
    const size_t wbegin = static_cast<size_t>(shards.window_offset_[static_cast<size_t>(sh)]);
    const size_t wend = static_cast<size_t>(shards.window_offset_[static_cast<size_t>(sh) + 1]);
    while (wbegin + ss.window_cursor < wend && published[wbegin + ss.window_cursor] != 0) {
      ++ss.window_cursor;
    }
    const TimeNs horizon =
        wbegin + ss.window_cursor < wend ? shards.window_end_[wbegin + ss.window_cursor] : kInfTime;
    ss.round_dispatched = 0;
    ss.cand_packed = kNoHead;
    while (!ss.heap.empty()) {
      std::pop_heap(ss.heap.begin(), ss.heap.end(), heap_cmp);
      const GlobalEntry entry = ss.heap.back();
      ss.heap.pop_back();
      if (entry.stamp != ss.lanes[entry.lane].stamp) {
        continue;
      }
      if (entry.feasible >= horizon) {
        // Stalled at the window: remember the head for the stall fallback and
        // put the (still fresh) entry back.
        ss.cand_feasible = entry.feasible;
        ss.cand_packed = entry.packed;
        ss.heap.push_back(entry);
        std::push_heap(ss.heap.begin(), ss.heap.end(), heap_cmp);
        break;
      }
      dispatch_entry(sh, entry);
      ++ss.round_dispatched;
    }
  };

  // One delivery round: apply every completion addressed to this shard and
  // publish the corresponding window entries.
  auto delivery_phase = [&](int sh) {
    ShardEngineState& ss = st[static_cast<size_t>(sh)];
    for (int src = 0; src < S; ++src) {
      std::vector<ShardDelivery>& box =
          outbox[static_cast<size_t>(src) * static_cast<size_t>(S) + static_cast<size_t>(sh)];
      for (const ShardDelivery& d : box) {
        published[static_cast<size_t>(d.window_pos)] = 1;
        const size_t ci = static_cast<size_t>(d.child);
        TimeNs& e = earliest[ci];
        e = std::max(e, d.end);
        if (--refs[ci] == 0) {
          const uint32_t local =
              static_cast<uint32_t>(local_of_lane[static_cast<size_t>(s.lane[ci])]);
          insert_ready(ss.lanes[local], ci, e);
          refresh(ss, local);
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
    for (const ShardEngineState& ss : st) {
      round += static_cast<size_t>(ss.round_dispatched);
    }
    total += round;
    if (round != 0 || total >= n) {
      continue;
    }
    // Every shard stalled at its horizon without progress. The globally
    // minimal candidate is exactly the serial engine's next dispatch (see the
    // header note): dispatch that single task and publish it immediately —
    // the pool is idle between rounds, so the orchestrator may touch any
    // shard's state.
    int best = -1;
    for (int sh = 0; sh < S; ++sh) {
      const ShardEngineState& ss = st[static_cast<size_t>(sh)];
      if (ss.cand_packed == kNoHead) {
        continue;
      }
      if (best < 0 || ss.cand_feasible < st[static_cast<size_t>(best)].cand_feasible ||
          (ss.cand_feasible == st[static_cast<size_t>(best)].cand_feasible &&
           ss.cand_packed < st[static_cast<size_t>(best)].cand_packed)) {
        best = sh;
      }
    }
    DD_CHECK_GE(best, 0) << "sharded dispatch stalled with no candidates";
    ShardEngineState& ss = st[static_cast<size_t>(best)];
    while (true) {
      DD_CHECK(!ss.heap.empty());
      std::pop_heap(ss.heap.begin(), ss.heap.end(), heap_cmp);
      const GlobalEntry entry = ss.heap.back();
      ss.heap.pop_back();
      if (entry.stamp != ss.lanes[entry.lane].stamp) {
        continue;  // stale leftovers may still sort ahead of the fresh head
      }
      DD_CHECK_EQ(entry.packed, ss.cand_packed);
      dispatch_entry(best, entry);
      break;
    }
    for (int sh = 0; sh < S; ++sh) {
      delivery_phase(sh);
    }
    ++total;
  }

  for (const ShardEngineState& ss : st) {
    result.makespan = std::max(result.makespan, ss.makespan);
    result.dispatched += ss.dispatched;
    for (size_t li = 0; li < ss.lanes.size(); ++li) {
      if (ss.lanes[li].dispatched_any) {
        result.lane_end[ss.lane_ids[li]] = ss.lanes[li].progress;
      }
    }
  }
  if (deadline_hit != nullptr) {
    *deadline_hit = expired;
  }
  if (!expired) {
    DD_CHECK_EQ(result.dispatched, static_cast<int>(n)) << "cycle or disconnected bookkeeping";
  }
  return result;
}

SimResult RunPlanParallel(const SimPlan& plan, int sim_jobs, ThreadPool* pool,
                          const Deadline* deadline, bool* deadline_hit) {
  if (deadline_hit != nullptr) {
    *deadline_hit = false;
  }
  if (sim_jobs <= 1 || plan.empty()) {
    if (deadline != nullptr && deadline->Expired()) {
      if (deadline_hit != nullptr) {
        *deadline_hit = true;
      }
      return SimResult{};
    }
    return plan.Run();
  }
  const ShardPlan shards = ShardPlan::Compile(plan, sim_jobs);
  if (pool != nullptr || shards.num_shards() <= 1) {
    return shards.Run(pool, deadline, deadline_hit);
  }
  ThreadPool local(shards.num_shards() - 1);
  return shards.Run(&local, deadline, deadline_hit);
}

}  // namespace daydream
