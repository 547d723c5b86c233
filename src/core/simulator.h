// Runtime simulation over the dependency graph — the paper's Algorithm 1.
//
// Traverses the graph, dispatching ready ("frontier") tasks onto their
// execution threads, advancing per-thread progress by duration + gap, and
// propagating completion times to children. The schedule() choice of which
// frontier task to dispatch first is a SchedulePolicy: the default picks the
// task that can start earliest (the paper's default); P3 breaks ties among
// communication tasks by priority (§4.4 "Schedule", appendix Algorithm 7).
//
// One engine implements the traversal: the graph is frozen into an immutable
// structure-of-arrays / CSR SimPlan (src/core/sim_plan.h) with the policy
// lowered to one integer key per task, then dispatched with an O(log F)
// indexed ready set (src/core/event_engine.cc) — the hot loop does no virtual
// calls and no node-object indirection.
#ifndef SRC_CORE_SIMULATOR_H_
#define SRC_CORE_SIMULATOR_H_

#include <vector>

#include "src/core/dependency_graph.h"

namespace daydream {

class SimPlan;

struct SimResult {
  TimeNs makespan = 0;
  // Simulated start/end time per task id (dead tasks keep -1). Indexable by
  // graph.capacity().
  std::vector<TimeNs> start;
  std::vector<TimeNs> end;
  // Flat per-lane accounting, indexed by the graph's interned lane table
  // (lane_threads mirrors lane -> ExecThread): busy is the sum of dispatched
  // durations, end the lane's final progress (duration + trailing gap of the
  // last task). Lanes that never dispatched keep busy 0 and end -1.
  std::vector<ExecThread> lane_threads;
  std::vector<TimeNs> lane_busy;
  std::vector<TimeNs> lane_end;
  int dispatched = 0;

  TimeNs EndOf(TaskId id) const;
};

// Which frontier task dispatches first. Both policies pick the task with the
// earliest feasible time (max of its lane's progress and its parents'
// completions); they differ only in how ties at the same instant break:
//   kEarliestStart: ascending task id (the paper's default).
//   kPriorityComm:  P3 — effective priority descending, then task id, where
//                   the effective priority is Task::priority for
//                   communication tasks and 0 for everything else. (A scan
//                   that compared priorities only between two comm tasks
//                   would not be a strict weak ordering when comm and
//                   non-comm tasks tie; on graphs whose comm tasks live on
//                   comm channels — every producer in this repo — it picks
//                   the same schedule.)
enum class SchedulePolicy { kEarliestStart, kPriorityComm };

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(SchedulePolicy policy) : policy_(policy) {}

  // Compiles `graph` and dispatches the plan.
  SimResult Run(const DependencyGraph& graph) const;

  // Freezes `graph` into an immutable plan for this simulator's policy.
  // `donor` optionally shares a previously compiled plan: when `graph` has
  // the donor's structure (equal DependencyGraph::structure_stamp()), only
  // the timing/key arrays are rebuilt and the CSR structure block is reused.
  SimPlan Compile(const DependencyGraph& graph, const SimPlan* donor = nullptr) const;

  SchedulePolicy policy() const { return policy_; }

 private:
  SchedulePolicy policy_ = SchedulePolicy::kEarliestStart;
};

}  // namespace daydream

#endif  // SRC_CORE_SIMULATOR_H_
