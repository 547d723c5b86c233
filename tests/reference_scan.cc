#include "tests/reference_scan.h"

#include <algorithm>
#include <vector>

#include "src/util/logging.h"

namespace daydream {

SimResult ReferenceScan(const DependencyGraph& graph, SchedulePolicy policy) {
  const size_t capacity = static_cast<size_t>(graph.capacity());
  const size_t num_lanes = static_cast<size_t>(graph.num_lanes());
  SimResult result;
  result.start.assign(capacity, -1);
  result.end.assign(capacity, -1);
  for (int lane = 0; lane < graph.num_lanes(); ++lane) {
    result.lane_threads.push_back(graph.lane_thread(lane));
  }
  result.lane_busy.assign(num_lanes, 0);
  result.lane_end.assign(num_lanes, -1);

  std::vector<TimeNs> earliest(capacity, 0);
  std::vector<int> refs(capacity, 0);
  std::vector<TimeNs> progress(num_lanes, 0);
  std::vector<bool> dispatched_any(num_lanes, false);

  std::vector<TaskId> frontier;
  for (TaskId id : graph.AliveTasks()) {
    refs[static_cast<size_t>(id)] = static_cast<int>(graph.parents(id).size());
    if (refs[static_cast<size_t>(id)] == 0) {
      frontier.push_back(id);
    }
  }

  auto feasible = [&](TaskId id) {
    return std::max(progress[static_cast<size_t>(graph.lane_of(id))],
                    earliest[static_cast<size_t>(id)]);
  };
  auto effective_priority = [&](TaskId id) {
    const Task& task = graph.task(id);
    return policy == SchedulePolicy::kPriorityComm && task.is_comm() ? task.priority : 0;
  };
  // schedule()'s tie-break among tasks feasible at the same instant: higher
  // effective priority first, then lower id.
  auto tie_before = [&](TaskId a, TaskId b) {
    const int pa = effective_priority(a);
    const int pb = effective_priority(b);
    return pa != pb ? pa > pb : a < b;
  };

  while (!frontier.empty()) {
    size_t pick = 0;
    TimeNs pick_time = feasible(frontier[0]);
    for (size_t i = 1; i < frontier.size(); ++i) {
      const TimeNs t = feasible(frontier[i]);
      if (t < pick_time || (t == pick_time && tie_before(frontier[i], frontier[pick]))) {
        pick = i;
        pick_time = t;
      }
    }
    const TaskId id = frontier[pick];
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(pick));

    const Task& task = graph.task(id);
    const size_t lane = static_cast<size_t>(graph.lane_of(id));
    const TimeNs start = pick_time;
    const TimeNs end = start + task.duration;
    result.start[static_cast<size_t>(id)] = start;
    result.end[static_cast<size_t>(id)] = end;
    progress[lane] = end + task.gap;  // the gap occupies the thread (Alg. 1 line 13)
    dispatched_any[lane] = true;
    result.lane_busy[lane] += task.duration;
    result.makespan = std::max(result.makespan, end);
    ++result.dispatched;

    for (TaskId child : graph.children(id)) {
      // Deviation from Algorithm 1 line 16: the trailing gap is CPU-thread-
      // local overhead, so cross-thread children may start at `end`.
      TimeNs& bound = earliest[static_cast<size_t>(child)];
      bound = std::max(bound, end);
      if (--refs[static_cast<size_t>(child)] == 0) {
        frontier.push_back(child);
      }
    }
  }

  for (size_t lane = 0; lane < num_lanes; ++lane) {
    if (dispatched_any[lane]) {
      result.lane_end[lane] = progress[lane];
    }
  }
  DD_CHECK_EQ(result.dispatched, graph.num_alive()) << "cycle or disconnected bookkeeping";
  return result;
}

}  // namespace daydream
