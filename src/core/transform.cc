#include "src/core/transform.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace daydream {

TaskQuery IsOnGpu() {
  TaskQuery q;
  q.type_mask = TaskTypeBit(TaskType::kGpu);
  return q;
}

TaskQuery IsOnCpu() {
  TaskQuery q;
  q.type_mask = TaskTypeBit(TaskType::kCpu) | TaskTypeBit(TaskType::kDataLoad);
  return q;
}

TaskQuery IsComm() {
  TaskQuery q;
  q.type_mask = TaskTypeBit(TaskType::kComm);
  return q;
}

TaskQuery NameContains(std::string needle) {
  TaskQuery q;
  q.residual.push_back(
      [needle = std::move(needle)](const Task& t) { return StrContains(t.name, needle); });
  return q;
}

TaskQuery PhaseIs(Phase phase) {
  TaskQuery q;
  q.phase = phase;
  return q;
}

TaskQuery LayerIs(int layer_id) {
  TaskQuery q;
  q.layer_id = layer_id;
  return q;
}

TaskQuery ApiIs(ApiKind api) {
  TaskQuery q;
  q.residual.push_back([api](const Task& t) { return t.api == api; });
  return q;
}

TaskQuery CommIs(CommKind comm) {
  TaskQuery q;
  q.type_mask = TaskTypeBit(TaskType::kComm);
  q.residual.push_back([comm](const Task& t) { return t.comm == comm; });
  return q;
}

TaskQuery All(TaskQuery a, TaskQuery b) {
  TaskQuery q = std::move(a);
  q.type_mask &= b.type_mask;
  q.impossible = q.impossible || b.impossible || q.type_mask == 0;
  if (b.phase.has_value()) {
    if (q.phase.has_value() && *q.phase != *b.phase) {
      q.impossible = true;
    }
    q.phase = b.phase;
  }
  if (b.layer_id.has_value()) {
    if (q.layer_id.has_value() && *q.layer_id != *b.layer_id) {
      q.impossible = true;
    }
    q.layer_id = b.layer_id;
  }
  for (TaskPredicate& p : b.residual) {
    q.residual.push_back(std::move(p));
  }
  return q;
}

TaskQuery Any(TaskQuery a, TaskQuery b) {
  // A disjunction has no single-bucket form; evaluate both sides in full.
  TaskQuery q;
  q.residual.push_back([a = std::move(a), b = std::move(b)](const Task& t) {
    return a.Matches(t) || b.Matches(t);
  });
  return q;
}

TaskQuery Not(TaskQuery a) {
  TaskQuery q;
  q.residual.push_back([a = std::move(a)](const Task& t) { return !a.Matches(t); });
  return q;
}

std::vector<TaskId> SelectLayerGpuSortedByStart(const DependencyGraph& graph, int layer_id,
                                                Phase phase) {
  std::vector<TaskId> ids = graph.Select(All(IsOnGpu(), All(LayerIs(layer_id), PhaseIs(phase))));
  std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    return graph.task(a).start < graph.task(b).start;
  });
  return ids;
}

std::vector<TimeNs> IterationStarts(const DependencyGraph& graph) {
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();

  // Single-iteration fast path: when every forward-phase GPU task precedes
  // all backward/weight-update GPU work there is exactly one iteration, and
  // two streaming folds over the phase indexes settle it — no sort, no
  // per-task allocation. This is the shape every sweep case hits at cluster
  // scale (perf_core's distributed-transform floor rides on it).
  TimeNs max_fwd = kMin;
  graph.ForEachSelected(All(IsOnGpu(), PhaseIs(Phase::kForward)),
                        [&](const Task& t) { max_fwd = std::max(max_fwd, t.start); });
  TimeNs min_post = kMax;
  for (const Phase phase : {Phase::kBackward, Phase::kWeightUpdate}) {
    graph.ForEachSelected(All(IsOnGpu(), PhaseIs(phase)),
                          [&](const Task& t) { min_post = std::min(min_post, t.start); });
  }
  if (max_fwd == kMin || min_post == kMax || max_fwd < min_post) {
    return {kMin};
  }

  // Multi-iteration profile (small: P3-style 2-iteration traces): sort the
  // phase-cycle timeline and split on backward->forward transitions.
  std::vector<std::pair<TimeNs, Phase>> gpu;
  graph.ForEachSelected(IsOnGpu(), [&](const Task& t) {
    if (t.phase == Phase::kForward || t.phase == Phase::kBackward ||
        t.phase == Phase::kWeightUpdate) {
      gpu.emplace_back(t.start, t.phase);
    }
  });
  std::sort(gpu.begin(), gpu.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<TimeNs> starts = {kMin};
  bool past_forward = false;
  for (const auto& [start, phase] : gpu) {
    if (phase == Phase::kForward) {
      if (past_forward) {
        starts.push_back(start);
        past_forward = false;
      }
    } else {
      past_forward = true;
    }
  }
  return starts;
}

void ShrinkBy(DependencyGraph* graph, const std::vector<TaskId>& ids, double divisor) {
  DD_CHECK_GT(divisor, 0.0);
  for (TaskId id : ids) {
    Task& t = graph->task(id);
    t.duration = static_cast<TimeNs>(static_cast<double>(t.duration) / divisor);
  }
}

void ScaleBy(DependencyGraph* graph, const std::vector<TaskId>& ids, double factor) {
  DD_CHECK_GT(factor, 0.0);
  ShrinkBy(graph, ids, 1.0 / factor);
}

void SetDurations(DependencyGraph* graph, const std::vector<TaskId>& ids, TimeNs duration) {
  DD_CHECK_GE(duration, 0);
  for (TaskId id : ids) {
    graph->task(id).duration = duration;
  }
}

void RemoveAll(DependencyGraph* graph, const std::vector<TaskId>& ids) {
  graph->RemoveTasks(ids);
}

InsertedKernel InsertKernelAfter(DependencyGraph* graph, TaskId cpu_anchor, TaskId gpu_anchor,
                                 Task gpu_task, TimeNs launch_overhead) {
  DD_CHECK(gpu_task.thread.kind == ExecThread::Kind::kGpuStream);
  Task launch;
  launch.type = TaskType::kCpu;
  launch.api = ApiKind::kLaunchKernel;
  launch.name = StrFormat("cudaLaunchKernel(%s)", gpu_task.name.c_str());
  launch.thread = graph->task(cpu_anchor).thread;
  launch.duration = launch_overhead;
  launch.layer_id = gpu_task.layer_id;
  launch.phase = gpu_task.phase;

  InsertedKernel out;
  out.launch = graph->InsertAfter(cpu_anchor, std::move(launch));
  gpu_task.type = TaskType::kGpu;
  out.kernel = graph->InsertAfter(gpu_anchor, std::move(gpu_task));
  graph->AddEdge(out.launch, out.kernel);
  return out;
}

TimeNs TotalDuration(const DependencyGraph& graph, const std::vector<TaskId>& ids) {
  TimeNs total = 0;
  for (TaskId id : ids) {
    total += graph.task(id).duration;
  }
  return total;
}

}  // namespace daydream
