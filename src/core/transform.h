// Graph-transformation primitives (§4.4).
//
// The paper's what-if interface: Select tasks of interest, Scale/Shrink their
// durations, Insert or Remove tasks, and pick the schedule policy. Optimization
// models (src/core/optimizations) are built exclusively from these.
//
// The selector builders return TaskQuery values that expose their phase /
// layer / type structure as data, so DependencyGraph::Select can answer from
// its secondary indexes in O(matches). All() merges structure; Any() and
// Not() have no indexable form and compose into the generic residual, and a
// bare lambda still works through the TaskPredicate fallback.
#ifndef SRC_CORE_TRANSFORM_H_
#define SRC_CORE_TRANSFORM_H_

#include <string>
#include <vector>

#include "src/core/dependency_graph.h"

namespace daydream {

// ---- Select queries ----

TaskQuery IsOnGpu();
TaskQuery IsOnCpu();
TaskQuery IsComm();
TaskQuery NameContains(std::string needle);
TaskQuery PhaseIs(Phase phase);
TaskQuery LayerIs(int layer_id);
TaskQuery ApiIs(ApiKind api);
TaskQuery CommIs(CommKind comm);
TaskQuery All(TaskQuery a, TaskQuery b);
TaskQuery Any(TaskQuery a, TaskQuery b);
TaskQuery Not(TaskQuery a);

// GPU tasks of one layer and phase, sorted by measured start time — the
// anchor lookup every layer-structured what-if (Gist, vDNN, P3) performs.
std::vector<TaskId> SelectLayerGpuSortedByStart(const DependencyGraph& graph, int layer_id,
                                                Phase phase);

// Iteration segmentation of a (possibly multi-iteration) profile: ascending
// start markers such that a task belongs to iteration i when
// starts[i] <= task.start < starts[i+1] (the last iteration is unbounded).
// Derived from the GPU phase cycle — a forward-phase task that appears after
// backward/weight-update work opens the next iteration. Single-iteration
// profiles yield one marker. What-ifs that anchor edges on "the last backward"
// or "the first weight update" must resolve those anchors per iteration, or
// they wire edges backward in time on multi-iteration traces.
std::vector<TimeNs> IterationStarts(const DependencyGraph& graph);

// ---- Scale / shrink ----

// Divides the duration of each selected task by `divisor` (> 0). A divisor of
// 2 is the paper's "shrink by 2x"; a divisor of 0.5 doubles the duration.
void ShrinkBy(DependencyGraph* graph, const std::vector<TaskId>& ids, double divisor);
// Multiplies durations by `factor`.
void ScaleBy(DependencyGraph* graph, const std::vector<TaskId>& ids, double factor);
void SetDurations(DependencyGraph* graph, const std::vector<TaskId>& ids, TimeNs duration);

// ---- Remove / insert ----

// Removes every listed task in one batch (DependencyGraph::RemoveTasks);
// already-removed or repeated ids are skipped.
void RemoveAll(DependencyGraph* graph, const std::vector<TaskId>& ids);

// Inserts a GPU task together with its launching CPU task (Figure 4b):
// the CPU launch is spliced after `cpu_anchor` on its CPU thread, the GPU
// task after `gpu_anchor`'s position on `stream`, plus the correlation edge.
// Returns the new GPU task id.
struct InsertedKernel {
  TaskId launch = kInvalidTask;
  TaskId kernel = kInvalidTask;
};
InsertedKernel InsertKernelAfter(DependencyGraph* graph, TaskId cpu_anchor, TaskId gpu_anchor,
                                 Task gpu_task, TimeNs launch_overhead = 7 * kMicrosecond);

// Total duration of the selected tasks (used to size fused replacements).
TimeNs TotalDuration(const DependencyGraph& graph, const std::vector<TaskId>& ids);

}  // namespace daydream

#endif  // SRC_CORE_TRANSFORM_H_
