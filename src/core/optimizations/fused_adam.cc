#include "src/core/optimizations/fused_adam.h"

#include <algorithm>

#include "src/core/transform.h"
#include "src/util/logging.h"

namespace daydream {

void WhatIfFusedAdam(DependencyGraph* graph) {
  const std::vector<TaskId> wu_gpu =
      graph->Select(All(IsOnGpu(), PhaseIs(Phase::kWeightUpdate)));
  if (wu_gpu.empty()) {
    return;
  }
  // §5.1: the fused kernel's duration is "roughly estimated by the sum of all
  // removed compute-intensive kernels". Adam's pointwise chain is memory
  // bound, so the estimate is dominated by the floor — fusing collapses 13
  // redundant passes into one; what the estimate misses (the single remaining
  // traffic pass) is a deliberate source of prediction error (§7.4).
  const TimeNs fused_duration =
      TotalDuration(*graph, graph->Select(All(
                                All(IsOnGpu(), PhaseIs(Phase::kWeightUpdate)),
                                Any(NameContains("sgemm"), NameContains("scudnn"))))) +
      50 * kMicrosecond;

  // Keep the first weight-update kernel (in measured order) as the fused
  // kernel; its launching CPU task stays as the single remaining launch.
  TaskId kept = wu_gpu.front();
  for (TaskId id : wu_gpu) {
    if (graph->task(id).start < graph->task(kept).start) {
      kept = id;
    }
  }
  Task& fused = graph->task(kept);
  fused.name = "multi_tensor_apply_adam_fused";
  fused.duration = fused_duration;
  fused.layer_id = -1;  // spans every layer

  TaskId kept_launch = kInvalidTask;
  for (TaskId p : graph->parents(kept)) {
    const Task& parent = graph->task(p);
    if (parent.is_cpu() && parent.api == ApiKind::kLaunchKernel) {
      kept_launch = p;
      break;
    }
  }
  DD_CHECK_NE(kept_launch, kInvalidTask) << "fused kernel has no launching CPU task";

  // Every other weight-update kernel and CPU task goes in one batch removal.
  std::vector<TaskId> doomed = wu_gpu;
  std::erase(doomed, kept);
  for (TaskId id : graph->Select(All(IsOnCpu(), PhaseIs(Phase::kWeightUpdate)))) {
    if (id != kept_launch) {
      doomed.push_back(id);
    }
  }
  RemoveAll(graph, doomed);
}

}  // namespace daydream
