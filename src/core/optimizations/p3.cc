#include "src/core/optimizations/p3.h"

#include <algorithm>
#include <map>

#include "src/core/simulator.h"
#include "src/core/transform.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

TimeNs SliceWireTime(int64_t bytes, const PsWhatIf& options) {
  const double bytes_per_ns = options.network.nic_bytes_per_ns() * options.bandwidth_share;
  return static_cast<TimeNs>(static_cast<double>(bytes) / bytes_per_ns) +
         options.network.inter_node_latency;
}

}  // namespace

void WhatIfP3(DependencyGraph* graph, const ModelGraph& model, const PsWhatIf& options) {
  // Worker-side weight update is replaced by the server-side update.
  RemoveAll(graph, graph->Select(PhaseIs(Phase::kWeightUpdate)));

  const std::vector<PsSlice> slices =
      options.slice_bytes > 0 ? P3Slices(model, options.num_servers, options.slice_bytes)
                              : WholeTensorSlices(model, options.num_servers);
  std::map<int, std::vector<PsSlice>> by_layer;
  for (const PsSlice& s : slices) {
    by_layer[s.layer_id].push_back(s);
  }

  for (const Layer& layer : model.layers()) {
    if (!layer.has_params()) {
      continue;
    }
    const std::vector<TaskId> bwd = SelectLayerGpuSortedByStart(*graph, layer.id, Phase::kBackward);
    const std::vector<TaskId> fwd = SelectLayerGpuSortedByStart(*graph, layer.id, Phase::kForward);
    if (bwd.empty() || fwd.empty()) {
      continue;
    }
    // Two profiled iterations: gradients produced by iteration 1's backward
    // feed iteration 2's forward. With identical per-iteration programs the
    // first half of the sorted tasks belongs to iteration 1.
    DD_CHECK_EQ(bwd.size() % 2, 0u) << "P3 modeling requires a 2-iteration profile";
    DD_CHECK_EQ(fwd.size() % 2, 0u);
    const TaskId grads_ready = bwd[bwd.size() / 2 - 1];   // last bwd GPU task, iter 1
    const TaskId weights_needed = fwd[fwd.size() / 2];    // first fwd GPU task, iter 2

    for (const PsSlice& slice : by_layer[layer.id]) {
      Task push;
      push.type = TaskType::kComm;
      push.comm = CommKind::kPush;
      push.name = StrFormat("push_layer%d_slice%d", slice.layer_id, slice.slice_index);
      push.thread = ExecThread::Comm(kPushChannel);
      push.duration = SliceWireTime(slice.bytes, options);
      push.bytes = slice.bytes;
      push.priority = options.prioritize ? slice.priority : 0;
      push.phase = Phase::kBackward;
      const TaskId push_id = graph->AddTask(std::move(push));

      Task pull;
      pull.type = TaskType::kComm;
      pull.comm = CommKind::kPull;
      pull.name = StrFormat("pull_layer%d_slice%d", slice.layer_id, slice.slice_index);
      pull.thread = ExecThread::Comm(kPullChannel);
      pull.duration = SliceWireTime(slice.bytes, options);
      pull.bytes = slice.bytes;
      pull.priority = options.prioritize ? slice.priority : 0;
      pull.phase = Phase::kForward;
      const TaskId pull_id = graph->AddTask(std::move(pull));

      graph->AddEdge(grads_ready, push_id);
      graph->AddEdge(push_id, pull_id);
      graph->AddEdge(pull_id, weights_needed);
    }
  }
}

TimeNs PredictPsIterationTime(const Daydream& daydream, const ModelGraph& model,
                              const PsWhatIf& options) {
  DependencyGraph graph = daydream.CloneGraph();

  // Iteration boundaries: the per-iteration cudaDeviceSynchronize tasks.
  std::vector<TaskId> boundaries =
      graph.Select(All(ApiIs(ApiKind::kDeviceSynchronize), NameContains("iter_end")));
  std::sort(boundaries.begin(), boundaries.end(), [&](TaskId a, TaskId b) {
    return graph.task(a).start < graph.task(b).start;
  });
  DD_CHECK_EQ(boundaries.size(), 2u) << "PS prediction requires a 2-iteration profile";

  WhatIfP3(&graph, model, options);

  const SimResult sim = Simulator(options.prioritize ? SchedulePolicy::kPriorityComm
                                                     : SchedulePolicy::kEarliestStart)
                            .Run(graph);
  // Steady-state period: distance between the two end-of-iteration syncs.
  return sim.EndOf(boundaries[1]) - sim.EndOf(boundaries[0]);
}

}  // namespace daydream
