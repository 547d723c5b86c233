#include "src/core/graph_builder.h"

#include <algorithm>
#include <map>

#include "src/core/layer_map.h"
#include "src/util/logging.h"

namespace daydream {

namespace {

bool IsBlockingSyncApi(const TraceEvent& e) {
  return e.kind == EventKind::kRuntimeApi &&
         (e.api == ApiKind::kDeviceSynchronize || e.api == ApiKind::kStreamSynchronize);
}

}  // namespace

DependencyGraph BuildDependencyGraph(const Trace& trace) {
  DependencyGraph graph;
  const std::vector<TraceEvent>& events = trace.events();
  const LayerMap layer_map = LayerMap::Compute(trace);

  // Blocking DtoH memcpy APIs are recognized by the DtoH kind of the GPU copy
  // sharing their correlation id.
  std::map<int64_t, const TraceEvent*> gpu_by_correlation;
  for (const TraceEvent& e : events) {
    if (e.is_gpu() && e.correlation_id != 0) {
      gpu_by_correlation[e.correlation_id] = &e;
    }
  }
  auto is_blocking_dtoh_api = [&](const TraceEvent& e) {
    if (e.kind != EventKind::kRuntimeApi || e.api != ApiKind::kMemcpyAsync ||
        e.correlation_id == 0) {
      return false;
    }
    auto it = gpu_by_correlation.find(e.correlation_id);
    return it != gpu_by_correlation.end() &&
           it->second->memcpy_kind == MemcpyKind::kDeviceToHost;
  };

  // Create tasks in time order so thread sequences come out sorted.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return events[a].start < events[b].start;
  });

  std::vector<TaskId> task_of_event(events.size(), kInvalidTask);
  for (size_t idx : order) {
    const TraceEvent& e = events[idx];
    if (e.kind == EventKind::kLayerMarker) {
      continue;  // instrumentation stamps, not tasks
    }
    Task t;
    t.name = e.name;
    t.start = e.start;
    t.duration = e.duration;
    t.api = e.api;
    t.comm = e.comm_kind;
    t.correlation_id = e.correlation_id;
    t.bytes = e.bytes;
    const LayerAssignment& a = layer_map.assignment(idx);
    t.layer_id = a.layer_id;
    t.phase = a.phase;
    switch (e.kind) {
      case EventKind::kRuntimeApi:
        t.type = TaskType::kCpu;
        t.thread = ExecThread::Cpu(e.thread_id);
        if (IsBlockingSyncApi(e)) {
          t.duration = std::min(t.duration, kSyncApiFloor);
        } else if (is_blocking_dtoh_api(e)) {
          t.duration = std::min(t.duration, kMemcpyApiFloor);
        }
        break;
      case EventKind::kDataLoad:
        t.type = TaskType::kDataLoad;
        t.thread = ExecThread::Cpu(e.thread_id);
        t.phase = Phase::kDataLoad;
        break;
      case EventKind::kKernel:
      case EventKind::kMemcpy:
        t.type = TaskType::kGpu;
        t.thread = ExecThread::Gpu(e.stream_id);
        break;
      case EventKind::kCommunication:
        t.type = TaskType::kComm;
        t.thread = ExecThread::Comm(e.channel_id);
        break;
      case EventKind::kLayerMarker:
        break;  // unreachable
    }
    task_of_event[idx] = graph.AddTask(std::move(t));
  }

  // Dependency types 1, 2 and 5: per-lane sequential order.
  graph.LinkSequential();

  // Gaps: measured idle time between consecutive CPU events on a thread,
  // computed against the *measured* end (not the clipped duration): a blocking
  // API's wait lives in the GPU->CPU edge, while its gap stays the small
  // framework overhead that follows the measured return.
  {
    std::map<int, std::vector<size_t>> cpu_events_by_thread;
    for (size_t idx : order) {
      const TraceEvent& e = events[idx];
      if (e.is_cpu() && e.kind != EventKind::kLayerMarker) {
        cpu_events_by_thread[e.thread_id].push_back(idx);
      }
    }
    for (const auto& [tid, idxs] : cpu_events_by_thread) {
      for (size_t i = 0; i + 1 < idxs.size(); ++i) {
        const TraceEvent& cur = events[idxs[i]];
        const TraceEvent& next = events[idxs[i + 1]];
        graph.task(task_of_event[idxs[i]]).gap = std::max<TimeNs>(0, next.start - cur.end());
      }
    }
  }

  // Dependency type 3: correlation edges (launch API -> GPU task).
  std::map<int64_t, TaskId> launch_by_correlation;
  for (size_t idx = 0; idx < events.size(); ++idx) {
    const TraceEvent& e = events[idx];
    if (e.kind == EventKind::kRuntimeApi && e.correlation_id != 0 &&
        (e.api == ApiKind::kLaunchKernel || e.api == ApiKind::kMemcpyAsync ||
         e.api == ApiKind::kMemcpySync)) {
      launch_by_correlation[e.correlation_id] = task_of_event[idx];
    }
  }
  std::map<int64_t, TaskId> gpu_task_by_correlation;
  for (size_t idx = 0; idx < events.size(); ++idx) {
    const TraceEvent& e = events[idx];
    if (e.is_gpu() && e.correlation_id != 0) {
      gpu_task_by_correlation[e.correlation_id] = task_of_event[idx];
      auto it = launch_by_correlation.find(e.correlation_id);
      if (it != launch_by_correlation.end()) {
        graph.AddEdge(it->second, task_of_event[idx]);
      }
    }
  }

  // Dependency type 4: CUDA synchronizations. Scan CPU events in time order,
  // tracking the last GPU task enqueued on each stream; a blocking API makes
  // the *next* CPU task on its thread depend on those GPU tasks, so that the
  // measured wait is reproduced — and shrinks when the GPU work shrinks.
  std::map<int, TaskId> last_enqueued;  // stream -> gpu task
  auto next_on_thread = [&](TaskId id) { return graph.NextInThread(id); };
  for (size_t idx : order) {
    const TraceEvent& e = events[idx];
    if (e.kind == EventKind::kLayerMarker) {
      continue;
    }
    if (e.kind == EventKind::kRuntimeApi && e.correlation_id != 0) {
      auto it = gpu_by_correlation.find(e.correlation_id);
      if (it != gpu_by_correlation.end()) {
        last_enqueued[it->second->stream_id] = gpu_task_by_correlation[e.correlation_id];
      }
    }
    TaskId blocked = kInvalidTask;
    std::vector<TaskId> wait_on;
    if (IsBlockingSyncApi(e)) {
      blocked = next_on_thread(task_of_event[idx]);
      if (e.api == ApiKind::kStreamSynchronize && e.stream_id >= 0) {
        auto it = last_enqueued.find(e.stream_id);
        if (it != last_enqueued.end()) {
          wait_on.push_back(it->second);
        }
      } else {
        for (const auto& [stream, gpu_task] : last_enqueued) {
          wait_on.push_back(gpu_task);
        }
      }
    } else if (is_blocking_dtoh_api(e)) {
      blocked = next_on_thread(task_of_event[idx]);
      wait_on.push_back(gpu_task_by_correlation[e.correlation_id]);
    }
    if (blocked != kInvalidTask) {
      for (TaskId gpu_task : wait_on) {
        graph.AddEdge(gpu_task, blocked);
      }
    }
  }

  return graph;
}

}  // namespace daydream
