// Dependency-graph construction from a CUPTI-style trace (§4.2).
//
// Implements the five dependency types of §4.2.2:
//   1. sequential order of CPU tasks in the same thread,
//   2. sequential order of GPU tasks in the same CUDA stream,
//   3. correlation from CUDA launch APIs to the GPU tasks they trigger,
//   4. CUDA synchronization: GPU -> CPU edges for cudaDeviceSynchronize,
//      cudaStreamSynchronize and blocking DtoH memcpys,
//   5. communication-channel ordering (communication tasks are otherwise
//      inserted by graph transformations, which add their semantic edges).
//
// Blocking CPU APIs are stored with their *API overhead* as duration; the
// waiting they exhibit in the measured trace is reproduced by the GPU->CPU
// edge instead, so that transformations that shrink GPU work automatically
// shrink the wait. Gaps are computed against the clipped durations so that
// simulating the untransformed graph reproduces the measured timeline.
#ifndef SRC_CORE_GRAPH_BUILDER_H_
#define SRC_CORE_GRAPH_BUILDER_H_

#include "src/core/dependency_graph.h"
#include "src/trace/trace.h"

namespace daydream {

// Upper bound used for the stored duration of blocking sync APIs.
constexpr TimeNs kSyncApiFloor = 4 * kMicrosecond;
// Upper bound for the CPU-side duration of blocking DtoH memcpy APIs.
constexpr TimeNs kMemcpyApiFloor = 9 * kMicrosecond;

// Tasks carry the layer/phase assignments of the synchronization-free layer
// map (src/core/layer_map.h).
DependencyGraph BuildDependencyGraph(const Trace& trace);

}  // namespace daydream

#endif  // SRC_CORE_GRAPH_BUILDER_H_
