// CUPTI-style trace events.
//
// The runtime executor (src/runtime) emits these; Daydream (src/core) consumes
// them. The schema mirrors what the paper extracts from CUPTI plus the light
// framework instrumentation it adds:
//   - CPU-side CUDA runtime API calls (cudaLaunchKernel, cudaMemcpyAsync, ...)
//     with thread id and a correlation id,
//   - GPU kernels and memory copies with stream id and the matching correlation id,
//   - per-layer begin/end markers (framework instrumentation, Section 4.3),
//   - data-loading tasks, and
//   - communication primitives (allReduce / push / pull) for distributed runs.
#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/time_units.h"

namespace daydream {

enum class EventKind {
  kRuntimeApi,     // CPU-side CUDA API call.
  kKernel,         // GPU kernel execution.
  kMemcpy,         // GPU memory copy (occupies a stream like a kernel; §4.2.1).
  kLayerMarker,    // Framework instrumentation: begin/end of a layer phase on CPU.
  kDataLoad,       // Mini-batch load from disk to host memory (CPU-side task).
  kCommunication,  // Network primitive execution (distributed traces only).
};

enum class ApiKind {
  kNone,               // Not a runtime API event.
  kLaunchKernel,       // cudaLaunchKernel
  kMemcpyAsync,        // cudaMemcpyAsync
  kMemcpySync,         // cudaMemcpy (synchronous)
  kDeviceSynchronize,  // cudaDeviceSynchronize
  kStreamSynchronize,  // cudaStreamSynchronize
  kEventRecord,        // cudaEventRecord
  kMalloc,             // cudaMalloc
  kFree,               // cudaFree
  kOther,              // other CUDA-visible CPU work
};

enum class MemcpyKind {
  kNone,
  kHostToDevice,
  kDeviceToHost,
  kDeviceToDevice,
};

enum class CommKind {
  kNone,
  kAllReduce,
  kReduceScatter,
  kAllGather,
  kPush,  // parameter-server push (worker -> server)
  kPull,  // parameter-server pull (server -> worker)
  kP2p,   // point-to-point transfer (pipeline-parallel activation/gradient)
};

// Which phase of the training iteration a layer marker / task belongs to.
enum class Phase {
  kUnknown,
  kDataLoad,
  kForward,
  kBackward,
  kWeightUpdate,
};

const char* ToString(EventKind kind);
const char* ToString(ApiKind kind);
const char* ToString(MemcpyKind kind);
const char* ToString(CommKind kind);
const char* ToString(Phase phase);

// Each enum's last enumerator: the bound every decoder range-checks against,
// so a foreign or corrupt value never becomes an enumerator no switch handles.
constexpr EventKind LastEnumerator(EventKind) { return EventKind::kCommunication; }
constexpr ApiKind LastEnumerator(ApiKind) { return ApiKind::kOther; }
constexpr MemcpyKind LastEnumerator(MemcpyKind) { return MemcpyKind::kDeviceToDevice; }
constexpr CommKind LastEnumerator(CommKind) { return CommKind::kP2p; }
constexpr Phase LastEnumerator(Phase) { return Phase::kWeightUpdate; }

// The inverse of ToString, over the same names: the one name table every
// trace reader decodes with. Returns nullopt for a name no enumerator has.
template <typename E>
std::optional<E> FromString(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(LastEnumerator(E{})); ++i) {
    if (name == ToString(static_cast<E>(i))) {
      return static_cast<E>(i);
    }
  }
  return std::nullopt;
}

// One trace record. Which fields are meaningful depends on `kind`; unused
// fields keep their defaults. Sizes are bytes; times are TimeNs.
struct TraceEvent {
  EventKind kind = EventKind::kRuntimeApi;
  ApiKind api = ApiKind::kNone;
  MemcpyKind memcpy_kind = MemcpyKind::kNone;
  CommKind comm_kind = CommKind::kNone;

  std::string name;
  TimeNs start = 0;
  TimeNs duration = 0;

  // Execution location. CPU events carry thread_id; GPU events carry stream_id;
  // communication events carry channel_id. Exactly one is >= 0.
  int thread_id = -1;
  int stream_id = -1;
  int channel_id = -1;

  // Links a kLaunchKernel / kMemcpyAsync API call to the GPU task it triggers.
  // CUPTI provides the same mechanism ("correlation ID", §4.2.2). 0 = none.
  int64_t correlation_id = 0;

  // Layer markers: which layer/phase, and whether this is the begin or end stamp.
  int layer_id = -1;
  Phase phase = Phase::kUnknown;
  bool marker_begin = false;

  // Payload size for memcpys and communication primitives.
  int64_t bytes = 0;

  TimeNs end() const { return start + duration; }

  bool is_cpu() const {
    return kind == EventKind::kRuntimeApi || kind == EventKind::kLayerMarker ||
           kind == EventKind::kDataLoad;
  }
  bool is_gpu() const { return kind == EventKind::kKernel || kind == EventKind::kMemcpy; }
  bool is_comm() const { return kind == EventKind::kCommunication; }

  std::string DebugString() const;
};

// How one reader names the fields CheckEvent checks, so its diagnostics
// speak the reader's format ("correlationId", "args.corr"). The defaults
// are TraceEvent's own member names.
struct EventFieldNames {
  const char* start = "start";
  const char* duration = "duration";
  const char* bytes = "bytes";
  const char* correlation = "correlation_id";
  const char* thread = "thread_id";
  const char* stream = "stream_id";
  const char* channel = "channel_id";
  const char* layer = "layer_id";
};

// The event contract every trace reader enforces after decoding, and that
// Trace::Validate checks per event: start, duration, bytes and correlation
// id are non-negative; lane ids and the layer are >= -1 (-1 = unset); the
// lane the event's kind runs on (CPU thread, GPU stream, comm channel) is
// set. Returns "" when the event holds, else "negative <field>" or
// "bad <field>" for the first field that breaks the contract.
std::string CheckEvent(const TraceEvent& e, const EventFieldNames& names = {});

}  // namespace daydream

#endif  // SRC_TRACE_TRACE_EVENT_H_
