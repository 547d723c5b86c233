#include "src/trace/trace_event.h"

#include "src/util/string_util.h"

namespace daydream {

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kRuntimeApi:
      return "RuntimeApi";
    case EventKind::kKernel:
      return "Kernel";
    case EventKind::kMemcpy:
      return "Memcpy";
    case EventKind::kLayerMarker:
      return "LayerMarker";
    case EventKind::kDataLoad:
      return "DataLoad";
    case EventKind::kCommunication:
      return "Communication";
  }
  return "?";
}

const char* ToString(ApiKind kind) {
  switch (kind) {
    case ApiKind::kNone:
      return "none";
    case ApiKind::kLaunchKernel:
      return "cudaLaunchKernel";
    case ApiKind::kMemcpyAsync:
      return "cudaMemcpyAsync";
    case ApiKind::kMemcpySync:
      return "cudaMemcpy";
    case ApiKind::kDeviceSynchronize:
      return "cudaDeviceSynchronize";
    case ApiKind::kStreamSynchronize:
      return "cudaStreamSynchronize";
    case ApiKind::kEventRecord:
      return "cudaEventRecord";
    case ApiKind::kMalloc:
      return "cudaMalloc";
    case ApiKind::kFree:
      return "cudaFree";
    case ApiKind::kOther:
      return "other";
  }
  return "?";
}

const char* ToString(MemcpyKind kind) {
  switch (kind) {
    case MemcpyKind::kNone:
      return "none";
    case MemcpyKind::kHostToDevice:
      return "HtoD";
    case MemcpyKind::kDeviceToHost:
      return "DtoH";
    case MemcpyKind::kDeviceToDevice:
      return "DtoD";
  }
  return "?";
}

const char* ToString(CommKind kind) {
  switch (kind) {
    case CommKind::kNone:
      return "none";
    case CommKind::kAllReduce:
      return "allReduce";
    case CommKind::kReduceScatter:
      return "reduceScatter";
    case CommKind::kAllGather:
      return "allGather";
    case CommKind::kPush:
      return "push";
    case CommKind::kPull:
      return "pull";
    case CommKind::kP2p:
      return "p2p";
  }
  return "?";
}

const char* ToString(Phase phase) {
  switch (phase) {
    case Phase::kUnknown:
      return "unknown";
    case Phase::kDataLoad:
      return "dataload";
    case Phase::kForward:
      return "forward";
    case Phase::kBackward:
      return "backward";
    case Phase::kWeightUpdate:
      return "weight_update";
  }
  return "?";
}

std::string CheckEvent(const TraceEvent& e, const EventFieldNames& names) {
  const auto negative = [](const char* field) { return std::string("negative ") + field; };
  const auto bad = [](const char* field) { return std::string("bad ") + field; };
  // Negative times or sizes break simulator invariants (progress and
  // earliest-start bounds must be monotone).
  if (e.start < 0) {
    return negative(names.start);
  }
  if (e.duration < 0) {
    return negative(names.duration);
  }
  if (e.bytes < 0) {
    return negative(names.bytes);
  }
  if (e.correlation_id < 0) {
    return negative(names.correlation);
  }
  // -1 is the "unset" lane sentinel; anything below is corrupt. A value like
  // stream_id=-500 would alias the Chrome export's row bands (1000+/2000+)
  // and break the graph builder's lane assignment.
  if (e.thread_id < -1 || (e.is_cpu() && e.thread_id < 0)) {
    return bad(names.thread);
  }
  if (e.stream_id < -1 || (e.is_gpu() && e.stream_id < 0)) {
    return bad(names.stream);
  }
  if (e.channel_id < -1 || (e.is_comm() && e.channel_id < 0)) {
    return bad(names.channel);
  }
  if (e.layer_id < -1) {
    return bad(names.layer);
  }
  return "";
}

std::string TraceEvent::DebugString() const {
  return StrFormat("[%s %s start=%.3fus dur=%.3fus tid=%d stream=%d chan=%d corr=%lld layer=%d %s]",
                   ToString(kind), name.c_str(), ToUs(start), ToUs(duration), thread_id,
                   stream_id, channel_id, static_cast<long long>(correlation_id), layer_id,
                   ToString(phase));
}

}  // namespace daydream
