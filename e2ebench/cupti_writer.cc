#include "e2ebench/cupti_writer.h"

#include <fstream>

#include "src/trace/chrome_trace.h"

namespace e2ebench {

using daydream::ApiKind;
using daydream::EventKind;
using daydream::JsonEscape;
using daydream::Phase;
using daydream::TraceEvent;

namespace {

const char* CudaApiName(ApiKind api) {
  switch (api) {
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
    case ApiKind::kNone:
    case ApiKind::kOther:
      break;
  }
  return "cudaOther";
}

// The name under which the importer recovers `e.api` (it keys on the text
// before the first underscore).
std::string RuntimeName(const TraceEvent& e) {
  const std::string api = CudaApiName(e.api);
  const std::string base = e.name.substr(0, e.name.find('_'));
  const bool named_as_api = base == api || (api == "cudaOther" && base.rfind("cuda", 0) != 0);
  return named_as_api ? e.name : api + "_" + e.name;
}

void Attribution(const TraceEvent& e, std::ostream& os) {
  if (e.layer_id >= 0) {
    os << ",\"layer\":" << e.layer_id;
  }
  if (e.phase != Phase::kUnknown) {
    os << ",\"phase\":\"" << daydream::ToString(e.phase) << "\"";
  }
}

void Correlation(const TraceEvent& e, std::ostream& os) {
  if (e.correlation_id != 0) {
    os << ",\"correlationId\":" << e.correlation_id;
  }
}

void WriteEvent(const TraceEvent& e, std::ostream& os) {
  const std::string times =
      ",\"start\":" + std::to_string(e.start) + ",\"end\":" + std::to_string(e.end());
  switch (e.kind) {
    case EventKind::kRuntimeApi:
      os << "{\"kind\":\"runtime\",\"name\":\"" << JsonEscape(RuntimeName(e)) << "\"" << times
         << ",\"threadId\":" << e.thread_id;
      if (e.stream_id >= 0) {
        os << ",\"streamId\":" << e.stream_id;
      }
      Correlation(e, os);
      Attribution(e, os);
      break;
    case EventKind::kKernel:
    case EventKind::kMemcpy:
      os << "{\"kind\":\"" << (e.kind == EventKind::kKernel ? "kernel" : "memcpy")
         << "\",\"name\":\"" << JsonEscape(e.name) << "\"" << times
         << ",\"streamId\":" << e.stream_id;
      if (e.kind == EventKind::kMemcpy) {
        os << ",\"copyKind\":\"" << daydream::ToString(e.memcpy_kind) << "\",\"bytes\":"
           << e.bytes;
      }
      Correlation(e, os);
      Attribution(e, os);
      break;
    case EventKind::kLayerMarker:
      os << "{\"kind\":\"marker\",\"name\":\"" << JsonEscape(e.name) << "\",\"start\":" << e.start
         << ",\"threadId\":" << e.thread_id << ",\"layer\":" << e.layer_id << ",\"phase\":\""
         << daydream::ToString(e.phase) << "\",\"begin\":" << (e.marker_begin ? "true" : "false");
      break;
    case EventKind::kDataLoad:
      os << "{\"kind\":\"dataload\",\"name\":\"" << JsonEscape(e.name) << "\"" << times
         << ",\"threadId\":" << e.thread_id;
      break;
    case EventKind::kCommunication:
      os << "{\"kind\":\"comm\",\"name\":\"" << JsonEscape(e.name) << "\"" << times
         << ",\"commKind\":\"" << daydream::ToString(e.comm_kind)
         << "\",\"channelId\":" << e.channel_id << ",\"bytes\":" << e.bytes;
      Attribution(e, os);
      break;
  }
  os << "}\n";
}

bool SameEvent(const TraceEvent& a, const TraceEvent& b) {
  return a.kind == b.kind && a.api == b.api && a.memcpy_kind == b.memcpy_kind &&
         a.comm_kind == b.comm_kind && a.name == b.name && a.start == b.start &&
         a.duration == b.duration && a.thread_id == b.thread_id && a.stream_id == b.stream_id &&
         a.channel_id == b.channel_id && a.correlation_id == b.correlation_id &&
         a.layer_id == b.layer_id && a.phase == b.phase && a.marker_begin == b.marker_begin &&
         a.bytes == b.bytes;
}

}  // namespace

bool WriteCuptiTraceFile(const daydream::Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) {
    return false;
  }
  os << "{\"kind\":\"trace\",\"model\":\"" << JsonEscape(trace.model_name())
     << "\",\"config\":\"" << JsonEscape(trace.config()) << "\"}\n";
  for (const daydream::GradientInfo& g : trace.gradients()) {
    os << "{\"kind\":\"gradient\",\"layer\":" << g.layer_id << ",\"bytes\":" << g.bytes
       << ",\"bucket\":" << g.bucket_id << "}\n";
  }
  for (const TraceEvent& e : trace.events()) {
    WriteEvent(e, os);
  }
  return os.good();
}

bool ExactRoundTrip(const daydream::Trace& original, const daydream::Trace& imported) {
  if (original.model_name() != imported.model_name() || original.config() != imported.config() ||
      original.size() != imported.size() ||
      original.gradients().size() != imported.gradients().size()) {
    return false;
  }
  for (size_t i = 0; i < original.gradients().size(); ++i) {
    const daydream::GradientInfo& a = original.gradients()[i];
    const daydream::GradientInfo& b = imported.gradients()[i];
    if (a.layer_id != b.layer_id || a.bytes != b.bytes || a.bucket_id != b.bucket_id) {
      return false;
    }
  }
  for (size_t i = 0; i < original.size(); ++i) {
    if (!SameEvent(original.events()[i], imported.events()[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace e2ebench
