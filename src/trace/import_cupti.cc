#include "src/trace/import_cupti.h"

#include <fstream>
#include <limits>
#include <map>

#include "src/util/json.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

// One JSON-lines record may not exceed this; a multi-gigabyte "line" is an
// attack (or a corrupt file), not a record, and must fail before it is
// buffered whole.
constexpr size_t kMaxLineBytes = 1 << 20;

// getline with a hard cap: reads into *out until '\n' or EOF, failing once
// the cap is hit so hostile input cannot balloon the line buffer.
// Returns false at EOF with nothing read.
bool BoundedGetline(std::istream& in, std::string* out, bool* too_long) {
  out->clear();
  *too_long = false;
  std::streambuf* buf = in.rdbuf();
  if (buf == nullptr) {
    return false;
  }
  int c;
  while ((c = buf->sbumpc()) != std::char_traits<char>::eof()) {
    if (c == '\n') {
      return true;
    }
    if (out->size() >= kMaxLineBytes) {
      *too_long = true;
      return true;
    }
    out->push_back(static_cast<char>(c));
  }
  return !out->empty();
}

// CUPTI runtime records name the cbid ("cudaLaunchKernel_v7000",
// "cudaMemcpyAsync_ptsz_v7000"); match on the base name. Any other CPU-side
// API (and the non-API names "none"/"other") is kOther.
ApiKind ApiFromName(const std::string& name) {
  const std::string_view base = std::string_view(name).substr(0, name.find('_'));
  const ApiKind api = FromString<ApiKind>(base).value_or(ApiKind::kNone);
  return api == ApiKind::kNone ? ApiKind::kOther : api;
}

// The CUPTI record's names for the fields CheckEvent checks.
constexpr EventFieldNames kCuptiFieldNames{.start = "start timestamp",
                                           .duration = "duration",
                                           .bytes = "bytes",
                                           .correlation = "correlationId",
                                           .thread = "threadId",
                                           .stream = "streamId",
                                           .channel = "channelId",
                                           .layer = "layer"};

// Per-correlation-id matching state; indexes into Trace::mutable_events()
// defer the unmatched-GPU repair to end-of-stream (flush order is arbitrary).
struct CorrState {
  bool launch_seen = false;
  bool gpu_seen = false;
};

class Importer {
 public:
  explicit Importer(CuptiImportStats* stats) : stats_(stats) {}

  bool Record(const JsonObject& record, uint64_t line, std::string* error) {
    const std::string kind = record.GetString("kind");
    if (kind.empty()) {
      return Fail(line, "record needs a string \"kind\" field", error);
    }
    ++stats_->records;
    if (kind == "trace") {
      trace_.set_model_name(record.GetString("model"));
      trace_.set_config(record.GetString("config"));
      return true;
    }
    if (kind == "gradient") {
      GradientInfo g;
      if (!ReadInt(record, "layer", line, &g.layer_id, error, kRequired) ||
          !ReadInt(record, "bytes", line, &g.bytes, error, kRequired) ||
          !ReadInt(record, "bucket", line, &g.bucket_id, error, kRequired)) {
        return false;
      }
      const std::string broken = CheckGradient(g);
      if (!broken.empty()) {
        return Fail(line, broken, error);
      }
      trace_.AddGradientInfo(g);
      return true;
    }

    // Event records. All carry start (ns); all but markers carry end (ns).
    TraceEvent e;
    e.name = record.GetString("name");
    if (!ReadInt(record, "start", line, &e.start, error, kRequired)) {
      return false;
    }
    if (e.start < 0) {  // before end - start below can overflow
      return Fail(line, "negative start timestamp", error);
    }
    const bool is_marker = kind == "marker";
    if (is_marker) {
      // Markers are instantaneous instrumentation stamps; "end" is optional
      // and must equal start when present.
      if (record.Has("end") && record.GetInt64("end", -1) != e.start) {
        return Fail(line, "marker with end != start", error);
      }
    } else {
      int64_t end = 0;
      if (!ReadInt(record, "end", line, &end, error, kRequired)) {
        return false;
      }
      if (end < e.start) {
        return Fail(line, "end precedes start", error);
      }
      e.duration = end - e.start;
    }

    // Single-process streams only: a second processId is a different capture.
    if (record.Has("processId")) {
      const int64_t pid = record.GetInt64("processId", -1);
      if (pid < 0) {
        return Fail(line, "bad processId", error);
      }
      if (process_id_ < 0) {
        process_id_ = pid;
      } else if (pid != process_id_) {
        return Fail(line, "record from a second processId (single-process streams only)", error);
      }
    }

    // Lane ids are read where present; CheckEvent below rejects a record
    // whose kind's lane is missing.
    if (kind == "runtime" || kind == "driver") {
      e.kind = EventKind::kRuntimeApi;
      e.api = ApiFromName(e.name);
      // cudaStreamSynchronize targets a stream; the optional streamId names it.
      if (!ReadInt(record, "threadId", line, &e.thread_id, error) ||
          !ReadInt(record, "streamId", line, &e.stream_id, error) ||
          !ReadInt(record, "correlationId", line, &e.correlation_id, error) ||
          !ReadAttribution(record, line, &e, error)) {
        return false;
      }
    } else if (kind == "kernel" || kind == "concurrent_kernel" || kind == "memcpy") {
      e.kind = kind == "memcpy" ? EventKind::kMemcpy : EventKind::kKernel;
      if (!ReadInt(record, "streamId", line, &e.stream_id, error) ||
          !ReadInt(record, "correlationId", line, &e.correlation_id, error) ||
          !ReadAttribution(record, line, &e, error)) {
        return false;
      }
      if (e.kind == EventKind::kMemcpy) {
        const std::optional<MemcpyKind> copy = FromString<MemcpyKind>(record.GetString("copyKind"));
        if (copy.value_or(MemcpyKind::kNone) == MemcpyKind::kNone) {
          return Fail(line, "memcpy needs copyKind HtoD|DtoH|DtoD", error);
        }
        e.memcpy_kind = *copy;
        if (!ReadInt(record, "bytes", line, &e.bytes, error)) {
          return false;
        }
      }
    } else if (is_marker) {
      e.kind = EventKind::kLayerMarker;
      if (!ReadInt(record, "threadId", line, &e.thread_id, error) ||
          !ReadInt(record, "layer", line, &e.layer_id, error, kRequired)) {
        return false;
      }
      const JsonValue* begin = record.Find("begin");
      if (begin == nullptr || begin->kind != JsonValue::Kind::kBool) {
        return Fail(line, "marker needs a boolean \"begin\" field", error);
      }
      e.marker_begin = begin->boolean;
      const std::optional<Phase> phase = FromString<Phase>(record.GetString("phase"));
      if (!phase.has_value()) {
        return Fail(line, "marker needs phase dataload|forward|backward|weight_update", error);
      }
      e.phase = *phase;
    } else if (kind == "dataload") {
      e.kind = EventKind::kDataLoad;
      e.phase = Phase::kDataLoad;
      if (!ReadInt(record, "threadId", line, &e.thread_id, error)) {
        return false;
      }
    } else if (kind == "comm") {
      e.kind = EventKind::kCommunication;
      const std::optional<CommKind> comm = FromString<CommKind>(record.GetString("commKind"));
      if (comm.value_or(CommKind::kNone) == CommKind::kNone) {
        return Fail(line, "comm needs commKind allReduce|reduceScatter|allGather|push|pull|p2p",
                    error);
      }
      e.comm_kind = *comm;
      if (!ReadInt(record, "channelId", line, &e.channel_id, error) ||
          !ReadInt(record, "bytes", line, &e.bytes, error) ||
          !ReadAttribution(record, line, &e, error)) {
        return false;
      }
    } else {
      return Fail(line, "unknown record kind '" + kind + "'", error);
    }
    const std::string broken = CheckEvent(e, kCuptiFieldNames);
    if (!broken.empty()) {
      return Fail(line, broken, error);
    }

    if (e.correlation_id != 0 && (e.is_gpu() || IsLaunch(e.api))) {
      CorrState& state = corr_[e.correlation_id];
      bool& seen = e.is_gpu() ? state.gpu_seen : state.launch_seen;
      if (seen) {
        ++(e.is_gpu() ? stats_->duplicate_gpu : stats_->duplicate_launch);
        e.correlation_id = 0;
      } else {
        seen = true;
      }
    }
    ++stats_->events;
    trace_.Add(std::move(e));
    return true;
  }

  // End-of-stream repair + bookkeeping: GPU activities whose id never saw a
  // launch cannot contribute a dependency edge; clearing the id keeps the
  // trace self-consistent (Trace::Validate) instead of failing downstream.
  Trace Finish() {
    for (const auto& [id, state] : corr_) {
      if (state.launch_seen && state.gpu_seen) {
        ++stats_->matched;
      } else if (state.launch_seen) {
        ++stats_->unmatched_launch;
      }
    }
    for (TraceEvent& e : trace_.mutable_events()) {
      if (e.is_gpu() && e.correlation_id != 0 && !corr_[e.correlation_id].launch_seen) {
        e.correlation_id = 0;
        ++stats_->unmatched_gpu;
      }
    }
    return std::move(trace_);
  }

 private:
  static constexpr bool kRequired = true;

  static bool IsLaunch(ApiKind api) {
    return api == ApiKind::kLaunchKernel || api == ApiKind::kMemcpyAsync ||
           api == ApiKind::kMemcpySync;
  }

  static bool Fail(uint64_t line, const std::string& message, std::string* error) {
    if (error != nullptr) {
      *error = StrFormat("line %llu: %s", static_cast<unsigned long long>(line), message.c_str());
    }
    return false;
  }

  // Reads an integer field into *out, which an absent optional field leaves
  // as is. The token must be a plain integer that fits T: an id past int
  // range is rejected here, never narrowed.
  template <typename T>
  static bool ReadInt(const JsonObject& record, const char* key, uint64_t line, T* out,
                      std::string* error, bool required = false) {
    const JsonValue* value = record.Find(key);
    if (value == nullptr && !required) {
      return true;
    }
    const std::optional<int64_t> parsed =
        value != nullptr ? value->AsInt64() : std::optional<int64_t>();
    if (!parsed.has_value()) {
      return Fail(line, std::string("record needs an integer \"") + key + "\" field", error);
    }
    if (*parsed < std::numeric_limits<T>::min() || *parsed > std::numeric_limits<T>::max()) {
      return Fail(line, std::string("\"") + key + "\" out of range", error);
    }
    *out = static_cast<T>(*parsed);
    return true;
  }

  // Optional layer/phase attribution (the paper's framework instrumentation
  // stamps them; raw CUPTI streams lack them and rely on markers instead).
  static bool ReadAttribution(const JsonObject& record, uint64_t line, TraceEvent* e,
                              std::string* error) {
    if (!ReadInt(record, "layer", line, &e->layer_id, error)) {
      return false;
    }
    if (record.Has("phase")) {
      const std::optional<Phase> phase = FromString<Phase>(record.GetString("phase"));
      if (!phase.has_value()) {
        return Fail(line, "bad phase", error);
      }
      e->phase = *phase;
    }
    return true;
  }

  CuptiImportStats* stats_;
  Trace trace_;
  std::map<int64_t, CorrState> corr_;
  int64_t process_id_ = -1;
};

}  // namespace

std::optional<Trace> ImportCuptiTrace(std::istream& in, std::string* error,
                                      CuptiImportStats* stats) {
  CuptiImportStats scratch;
  Importer importer(stats != nullptr ? stats : &scratch);
  std::string line;
  uint64_t line_number = 0;
  bool too_long = false;
  while (BoundedGetline(in, &line, &too_long)) {
    ++line_number;
    if (too_long) {
      if (error != nullptr) {
        *error = StrFormat("line %llu: exceeds the %zu-byte line limit",
                           static_cast<unsigned long long>(line_number), kMaxLineBytes);
      }
      return std::nullopt;
    }
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();  // CRLF streams
    }
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    const std::optional<JsonObject> record = ParseJsonObject(line, &parse_error);
    if (!record.has_value()) {
      if (error != nullptr) {
        *error = StrFormat("line %llu: %s", static_cast<unsigned long long>(line_number),
                           parse_error.c_str());
      }
      return std::nullopt;
    }
    if (!importer.Record(*record, line_number, error)) {
      return std::nullopt;
    }
  }
  return importer.Finish();
}

std::optional<Trace> ImportCuptiTraceFile(const std::string& path, std::string* error,
                                          CuptiImportStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  return ImportCuptiTrace(in, error, stats);
}

}  // namespace daydream
