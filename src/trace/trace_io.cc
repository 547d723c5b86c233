#include "src/trace/trace_io.h"

#include <fstream>
#include <sstream>

#include "src/trace/import_chrome.h"
#include "src/trace/import_cupti.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

constexpr char kHeader[] = "daydream-trace v1";

// The format is line- and tab-delimited, so free-text fields (event names,
// model name, config) must not contain tabs, newlines, or carriage returns.
// Replace them with spaces on write to keep the round trip lossless enough
// that ReadTrace never rejects a file we produced.
std::string SanitizeField(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return out;
}

// Names may contain spaces but not tabs/newlines; they go last on the line.
void WriteEvent(const TraceEvent& e, std::ostream& os) {
  os << "ev\t" << static_cast<int>(e.kind) << "\t" << static_cast<int>(e.api) << "\t"
     << static_cast<int>(e.memcpy_kind) << "\t" << static_cast<int>(e.comm_kind) << "\t"
     << e.start << "\t" << e.duration << "\t" << e.thread_id << "\t" << e.stream_id << "\t"
     << e.channel_id << "\t" << e.correlation_id << "\t" << e.layer_id << "\t"
     << static_cast<int>(e.phase) << "\t" << (e.marker_begin ? 1 : 0) << "\t" << e.bytes << "\t"
     << SanitizeField(e.name) << "\n";
}

// Range-checked enum decode: an out-of-range integer (corrupt or
// foreign-version file) must reject the record, not produce an enum value no
// switch in the pipeline handles.
template <typename E>
std::optional<E> ParseEnum(const std::string& field) {
  const std::optional<int> value = ParseInt32(field);
  if (!value.has_value() || *value < 0 || *value > static_cast<int>(LastEnumerator(E{}))) {
    return std::nullopt;
  }
  return static_cast<E>(value.value());
}

std::optional<TraceEvent> ParseEvent(const std::vector<std::string>& f) {
  // "ev" + 15 fields.
  if (f.size() != 16) {
    return std::nullopt;
  }
  TraceEvent e;
  const auto kind = ParseEnum<EventKind>(f[1]);
  const auto api = ParseEnum<ApiKind>(f[2]);
  const auto memcpy_kind = ParseEnum<MemcpyKind>(f[3]);
  const auto comm_kind = ParseEnum<CommKind>(f[4]);
  const auto phase = ParseEnum<Phase>(f[12]);
  if (!kind || !api || !memcpy_kind || !comm_kind || !phase) {
    return std::nullopt;
  }
  e.kind = *kind;
  e.api = *api;
  e.memcpy_kind = *memcpy_kind;
  e.comm_kind = *comm_kind;
  e.phase = *phase;
  // Strict full-field numeric parsing (src/util/string_util.h): std::stoll
  // used to accept leading whitespace and trailing garbage, so "1abc"
  // misparsed as 1 instead of rejecting the record.
  const auto start = ParseInt64(f[5]);
  const auto duration = ParseInt64(f[6]);
  const auto thread_id = ParseInt32(f[7]);
  const auto stream_id = ParseInt32(f[8]);
  const auto channel_id = ParseInt32(f[9]);
  const auto correlation_id = ParseInt64(f[10]);
  const auto layer_id = ParseInt32(f[11]);
  const auto marker_begin = ParseInt32(f[13]);
  const auto bytes = ParseInt64(f[14]);
  if (!start || !duration || !thread_id || !stream_id || !channel_id || !correlation_id ||
      !layer_id || !marker_begin || !bytes) {
    return std::nullopt;
  }
  e.start = *start;
  e.duration = *duration;
  e.thread_id = *thread_id;
  e.stream_id = *stream_id;
  e.channel_id = *channel_id;
  e.correlation_id = *correlation_id;
  e.layer_id = *layer_id;
  e.marker_begin = *marker_begin != 0;
  e.bytes = *bytes;
  e.name = f[15];
  if (!CheckEvent(e).empty()) {
    return std::nullopt;
  }
  return e;
}

}  // namespace

void WriteTrace(const Trace& trace, std::ostream& os) {
  os << kHeader << "\n";
  os << "model\t" << SanitizeField(trace.model_name()) << "\n";
  os << "config\t" << SanitizeField(trace.config()) << "\n";
  for (const GradientInfo& g : trace.gradients()) {
    os << "grad\t" << g.layer_id << "\t" << g.bytes << "\t" << g.bucket_id << "\n";
  }
  for (const TraceEvent& e : trace.events()) {
    WriteEvent(e, os);
  }
}

bool WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    return false;
  }
  WriteTrace(trace, out);
  return out.good();
}

std::optional<Trace> ReadTrace(std::istream& is) {
  std::string line;
  // Files that crossed a Windows toolchain arrive with CRLF line endings;
  // getline keeps the '\r', which used to fail the header compare and, when
  // only the body was CRLF, silently append '\r' to the last field (e.name).
  auto strip_cr = [](std::string* text) {
    if (!text->empty() && text->back() == '\r') {
      text->pop_back();
    }
  };
  if (!std::getline(is, line)) {
    return std::nullopt;
  }
  strip_cr(&line);
  if (line != kHeader) {
    return std::nullopt;
  }
  Trace trace;
  while (std::getline(is, line)) {
    strip_cr(&line);
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> f = StrSplit(line, '\t');
    if (f[0] == "model" && f.size() == 2) {
      trace.set_model_name(f[1]);
    } else if (f[0] == "config" && f.size() == 2) {
      trace.set_config(f[1]);
    } else if (f[0] == "grad" && f.size() == 4) {
      const auto layer_id = ParseInt32(f[1]);
      const auto bytes = ParseInt64(f[2]);
      const auto bucket_id = ParseInt32(f[3]);
      if (!layer_id || !bytes || !bucket_id) {
        return std::nullopt;
      }
      const GradientInfo g{*layer_id, *bytes, *bucket_id};
      if (!CheckGradient(g).empty()) {
        return std::nullopt;
      }
      trace.AddGradientInfo(g);
    } else if (f[0] == "ev") {
      std::optional<TraceEvent> e = ParseEvent(f);
      if (!e.has_value()) {
        return std::nullopt;
      }
      trace.Add(*std::move(e));
    } else {
      return std::nullopt;
    }
  }
  return trace;
}

std::optional<Trace> ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return std::nullopt;
  }
  return ReadTrace(in);
}

std::optional<TraceFormat> ParseTraceFormat(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "ddtrace") {
    return TraceFormat::kDdtrace;
  }
  if (lower == "cupti") {
    return TraceFormat::kCupti;
  }
  if (lower == "chrome") {
    return TraceFormat::kChrome;
  }
  return std::nullopt;
}

const char* ToString(TraceFormat format) {
  switch (format) {
    case TraceFormat::kDdtrace:
      return "ddtrace";
    case TraceFormat::kCupti:
      return "cupti";
    case TraceFormat::kChrome:
      return "chrome";
  }
  return "?";
}

std::optional<Trace> ReadTraceFileAs(const std::string& path, TraceFormat format,
                                     std::string* error) {
  switch (format) {
    case TraceFormat::kDdtrace: {
      std::optional<Trace> trace = ReadTraceFile(path);
      if (!trace.has_value() && error != nullptr) {
        *error = "cannot parse " + path + " as a daydream trace";
      }
      return trace;
    }
    case TraceFormat::kCupti:
      return ImportCuptiTraceFile(path, error);
    case TraceFormat::kChrome:
      return ImportChromeTraceFile(path, error);
  }
  if (error != nullptr) {
    *error = "unknown trace format";
  }
  return std::nullopt;
}

}  // namespace daydream
