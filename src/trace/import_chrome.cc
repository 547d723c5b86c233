#include "src/trace/import_chrome.h"

#include <fstream>
#include <limits>

#include "src/util/json_stream.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

using Token = JsonStreamTokenizer::Token;
using TokenKind = JsonStreamTokenizer::TokenKind;

// The Chrome row's names for the fields CheckEvent checks.
constexpr EventFieldNames kChromeFieldNames{.start = "ts",
                                            .duration = "dur",
                                            .bytes = "args.bytes",
                                            .correlation = "args.corr",
                                            .thread = "tid",
                                            .stream = "args.stream",
                                            .channel = "tid",
                                            .layer = "args.layer"};

// Everything one trace-event object can carry; filled key by key, validated
// whole once the object closes (key order in the file does not matter).
struct RowFields {
  std::string ph;
  std::string name;
  std::string cat;
  bool has_tid = false;
  int64_t tid = 0;
  bool has_ts = false;
  int64_t ts_ns = 0;
  bool has_dur = false;
  int64_t dur_ns = 0;
  // args members; absent ones keep TraceEvent's defaults.
  bool has_layer = false;
  int layer = -1;
  bool has_phase = false;
  std::string phase;
  int64_t corr = 0;
  bool has_bytes = false;
  int64_t bytes = 0;
  std::string api;
  std::string copy;
  std::string comm;
  bool has_stream = false;
  int stream = -1;
  std::string model;
  std::string config;
  bool has_bucket = false;
  int bucket = -1;
};

bool IsScalar(TokenKind kind) {
  return kind == TokenKind::kString || kind == TokenKind::kNumber || kind == TokenKind::kBool ||
         kind == TokenKind::kNull;
}

class ChromeImporter {
 public:
  ChromeImporter(std::istream& in, ChromeImportStats* stats) : tok_(in), stats_(stats) {}

  std::optional<Trace> Run(std::string* error) {
    bool ok = Parse();
    if (!ok) {
      if (error != nullptr) {
        *error = error_;
      }
      return std::nullopt;
    }
    return std::move(trace_);
  }

 private:
  bool Parse() {
    if (!ExpectNext(TokenKind::kBeginArray, "top-level value must be an array")) {
      return false;
    }
    while (true) {
      const Token& t = tok_.Next();
      if (t.kind == TokenKind::kEndArray) {
        break;
      }
      if (t.kind != TokenKind::kBeginObject) {
        return FailToken(t, "every trace row must be an object");
      }
      ++row_;
      if (!ParseRow()) {
        return false;
      }
    }
    return ExpectNext(TokenKind::kEnd, "trailing content after the trace array");
  }

  bool ParseRow() {
    RowFields f;
    while (true) {
      const Token& t = tok_.Next();
      if (t.kind == TokenKind::kEndObject) {
        break;
      }
      if (t.kind != TokenKind::kKey) {
        return FailToken(t, "expected a member key");
      }
      const std::string key = t.text;
      const Token& v = tok_.Next();
      if (v.kind == TokenKind::kBeginObject) {
        if (key != "args") {
          return Fail("unexpected object value for \"" + key + "\"");
        }
        if (!ParseArgs(&f)) {
          return false;
        }
        continue;
      }
      if (!IsScalar(v.kind)) {
        return FailToken(v, "expected a scalar value for \"" + key + "\"");
      }
      if (!SetRowField(&f, key, v)) {
        return false;
      }
    }
    return FinishRow(f);
  }

  bool ParseArgs(RowFields* f) {
    while (true) {
      const Token& t = tok_.Next();
      if (t.kind == TokenKind::kEndObject) {
        return true;
      }
      if (t.kind != TokenKind::kKey) {
        return FailToken(t, "expected an args key");
      }
      const std::string key = t.text;
      const Token& v = tok_.Next();
      if (!IsScalar(v.kind)) {
        return FailToken(v, "args values must be scalars (got a container for \"" + key + "\")");
      }
      if (!SetArgField(f, key, v)) {
        return false;
      }
    }
  }

  bool SetRowField(RowFields* f, const std::string& key, const Token& v) {
    if (key == "ph" || key == "name" || key == "cat" || key == "s") {
      if (v.kind != TokenKind::kString) {
        return Fail("\"" + key + "\" must be a string");
      }
      if (key == "ph") {
        f->ph = v.text;
      } else if (key == "name") {
        f->name = v.text;
      } else if (key == "cat") {
        f->cat = v.text;
      }
      return true;
    }
    if (key == "tid") {
      return ReadInt(v, key, &f->tid, &f->has_tid);
    }
    if (key == "ts") {
      return ReadUs(v, key, &f->ts_ns, &f->has_ts);
    }
    if (key == "dur") {
      return ReadUs(v, key, &f->dur_ns, &f->has_dur);
    }
    if (key == "pid") {
      int64_t ignored = 0;
      return ReadInt(v, key, &ignored);
    }
    return true;  // unknown scalar members are ignored (foreign tools add them)
  }

  bool SetArgField(RowFields* f, const std::string& key, const Token& v) {
    if (key == "layer") {
      return ReadInt(v, key, &f->layer, &f->has_layer);
    }
    if (key == "corr") {
      return ReadInt(v, key, &f->corr);
    }
    if (key == "bytes") {
      return ReadInt(v, key, &f->bytes, &f->has_bytes);
    }
    if (key == "stream") {
      return ReadInt(v, key, &f->stream, &f->has_stream);
    }
    if (key == "bucket") {
      return ReadInt(v, key, &f->bucket, &f->has_bucket);
    }
    if (key == "phase" || key == "api" || key == "copy" || key == "comm" || key == "model" ||
        key == "config") {
      if (v.kind != TokenKind::kString) {
        return Fail("args." + key + " must be a string");
      }
      if (key == "phase") {
        f->phase = v.text;
        f->has_phase = true;
      } else if (key == "api") {
        f->api = v.text;
      } else if (key == "copy") {
        f->copy = v.text;
      } else if (key == "comm") {
        f->comm = v.text;
      } else if (key == "model") {
        f->model = v.text;
      } else {
        f->config = v.text;
      }
      return true;
    }
    return true;  // e.g. thread_name's args.name
  }

  // Ids and sizes must be plain integers that fit the field: an id past int
  // range is rejected here, never narrowed.
  template <typename T>
  bool ReadInt(const Token& v, const std::string& key, T* out, bool* has = nullptr) {
    if (v.kind != TokenKind::kNumber) {
      return Fail("\"" + key + "\" must be a number");
    }
    const std::optional<int64_t> parsed = ParseInt64(v.text);
    if (!parsed.has_value()) {
      return Fail("\"" + key + "\" must be an integer (got \"" + v.text + "\")");
    }
    if (*parsed < std::numeric_limits<T>::min() || *parsed > std::numeric_limits<T>::max()) {
      return Fail("\"" + key + "\" out of range (got \"" + v.text + "\")");
    }
    *out = static_cast<T>(*parsed);
    if (has != nullptr) {
      *has = true;
    }
    return true;
  }

  bool ReadUs(const Token& v, const std::string& key, int64_t* out, bool* has) {
    if (v.kind != TokenKind::kNumber) {
      return Fail("\"" + key + "\" must be a number");
    }
    const std::optional<int64_t> ns = ParseDecimalUsToNs(v.text);
    if (!ns.has_value()) {
      return Fail("\"" + key + "\" is not exactly representable in ns (got \"" + v.text + "\")");
    }
    *out = *ns;
    *has = true;
    return true;
  }

  bool FinishRow(const RowFields& f) {
    if (f.ph == "M") {
      return FinishMetadata(f);
    }
    if (f.ph == "X") {
      return FinishComplete(f);
    }
    if (f.ph == "i") {
      return FinishInstant(f);
    }
    if (f.ph.empty()) {
      return Fail("row is missing \"ph\"");
    }
    return Fail("unsupported ph \"" + f.ph + "\"");
  }

  bool FinishMetadata(const RowFields& f) {
    if (f.name == "daydream_trace") {
      trace_.set_model_name(f.model);
      trace_.set_config(f.config);
      return true;
    }
    if (f.name == "daydream_gradient") {
      if (!f.has_layer || !f.has_bytes || !f.has_bucket) {
        return Fail("daydream_gradient needs args layer/bytes/bucket");
      }
      const GradientInfo g{f.layer, f.bytes, f.bucket};
      const std::string broken = CheckGradient(g);
      if (!broken.empty()) {
        return Fail(broken);
      }
      trace_.AddGradientInfo(g);
      ++stats_->gradients;
      return true;
    }
    ++stats_->skipped_rows;  // thread_name, process_name, foreign metadata
    return true;
  }

  bool FinishComplete(const RowFields& f) {
    const std::optional<EventKind> kind = FromString<EventKind>(f.cat);
    if (!kind.has_value()) {
      return Fail("unknown cat \"" + f.cat + "\"");
    }
    if (*kind == EventKind::kLayerMarker) {
      return Fail("layer markers are ph:\"i\" rows, not X");
    }
    if (!f.has_tid || !f.has_ts || !f.has_dur) {
      return Fail("X row needs tid/ts/dur");
    }
    TraceEvent e;
    e.kind = *kind;
    e.name = f.name;
    e.start = f.ts_ns;
    e.duration = f.dur_ns;
    if (!DecodeLane(f.tid, &e)) {
      return false;
    }
    e.layer_id = f.layer;
    if (f.has_phase) {
      const std::optional<Phase> phase = FromString<Phase>(f.phase);
      if (!phase.has_value()) {
        return Fail("unknown args.phase \"" + f.phase + "\"");
      }
      e.phase = *phase;
    }
    e.correlation_id = f.corr;
    e.bytes = f.bytes;
    if (!f.api.empty()) {
      if (e.kind != EventKind::kRuntimeApi) {
        return Fail("args.api on a non-RuntimeApi row");
      }
      const std::optional<ApiKind> api = FromString<ApiKind>(f.api);
      if (!api.has_value()) {
        return Fail("unknown args.api \"" + f.api + "\"");
      }
      e.api = *api;
    }
    if (!f.copy.empty()) {
      if (e.kind != EventKind::kMemcpy) {
        return Fail("args.copy on a non-Memcpy row");
      }
      const std::optional<MemcpyKind> copy = FromString<MemcpyKind>(f.copy);
      if (copy.value_or(MemcpyKind::kNone) == MemcpyKind::kNone) {
        return Fail("unknown args.copy \"" + f.copy + "\"");
      }
      e.memcpy_kind = *copy;
    }
    if (!f.comm.empty()) {
      if (e.kind != EventKind::kCommunication) {
        return Fail("args.comm on a non-Communication row");
      }
      const std::optional<CommKind> comm = FromString<CommKind>(f.comm);
      if (comm.value_or(CommKind::kNone) == CommKind::kNone) {
        return Fail("unknown args.comm \"" + f.comm + "\"");
      }
      e.comm_kind = *comm;
    }
    if (f.has_stream) {
      // Target stream of a CPU-side synchronization call (the exporter only
      // emits args.stream for CPU rows; GPU rows carry the stream in the tid).
      if (!e.is_cpu()) {
        return Fail("args.stream on a non-CPU row");
      }
      e.stream_id = f.stream;
    }
    return AddEvent(std::move(e));
  }

  bool FinishInstant(const RowFields& f) {
    if (!f.has_tid || !f.has_ts) {
      return Fail("instant row needs tid/ts");
    }
    // "<name>/<phase>/<begin|end>"; the marker's own name may contain '/',
    // so the phase and edge are the LAST two segments.
    const size_t edge_cut = f.name.rfind('/');
    const size_t phase_cut = edge_cut == std::string::npos || edge_cut == 0
                                 ? std::string::npos
                                 : f.name.rfind('/', edge_cut - 1);
    if (edge_cut == std::string::npos || phase_cut == std::string::npos) {
      return Fail("instant name must be \"<name>/<phase>/<begin|end>\"");
    }
    const std::string edge = f.name.substr(edge_cut + 1);
    const std::string phase_name = f.name.substr(phase_cut + 1, edge_cut - phase_cut - 1);
    TraceEvent e;
    e.kind = EventKind::kLayerMarker;
    e.name = f.name.substr(0, phase_cut);
    if (edge == "begin") {
      e.marker_begin = true;
    } else if (edge == "end") {
      e.marker_begin = false;
    } else {
      return Fail("instant name must end in /begin or /end");
    }
    const std::optional<Phase> phase = FromString<Phase>(phase_name);
    if (!phase.has_value()) {
      return Fail("unknown marker phase \"" + phase_name + "\"");
    }
    e.phase = *phase;
    e.start = f.ts_ns;
    if (f.tid < 0 || f.tid >= 1000) {
      return Fail("marker tid outside the CPU row band [0, 1000)");
    }
    e.thread_id = static_cast<int>(f.tid);
    e.layer_id = f.layer;
    return AddEvent(std::move(e));
  }

  bool AddEvent(TraceEvent e) {
    const std::string broken = CheckEvent(e, kChromeFieldNames);
    if (!broken.empty()) {
      return Fail(broken);
    }
    trace_.Add(std::move(e));
    ++stats_->events;
    return true;
  }

  // The exporter's RowTid bands: CPU thread = tid, GPU stream = 1000 + id,
  // comm channel = 2000 + id. The band must agree with the cat.
  bool DecodeLane(int64_t tid, TraceEvent* e) {
    if (e->is_cpu()) {
      if (tid < 0 || tid >= 1000) {
        return Fail("CPU row tid outside [0, 1000)");
      }
      e->thread_id = static_cast<int>(tid);
      return true;
    }
    if (e->is_gpu()) {
      if (tid < 1000 || tid >= 2000) {
        return Fail("GPU row tid outside [1000, 2000)");
      }
      e->stream_id = static_cast<int>(tid - 1000);
      return true;
    }
    if (tid < 2000 || tid - 2000 > std::numeric_limits<int>::max()) {
      return Fail("comm row tid below 2000");
    }
    e->channel_id = static_cast<int>(tid - 2000);
    return true;
  }

  bool ExpectNext(TokenKind kind, const std::string& message) {
    const Token& t = tok_.Next();
    if (t.kind == kind) {
      return true;
    }
    return FailToken(t, message);
  }

  // Tokenizer errors carry their own message; grammar surprises get ours.
  bool FailToken(const Token& t, const std::string& message) {
    return Fail(t.kind == TokenKind::kError ? t.text : message);
  }

  bool Fail(const std::string& message) {
    error_ = StrFormat("row %llu (offset %llu): %s", static_cast<unsigned long long>(row_),
                       static_cast<unsigned long long>(tok_.offset()), message.c_str());
    return false;
  }

  JsonStreamTokenizer tok_;
  ChromeImportStats* stats_;
  Trace trace_;
  std::string error_;
  uint64_t row_ = 0;
};

}  // namespace

std::optional<Trace> ImportChromeTrace(std::istream& in, std::string* error,
                                       ChromeImportStats* stats) {
  ChromeImportStats scratch;
  ChromeImporter importer(in, stats != nullptr ? stats : &scratch);
  return importer.Run(error);
}

std::optional<Trace> ImportChromeTraceFile(const std::string& path, std::string* error,
                                           ChromeImportStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  return ImportChromeTrace(in, error, stats);
}

}  // namespace daydream
