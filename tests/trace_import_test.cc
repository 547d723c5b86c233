// Importer suite: streaming tokenizer, CUPTI record streams, Chrome trace
// round trip, and the hostile-input corpus under tests/fuzz/.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/graph_builder.h"
#include "src/runtime/config.h"
#include "src/runtime/ground_truth.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/import_chrome.h"
#include "src/trace/import_cupti.h"
#include "src/trace/trace_io.h"
#include "src/util/json_stream.h"

namespace daydream {
namespace {

using TokenKind = JsonStreamTokenizer::TokenKind;

// ---------------------------------------------------------------------------
// Streaming tokenizer
// ---------------------------------------------------------------------------

std::vector<TokenKind> Kinds(const std::string& text) {
  std::stringstream in(text);
  JsonStreamTokenizer tok(in);
  std::vector<TokenKind> kinds;
  for (int guard = 0; guard < 1000; ++guard) {
    kinds.push_back(tok.Next().kind);
    if (kinds.back() == TokenKind::kEnd || kinds.back() == TokenKind::kError) {
      return kinds;
    }
  }
  ADD_FAILURE() << "tokenizer did not terminate";
  return kinds;
}

TEST(JsonStream, TokenizesNestedDocument) {
  const std::vector<TokenKind> kinds =
      Kinds(R"([{"a":1,"b":[true,null,"x"]},{"c":{"d":-2.5}}])");
  const std::vector<TokenKind> expected = {
      TokenKind::kBeginArray,  TokenKind::kBeginObject, TokenKind::kKey,
      TokenKind::kNumber,      TokenKind::kKey,         TokenKind::kBeginArray,
      TokenKind::kBool,        TokenKind::kNull,        TokenKind::kString,
      TokenKind::kEndArray,    TokenKind::kEndObject,   TokenKind::kBeginObject,
      TokenKind::kKey,         TokenKind::kBeginObject, TokenKind::kKey,
      TokenKind::kNumber,      TokenKind::kEndObject,   TokenKind::kEndObject,
      TokenKind::kEndArray,    TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(JsonStream, NumberTokensKeepRawText) {
  std::stringstream in(R"({"big":1152921504606846977})");
  JsonStreamTokenizer tok(in);
  EXPECT_EQ(tok.Next().kind, TokenKind::kBeginObject);
  EXPECT_EQ(tok.Next().kind, TokenKind::kKey);
  const auto& t = tok.Next();
  EXPECT_EQ(t.kind, TokenKind::kNumber);
  EXPECT_EQ(t.text, "1152921504606846977");  // exact past 2^53, no double trip
}

TEST(JsonStream, ErrorsAreStickyAndPositioned) {
  std::stringstream in(R"([{"a":)");
  JsonStreamTokenizer tok(in);
  while (tok.Next().kind != TokenKind::kError) {
  }
  EXPECT_EQ(tok.token().text, "unexpected end of input");
  EXPECT_EQ(tok.offset(), 6u);
  EXPECT_EQ(tok.Next().kind, TokenKind::kError);  // sticky
}

TEST(JsonStream, EndIsSticky) {
  std::stringstream in("[]");
  JsonStreamTokenizer tok(in);
  EXPECT_EQ(tok.Next().kind, TokenKind::kBeginArray);
  EXPECT_EQ(tok.Next().kind, TokenKind::kEndArray);
  EXPECT_EQ(tok.Next().kind, TokenKind::kEnd);
  EXPECT_EQ(tok.Next().kind, TokenKind::kEnd);
}

TEST(JsonStream, RejectsTrailingGarbage) {
  const std::vector<TokenKind> kinds = Kinds("[] x");
  EXPECT_EQ(kinds.back(), TokenKind::kError);
}

TEST(JsonStream, RejectsGrammarViolations) {
  for (const char* text : {"[1 2]", R"({"a" 1})", R"({"a":1,})", "[,1]", "[truth]", "{1:2}",
                           R"(["\q"])", "[+1]", "[1.2.3]", "[01x]"}) {
    EXPECT_EQ(Kinds(text).back(), TokenKind::kError) << text;
  }
}

TEST(JsonStream, DepthLimitStopsHostileNesting) {
  const std::string bomb(10000, '[');
  std::stringstream in(bomb);
  JsonStreamTokenizer tok(in);
  int depth = 0;
  while (tok.Next().kind == TokenKind::kBeginArray) {
    ++depth;
  }
  EXPECT_EQ(tok.token().kind, TokenKind::kError);
  EXPECT_EQ(depth, 32);  // default Limits::max_depth
}

TEST(JsonStream, StringAndNumberSizeLimits) {
  JsonStreamTokenizer::Limits limits;
  limits.max_string_bytes = 8;
  limits.max_number_bytes = 4;
  {
    std::stringstream in(R"(["123456789012345"])");
    JsonStreamTokenizer tok(in, limits);
    tok.Next();
    EXPECT_EQ(tok.Next().kind, TokenKind::kError);
  }
  {
    std::stringstream in("[123456789]");
    JsonStreamTokenizer tok(in, limits);
    tok.Next();
    EXPECT_EQ(tok.Next().kind, TokenKind::kError);
  }
}

// The bounded-memory guarantee: a document arbitrarily larger than the caps
// never inflates the transient buffer past one token + the depth stack.
TEST(JsonStream, BufferStaysBoundedOnLargeDocuments) {
  std::stringstream in;
  in << "[";
  for (int i = 0; i < 20000; ++i) {
    in << (i > 0 ? "," : "") << R"({"name":"event_)" << i << R"(","ts":)" << i * 1000 << "}";
  }
  in << "]";
  const uint64_t total = static_cast<uint64_t>(in.str().size());
  JsonStreamTokenizer tok(in);
  while (tok.Next().kind != TokenKind::kEnd) {
    ASSERT_NE(tok.token().kind, TokenKind::kError) << tok.token().text;
  }
  EXPECT_EQ(tok.offset(), total);
  EXPECT_LT(tok.max_buffered_bytes(), 256u);  // ~500KB document, <256B resident
}

TEST(JsonStream, ParseDecimalUsToNsIsExact) {
  EXPECT_EQ(ParseDecimalUsToNs("1.500"), 1500);
  EXPECT_EQ(ParseDecimalUsToNs("0.001"), 1);
  EXPECT_EQ(ParseDecimalUsToNs("1234"), 1234000);
  EXPECT_EQ(ParseDecimalUsToNs("-3.25"), -3250);
  EXPECT_EQ(ParseDecimalUsToNs("1.500000"), 1500);  // trailing zeros are fine
  // INT64_MAX / INT64_MIN nanoseconds, written as microseconds.
  EXPECT_EQ(ParseDecimalUsToNs("9223372036854775.807"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseDecimalUsToNs("-9223372036854775.808"), std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(ParseDecimalUsToNs("9223372036854775.808").has_value());  // overflow
  EXPECT_FALSE(ParseDecimalUsToNs("1.0005").has_value());  // sub-ns precision
  EXPECT_FALSE(ParseDecimalUsToNs("1e3").has_value());
  EXPECT_FALSE(ParseDecimalUsToNs("1.").has_value());
  EXPECT_FALSE(ParseDecimalUsToNs(".5").has_value());
  EXPECT_FALSE(ParseDecimalUsToNs("12ab").has_value());
  EXPECT_FALSE(ParseDecimalUsToNs("").has_value());
}

// ---------------------------------------------------------------------------
// CUPTI record streams
// ---------------------------------------------------------------------------

std::optional<Trace> Cupti(const std::string& text, std::string* error = nullptr,
                           CuptiImportStats* stats = nullptr) {
  std::stringstream in(text);
  return ImportCuptiTrace(in, error, stats);
}

constexpr char kCuptiFixture[] = R"({"kind":"trace","model":"ResNet-50","config":"batch=64"}
{"kind":"gradient","layer":0,"bytes":1048576,"bucket":0}
{"kind":"marker","name":"conv1","layer":0,"phase":"forward","begin":true,"start":900,"threadId":1}
{"kind":"runtime","name":"cudaLaunchKernel_v7000","start":1000,"end":1500,"processId":7,"threadId":1,"correlationId":42}
{"kind":"runtime","name":"cudaMemcpyAsync","start":1600,"end":1700,"processId":7,"threadId":1,"correlationId":43}
{"kind":"kernel","name":"volta_sgemm","start":2100,"end":9000,"streamId":0,"correlationId":42}
{"kind":"memcpy","copyKind":"HtoD","bytes":4096,"start":9100,"end":9600,"streamId":1,"correlationId":43}
{"kind":"marker","name":"conv1","layer":0,"phase":"forward","begin":false,"start":9700,"threadId":1}
{"kind":"comm","commKind":"allReduce","channelId":0,"bytes":1048576,"start":9700,"end":12000}
{"kind":"dataload","name":"batch_0","start":0,"end":800,"threadId":2}
)";

TEST(CuptiImport, ReconstructsTraceAndMatchesCorrelations) {
  std::string error;
  CuptiImportStats stats;
  const std::optional<Trace> trace = Cupti(kCuptiFixture, &error, &stats);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->model_name(), "ResNet-50");
  EXPECT_EQ(trace->config(), "batch=64");
  ASSERT_EQ(trace->gradients().size(), 1u);
  EXPECT_EQ(trace->gradients()[0].bytes, 1048576);
  EXPECT_EQ(stats.records, 10u);
  EXPECT_EQ(stats.events, 8u);
  EXPECT_EQ(stats.matched, 2u);
  EXPECT_EQ(stats.unmatched_gpu + stats.unmatched_launch + stats.duplicate_gpu +
                stats.duplicate_launch,
            0u);
  EXPECT_TRUE(trace->Validate().ok());

  // Event order is record order: marker, launch, launch, kernel, memcpy,
  // marker, comm, dataload.
  const TraceEvent& launch = trace->events()[1];
  EXPECT_EQ(launch.kind, EventKind::kRuntimeApi);
  EXPECT_EQ(launch.api, ApiKind::kLaunchKernel);  // _v7000 suffix stripped
  EXPECT_EQ(launch.thread_id, 1);
  EXPECT_EQ(launch.duration, 500);
  const TraceEvent& copy = trace->events()[4];
  EXPECT_EQ(copy.kind, EventKind::kMemcpy);
  EXPECT_EQ(copy.memcpy_kind, MemcpyKind::kHostToDevice);
  EXPECT_EQ(copy.bytes, 4096);
  const TraceEvent& comm = trace->events()[6];
  EXPECT_EQ(comm.kind, EventKind::kCommunication);
  EXPECT_EQ(comm.comm_kind, CommKind::kAllReduce);
  EXPECT_EQ(comm.channel_id, 0);
}

// The acceptance check for §4.2.2: the imported stream must yield the
// CPU→GPU correlation edges when fed to the graph builder.
TEST(CuptiImport, GraphBuilderReconstructsCpuToGpuEdges) {
  const std::optional<Trace> trace = Cupti(kCuptiFixture);
  ASSERT_TRUE(trace.has_value());
  const DependencyGraph graph = BuildDependencyGraph(*trace);
  TaskId launch42 = kInvalidTask, kernel42 = kInvalidTask;
  TaskId launch43 = kInvalidTask, memcpy43 = kInvalidTask;
  for (TaskId id = 0; id < graph.capacity(); ++id) {
    if (!graph.alive(id)) {
      continue;
    }
    const Task& t = graph.task(id);
    if (t.correlation_id == 42) {
      (t.is_gpu() ? kernel42 : launch42) = id;
    }
    if (t.correlation_id == 43) {
      (t.is_gpu() ? memcpy43 : launch43) = id;
    }
  }
  ASSERT_NE(launch42, kInvalidTask);
  ASSERT_NE(kernel42, kInvalidTask);
  ASSERT_NE(launch43, kInvalidTask);
  ASSERT_NE(memcpy43, kInvalidTask);
  EXPECT_TRUE(graph.HasEdge(launch42, kernel42));
  EXPECT_TRUE(graph.HasEdge(launch43, memcpy43));
  EXPECT_FALSE(graph.HasEdge(launch42, memcpy43));
}

TEST(CuptiImport, MatchesOutOfOrderBufferFlushes) {
  CuptiImportStats stats;
  const std::optional<Trace> trace = Cupti(
      R"({"kind":"kernel","name":"k","start":2000,"end":3000,"streamId":0,"correlationId":5}
{"kind":"runtime","name":"cudaLaunchKernel","start":0,"end":100,"threadId":0,"correlationId":5}
)",
      nullptr, &stats);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(stats.matched, 1u);
  EXPECT_EQ(trace->events()[0].correlation_id, 5);
  EXPECT_TRUE(trace->Validate().ok());
}

TEST(CuptiImport, RepairsDuplicateAndUnmatchedCorrelations) {
  CuptiImportStats stats;
  const std::optional<Trace> trace = Cupti(
      R"({"kind":"runtime","name":"cudaLaunchKernel","start":0,"end":100,"threadId":0,"correlationId":5}
{"kind":"runtime","name":"cudaLaunchKernel","start":200,"end":300,"threadId":0,"correlationId":5}
{"kind":"kernel","name":"k1","start":2000,"end":3000,"streamId":0,"correlationId":5}
{"kind":"kernel","name":"k2","start":3000,"end":4000,"streamId":0,"correlationId":5}
{"kind":"kernel","name":"orphan","start":4000,"end":5000,"streamId":0,"correlationId":9}
{"kind":"runtime","name":"cudaLaunchKernel","start":400,"end":500,"threadId":0,"correlationId":6}
)",
      nullptr, &stats);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(stats.duplicate_launch, 1u);
  EXPECT_EQ(stats.duplicate_gpu, 1u);
  EXPECT_EQ(stats.unmatched_gpu, 1u);   // corr 9 never saw a launch
  EXPECT_EQ(stats.unmatched_launch, 1u);  // corr 6 never saw a GPU task
  EXPECT_EQ(stats.matched, 1u);
  // The repaired trace carries every event but no conflicting ids.
  EXPECT_EQ(trace->size(), 6u);
  EXPECT_EQ(trace->events()[1].correlation_id, 0);  // duplicate launch cleared
  EXPECT_EQ(trace->events()[3].correlation_id, 0);  // duplicate kernel cleared
  EXPECT_EQ(trace->events()[4].correlation_id, 0);  // orphan kernel cleared
  EXPECT_TRUE(trace->Validate().ok());
}

TEST(CuptiImport, CorrelationIdsExactPast2e53) {
  // 2^60 + 1 is not representable as a double; the importer must keep it.
  CuptiImportStats stats;
  const std::optional<Trace> trace = Cupti(
      R"({"kind":"runtime","name":"cudaLaunchKernel","start":0,"end":100,"threadId":0,"correlationId":1152921504606846977}
{"kind":"kernel","name":"k","start":200,"end":300,"streamId":0,"correlationId":1152921504606846977}
)",
      nullptr, &stats);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(stats.matched, 1u);
  EXPECT_EQ(trace->events()[0].correlation_id, INT64_C(1152921504606846977));
}

TEST(CuptiImport, AcceptsCrlfAndBlankLines) {
  const std::optional<Trace> trace = Cupti(
      "{\"kind\":\"trace\",\"model\":\"m\",\"config\":\"c\"}\r\n\r\n"
      "{\"kind\":\"dataload\",\"name\":\"b\",\"start\":0,\"end\":10,\"threadId\":0}\r\n");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->model_name(), "m");
  EXPECT_EQ(trace->size(), 1u);
}

TEST(CuptiImport, RejectsMalformedRecordsWithLineNumbers) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"{\"kind\":\"dataload\",\"start\":0,\"end\":10,\"threadId\":0}\nnot json\n", "line 2"},
      {R"({"kind":"warp_divergence","start":0,"end":1})", "unknown record kind"},
      {R"({"name":"x","start":0,"end":1})", "\"kind\""},
      {R"({"kind":"kernel","name":"k","start":100,"end":50,"streamId":0})", "end precedes start"},
      {R"({"kind":"kernel","name":"k","start":-5,"end":50,"streamId":0})", "negative start"},
      {R"({"kind":"kernel","name":"k","start":0,"end":50,"streamId":-3})", "streamId"},
      {R"({"kind":"dataload","name":"b","start":0,"end":10,"threadId":-2})", "threadId"},
      {R"({"kind":"dataload","name":"b","start":0,"end":10})", "threadId"},
      {R"({"kind":"runtime","name":"r","start":0,"end":1,"threadId":0,"correlationId":-4})",
       "negative correlationId"},
      {R"({"kind":"runtime","name":"r","start":0,"end":1,"threadId":0,"correlationId":1.5})",
       "correlationId"},
      {R"({"kind":"memcpy","name":"m","start":0,"end":1,"streamId":0,"copyKind":"sideways"})",
       "copyKind"},
      {R"({"kind":"memcpy","name":"m","start":0,"end":1,"streamId":0,"copyKind":"HtoD","bytes":-1})",
       "negative bytes"},
      {R"({"kind":"comm","name":"c","start":0,"end":1,"channelId":0,"commKind":"gossip"})",
       "commKind"},
      {R"({"kind":"marker","name":"l","start":5,"threadId":0,"layer":0,"phase":"forward"})",
       "begin"},
      {R"({"kind":"marker","name":"l","start":5,"threadId":0,"layer":0,"phase":"sideways","begin":true})",
       "phase"},
      {R"({"kind":"gradient","layer":0,"bytes":-5,"bucket":0})", "negative gradient bytes"},
      {"{\"kind\":\"runtime\",\"name\":\"r\",\"start\":0,\"end\":1,\"threadId\":0,\"processId\":1}\n"
       "{\"kind\":\"runtime\",\"name\":\"r\",\"start\":2,\"end\":3,\"threadId\":0,\"processId\":2}\n",
       "second processId"},
      // Int-typed fields are range-checked, never narrowed.
      {R"({"kind":"gradient","layer":4294967296,"bytes":8,"bucket":4294967297})",
       "\"layer\" out of range"},
      {R"({"kind":"gradient","layer":0,"bytes":8,"bucket":4294967297})", "\"bucket\" out of range"},
      {R"({"kind":"gradient","layer":-7,"bytes":8,"bucket":0})", "gradient layer/bucket"},
      {R"({"kind":"kernel","name":"k","start":0,"end":1,"streamId":0,"layer":4294967299})",
       "\"layer\" out of range"},
      {R"({"kind":"comm","name":"c","start":0,"end":1,"channelId":0,"commKind":"p2p","layer":4294967296})",
       "\"layer\" out of range"},
      {R"({"kind":"marker","name":"l","start":5,"threadId":0,"layer":-7,"phase":"forward","begin":true})",
       "bad layer"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(Cupti(c.text, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error << "\n" << c.text;
  }
}

// ---------------------------------------------------------------------------
// Chrome trace round trip
// ---------------------------------------------------------------------------

std::optional<Trace> Chrome(const std::string& text, std::string* error = nullptr,
                            ChromeImportStats* stats = nullptr) {
  std::stringstream in(text);
  return ImportChromeTrace(in, error, stats);
}

std::string Dump(const Trace& trace) {
  std::stringstream out;
  WriteTrace(trace, out);
  return out.str();
}

// Every event kind, every lossy-prone field: sync target streams, comm
// kinds, memcpy kinds, markers whose names contain '/', gradients, metadata.
Trace FullCoverageTrace() {
  Trace t;
  t.set_model_name("TinyMLP");
  t.set_config("batch=8 iterations=1");
  GradientInfo g;
  g.layer_id = 3;
  g.bytes = 65536;
  g.bucket_id = 1;
  t.AddGradientInfo(g);

  TraceEvent marker;
  marker.kind = EventKind::kLayerMarker;
  marker.name = "fc1/relu";  // '/' in the name must survive the instant split
  marker.layer_id = 3;
  marker.phase = Phase::kForward;
  marker.marker_begin = true;
  marker.start = 100;
  marker.thread_id = 0;
  t.Add(marker);

  TraceEvent load;
  load.kind = EventKind::kDataLoad;
  load.name = "batch_0";
  load.phase = Phase::kDataLoad;
  load.start = 0;
  load.duration = 90;
  load.thread_id = 2;
  t.Add(load);

  TraceEvent launch;
  launch.kind = EventKind::kRuntimeApi;
  launch.api = ApiKind::kLaunchKernel;
  launch.name = "cudaLaunchKernel";
  launch.start = 200;
  launch.duration = 50;
  launch.thread_id = 0;
  launch.correlation_id = 42;
  launch.layer_id = 3;
  launch.phase = Phase::kForward;
  t.Add(launch);

  TraceEvent sync;
  sync.kind = EventKind::kRuntimeApi;
  sync.api = ApiKind::kStreamSynchronize;
  sync.name = "cudaStreamSynchronize";
  sync.start = 300;
  sync.duration = 400;
  sync.thread_id = 0;
  sync.stream_id = 7;  // the target stream the graph builder needs
  t.Add(sync);

  TraceEvent kernel;
  kernel.kind = EventKind::kKernel;
  kernel.name = "gemm";
  kernel.start = 260;
  kernel.duration = 400;
  kernel.stream_id = 7;
  kernel.correlation_id = 42;
  kernel.layer_id = 3;
  kernel.phase = Phase::kForward;
  t.Add(kernel);

  TraceEvent copy;
  copy.kind = EventKind::kMemcpy;
  copy.name = "memcpyDtoH";
  copy.memcpy_kind = MemcpyKind::kDeviceToHost;
  copy.start = 700;
  copy.duration = 120;
  copy.stream_id = 7;
  copy.bytes = 4096;
  t.Add(copy);

  TraceEvent comm;
  comm.kind = EventKind::kCommunication;
  comm.name = "allReduce";
  comm.comm_kind = CommKind::kAllReduce;
  comm.start = 900;
  comm.duration = 2000;
  comm.channel_id = 1;
  comm.bytes = 65536;
  comm.phase = Phase::kWeightUpdate;
  t.Add(comm);
  return t;
}

TEST(ChromeImport, RoundTripsEveryEventKindByteExactly) {
  const Trace original = FullCoverageTrace();
  std::stringstream chrome;
  WriteChromeTrace(original, chrome);
  std::string error;
  ChromeImportStats stats;
  const std::optional<Trace> imported = Chrome(chrome.str(), &error, &stats);
  ASSERT_TRUE(imported.has_value()) << error;
  EXPECT_EQ(Dump(*imported), Dump(original));
  EXPECT_EQ(stats.events, original.size());
  EXPECT_EQ(stats.gradients, 1u);
}

// End-to-end with the real collector: the model-zoo trace survives
// ddtrace -> chrome -> import with byte identity.
TEST(ChromeImport, RoundTripsCollectedModelZooTrace) {
  const Trace original = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), 1);
  ASSERT_GT(original.size(), 0u);
  std::stringstream chrome;
  WriteChromeTrace(original, chrome);
  std::string error;
  const std::optional<Trace> imported = Chrome(chrome.str(), &error);
  ASSERT_TRUE(imported.has_value()) << error;
  EXPECT_EQ(Dump(*imported), Dump(original));
  EXPECT_TRUE(imported->Validate().ok());
}

TEST(ChromeImport, SkipsForeignMetadataRows) {
  ChromeImportStats stats;
  const std::optional<Trace> trace = Chrome(
      R"([{"name":"process_name","ph":"M","pid":1,"args":{"name":"python"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"CPU thread 0"}}])",
      nullptr, &stats);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->size(), 0u);
  EXPECT_EQ(stats.skipped_rows, 2u);
}

TEST(ChromeImport, RejectsHostileInputWithPositionedErrors) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"", "unexpected end of input"},
      {"[", "unexpected end of input"},
      {R"([{"name":"x","ph":"X","cat":"Kernel","tid":1000,"ts":1.0)", "unexpected end of input"},
      {R"({"name":"x"})", "must be an array"},
      {R"([42])", "must be an object"},
      {R"([{"name":"x","ph":"X","cat":"Kernel","tid":1000,"ts":1.0,"dur":1.0,"args":{}}] trailing)",
       "trailing"},
      {R"([{"ph":"B","name":"x"}])", "unsupported ph"},
      {R"([{"name":"x","cat":"Kernel","tid":1000,"ts":1.0,"dur":1.0}])", "missing \"ph\""},
      {R"([{"ph":"X","name":"x","cat":"Mystery","tid":1000,"ts":1.0,"dur":1.0}])", "unknown cat"},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":3,"ts":1.0,"dur":1.0}])", "GPU row tid"},
      {R"([{"ph":"X","name":"x","cat":"RuntimeApi","tid":-2,"ts":1.0,"dur":1.0}])", "CPU row tid"},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":1000,"ts":-5.0,"dur":1.0}])", "negative"},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":1000,"ts":1.0,"dur":1.0,"args":{"corr":1.5}}])",
       "\"corr\""},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":1000,"ts":1.0,"dur":1.0,"args":{"corr":-2}}])",
       "negative args.corr"},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":1000,"ts":1.0,"dur":1.0,"args":{"api":"cudaFree"}}])",
       "args.api"},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":1000,"ts":1.0,"dur":1.0,"args":{"nest":{}}}])",
       "args values must be scalars"},
      {R"([{"ph":"i","name":"nomarker","tid":0,"ts":1.0}])", "<name>/<phase>/<begin|end>"},
      {R"([{"ph":"i","name":"l/forward/maybe","tid":0,"ts":1.0}])", "/begin or /end"},
      {R"([{"ph":"i","name":"l/sideways/begin","tid":0,"ts":1.0}])", "unknown marker phase"},
      {R"([{"ph":"M","name":"daydream_gradient","pid":1,"args":{"layer":0}}])",
       "layer/bytes/bucket"},
      {R"([{"ph":"X","name":"x","cat":"Kernel","tid":1e2,"ts":1.0,"dur":1.0}])", "\"tid\""},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(Chrome(c.text, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error << "\n" << c.text;
  }
}

TEST(ChromeImport, TimestampsSurvivePastDoublePrecision) {
  // 2^53 ns is ~104.6 days; CUPTI epoch timestamps live out there. %.3f µs
  // keeps ns exactness and the importer must decode it without a double.
  Trace t;
  TraceEvent k;
  k.kind = EventKind::kKernel;
  k.name = "late";
  k.start = INT64_C(9007199254740993);  // 2^53 + 1
  k.duration = 1;
  k.stream_id = 0;
  t.Add(k);
  std::stringstream chrome;
  WriteChromeTrace(t, chrome);
  std::string error;
  const std::optional<Trace> imported = Chrome(chrome.str(), &error);
  ASSERT_TRUE(imported.has_value()) << error;
  EXPECT_EQ(imported->events()[0].start, INT64_C(9007199254740993));
  EXPECT_EQ(imported->events()[0].duration, 1);
}

// ---------------------------------------------------------------------------
// Format dispatch
// ---------------------------------------------------------------------------

TEST(TraceFormat, ParsesNamesCaseInsensitively) {
  EXPECT_EQ(ParseTraceFormat("ddtrace"), TraceFormat::kDdtrace);
  EXPECT_EQ(ParseTraceFormat("CUPTI"), TraceFormat::kCupti);
  EXPECT_EQ(ParseTraceFormat("Chrome"), TraceFormat::kChrome);
  EXPECT_FALSE(ParseTraceFormat("nvprof").has_value());
  EXPECT_FALSE(ParseTraceFormat("").has_value());
  EXPECT_STREQ(ToString(TraceFormat::kCupti), "cupti");
}

TEST(TraceFormat, ReadTraceFileAsDispatches) {
  const std::string dir = ::testing::TempDir();
  const Trace original = FullCoverageTrace();
  const std::string ddtrace_path = dir + "/roundtrip.ddtrace";
  const std::string chrome_path = dir + "/roundtrip.chrome.json";
  ASSERT_TRUE(WriteTraceFile(original, ddtrace_path));
  ASSERT_TRUE(WriteChromeTraceFile(original, chrome_path));

  std::string error;
  const std::optional<Trace> native = ReadTraceFileAs(ddtrace_path, TraceFormat::kDdtrace, &error);
  ASSERT_TRUE(native.has_value()) << error;
  const std::optional<Trace> chrome = ReadTraceFileAs(chrome_path, TraceFormat::kChrome, &error);
  ASSERT_TRUE(chrome.has_value()) << error;
  EXPECT_EQ(Dump(*native), Dump(original));
  EXPECT_EQ(Dump(*chrome), Dump(original));

  EXPECT_FALSE(ReadTraceFileAs(chrome_path, TraceFormat::kCupti, &error).has_value());
  EXPECT_FALSE(ReadTraceFileAs(dir + "/missing.ddtrace", TraceFormat::kChrome, &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzz corpus: every committed hostile input must be rejected or parsed —
// never a crash, hang, or sanitizer report. Both importers eat every file
// regardless of which format the sample was written against.
// ---------------------------------------------------------------------------

TEST(FuzzCorpus, ImportersSurviveEveryCorpusFile) {
  const std::filesystem::path dir(DAYDREAM_FUZZ_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    ++files;
    const std::string path = entry.path().string();
    {
      std::ifstream in(path, std::ios::binary);
      std::string error;
      ImportCuptiTrace(in, &error);
    }
    {
      std::ifstream in(path, std::ios::binary);
      std::string error;
      ImportChromeTrace(in, &error);
    }
  }
  EXPECT_GE(files, 10u) << "fuzz corpus went missing";
}

}  // namespace
}  // namespace daydream
