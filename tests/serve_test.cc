// `daydream serve` protocol tests: RequestExecutor request/response envelopes
// (driven with plain strings, no transport) and the stdio front end end to
// end over string streams. Flat responses are parsed back with the protocol's
// own ParseJsonObject — the daemon must emit what its parser accepts.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/ground_truth.h"
#include "src/service/request_executor.h"
#include "src/service/serve.h"
#include "src/service/version.h"
#include "src/trace/trace_io.h"
#include "src/util/fault.h"
#include "src/util/json.h"

namespace daydream {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process name: ctest runs every test case as its own process, and
    // concurrent suites must not rewrite a trace another one is reading.
    trace_path_ = new std::string(::testing::TempDir() + "serve_test_tinymlp." +
                                  std::to_string(getpid()) + ".ddtrace");
    const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp));
    ASSERT_TRUE(WriteTraceFile(trace, *trace_path_));
  }
  static void TearDownTestSuite() {
    std::remove(trace_path_->c_str());
    delete trace_path_;
    trace_path_ = nullptr;
  }

  // Parses a flat response line with the protocol's own parser.
  static JsonObject Parse(const std::string& line) {
    std::string error;
    const std::optional<JsonObject> object = ParseJsonObject(line, &error);
    EXPECT_TRUE(object.has_value()) << error << "\nline: " << line;
    return object.value_or(JsonObject{});
  }

  // Issues `open` and returns the handle.
  static std::string Open(RequestExecutor* executor) {
    const JsonObject response = Parse(
        executor->Handle("{\"verb\": \"open\", \"trace\": \"" + *trace_path_ + "\"}").line);
    EXPECT_TRUE(response.GetBool("ok"));
    const std::string handle = response.GetString("session");
    EXPECT_FALSE(handle.empty());
    return handle;
  }

  static std::string* trace_path_;
};

std::string* ServeTest::trace_path_ = nullptr;

// ---- RequestExecutor envelopes ----

TEST_F(ServeTest, PingEchoesTheRequestId) {
  RequestExecutor executor;
  // A number id round-trips as its source token, a string id re-quoted, a
  // missing id is omitted.
  EXPECT_EQ(executor.Handle("{\"id\": 7, \"verb\": \"ping\"}").line,
            "{\"id\": 7, \"ok\": true}");
  EXPECT_EQ(executor.Handle("{\"id\": \"req-1\", \"verb\": \"ping\"}").line,
            "{\"id\": \"req-1\", \"ok\": true}");
  EXPECT_EQ(executor.Handle("{\"verb\": \"ping\"}").line, "{\"ok\": true}");
}

TEST_F(ServeTest, MalformedLineGetsAParseErrorEnvelope) {
  RequestExecutor executor;
  const JsonObject response = Parse(executor.Handle("this is not json").line);
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "parse_error");
  // Nested containers are outside the flat request subset.
  const JsonObject nested =
      Parse(executor.Handle("{\"verb\": \"ping\", \"extra\": [1]}").line);
  EXPECT_EQ(nested.GetString("code"), "parse_error");
  EXPECT_NE(nested.GetString("error").find("nested"), std::string::npos);
}

TEST_F(ServeTest, MissingVerbIsABadRequest) {
  RequestExecutor executor;
  const JsonObject response = Parse(executor.Handle("{\"id\": 1}").line);
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "bad_request");
}

TEST_F(ServeTest, UnknownVerbNamesItselfAndTheCatalog) {
  RequestExecutor executor;
  const JsonObject response =
      Parse(executor.Handle("{\"id\": 2, \"verb\": \"frobnicate\"}").line);
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "unknown_verb");
  EXPECT_NE(response.GetString("error").find("frobnicate"), std::string::npos);
  EXPECT_NE(response.GetString("error").find("predict"), std::string::npos);
  EXPECT_NE(response.GetString("error").find("shutdown"), std::string::npos);
}

TEST_F(ServeTest, VersionVerbMatchesTheBuildIdentity) {
  RequestExecutor executor;
  const JsonObject response = Parse(executor.Handle("{\"verb\": \"version\"}").line);
  EXPECT_TRUE(response.GetBool("ok"));
  EXPECT_EQ(response.GetString("version"), DaydreamVersionString());
  EXPECT_EQ(response.GetNumber("protocol"), kServeProtocolVersion);
  EXPECT_EQ(response.GetString("trace_schema"), kTraceSchemaVersion);
}

TEST_F(ServeTest, OpenRejectsMissingAndUnreadableTraces) {
  RequestExecutor executor;
  const JsonObject missing = Parse(executor.Handle("{\"verb\": \"open\"}").line);
  EXPECT_EQ(missing.GetString("code"), "bad_request");
  const JsonObject unreadable = Parse(
      executor.Handle("{\"verb\": \"open\", \"trace\": \"/nonexistent.ddtrace\"}").line);
  EXPECT_EQ(unreadable.GetString("code"), "bad_request");
  EXPECT_NE(unreadable.GetString("error").find("/nonexistent.ddtrace"), std::string::npos);
  const JsonObject bad_capacity = Parse(
      executor
          .Handle("{\"verb\": \"open\", \"trace\": \"" + *trace_path_ +
                  "\", \"cache_capacity\": 0}")
          .line);
  EXPECT_EQ(bad_capacity.GetString("code"), "bad_request");
  EXPECT_EQ(executor.sessions().size(), 0u);
}

TEST_F(ServeTest, OpenDescribesTheLoadedSession) {
  RequestExecutor executor;
  const JsonObject response = Parse(
      executor.Handle("{\"id\": 1, \"verb\": \"open\", \"trace\": \"" + *trace_path_ + "\"}")
          .line);
  EXPECT_TRUE(response.GetBool("ok"));
  EXPECT_EQ(response.GetString("session"), "s1");
  EXPECT_EQ(response.GetString("model"), "TinyMLP");
  EXPECT_GT(response.GetNumber("events"), 0.0);
  EXPECT_GT(response.GetNumber("tasks"), 0.0);
  EXPECT_GT(response.GetNumber("baseline_ms"), 0.0);
}

TEST_F(ServeTest, SessionVerbsRejectUnknownHandles) {
  RequestExecutor executor;
  for (const char* verb : {"close", "stats", "report", "predict", "lint", "sweep"}) {
    const JsonObject response = Parse(
        executor.Handle(std::string("{\"verb\": \"") + verb + "\", \"session\": \"s9\"}").line);
    EXPECT_FALSE(response.GetBool("ok", true)) << verb;
    EXPECT_EQ(response.GetString("code"), "unknown_session") << verb;
  }
}

TEST_F(ServeTest, WarmPredictHitsThePlanCache) {
  RequestExecutor executor;
  const std::string handle = Open(&executor);

  const std::string predict =
      "{\"verb\": \"predict\", \"session\": \"" + handle + "\", \"what_if\": \"amp\"}";
  const JsonObject cold = Parse(executor.Handle(predict).line);
  EXPECT_TRUE(cold.GetBool("ok"));
  EXPECT_EQ(cold.GetString("what_if"), "amp");
  EXPECT_FALSE(cold.GetBool("cache_hit", true));
  const JsonObject warm = Parse(executor.Handle(predict).line);
  EXPECT_TRUE(warm.GetBool("cache_hit"));
  EXPECT_EQ(warm.GetNumber("predicted_ms"), cold.GetNumber("predicted_ms"));

  // AMP is timing-only: the stats verb must show the miss was filled by a
  // retime of the baseline structure, not a CSR compile.
  const JsonObject stats =
      Parse(executor.Handle("{\"verb\": \"stats\", \"session\": \"" + handle + "\"}").line);
  EXPECT_EQ(stats.GetNumber("plan_cache_hits"), 1.0);
  EXPECT_EQ(stats.GetNumber("plan_cache_misses"), 1.0);
  EXPECT_EQ(stats.GetNumber("plan_cache_retimes"), 1.0);
  EXPECT_EQ(stats.GetNumber("plan_cache_compiles"), 0.0);
}

TEST_F(ServeTest, SimJobsIsConsumptionOnly) {
  // A daemon sized 2 workers × default 4 shards: the executor clamps the
  // effective shard count to the machine, requests may override it, and none
  // of that may change the answer or fragment the plan cache.
  RequestExecutor executor(SessionOptions{}, /*workers=*/2, /*default_sim_jobs=*/4);
  const std::string handle = Open(&executor);

  const std::string base =
      "{\"verb\": \"predict\", \"session\": \"" + handle + "\", \"what_if\": \"amp\"";
  const JsonObject serial = Parse(executor.Handle(base + ", \"sim_jobs\": 1}").line);
  EXPECT_TRUE(serial.GetBool("ok"));
  const JsonObject sharded = Parse(executor.Handle(base + ", \"sim_jobs\": 8}").line);
  EXPECT_TRUE(sharded.GetBool("ok"));
  EXPECT_EQ(sharded.GetNumber("predicted_ms"), serial.GetNumber("predicted_ms"));
  // Same cache entry: sim_jobs is not part of the request signature.
  EXPECT_TRUE(sharded.GetBool("cache_hit"));

  const JsonObject stats =
      Parse(executor.Handle("{\"verb\": \"stats\", \"session\": \"" + handle + "\"}").line);
  EXPECT_EQ(stats.GetNumber("serve_workers"), 2.0);
  EXPECT_GE(stats.GetNumber("hardware_concurrency"), 1.0);
  EXPECT_GE(stats.GetNumber("sim_jobs_cap"), 1.0);
}

TEST_F(ServeTest, PredictReportsUnknownWhatIfsAndBadFlags) {
  RequestExecutor executor;
  const std::string handle = Open(&executor);
  const JsonObject unknown = Parse(
      executor
          .Handle("{\"verb\": \"predict\", \"session\": \"" + handle +
                  "\", \"what_if\": \"overclock\"}")
          .line);
  EXPECT_EQ(unknown.GetString("code"), "unknown_what_if");
  const JsonObject bad_flag = Parse(
      executor
          .Handle("{\"verb\": \"predict\", \"session\": \"" + handle +
                  "\", \"what_if\": \"distributed\", \"cluster\": \"banana\"}")
          .line);
  EXPECT_EQ(bad_flag.GetString("code"), "bad_request");
}

TEST_F(ServeTest, P3PredictBypassesTheTransformMachinery) {
  RequestExecutor executor;
  // The session fixture is a 1-iteration trace: the daemon must refuse with
  // an envelope (the library would abort), naming the collect fix.
  const std::string handle = Open(&executor);
  const JsonObject refused = Parse(
      executor
          .Handle("{\"verb\": \"predict\", \"session\": \"" + handle +
                  "\", \"what_if\": \"p3\", \"cluster\": \"2x1\"}")
          .line);
  EXPECT_EQ(refused.GetString("code"), "bad_request");
  EXPECT_NE(refused.GetString("error").find("--iterations 2"), std::string::npos);

  // A 2-iteration profile takes the PS path and reports its own metric.
  const std::string p3_path =
      ::testing::TempDir() + "serve_test_tinymlp_2it." + std::to_string(getpid()) + ".ddtrace";
  ASSERT_TRUE(WriteTraceFile(
      CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), /*iterations=*/2), p3_path));
  const JsonObject opened =
      Parse(executor.Handle("{\"verb\": \"open\", \"trace\": \"" + p3_path + "\"}").line);
  ASSERT_TRUE(opened.GetBool("ok"));
  const JsonObject response = Parse(
      executor
          .Handle("{\"verb\": \"predict\", \"session\": \"" + opened.GetString("session") +
                  "\", \"what_if\": \"p3\", \"cluster\": \"2x1\"}")
          .line);
  EXPECT_TRUE(response.GetBool("ok"));
  EXPECT_EQ(response.GetString("what_if"), "p3");
  EXPECT_GT(response.GetNumber("p3_iteration_ms"), 0.0);
}

TEST_F(ServeTest, LintVerbReportsACleanSession) {
  RequestExecutor executor;
  const std::string handle = Open(&executor);
  const JsonObject response =
      Parse(executor.Handle("{\"verb\": \"lint\", \"session\": \"" + handle + "\"}").line);
  EXPECT_TRUE(response.GetBool("ok"));
  EXPECT_EQ(response.GetNumber("errors", -1.0), 0.0);
  EXPECT_TRUE(response.GetBool("clean"));
  EXPECT_TRUE(response.GetBool("plan_passes_run"));
}

TEST_F(ServeTest, ReportVerbCarriesTheAnalysisText) {
  RequestExecutor executor;
  const std::string handle = Open(&executor);
  const JsonObject response =
      Parse(executor.Handle("{\"verb\": \"report\", \"session\": \"" + handle + "\"}").line);
  EXPECT_TRUE(response.GetBool("ok"));
  EXPECT_NE(response.GetString("report").find("TinyMLP"), std::string::npos);
  EXPECT_NE(response.GetString("report").find("hottest layer phases"), std::string::npos);
}

TEST_F(ServeTest, SweepVerbRanksCases) {
  RequestExecutor executor;
  const std::string handle = Open(&executor);
  // The cases array nests, so this response is checked textually (requests
  // are flat; responses need not be).
  const RequestExecutor::Response response =
      executor.Handle("{\"id\": 9, \"verb\": \"sweep\", \"session\": \"" + handle + "\"}");
  EXPECT_NE(response.line.find("\"id\": 9, \"ok\": true"), std::string::npos);
  EXPECT_NE(response.line.find("\"cases\": [{\"name\": "), std::string::npos);
  EXPECT_NE(response.line.find("\"speedup_pct\": "), std::string::npos);
}

TEST_F(ServeTest, SweepVerbRefusesMalformedFields) {
  RequestExecutor executor;
  const std::string handle = Open(&executor);
  // Each malformed field gets a bad_request envelope naming the CLI flag, as
  // `daydream sweep` reports it (one parser serves both).
  const struct {
    const char* fields;
    const char* error;
  } kCases[] = {
      {"\"jobs\": -1", "bad --jobs '-1'"},
      {"\"sim_jobs\": 0", "bad --sim-jobs '0'"},
      {"\"cluster\": \"4xa\"", "bad --cluster '4xa'"},
      {"\"pipeline_stages\": 2, \"schedule\": \"warp\"", "bad --schedule 'warp'"},
  };
  for (const auto& c : kCases) {
    const JsonObject response = Parse(
        executor
            .Handle("{\"verb\": \"sweep\", \"session\": \"" + handle + "\", " + c.fields + "}")
            .line);
    EXPECT_FALSE(response.GetBool("ok")) << c.fields;
    EXPECT_EQ(response.GetString("code"), "bad_request") << c.fields;
    EXPECT_NE(response.GetString("error").find(c.error), std::string::npos)
        << c.fields << ": " << response.GetString("error");
  }
}

TEST_F(ServeTest, SessionsVerbListsHandlesInOrderAndCloseRemoves) {
  RequestExecutor executor;
  const std::string first = Open(&executor);
  const std::string second = Open(&executor);
  EXPECT_EQ(executor.Handle("{\"verb\": \"sessions\"}").line,
            "{\"ok\": true, \"sessions\": [\"" + first + "\", \"" + second + "\"]}");
  const JsonObject closed = Parse(
      executor.Handle("{\"verb\": \"close\", \"session\": \"" + first + "\"}").line);
  EXPECT_TRUE(closed.GetBool("closed"));
  EXPECT_EQ(executor.Handle("{\"verb\": \"sessions\"}").line,
            "{\"ok\": true, \"sessions\": [\"" + second + "\"]}");
}

TEST_F(ServeTest, ShutdownVerbFlagsTheTransport) {
  RequestExecutor executor;
  const RequestExecutor::Response response =
      executor.Handle("{\"id\": 1, \"verb\": \"shutdown\"}");
  EXPECT_TRUE(response.shutdown);
  const JsonObject parsed = Parse(response.line);
  EXPECT_TRUE(parsed.GetBool("ok"));
  EXPECT_TRUE(parsed.GetBool("shutting_down"));
  // Everything else leaves the flag unset.
  EXPECT_FALSE(executor.Handle("{\"verb\": \"ping\"}").shutdown);
}

// ---- RunServeStdio ----

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST_F(ServeTest, StdioSessionLifecycle) {
  std::istringstream in(
      "{\"id\": 1, \"verb\": \"open\", \"trace\": \"" + *trace_path_ + "\"}\n"
      "\n"  // blank keep-alive, not a request
      "{\"id\": 2, \"verb\": \"predict\", \"session\": \"s1\", \"what_if\": \"amp\"}\n"
      "{\"id\": 3, \"verb\": \"predict\", \"session\": \"s1\", \"what_if\": \"amp\"}\n"
      "not json at all\n"
      "{\"id\": 5, \"verb\": \"shutdown\"}\n");
  std::ostringstream out;
  ServeOptions options;
  options.workers = 1;  // strictly in-order responses
  EXPECT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], ServeHelloBanner());

  const JsonObject opened = Parse(lines[1]);
  EXPECT_EQ(opened.GetNumber("id"), 1.0);
  EXPECT_EQ(opened.GetString("session"), "s1");

  const JsonObject cold = Parse(lines[2]);
  EXPECT_EQ(cold.GetNumber("id"), 2.0);
  EXPECT_FALSE(cold.GetBool("cache_hit", true));
  const JsonObject warm = Parse(lines[3]);
  EXPECT_EQ(warm.GetNumber("id"), 3.0);
  EXPECT_TRUE(warm.GetBool("cache_hit"));
  EXPECT_EQ(warm.GetNumber("predicted_ms"), cold.GetNumber("predicted_ms"));

  // The malformed line got its envelope and did not stop the daemon.
  const JsonObject bad = Parse(lines[4]);
  EXPECT_EQ(bad.GetString("code"), "parse_error");
  const JsonObject shutdown = Parse(lines[5]);
  EXPECT_EQ(shutdown.GetNumber("id"), 5.0);
  EXPECT_TRUE(shutdown.GetBool("shutting_down"));
}

TEST_F(ServeTest, StdioEofDrainsWithoutAShutdownVerb) {
  std::istringstream in("{\"id\": 1, \"verb\": \"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(RunServeStdio(in, out), 0);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], ServeHelloBanner());
  EXPECT_EQ(lines[1], "{\"id\": 1, \"ok\": true}");
}

TEST_F(ServeTest, StdioAnswersEveryRequestUnderConcurrency) {
  // Several workers: responses may interleave out of request order, but every
  // id must be answered exactly once before the drain returns.
  constexpr int kRequests = 24;
  std::string input;
  for (int i = 1; i <= kRequests; ++i) {
    input += "{\"id\": " + std::to_string(i) + ", \"verb\": \"ping\"}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions options;
  options.workers = 4;
  EXPECT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests) + 1);
  EXPECT_EQ(lines[0], ServeHelloBanner());
  std::vector<int> answered(kRequests + 1, 0);
  for (size_t i = 1; i < lines.size(); ++i) {
    const JsonObject response = Parse(lines[i]);
    EXPECT_TRUE(response.GetBool("ok")) << lines[i];
    const int id = static_cast<int>(response.GetNumber("id", -1.0));
    ASSERT_GE(id, 1) << lines[i];
    ASSERT_LE(id, kRequests) << lines[i];
    ++answered[id];
  }
  for (int i = 1; i <= kRequests; ++i) {
    EXPECT_EQ(answered[i], 1) << "id " << i;
  }
}

TEST_F(ServeTest, HelloBannerEmbedsTheVersionJson) {
  const std::string banner = ServeHelloBanner();
  EXPECT_NE(banner.find("\"daydream\": \"serve\""), std::string::npos);
  EXPECT_NE(banner.find(DaydreamVersionJson()), std::string::npos);
}

// ---- Admission control, deadlines, quotas ----

// Restores the process-global injector even when an assertion bails out.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

TEST_F(ServeTest, OversizedStdioLineAnswersOneEnvelopeAndContinues) {
  ServeOptions options;
  options.workers = 1;
  options.limits.max_line_bytes = 64;
  std::istringstream in(std::string(200, 'x') + "\n{\"id\": 1, \"verb\": \"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(RunServeStdio(in, out, options), 0);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  const JsonObject oversized = Parse(lines[1]);
  EXPECT_FALSE(oversized.GetBool("ok", true));
  EXPECT_EQ(oversized.GetString("code"), "bad_request");
  EXPECT_NE(oversized.GetString("error").find("max_line_bytes"), std::string::npos);
  // The oversized line is discarded through its newline; the stream (and the
  // daemon) keep going.
  EXPECT_EQ(Parse(lines[2]).GetNumber("id"), 1.0);
}

TEST_F(ServeTest, FullQueueShedsWithOverloadedEnvelopes) {
  FaultGuard guard;
  std::string error;
  // One worker held for ~40ms per request makes the flood outrun the queue.
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("worker_execute:delay:1:40", &error)) << error;

  constexpr int kRequests = 10;
  std::string input;
  for (int i = 1; i <= kRequests; ++i) {
    input += "{\"id\": " + std::to_string(i) + ", \"verb\": \"ping\"}\n";
  }
  ServeOptions options;
  options.workers = 1;
  options.limits.max_queue = 1;
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests) + 1);
  std::vector<int> answered(kRequests + 1, 0);
  int ok = 0;
  int overloaded = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    const JsonObject response = Parse(lines[i]);
    const int id = static_cast<int>(response.GetNumber("id", -1.0));
    ASSERT_GE(id, 1) << lines[i];
    ASSERT_LE(id, kRequests) << lines[i];
    ++answered[id];
    if (response.GetBool("ok", false)) {
      ++ok;
    } else {
      EXPECT_EQ(response.GetString("code"), "overloaded") << lines[i];
      ++overloaded;
    }
  }
  // Exactly one envelope per request — shed or served, never dropped, never
  // doubled — and the flood must actually have shed something.
  for (int i = 1; i <= kRequests; ++i) {
    EXPECT_EQ(answered[i], 1) << "id " << i;
  }
  EXPECT_EQ(ok + overloaded, kRequests);
  EXPECT_GE(overloaded, 1);
  EXPECT_GE(ok, 1);  // the in-flight and queued requests still answer
}

TEST_F(ServeTest, QueuedRequestPastItsDeadlineIsAnsweredWithoutExecuting) {
  FaultGuard guard;
  std::string error;
  // The first request holds the only worker for ~40ms; the second's 5ms
  // admission deadline expires while it waits and it must be answered at
  // dequeue, not executed.
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("worker_execute:delay:1:40", &error)) << error;

  ServeOptions options;
  options.workers = 1;
  options.limits.request_timeout_ms = 5;
  std::istringstream in(
      "{\"id\": 1, \"verb\": \"ping\"}\n"
      "{\"id\": 2, \"verb\": \"ping\"}\n");
  std::ostringstream out;
  EXPECT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  const JsonObject first = Parse(lines[1]);
  EXPECT_EQ(first.GetNumber("id"), 1.0);
  EXPECT_TRUE(first.GetBool("ok")) << lines[1];
  const JsonObject second = Parse(lines[2]);
  EXPECT_EQ(second.GetNumber("id"), 2.0);
  EXPECT_FALSE(second.GetBool("ok", true));
  EXPECT_EQ(second.GetString("code"), "deadline_exceeded");
}

TEST_F(ServeTest, PerRequestTimeoutCancelsInsidePredict) {
  FaultGuard guard;
  std::string error;
  // A 50ms stall at the compile stage against a 5ms request budget: the
  // deadline check after the stage must answer deadline_exceeded instead of
  // dispatching the plan.
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("plan_compile:delay:1:50", &error)) << error;

  RequestExecutor executor;
  const std::string handle = Open(&executor);
  const JsonObject response = Parse(
      executor
          .Handle("{\"id\": 1, \"verb\": \"predict\", \"session\": \"" + handle +
                  "\", \"what_if\": \"amp\", \"timeout_ms\": 5}")
          .line);
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "deadline_exceeded");

  // With the budget gone the worker is free immediately; the same request
  // without a timeout completes.
  FaultInjector::Global().Disarm();
  const JsonObject retried = Parse(
      executor
          .Handle("{\"id\": 2, \"verb\": \"predict\", \"session\": \"" + handle +
                  "\", \"what_if\": \"amp\"}")
          .line);
  EXPECT_TRUE(retried.GetBool("ok")) << retried.GetString("error");

  // Validation: timeout_ms must be a positive number.
  const JsonObject bad = Parse(
      executor
          .Handle("{\"id\": 3, \"verb\": \"predict\", \"session\": \"" + handle +
                  "\", \"what_if\": \"amp\", \"timeout_ms\": 0}")
          .line);
  EXPECT_EQ(bad.GetString("code"), "bad_request");
}

TEST_F(ServeTest, SessionQuotaEvictsLruAndSessionCloseAliasWorks) {
  ServeLimits limits;
  limits.max_sessions = 2;
  RequestExecutor executor(SessionOptions{}, /*workers=*/1, /*default_sim_jobs=*/1, limits);
  const std::string first = Open(&executor);
  const std::string second = Open(&executor);
  // Touch the first so the second is the LRU candidate when the third opens.
  EXPECT_TRUE(
      Parse(executor.Handle("{\"verb\": \"stats\", \"session\": \"" + first + "\"}").line)
          .GetBool("ok"));
  const std::string third = Open(&executor);
  EXPECT_EQ(executor.sessions().size(), 2u);

  const JsonObject evicted = Parse(
      executor.Handle("{\"verb\": \"report\", \"session\": \"" + second + "\"}").line);
  EXPECT_EQ(evicted.GetString("code"), "unknown_session");
  const JsonObject survivor = Parse(
      executor.Handle("{\"verb\": \"report\", \"session\": \"" + first + "\"}").line);
  EXPECT_TRUE(survivor.GetBool("ok"));

  const JsonObject stats = Parse(
      executor.Handle("{\"verb\": \"stats\", \"session\": \"" + first + "\"}").line);
  EXPECT_EQ(stats.GetNumber("sessions_open"), 2.0);
  EXPECT_EQ(stats.GetNumber("sessions_evicted"), 1.0);
  EXPECT_GT(stats.GetNumber("resident_bytes"), 0.0);
  EXPECT_EQ(stats.GetNumber("max_sessions"), 2.0);

  // session.close is the namespaced alias of close.
  const JsonObject closed = Parse(
      executor.Handle("{\"verb\": \"session.close\", \"session\": \"" + third + "\"}").line);
  EXPECT_TRUE(closed.GetBool("closed"));
  EXPECT_EQ(executor.sessions().size(), 1u);
}

TEST_F(ServeTest, StatsReportsTheConfiguredLimits) {
  ServeLimits limits;
  limits.max_queue = 7;
  limits.request_timeout_ms = 1234;
  limits.max_line_bytes = 4096;
  limits.max_connections = 3;
  RequestExecutor executor(SessionOptions{}, 1, 1, limits);
  const std::string handle = Open(&executor);
  const JsonObject stats =
      Parse(executor.Handle("{\"verb\": \"stats\", \"session\": \"" + handle + "\"}").line);
  EXPECT_EQ(stats.GetNumber("max_queue"), 7.0);
  EXPECT_EQ(stats.GetNumber("request_timeout_ms"), 1234.0);
  EXPECT_EQ(stats.GetNumber("max_line_bytes"), 4096.0);
  EXPECT_EQ(stats.GetNumber("max_connections"), 3.0);
  EXPECT_EQ(stats.GetNumber("shed"), 0.0);
  EXPECT_EQ(stats.GetNumber("deadline_exceeded"), 0.0);
  EXPECT_EQ(stats.GetNumber("oversized_lines"), 0.0);
  EXPECT_EQ(stats.GetNumber("connections_refused"), 0.0);
  EXPECT_EQ(stats.GetNumber("active_connections"), 0.0);
  EXPECT_EQ(stats.GetString("faults"), "");
  // faults_fired is cumulative for the process, so other tests in this binary
  // may have bumped it; just require the field to be present and sane.
  EXPECT_GE(stats.GetNumber("faults_fired", -1.0), 0.0);
}

// ---- Graceful drain (subprocess) ----

#ifdef DAYDREAM_CLI_PATH

// SIGTERM to a live daemon must drain, not kill: every accepted request's
// response is flushed and the process exits 0. Runs the real CLI binary —
// signal disposition is process state the in-process tests must not touch.
TEST_F(ServeTest, SigtermDrainsTheStdioDaemonCleanly) {
  int to_child[2];
  int from_child[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(DAYDREAM_CLI_PATH, DAYDREAM_CLI_PATH, "serve", "--jobs", "2",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  // Line reader with a poll() timeout so a wedged daemon fails the test
  // instead of hanging the suite.
  std::string buffered;
  auto read_line = [&buffered, &from_child](std::string* line) -> bool {
    for (int spins = 0; spins < 200; ++spins) {
      const size_t newline = buffered.find('\n');
      if (newline != std::string::npos) {
        *line = buffered.substr(0, newline);
        buffered.erase(0, newline + 1);
        return true;
      }
      struct pollfd pfd = {from_child[0], POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) {
        continue;
      }
      char chunk[4096];
      const ssize_t n = ::read(from_child[0], chunk, sizeof(chunk));
      if (n <= 0) {
        return false;  // EOF: the daemon closed stdout
      }
      buffered.append(chunk, static_cast<size_t>(n));
    }
    return false;
  };

  std::string line;
  ASSERT_TRUE(read_line(&line)) << "no hello banner";
  EXPECT_NE(line.find("\"daydream\": \"serve\""), std::string::npos);
  const std::string ping = "{\"id\": 1, \"verb\": \"ping\"}\n{\"id\": 2, \"verb\": \"ping\"}\n";
  ASSERT_EQ(::write(to_child[1], ping.data(), ping.size()), static_cast<ssize_t>(ping.size()));
  ASSERT_TRUE(read_line(&line)) << "first response never arrived";
  EXPECT_NE(line.find("\"ok\": true"), std::string::npos);
  ASSERT_TRUE(read_line(&line)) << "second response never arrived";
  EXPECT_NE(line.find("\"ok\": true"), std::string::npos);

  // Drain: the daemon is blocked reading stdin; SIGTERM must unblock it and
  // exit 0 without losing the already-flushed responses above.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  pid_t waited = 0;
  for (int spins = 0; spins < 200; ++spins) {
    waited = ::waitpid(pid, &status, WNOHANG);
    if (waited == pid) {
      break;
    }
    ::poll(nullptr, 0, 50);  // portable sub-second sleep
  }
  if (waited != pid) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "daemon did not exit within 10s of SIGTERM";
  }
  EXPECT_TRUE(WIFEXITED(status)) << "daemon was killed, not drained (status " << status << ")";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(to_child[1]);
  ::close(from_child[0]);
}

#endif  // DAYDREAM_CLI_PATH

}  // namespace
}  // namespace daydream
