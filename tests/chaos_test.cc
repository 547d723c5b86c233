// Chaos suite: the serve stack under armed fault injection.
//
// The hardening contract (docs/serve.md, "Limits & fault tolerance") is
// behavioral, not structural: with every fault site armed, hundreds of mixed
// requests — valid, invalid, heavy, trivial — must each get exactly one
// well-formed envelope, the daemon must neither crash nor deadlock, and once
// the faults are disarmed the very next request must succeed. These tests
// drive the full stdio transport (worker pool, admission control, executor)
// rather than the executor alone, because the invariant lives in the
// transport plumbing: a dropped or doubled response is precisely the bug
// class this suite exists to catch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/ground_truth.h"
#include "src/service/serve.h"
#include "src/service/session.h"
#include "src/trace/trace_io.h"
#include "src/util/fault.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace daydream {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process name: ctest runs every test case as its own process, and
    // concurrent suites must not rewrite a trace another one is reading.
    trace_path_ = new std::string(::testing::TempDir() +
                                  StrFormat("chaos_test_tinymlp.%d.ddtrace", getpid()));
    const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp));
    ASSERT_TRUE(WriteTraceFile(trace, *trace_path_));
  }
  static void TearDownTestSuite() {
    std::remove(trace_path_->c_str());
    delete trace_path_;
    trace_path_ = nullptr;
  }

  // Every test leaves the process-global injector clean, armed or not.
  void TearDown() override { FaultInjector::Global().Disarm(); }

  static std::vector<std::string> Lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
    return lines;
  }

  static std::string* trace_path_;
};

std::string* ChaosTest::trace_path_ = nullptr;

// The core chaos invariant: N mixed requests with distinct ids through the
// stdio transport, every fault site armed at meaningful rates, four workers
// racing. Every id must come back exactly once, every line must parse, and
// the stream must end with a clean drain.
TEST_F(ChaosTest, EveryAcceptedLineGetsExactlyOneEnvelopeUnderFaults) {
  std::string error;
  ASSERT_TRUE(FaultInjector::Global().ArmSpec(
      "trace_load:fail:0.3,plan_compile:fail:0.3,plan_cache_insert:fail:0.5,"
      "worker_execute:fail:0.2,worker_execute:delay:0.3:2,socket_write:fail:0.3",
      &error))
      << error;

  constexpr int kRequests = 250;
  std::ostringstream input;
  // A standing session opened before the storm; its open may itself be
  // faulted, so requests against it tolerate unknown_session too.
  input << "{\"id\": \"warm\", \"verb\": \"open\", \"trace\": \"" << *trace_path_ << "\"}\n";
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = StrFormat("\"r%d\"", i);
    switch (i % 10) {
      case 0:
        input << "{\"id\": " << id << ", \"verb\": \"open\", \"trace\": \"" << *trace_path_
              << "\"}\n";
        break;
      case 1:
        input << "{\"id\": " << id
              << ", \"verb\": \"predict\", \"session\": \"s1\", \"what_if\": \"amp\"}\n";
        break;
      case 2:
        input << "{\"id\": " << id
              << ", \"verb\": \"predict\", \"session\": \"s1\", \"what_if\": \"fused_adam\", "
                 "\"sim_jobs\": 2}\n";
        break;
      case 3:
        input << "{\"id\": " << id << ", \"verb\": \"sweep\", \"session\": \"s1\"}\n";
        break;
      case 4:
        input << "{\"id\": " << id << ", \"verb\": \"lint\", \"session\": \"s1\"}\n";
        break;
      case 5:
        input << "{\"id\": " << id << ", \"verb\": \"stats\", \"session\": \"s1\"}\n";
        break;
      case 6:
        input << "{\"id\": " << id << ", \"verb\": \"ping\"}\n";
        break;
      case 7:
        input << "{\"id\": " << id << ", \"verb\": \"no_such_verb\"}\n";
        break;
      case 8:
        // Malformed on purpose: answered parse_error, id unrecoverable.
        input << "this is not json at all (" << i << ")\n";
        break;
      case 9:
        input << "{\"id\": " << id
              << ", \"verb\": \"predict\", \"session\": \"nope\", \"what_if\": \"amp\"}\n";
        break;
    }
  }

  ServeOptions options;
  options.workers = 4;
  options.limits.max_queue = 0;  // no shedding: this test counts envelopes 1:1
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_FALSE(lines.empty());
  // Banner + one envelope per non-empty input line (the malformed ones too).
  const size_t expected = 1 + 1 + static_cast<size_t>(kRequests);
  EXPECT_EQ(lines.size(), expected);

  std::map<std::string, int> seen;  // id -> envelopes carrying it
  int parse_errors = 0;
  for (size_t i = 1; i < lines.size(); ++i) {  // skip the banner
    std::string parse_error;
    const std::optional<JsonObject> response = ParseJsonObject(lines[i], &parse_error);
    if (response.has_value()) {
      ASSERT_TRUE(response->Has("ok")) << lines[i];
      if (!response->GetBool("ok", false)) {
        EXPECT_FALSE(response->GetString("code").empty()) << lines[i];
      }
      if (response->Has("id")) {
        ++seen[response->GetString("id")];
      } else {
        ++parse_errors;  // only the malformed lines lose their id
      }
      continue;
    }
    // Sweep payloads nest a `cases` array, which is outside the flat parser's
    // subset; error envelopes never nest, so a non-flat line must be an ok
    // response with an id.
    ASSERT_NE(parse_error.find("nested"), std::string::npos)
        << parse_error << "\nline: " << lines[i];
    EXPECT_NE(lines[i].find("\"ok\": true"), std::string::npos) << lines[i];
    const std::string prefix = "{\"id\": \"";
    ASSERT_EQ(lines[i].rfind(prefix, 0), 0u) << lines[i];
    const size_t end = lines[i].find('"', prefix.size());
    ASSERT_NE(end, std::string::npos) << lines[i];
    ++seen[lines[i].substr(prefix.size(), end - prefix.size())];
  }
  EXPECT_EQ(parse_errors, kRequests / 10);
  EXPECT_EQ(seen["warm"], 1);
  for (int i = 0; i < kRequests; ++i) {
    if (i % 10 == 8) {
      continue;  // malformed; counted via parse_errors
    }
    EXPECT_EQ(seen[StrFormat("r%d", i)], 1) << "id r" << i;
  }

  // Chaos must actually have happened — otherwise this test proves nothing.
  EXPECT_GT(FaultInjector::Global().fired(), 0u);

  // Recovery: disarm and the next request succeeds end to end. One worker —
  // the predict addresses the session the preceding open creates, so the two
  // must not race through the pool.
  FaultInjector::Global().Disarm();
  ServeOptions recovery = options;
  recovery.workers = 1;
  std::istringstream in2("{\"id\": \"after\", \"verb\": \"open\", \"trace\": \"" + *trace_path_ +
                         "\"}\n{\"id\": \"after2\", \"verb\": \"predict\", \"session\": \"s1\", "
                         "\"what_if\": \"amp\"}\n");
  std::ostringstream out2;
  ASSERT_EQ(RunServeStdio(in2, out2, recovery), 0);
  const std::vector<std::string> after = Lines(out2.str());
  ASSERT_EQ(after.size(), 3u);
  std::string parse_error;
  const std::optional<JsonObject> opened = ParseJsonObject(after[1], &parse_error);
  ASSERT_TRUE(opened.has_value()) << parse_error;
  EXPECT_TRUE(opened->GetBool("ok")) << after[1];
  const std::optional<JsonObject> predicted = ParseJsonObject(after[2], &parse_error);
  ASSERT_TRUE(predicted.has_value()) << parse_error;
  EXPECT_TRUE(predicted->GetBool("ok")) << after[2];
}

// plan_cache_insert is the graceful-degradation site: the insert is dropped
// but the request that compiled the plan still answers ok — repeatedly, since
// the cache never warms.
TEST_F(ChaosTest, DroppedCacheInsertsStillAnswer) {
  std::string error;
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("plan_cache_insert:fail", &error)) << error;

  ServeOptions options;
  options.workers = 1;  // deterministic response order
  std::ostringstream input;
  input << "{\"id\": 0, \"verb\": \"open\", \"trace\": \"" << *trace_path_ << "\"}\n";
  for (int i = 1; i <= 3; ++i) {
    input << "{\"id\": " << i
          << ", \"verb\": \"predict\", \"session\": \"s1\", \"what_if\": \"amp\"}\n";
  }
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  for (size_t i = 2; i < lines.size(); ++i) {
    std::string parse_error;
    const std::optional<JsonObject> response = ParseJsonObject(lines[i], &parse_error);
    ASSERT_TRUE(response.has_value()) << parse_error;
    EXPECT_TRUE(response->GetBool("ok")) << lines[i];
    // Every predict misses: the faulted Put never populated the cache.
    EXPECT_FALSE(response->GetBool("cache_hit", true)) << lines[i];
  }
}

// Fault visibility: the stats verb reports the armed spec and a nonzero fired
// counter once sites start firing.
TEST_F(ChaosTest, StatsReportsArmedFaults) {
  std::string error;
  ASSERT_TRUE(FaultInjector::Global().ArmSpec("plan_compile:fail:1", &error)) << error;

  ServeOptions options;
  options.workers = 1;
  std::istringstream in("{\"id\": 0, \"verb\": \"open\", \"trace\": \"" + *trace_path_ +
                        "\"}\n{\"id\": 1, \"verb\": \"predict\", \"session\": \"s1\", "
                        "\"what_if\": \"amp\"}\n{\"id\": 2, \"verb\": \"stats\", \"session\": "
                        "\"s1\"}\n");
  std::ostringstream out;
  ASSERT_EQ(RunServeStdio(in, out, options), 0);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  std::string parse_error;
  const std::optional<JsonObject> predicted = ParseJsonObject(lines[2], &parse_error);
  ASSERT_TRUE(predicted.has_value()) << parse_error;
  EXPECT_FALSE(predicted->GetBool("ok", true));
  EXPECT_EQ(predicted->GetString("code"), "unavailable");
  const std::optional<JsonObject> stats = ParseJsonObject(lines[3], &parse_error);
  ASSERT_TRUE(stats.has_value()) << parse_error;
  EXPECT_TRUE(stats->GetBool("ok"));
  EXPECT_NE(stats->GetString("faults").find("plan_compile:fail"), std::string::npos);
  EXPECT_GE(stats->GetNumber("faults_fired", 0), 1.0);
}

// Spec validation: unknown sites and malformed kinds/rates are rejected with
// a diagnostic, and entries before the bad one stay armed.
TEST_F(ChaosTest, ArmSpecRejectsTyposLoudly) {
  FaultInjector& injector = FaultInjector::Global();
  std::string error;
  EXPECT_FALSE(injector.ArmSpec("no_such_site:fail", &error));
  EXPECT_NE(error.find("no_such_site"), std::string::npos);
  EXPECT_FALSE(injector.ArmSpec("plan_compile:explode", &error));
  EXPECT_NE(error.find("explode"), std::string::npos);
  EXPECT_FALSE(injector.ArmSpec("plan_compile:fail:2.0", &error));
  EXPECT_FALSE(injector.ArmSpec("plan_compile:fail:0.5:-3", &error));
  EXPECT_TRUE(injector.ArmSpec("plan_compile:fail:0.5,worker_execute:delay", &error)) << error;
  EXPECT_TRUE(injector.armed());
  EXPECT_NE(injector.SpecString().find("worker_execute:delay"), std::string::npos);
}

}  // namespace
}  // namespace daydream
