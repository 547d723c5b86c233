#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#include "src/util/csv.h"
#include "src/util/deadline.h"
#include "src/util/fault.h"
#include "src/util/json.h"
#include "src/util/json_stream.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"
#include "src/util/table.h"
#include "src/util/time_units.h"

namespace daydream {
namespace {

// ---- time units ----

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(Us(1.0), 1000);
  EXPECT_EQ(Ms(1.0), 1000000);
  EXPECT_DOUBLE_EQ(ToUs(1500), 1.5);
  EXPECT_DOUBLE_EQ(ToMs(2500000), 2.5);
  EXPECT_DOUBLE_EQ(ToSec(kSecond), 1.0);
}

TEST(TimeUnits, ByteConstants) {
  EXPECT_EQ(kMiB, 1024 * 1024);
  EXPECT_EQ(kGiB, 1024 * kMiB);
}

// ---- rng ----

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DeterministicFromKey) {
  Rng a(std::string_view("model/kernel"));
  Rng b(std::string_view("model/kernel"));
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentKeysDiffer) {
  Rng a(std::string_view("alpha"));
  Rng b(std::string_view("beta"));
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NormalMeanApproximates) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, NextBelow) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(Rng, HashKeyStable) {
  EXPECT_EQ(Rng::HashKey("abc"), Rng::HashKey("abc"));
  EXPECT_NE(Rng::HashKey("abc"), Rng::HashKey("abd"));
}

// ---- stats ----

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(Stats, Stddev) {
  EXPECT_DOUBLE_EQ(Stddev({2.0, 2.0, 2.0}), 0.0);
  EXPECT_NEAR(Stddev({1.0, 2.0, 3.0}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Stddev({5.0}), 0.0);
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(Max({3.0, 1.0, 2.0}), 3.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 99), 42.0);
}

TEST(Stats, RelErrorPct) {
  EXPECT_DOUBLE_EQ(RelErrorPct(110, 100), 10.0);
  EXPECT_DOUBLE_EQ(RelErrorPct(90, 100), 10.0);
  EXPECT_DOUBLE_EQ(RelErrorPct(0, 0), 0.0);
}

TEST(Stats, RunningStats) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

// ---- strings ----

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtil, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtil, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b"}, "+"), "a+b");
  EXPECT_EQ(StrJoin({}, "+"), "");
}

TEST(StringUtil, Predicates) {
  EXPECT_TRUE(StrContains("volta_sgemm_128x64", "sgemm"));
  EXPECT_FALSE(StrContains("elementwise", "sgemm"));
  EXPECT_TRUE(StartsWith("cudaLaunchKernel", "cuda"));
  EXPECT_FALSE(StartsWith("cuda", "cudaLaunch"));
  EXPECT_TRUE(EndsWith("kernel_rbn", "_rbn"));
  EXPECT_FALSE(EndsWith("rbn_kernel", "_rbn"));
}

TEST(StringUtil, ToLower) { EXPECT_EQ(ToLower("AbC"), "abc"); }

TEST(StringUtil, ParseInt64ConsumesTheFullField) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("-0"), 0);
  EXPECT_EQ(ParseInt64("+7"), 7);
  EXPECT_EQ(ParseInt64("-42"), -42);
  // Anything short of a complete integer field is a parse failure — trace
  // ingestion must not silently accept "1abc" the way std::stoll would.
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("+").has_value());
  EXPECT_FALSE(ParseInt64("-").has_value());
  EXPECT_FALSE(ParseInt64("+-3").has_value());
  EXPECT_FALSE(ParseInt64("1abc").has_value());
  EXPECT_FALSE(ParseInt64("100x").has_value());
  EXPECT_FALSE(ParseInt64(" 42").has_value());
  EXPECT_FALSE(ParseInt64("42 ").has_value());
  EXPECT_FALSE(ParseInt64("0x10").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
}

TEST(StringUtil, ParseInt64HoldsTheExactBoundaries) {
  EXPECT_EQ(ParseInt64("9223372036854775807"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseInt64("-9223372036854775808"), std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt64("+9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").has_value());
}

TEST(StringUtil, ParseInt32EnforcesIntRange) {
  EXPECT_EQ(ParseInt32("2147483647"), std::numeric_limits<int>::max());
  EXPECT_EQ(ParseInt32("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_FALSE(ParseInt32("2147483648").has_value());
  EXPECT_FALSE(ParseInt32("-2147483649").has_value());
  EXPECT_FALSE(ParseInt32("12ab").has_value());
}

// ---- table ----

TEST(Table, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xx", "1"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| a  | long_header |"), std::string::npos);
  EXPECT_NE(out.find("| xx | 1           |"), std::string::npos);
}

TEST(Table, SeparatorRows) {
  TablePrinter t({"c"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  const std::string out = t.ToString();
  // header line + 3 separators around content = at least 4 '+--' lines.
  size_t count = 0;
  for (size_t pos = out.find("+-"); pos != std::string::npos; pos = out.find("+-", pos + 1)) {
    ++count;
  }
  EXPECT_GE(count, 4u);
}

// ---- csv ----

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::Escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::Escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::Escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::Escape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvWriter::Escape("a\rb"), "\"a\rb\"");
  EXPECT_EQ(CsvWriter::Escape("a\r\nb"), "\"a\r\nb\"");
}

TEST(Csv, ReportsOpenFailureInsteadOfAborting) {
  CsvWriter w("/nonexistent-dir/out.csv", {"x", "y"});
  EXPECT_FALSE(w.ok());
  w.AddRow({"1", "2"});  // inert, not a crash
  EXPECT_FALSE(w.ok());
}

TEST(Csv, WritesRows) {
  const std::string path = ::testing::TempDir() + "/test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    EXPECT_TRUE(w.ok());
    w.AddRow({"1", "2"});
    EXPECT_TRUE(w.ok());
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}


// ---- flat JSON (the serve request protocol) ----

TEST(Json, ParsesTheFlatValueKinds) {
  std::string error;
  const std::optional<JsonObject> object = ParseJsonObject(
      "{\"verb\": \"predict\", \"id\": 7, \"gbps\": 12.5, \"validate\": true, "
      "\"note\": null}",
      &error);
  ASSERT_TRUE(object.has_value()) << error;
  EXPECT_EQ(object->GetString("verb"), "predict");
  EXPECT_EQ(object->GetNumber("id"), 7.0);
  EXPECT_EQ(object->Find("id")->raw, "7");  // source token survives for echoes
  EXPECT_DOUBLE_EQ(object->GetNumber("gbps"), 12.5);
  EXPECT_TRUE(object->GetBool("validate"));
  ASSERT_TRUE(object->Has("note"));
  EXPECT_EQ(object->Find("note")->kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(object->Has("absent"));
}

TEST(Json, TypedGettersFallBackOnWrongTypes) {
  const std::optional<JsonObject> object = ParseJsonObject("{\"n\": 3, \"s\": \"x\"}");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->GetString("n", "fallback"), "fallback");
  EXPECT_EQ(object->GetNumber("s", -1.0), -1.0);
  EXPECT_TRUE(object->GetBool("n", true));
}

TEST(Json, GetInt64IsExactPastDoublePrecision) {
  const std::optional<JsonObject> object = ParseJsonObject(
      "{\"big\": 9007199254740993, \"max\": 9223372036854775807,"
      " \"min\": -9223372036854775808, \"frac\": 1.5, \"exp\": 1e3,"
      " \"small\": 7, \"s\": \"12\"}");
  ASSERT_TRUE(object.has_value());
  // 2^53 + 1 is not representable as a double; GetNumber rounds it while
  // GetInt64 re-parses the raw token and keeps every bit.
  EXPECT_EQ(object->GetInt64("big"), INT64_C(9007199254740993));
  EXPECT_NE(static_cast<int64_t>(object->GetNumber("big")), INT64_C(9007199254740993));
  EXPECT_EQ(object->GetInt64("max"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(object->GetInt64("min"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(object->GetInt64("small"), 7);
  // Non-integer numerics and non-numbers fall back.
  EXPECT_EQ(object->GetInt64("frac", -1), -1);
  EXPECT_EQ(object->GetInt64("exp", -1), -1);
  EXPECT_EQ(object->GetInt64("s", -1), -1);
  EXPECT_EQ(object->GetInt64("missing", -1), -1);
  const JsonValue* frac = object->Find("frac");
  ASSERT_NE(frac, nullptr);
  EXPECT_FALSE(frac->AsInt64().has_value());
  const JsonValue* big = object->Find("big");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->AsInt64(), INT64_C(9007199254740993));
}

TEST(Json, DecodesEscapes) {
  const std::optional<JsonObject> object = ParseJsonObject(
      "{\"s\": \"a\\\"b\\\\c\\n\\t\\u00e9\"}");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->GetString("s"), "a\"b\\c\n\t\u00e9");
}

TEST(Json, AcceptsTheEmptyObjectAndIgnoresWhitespace) {
  EXPECT_TRUE(ParseJsonObject("{}").has_value());
  EXPECT_TRUE(ParseJsonObject("  { \"a\" : 1 , \"b\" : 2 }  ").has_value());
}

TEST(Json, NamesTheOffendingConstructOnParseErrors) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "expected '{'"},
      {"predict", "expected '{'"},
      {"{1: 2}", "expected '\"'"},
      {"{\"a\" 1}", "expected ':' after key 'a'"},
      {"{\"a\": 1, \"a\": 2}", "duplicate key 'a'"},
      {"{\"a\": [1]}", "nested containers are not part of the flat request protocol"},
      {"{\"a\": {\"b\": 1}}", "nested containers are not part of the flat request protocol"},
      {"{\"a\": 1 \"b\": 2}", "expected ',' or '}' in object"},
      {"{\"a\": 1} trailing", "trailing characters after the object"},
      {"{\"a\": \"unterminated}", "unterminated string"},
      {"{\"a\": \"bad\\x\"}", "invalid escape '\\x'"},
      {"{\"a\": \"bad\\u12\"}", "invalid \\u escape"},
      {"{\"a\": 1e}", "invalid number '1e'"},
      {"{\"a\": nope}", "expected a value"},
      {"{\"a\": 1", "expected ',' or '}' in object"},
  };
  for (const auto& [text, expected] : cases) {
    std::string error;
    EXPECT_FALSE(ParseJsonObject(text, &error).has_value()) << text;
    EXPECT_NE(error.find(expected), std::string::npos)
        << "input: " << text << "\ngot: " << error;
  }
}

// One lexer under both grammars: each lexical case gets the same verdict, and
// the same decoded text, as a flat-object member and as a streamed array
// element.
TEST(Json, FlatParserAndTokenizerShareOneLexicalVerdict) {
  const struct {
    const char* value;
    bool ok;
  } cases[] = {
      {R"("plain")", true},
      {R"("a\"b\\c\/d\b\f\n\r\t")", true},
      {R"("\u00e9\u20AC\u0041")", true},
      {R"("\q")", false},
      {R"("\u12")", false},
      {R"("\uZZZZ")", false},
      {"\"a\x01z\"", false},
      {R"("unterminated)", false},
      {R"("\u00)", false},
      {"tru", false},
      {"-", false},
      {"1e", false},
      {"1e+", false},
      {"1e999", false},
      {"-1e999", false},
      {"1e-400", true},
      {"-0", true},
      {"01", true},
      {"1.", true},
      {"-.5", true},
      {"1e5", true},
      {"+1", false},
      {".5", false},
      {"1.2.3", false},
      {"1-2", false},
      {"0x10", false},
      {"nope", false},
      {"truth", false},
      {"NaN", false},
      {"-Infinity", false},
      {"true", true},
      {"false", true},
      {"null", true},
  };
  for (const auto& c : cases) {
    const std::string value = c.value;
    std::string flat_error;
    const std::optional<JsonObject> flat = ParseJsonObject("{\"a\":" + value + "}", &flat_error);
    EXPECT_EQ(flat.has_value(), c.ok) << value << ": " << flat_error;

    std::stringstream in("[" + value + "]");
    JsonStreamTokenizer tok(in);
    std::string streamed_text;
    JsonStreamTokenizer::TokenKind kind = tok.Next().kind;
    for (int guard = 0; guard < 8 && kind != JsonStreamTokenizer::TokenKind::kEnd &&
                        kind != JsonStreamTokenizer::TokenKind::kError;
         ++guard) {
      kind = tok.Next().kind;
      if (guard == 0) {
        streamed_text = tok.token().text;
      }
    }
    EXPECT_EQ(kind == JsonStreamTokenizer::TokenKind::kEnd, c.ok) << value << ": "
                                                                  << tok.token().text;
    if (flat.has_value() && kind == JsonStreamTokenizer::TokenKind::kEnd) {
      const JsonValue& member = *flat->Find("a");
      if (member.kind == JsonValue::Kind::kString) {
        EXPECT_EQ(member.string, streamed_text) << value;
      } else if (member.kind == JsonValue::Kind::kNumber) {
        EXPECT_EQ(member.raw, streamed_text) << value;
      }
    }
  }
}

TEST(Json, RejectsUnescapedControlCharacters) {
  std::string error;
  EXPECT_FALSE(ParseJsonObject("{\"a\": \"b\x01c\"}", &error).has_value());
  EXPECT_NE(error.find("unescaped control character"), std::string::npos);
}

// ---- Deadline ----

TEST(DeadlineTest, DefaultConstructedIsUnbounded) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.bounded());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingMs(), std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, AfterMsExpiresOnceTheBudgetIsSpent) {
  const Deadline generous = Deadline::AfterMs(60'000);
  EXPECT_TRUE(generous.bounded());
  EXPECT_FALSE(generous.Expired());
  EXPECT_GT(generous.RemainingMs(), 0.0);
  EXPECT_LE(generous.RemainingMs(), 60'000.0);

  const Deadline spent = Deadline::AfterMs(0);
  EXPECT_TRUE(spent.Expired());
  EXPECT_EQ(spent.RemainingMs(), 0.0);

  const Deadline tiny = Deadline::AfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(tiny.Expired());
}

TEST(DeadlineTest, SoonerPicksTheTighterBudget) {
  const Deadline unbounded;
  const Deadline close = Deadline::AfterMs(10);
  const Deadline far = Deadline::AfterMs(60'000);
  // An unbounded deadline never wins against a bounded one.
  EXPECT_TRUE(Deadline::Sooner(unbounded, close).bounded());
  EXPECT_TRUE(Deadline::Sooner(close, unbounded).bounded());
  EXPECT_FALSE(Deadline::Sooner(unbounded, unbounded).bounded());
  EXPECT_LE(Deadline::Sooner(close, far).RemainingMs(), close.RemainingMs() + 1.0);
  EXPECT_LE(Deadline::Sooner(far, close).RemainingMs(), close.RemainingMs() + 1.0);
}

// ---- FaultInjector ----

// The process-global injector needs restoring even when an assertion fails.
struct FaultDisarmGuard {
  ~FaultDisarmGuard() { FaultInjector::Global().Disarm(); }
};

TEST(FaultInjectorTest, KnownSitesCoverTheServeStack) {
  const std::vector<std::string>& sites = FaultInjector::KnownSites();
  for (const char* site : {"trace_load", "plan_compile", "plan_cache_insert",
                           "worker_execute", "socket_write"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end()) << site;
  }
}

TEST(FaultInjectorTest, CertainFailEntryAlwaysFires) {
  FaultDisarmGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  std::string error;
  ASSERT_TRUE(injector.ArmSpec("plan_compile:fail", &error)) << error;
  EXPECT_TRUE(injector.armed());
  const uint64_t before = injector.fired();
  EXPECT_TRUE(injector.ShouldFail("plan_compile"));
  EXPECT_FALSE(injector.ShouldFail("trace_load"));  // other sites untouched
  EXPECT_EQ(injector.fired(), before + 1);
}

TEST(FaultInjectorTest, ZeroRateEntryNeverFires) {
  FaultDisarmGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  std::string error;
  ASSERT_TRUE(injector.ArmSpec("trace_load:fail:0", &error)) << error;
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(injector.ShouldFail("trace_load"));
  }
}

TEST(FaultInjectorTest, DelayEntriesReportTheirSleepBudget) {
  FaultDisarmGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  std::string error;
  ASSERT_TRUE(injector.ArmSpec("worker_execute:delay:1:2", &error)) << error;
  const FaultAction action = injector.Fire("worker_execute");
  EXPECT_FALSE(action.fail);  // delay stalls, it does not fail the site
  EXPECT_EQ(action.delay_ms, 2);
}

TEST(FaultInjectorTest, SpecStringRoundTripsAndDisarmClears) {
  FaultDisarmGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  std::string error;
  ASSERT_TRUE(injector.ArmSpec("plan_compile:fail:0.5,worker_execute:delay:1:3", &error)) << error;
  const std::string spec = injector.SpecString();
  EXPECT_NE(spec.find("plan_compile:fail"), std::string::npos);
  EXPECT_NE(spec.find("worker_execute:delay"), std::string::npos);
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.SpecString(), "");
  EXPECT_FALSE(injector.ShouldFail("plan_compile"));
}

}  // namespace
}  // namespace daydream
