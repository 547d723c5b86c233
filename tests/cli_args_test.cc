#include "tools/cli_args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/runtime/ground_truth.h"

namespace daydream {
namespace {

Args ParseVec(const std::vector<const char*>& argv) {
  return ParseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseArgs, CommandAndFlags) {
  const Args args = ParseVec({"daydream", "predict", "--trace", "p.ddtrace", "--what-if", "amp"});
  EXPECT_TRUE(args.ok());
  EXPECT_EQ(args.command, "predict");
  EXPECT_EQ(args.Get("trace"), "p.ddtrace");
  EXPECT_EQ(args.Get("what-if"), "amp");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
}

TEST(ParseArgs, NoArguments) {
  const Args args = ParseVec({"daydream"});
  EXPECT_TRUE(args.ok());
  EXPECT_TRUE(args.command.empty());
  EXPECT_TRUE(args.flags.empty());
}

TEST(ParseArgs, TrailingFlagWithoutValueIsAnError) {
  const Args args = ParseVec({"daydream", "report", "--trace"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error, "flag --trace requires a value");
}

TEST(ParseArgs, PositionalTokenIsAnError) {
  // A forgotten flag name must not shift the whole command line by one.
  const Args args = ParseVec({"daydream", "predict", "p.ddtrace", "--what-if", "amp"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.error, "unexpected argument 'p.ddtrace' (flags look like --name value)");
}

TEST(ParseInt, AcceptsIntegers) {
  EXPECT_EQ(ParseInt("0"), 0);
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4xa").has_value());
  EXPECT_FALSE(ParseInt("fast").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("99999999999999999999").has_value());
  EXPECT_FALSE(ParseInt(" 42").has_value());
  EXPECT_FALSE(ParseInt("0x10").has_value());
}

TEST(ParseDouble, AcceptsNumbers) {
  EXPECT_EQ(ParseDouble("10"), 10.0);
  EXPECT_EQ(ParseDouble("2.5"), 2.5);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("fast").has_value());
  EXPECT_FALSE(ParseDouble("10Gbps").has_value());
  EXPECT_FALSE(ParseDouble(" 42").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("0x10").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());
}

TEST(ParseCluster, ParsesShapeAndBandwidth) {
  std::string error;
  Args args;
  args.flags["cluster"] = "4x2";
  args.flags["gbps"] = "25";
  const std::optional<ClusterConfig> cluster = ParseCluster(args, &error);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->machines, 4);
  EXPECT_EQ(cluster->gpus_per_machine, 2);
  EXPECT_DOUBLE_EQ(cluster->network.bandwidth_gbps, 25.0);
}

TEST(ParseCluster, DefaultsWhenFlagsAbsent) {
  std::string error;
  const std::optional<ClusterConfig> cluster = ParseCluster(Args{}, &error);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(cluster->machines, 4);
  EXPECT_EQ(cluster->gpus_per_machine, 1);
  EXPECT_DOUBLE_EQ(cluster->network.bandwidth_gbps, 10.0);
}

TEST(ParseCluster, RejectsMalformedShape) {
  std::string error;
  for (const char* bad : {"4xa", "ax2", "4", "4x2x1", "0x2", "4x0", "-1x2", ""}) {
    Args args;
    args.flags["cluster"] = bad;
    EXPECT_FALSE(ParseCluster(args, &error).has_value()) << "--cluster " << bad;
  }
}

TEST(ParseCluster, RejectsMalformedBandwidth) {
  std::string error;
  for (const char* bad : {"fast", "0", "-5", "10Gbps"}) {
    Args args;
    args.flags["cluster"] = "4x2";
    args.flags["gbps"] = bad;
    EXPECT_FALSE(ParseCluster(args, &error).has_value()) << "--gbps " << bad;
  }
}

TEST(ParseClusterList, DefaultsToFourShapesAtTenGbps) {
  std::string error;
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(Args{}, &error);
  ASSERT_TRUE(clusters.has_value());
  ASSERT_EQ(clusters->size(), 4u);
  EXPECT_EQ((*clusters)[0].machines, 2);
  EXPECT_EQ((*clusters)[0].gpus_per_machine, 1);
  EXPECT_EQ((*clusters)[3].machines, 4);
  EXPECT_EQ((*clusters)[3].gpus_per_machine, 2);
  for (const ClusterConfig& c : *clusters) {
    EXPECT_DOUBLE_EQ(c.network.bandwidth_gbps, 10.0);
  }
}

TEST(ParseClusterList, CrossProductOfShapesAndBandwidths) {
  std::string error;
  Args args;
  args.flags["cluster"] = "2x2,4x4";
  args.flags["gbps"] = "10,25,40";
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(args, &error);
  ASSERT_TRUE(clusters.has_value());
  ASSERT_EQ(clusters->size(), 6u);
  EXPECT_EQ((*clusters)[0].machines, 2);
  EXPECT_DOUBLE_EQ((*clusters)[0].network.bandwidth_gbps, 10.0);
  EXPECT_DOUBLE_EQ((*clusters)[2].network.bandwidth_gbps, 40.0);
  EXPECT_EQ((*clusters)[3].machines, 4);
  EXPECT_EQ((*clusters)[3].gpus_per_machine, 4);
}

TEST(ParseClusterList, RejectsAnyBadEntry) {
  std::string error;
  for (const char* bad : {"2x2,4xa", "2x2,", ",2x2", "0x1"}) {
    Args args;
    args.flags["cluster"] = bad;
    EXPECT_FALSE(ParseClusterList(args, &error).has_value()) << "--cluster " << bad;
  }
  Args args;
  args.flags["cluster"] = "2x2";
  args.flags["gbps"] = "10,zoom";
  EXPECT_FALSE(ParseClusterList(args, &error).has_value());
}

TEST(ParsePipelineFlags, DisabledWhenStagesAbsent) {
  std::string error;
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(Args{}, &error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_FALSE(flags->enabled);
}

TEST(ParsePipelineFlags, ParsesStagesMicrobatchesAndSchedule) {
  std::string error;
  Args args;
  args.flags["pipeline-stages"] = "2,4,8";
  args.flags["microbatches"] = "16";
  args.flags["schedule"] = "gpipe";
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(args, &error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->enabled);
  EXPECT_EQ(flags->stages, (std::vector<int>{2, 4, 8}));
  EXPECT_EQ(flags->microbatches, 16);
  ASSERT_EQ(flags->schedules.size(), 1u);
  EXPECT_EQ(flags->schedules.front(), PipelineScheduleKind::kGPipe);
}

TEST(ParsePipelineFlags, DefaultsToFourMicrobatchesAndBothSchedules) {
  std::string error;
  Args args;
  args.flags["pipeline-stages"] = "2";
  const std::optional<PipelineFlags> flags = ParsePipelineFlags(args, &error);
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->microbatches, 4);
  EXPECT_TRUE(flags->schedules.empty());  // empty = both kinds
}

TEST(ParsePipelineFlags, RejectsMalformedValues) {
  std::string error;
  for (const char* bad : {"0", "-2", "2,", "2,x", "fast"}) {
    Args args;
    args.flags["pipeline-stages"] = bad;
    EXPECT_FALSE(ParsePipelineFlags(args, &error).has_value()) << "--pipeline-stages " << bad;
  }
  Args bad_mb;
  bad_mb.flags["pipeline-stages"] = "2";
  bad_mb.flags["microbatches"] = "0";
  EXPECT_FALSE(ParsePipelineFlags(bad_mb, &error).has_value());
  Args bad_schedule;
  bad_schedule.flags["pipeline-stages"] = "2";
  bad_schedule.flags["schedule"] = "warp";
  EXPECT_FALSE(ParsePipelineFlags(bad_schedule, &error).has_value());
}

TEST(ParsePipelineFlags, ScheduleWithoutStagesIsAnError) {
  std::string error;
  Args args;
  args.flags["schedule"] = "1f1b";
  EXPECT_FALSE(ParsePipelineFlags(args, &error).has_value());
  Args mb;
  mb.flags["microbatches"] = "4";
  EXPECT_FALSE(ParsePipelineFlags(mb, &error).has_value());
}


TEST(KnownCommands, MatchUsageOrder) {
  const std::vector<std::string> expected = {"models", "collect", "import", "report", "predict",
                                             "lint",   "sweep",   "serve",  "version"};
  EXPECT_EQ(KnownCommands(), expected);
}

TEST(UnknownCommandMessage, NamesTheAttemptAndTheCatalog) {
  const std::string message = UnknownCommandMessage("frobnicate");
  EXPECT_NE(message.find("unknown command 'frobnicate'"), std::string::npos);
  for (const std::string& command : KnownCommands()) {
    EXPECT_NE(message.find(command), std::string::npos) << command;
  }
}

TEST(ParseArgs, BooleanFlagsTakeNoValue) {
  // --json is boolean only for `version`; for every other command it names
  // an output file and must consume a value.
  const Args version = ParseVec({"daydream", "version", "--json"});
  EXPECT_TRUE(version.ok());
  EXPECT_TRUE(version.Has("json"));
  const Args predict = ParseVec({"daydream", "predict", "--json"});
  EXPECT_FALSE(predict.ok());
  EXPECT_EQ(predict.error, "flag --json requires a value");
  const Args lint = ParseVec({"daydream", "lint", "--strict", "--trace", "p.ddtrace"});
  EXPECT_TRUE(lint.ok());
  EXPECT_TRUE(lint.Has("strict"));
  EXPECT_EQ(lint.Get("trace"), "p.ddtrace");
}

TEST(ParseWhatIfRequest, BuildsTheSessionRequest) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "distributed";
  args.flags["cluster"] = "2x4";
  args.flags["gbps"] = "25";
  args.flags["validate"] = "1";
  WhatIfRequest request;
  std::string error;
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "distributed");
  EXPECT_EQ(request.cluster.machines, 2);
  EXPECT_EQ(request.cluster.gpus_per_machine, 4);
  EXPECT_DOUBLE_EQ(request.cluster.network.bandwidth_gbps, 25.0);
  EXPECT_TRUE(request.validate);
}

TEST(ParseWhatIfRequest, SimJobsDefaultsToSerialAndRejectsGarbage) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "amp";
  WhatIfRequest request;
  std::string error;
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.sim_jobs, 1);

  args.flags["sim-jobs"] = "4";
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.sim_jobs, 4);

  for (const char* bad : {"0", "-2", "fast"}) {
    args.flags["sim-jobs"] = bad;
    EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error)) << bad;
    EXPECT_NE(error.find("--sim-jobs"), std::string::npos);
  }
}

TEST(ParseWhatIfRequest, UnknownNamesParseResolutionIsTheSessionsJob) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "overclock";
  WhatIfRequest request;
  std::string error;
  EXPECT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "overclock");
}

TEST(ParseWhatIfRequest, PipelineNeedsASingleStageAndSchedule) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "pipeline";
  WhatIfRequest request;
  std::string error;
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_NE(error.find("--pipeline-stages"), std::string::npos);

  args.flags["pipeline-stages"] = "2,4";  // a sweep list, not a single value
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_NE(error.find("single"), std::string::npos);

  args.flags["pipeline-stages"] = "4";
  args.flags["microbatches"] = "8";
  args.flags["schedule"] = "1f1b";
  ASSERT_TRUE(ParseWhatIfRequest(args, &request, &error)) << error;
  EXPECT_EQ(request.what_if, "pipeline");
  EXPECT_EQ(request.pipeline.num_stages, 4);
  EXPECT_EQ(request.pipeline.num_microbatches, 8);
  EXPECT_EQ(request.pipeline.schedule, PipelineScheduleKind::k1F1B);
}

TEST(ParseWhatIfRequest, RejectsMalformedClusterFlags) {
  Args args;
  args.command = "predict";
  args.flags["what-if"] = "distributed";
  args.flags["cluster"] = "banana";
  WhatIfRequest request;
  std::string error;
  EXPECT_FALSE(ParseWhatIfRequest(args, &request, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ParseSweepRequest, BuildsTheMatrixAndOptions) {
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp));
  std::vector<SweepCase> cases;
  SweepOptions options;
  std::string error;
  ASSERT_TRUE(ParseSweepRequest(Args{}, trace, &cases, &options, &error)) << error;
  EXPECT_EQ(options.num_threads, 0);
  EXPECT_EQ(options.sim_jobs, 1);
  EXPECT_FALSE(options.validate);
  const size_t standard = cases.size();  // what-ifs + the four default clusters

  Args args;
  args.command = "sweep";
  args.flags["cluster"] = "2x2";
  args.flags["gbps"] = "10,25";
  args.flags["jobs"] = "3";
  args.flags["sim-jobs"] = "2";
  args.flags["validate"] = "1";
  args.flags["pipeline-stages"] = "2";
  args.flags["schedule"] = "1f1b";
  ASSERT_TRUE(ParseSweepRequest(args, trace, &cases, &options, &error)) << error;
  ASSERT_EQ(cases.size(), standard - 4 + 2 + 1);
  EXPECT_EQ(cases.back().name, "pipeline 2st/4mb 1f1b");
  EXPECT_EQ(options.num_threads, 3);
  EXPECT_EQ(options.sim_jobs, 2);
  EXPECT_TRUE(options.validate);
}

TEST(ParseSweepRequest, RejectsMalformedFlagsWithTheirNames) {
  // jobs, sim_jobs, cluster and schedule refusals are held by
  // ServeTest.SweepVerbRefusesMalformedFields through the same parser.
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp));
  const struct {
    const char* flag;
    const char* value;
    const char* error;
  } kCases[] = {
      {"gbps", "fast", "bad --gbps 'fast'"},
      {"microbatches", "4", "require --pipeline-stages"},
  };
  for (const auto& c : kCases) {
    Args args;
    args.flags[c.flag] = c.value;
    std::vector<SweepCase> cases;
    SweepOptions options;
    std::string error;
    EXPECT_FALSE(ParseSweepRequest(args, trace, &cases, &options, &error)) << c.flag;
    EXPECT_NE(error.find(c.error), std::string::npos) << c.flag << ": " << error;
  }
  // Pipeline cases need the trace's model in the zoo.
  Args args;
  args.flags["pipeline-stages"] = "2";
  std::vector<SweepCase> cases;
  SweepOptions options;
  std::string error;
  EXPECT_FALSE(ParseSweepRequest(args, Trace(), &cases, &options, &error));
  EXPECT_NE(error.find("needed for --pipeline-stages"), std::string::npos) << error;
}

}  // namespace
}  // namespace daydream
