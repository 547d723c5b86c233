#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/core/optimizations/optimizations.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/sweep.h"
#include "tests/reference_scan.h"

namespace daydream {
namespace {

const Trace& ResNetTrace() {
  static const Trace* trace =
      new Trace(CollectBaselineTrace(DefaultRunConfig(ModelId::kResNet50)));
  return *trace;
}

std::vector<ClusterConfig> Clusters() {
  const std::vector<std::pair<int, int>> shapes = {{2, 1}, {2, 2}, {4, 1}, {4, 2}};
  std::vector<ClusterConfig> clusters;
  for (const auto& [machines, gpus] : shapes) {
    ClusterConfig c;
    c.machines = machines;
    c.gpus_per_machine = gpus;
    clusters.push_back(c);
  }
  return clusters;
}

TEST(StandardSweep, CoversAtLeastEightCases) {
  const std::vector<SweepCase> cases = BuildStandardSweep(ResNetTrace(), Clusters());
  // 2 framework what-ifs + 4 layer-structured (known model) + 4 distributed.
  EXPECT_GE(cases.size(), 10u);
  for (const SweepCase& c : cases) {
    EXPECT_FALSE(c.name.empty());
    EXPECT_TRUE(static_cast<bool>(c.transform));
  }
}

TEST(StandardSweep, UnknownModelStillSweepsFrameworkAndCluster) {
  Trace trace = ResNetTrace();
  trace.set_model_name("not-in-the-zoo");
  const std::vector<SweepCase> cases = BuildStandardSweep(trace, Clusters());
  EXPECT_EQ(cases.size(), 6u);  // amp + fused_adam + 4 clusters
}

TEST(SweepRunner, ParallelOutcomesMatchSerialPredictions) {
  const Daydream daydream(ResNetTrace());
  const std::vector<SweepCase> cases = BuildStandardSweep(ResNetTrace(), Clusters());

  SweepOptions options;
  options.num_threads = 4;
  const std::vector<SweepOutcome> parallel = SweepRunner(daydream, options).Run(cases);
  ASSERT_EQ(parallel.size(), cases.size());

  for (size_t i = 0; i < cases.size(); ++i) {
    const PredictionResult serial = daydream.Predict(cases[i].transform);
    EXPECT_EQ(parallel[i].name, cases[i].name);
    EXPECT_EQ(parallel[i].prediction.baseline, serial.baseline);
    EXPECT_EQ(parallel[i].prediction.predicted, serial.predicted) << cases[i].name;
    EXPECT_GT(parallel[i].tasks, 0);
  }
}

TEST(SweepRunner, ShardedDispatchMatchesSerialOutcomes) {
  const Daydream daydream(ResNetTrace());
  const std::vector<SweepCase> cases = BuildStandardSweep(ResNetTrace(), Clusters());

  SweepOptions serial_options;
  serial_options.num_threads = 1;
  const std::vector<SweepOutcome> serial = SweepRunner(daydream, serial_options).Run(cases);

  // sim_jobs shards every case's dispatch and shares the thread budget with
  // the case workers; predictions must not move by a nanosecond.
  for (const int sim_jobs : {2, 4}) {
    SweepOptions options;
    options.num_threads = 4;
    options.sim_jobs = sim_jobs;
    options.validate = true;  // also runs the shard-metadata lint per case
    const std::vector<SweepOutcome> sharded = SweepRunner(daydream, options).Run(cases);
    ASSERT_EQ(sharded.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i].name, serial[i].name);
      EXPECT_EQ(sharded[i].prediction.predicted, serial[i].prediction.predicted)
          << serial[i].name << " sim_jobs=" << sim_jobs;
    }
  }
}

TEST(SweepRunner, ReferenceEngineMatchesCompiledPlans) {
  // Differential: the pipelined plan path must agree with the Algorithm-1
  // oracle run on each case's transformed graph.
  const Daydream daydream(ResNetTrace());
  const std::vector<SweepCase> cases = BuildStandardSweep(ResNetTrace(), Clusters());

  SweepOptions options;
  options.num_threads = 4;
  const std::vector<SweepOutcome> via_plan = SweepRunner(daydream, options).Run(cases);
  ASSERT_EQ(via_plan.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    DependencyGraph transformed = daydream.CloneGraph();
    cases[i].transform(&transformed);
    EXPECT_EQ(via_plan[i].prediction.predicted, ReferenceScan(transformed).makespan)
        << cases[i].name;
    EXPECT_EQ(via_plan[i].tasks, transformed.num_alive()) << cases[i].name;
  }
}

TEST(SweepRunner, GraphBaselineConstructorSweepsWithoutATrace) {
  // A pre-built baseline graph, no trace machinery: a trace-less Daydream
  // over the graph is the one SweepRunner entry.
  const Daydream daydream(ResNetTrace());
  const TimeNs baseline = daydream.BaselineSimTime();
  const Daydream graph_only(Trace(), daydream.graph().Clone());
  const SweepRunner runner(graph_only);
  const std::vector<SweepOutcome> outcomes =
      runner.Run({{"amp", [](DependencyGraph* g) { WhatIfAmp(g); }}, {"noop", nullptr}});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].prediction.baseline, baseline);
  EXPECT_EQ(outcomes[0].prediction.predicted,
            daydream.Predict([](DependencyGraph* g) { WhatIfAmp(g); }).predicted);
  // The untransformed case retimes the baseline plan and must reproduce the
  // baseline simulation exactly.
  EXPECT_EQ(outcomes[1].prediction.predicted, baseline);
}

TEST(SweepRunner, SingleThreadAndEmptyCases) {
  // 1 runs every case on the caller; 0 (one per hardware thread) and 8 give
  // the empty matrix a pool sized below zero and the 6-case matrix more
  // threads than cases. Every size returns the same outcomes in case order.
  const Daydream daydream(ResNetTrace());
  const std::vector<SweepCase> cases = BuildStandardSweep(ResNetTrace(), {});
  ASSERT_EQ(cases.size(), 6u);  // no clusters: framework + layer what-ifs
  std::vector<SweepOutcome> serial;
  for (const int threads : {1, 0, 8}) {
    SweepOptions options;
    options.num_threads = threads;
    const SweepRunner runner(daydream, options);
    EXPECT_TRUE(runner.Run({}).empty()) << "num_threads=" << threads;

    const std::vector<SweepOutcome> outcomes = runner.Run(cases);
    ASSERT_EQ(outcomes.size(), cases.size()) << "num_threads=" << threads;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const SweepOutcome& o = outcomes[i];
      EXPECT_EQ(o.name, cases[i].name) << "num_threads=" << threads;
      EXPECT_EQ(o.prediction.baseline, daydream.BaselineSimTime());
      EXPECT_GT(o.prediction.predicted, 0);
      if (!serial.empty()) {
        EXPECT_EQ(o.prediction.predicted, serial[i].prediction.predicted)
            << "num_threads=" << threads << ": " << o.name;
        EXPECT_EQ(o.tasks, serial[i].tasks) << "num_threads=" << threads << ": " << o.name;
      }
    }
    if (serial.empty()) {
      serial = outcomes;
    }
  }
}

TEST(SweepRunner, ExpiredDeadlineLeavesOutcomesBlank) {
  const Daydream daydream(ResNetTrace());
  const std::vector<SweepCase> cases = BuildStandardSweep(ResNetTrace(), {});
  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.num_threads = threads;
    options.deadline = Deadline::AfterMs(0);
    bool deadline_exceeded = false;
    const std::vector<SweepOutcome> outcomes =
        SweepRunner(daydream, options).Run(cases, &deadline_exceeded);
    EXPECT_TRUE(deadline_exceeded) << "num_threads=" << threads;
    ASSERT_EQ(outcomes.size(), cases.size());
    for (const SweepOutcome& o : outcomes) {
      EXPECT_TRUE(o.name.empty()) << "num_threads=" << threads << ": " << o.name;
      EXPECT_EQ(o.tasks, 0);
      EXPECT_EQ(o.prediction.baseline, 0);
      EXPECT_EQ(o.prediction.predicted, 0);
    }
  }
}

TEST(SweepRanking, SortsByPredictedAscending) {
  std::vector<SweepOutcome> outcomes(3);
  outcomes[0].name = "slow";
  outcomes[0].prediction = {Ms(100), Ms(90)};
  outcomes[1].name = "fast";
  outcomes[1].prediction = {Ms(100), Ms(50)};
  outcomes[2].name = "mid";
  outcomes[2].prediction = {Ms(100), Ms(70)};
  RankBySpeedup(&outcomes);
  EXPECT_EQ(outcomes[0].name, "fast");
  EXPECT_EQ(outcomes[1].name, "mid");
  EXPECT_EQ(outcomes[2].name, "slow");
}

TEST(SweepSerialization, EmptyOutcomesOmitBaseline) {
  const std::string json = SweepReportJson({});
  EXPECT_EQ(json.find("baseline_ms"), std::string::npos)
      << "no outcomes -> no fabricated 0.0 ms baseline";
  EXPECT_NE(json.find("\"cases\": ["), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(SweepSerialization, SingleCaseKeepsBaseline) {
  std::vector<SweepOutcome> outcomes(1);
  outcomes[0].name = "amp";
  outcomes[0].prediction = {Ms(100), Ms(80)};
  outcomes[0].tasks = 7;
  const std::string json = SweepReportJson(outcomes);
  EXPECT_NE(json.find("\"baseline_ms\": 100.000"), std::string::npos);
  EXPECT_NE(json.find("\"amp\""), std::string::npos);
  // The single case must not carry a trailing comma.
  EXPECT_EQ(json.find("},\n  ]"), std::string::npos);
}

TEST(SweepSerialization, JsonContainsEveryCase) {
  std::vector<SweepOutcome> outcomes(2);
  outcomes[0].name = "amp";
  outcomes[0].prediction = {Ms(100), Ms(80)};
  outcomes[0].tasks = 42;
  outcomes[1].name = "distributed 4x2 @ 10Gbps";
  outcomes[1].prediction = {Ms(100), Ms(120)};
  outcomes[1].tasks = 50;
  const std::string json = SweepReportJson(outcomes);
  EXPECT_NE(json.find("\"amp\""), std::string::npos);
  EXPECT_NE(json.find("distributed 4x2 @ 10Gbps"), std::string::npos);
  EXPECT_NE(json.find("\"baseline_ms\": 100.000"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(SweepSerialization, CsvRoundTrip) {
  std::vector<SweepOutcome> outcomes(2);
  outcomes[0].name = "amp";
  outcomes[0].prediction = {Ms(100), Ms(80)};
  outcomes[1].name = "vdnn";
  outcomes[1].prediction = {Ms(100), Ms(99)};
  const std::string path = ::testing::TempDir() + "/sweep_test.csv";
  ASSERT_TRUE(WriteSweepCsv(outcomes, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, 3);  // header + 2 rows
  std::remove(path.c_str());

  EXPECT_FALSE(WriteSweepCsv(outcomes, "/nonexistent-dir/sweep.csv"));
}

// ---- PredictionResult guard rails (division-by-zero satellite) ----

TEST(PredictionResult, ZeroBaselineYieldsZeroSpeedupNotNan) {
  PredictionResult r;
  r.baseline = 0;
  r.predicted = 0;
  EXPECT_EQ(r.SpeedupPct(), 0.0);
  EXPECT_EQ(r.SpeedupRatio(), 0.0);

  r.predicted = Ms(10);
  EXPECT_EQ(r.SpeedupPct(), 0.0);
  EXPECT_EQ(r.SpeedupRatio(), 0.0);
}

TEST(PredictionResult, ZeroPredictedGuarded) {
  PredictionResult r;
  r.baseline = Ms(10);
  r.predicted = 0;
  EXPECT_EQ(r.SpeedupPct(), 100.0);
  EXPECT_EQ(r.SpeedupRatio(), 0.0);  // guarded, not inf
}

}  // namespace
}  // namespace daydream
