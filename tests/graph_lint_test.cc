// GraphLint property suite: every defect class the verifier advertises is
// injected into a real graph (through the test-only corruptors) and must come
// back flagged by the advertised pass, naming the offending task/lane — plus
// the two acceptance gates: the pre-fix PR 5 bug class (cross-iteration
// anchors) is caught, and every shipping what-if transform passes the full
// lint catalog on 1- and 2-iteration traces of every zoo model.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/graph_builder.h"
#include "src/core/graph_lint.h"
#include "tests/graph_testing.h"
#include "src/core/optimizations/optimizations.h"
#include "src/core/sim_plan.h"
#include "src/core/simulator.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/sweep.h"
#include "src/util/time_units.h"

namespace daydream {
namespace {

Task CpuTask(const std::string& name, TimeNs dur = Us(5), int thread = 0) {
  Task t;
  t.type = TaskType::kCpu;
  t.name = name;
  t.thread = ExecThread::Cpu(thread);
  t.duration = dur;
  return t;
}

Task GpuTask(const std::string& name, TimeNs dur = Us(50), int stream = 0) {
  Task t;
  t.type = TaskType::kGpu;
  t.name = name;
  t.thread = ExecThread::Gpu(stream);
  t.duration = dur;
  return t;
}

Task CommTask(const std::string& name, int64_t bytes, TimeNs dur, int channel = 0) {
  Task t;
  t.type = TaskType::kComm;
  t.name = name;
  t.thread = ExecThread::Comm(channel);
  t.duration = dur;
  t.bytes = bytes;
  return t;
}

// A small healthy graph: cpu -> gpu -> gpu chain across two lanes.
DependencyGraph SmallGraph() {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("launch"));
  const TaskId b = g.AddTask(GpuTask("fwd"));
  const TaskId c = g.AddTask(GpuTask("bwd"));
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.LinkSequential();
  return g;
}

std::vector<const LintFinding*> FindingsIn(const LintReport& report, const std::string& pass) {
  std::vector<const LintFinding*> out;
  for (const LintFinding& f : report.findings) {
    if (f.pass == pass) {
      out.push_back(&f);
    }
  }
  return out;
}

// Asserts the advertised pass flags the graph, and returns its first finding
// for detail checks.
const LintFinding& ExpectFlaggedBy(const LintReport& report, const std::string& pass) {
  const auto findings = FindingsIn(report, pass);
  EXPECT_FALSE(findings.empty()) << "expected a '" << pass << "' finding; report:\n"
                                 << report.ToString();
  static const LintFinding empty;
  return findings.empty() ? empty : *findings.front();
}

bool NamesTask(const LintFinding& f, TaskId id) {
  return std::find(f.tasks.begin(), f.tasks.end(), id) != f.tasks.end();
}

const Trace& CachedTrace(ModelId model, int iterations = 1) {
  static std::map<std::pair<ModelId, int>, Trace>* cache =
      new std::map<std::pair<ModelId, int>, Trace>();
  const auto key = std::make_pair(model, iterations);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, CollectBaselineTrace(DefaultRunConfig(model), iterations)).first;
  }
  return it->second;
}

// ---- report plumbing ----

TEST(LintReport, CleanGraphRunsTheFullCatalog) {
  const DependencyGraph g = SmallGraph();
  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.errors(), 0);
  EXPECT_EQ(report.warnings(), 0);
  EXPECT_EQ(report.FirstError(), nullptr);
  for (const char* pass :
       {"edge-integrity", "acyclic", "thread-sequence", "orphan-lane", "duration-sanity",
        "timestamp-monotone", "iteration-anchor", "schedule-smell"}) {
    EXPECT_NE(std::find(report.passes_run.begin(), report.passes_run.end(), pass),
              report.passes_run.end())
        << "pass " << pass << " did not run";
  }
  EXPECT_NE(report.Summary().find("clean"), std::string::npos);
}

TEST(LintReport, MaxFindingsCapSetsTruncated) {
  DependencyGraph g = SmallGraph();
  for (TaskId id : g.AliveTasks()) {
    GraphCorruptor::AddRawChild(&g, id, 9999);  // one dangling edge per task
  }
  LintOptions options;
  options.max_findings = 2;
  const LintReport report = GraphLint::LintGraph(g, options);
  EXPECT_EQ(report.findings.size(), 2u);
  EXPECT_TRUE(report.truncated);
  EXPECT_FALSE(report.ok());
}

TEST(LintReport, JsonCarriesFindingsAndPasses) {
  DependencyGraph g = SmallGraph();
  GraphCorruptor::AddSelfEdge(&g, g.AliveTasks().front());
  const LintReport report = GraphLint::LintGraph(g);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pass\": \"edge-integrity\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"passes\": ["), std::string::npos) << json;
}

// ---- edge-integrity ----

TEST(GraphLintPass, DanglingEdgeOutOfRange) {
  DependencyGraph g = SmallGraph();
  const TaskId a = g.AliveTasks().front();
  GraphCorruptor::AddRawChild(&g, a, 9999);
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "edge-integrity");
  EXPECT_TRUE(NamesTask(f, a));
  EXPECT_NE(f.message.find("dangling"), std::string::npos);
}

TEST(GraphLintPass, DanglingEdgeToDeadTask) {
  DependencyGraph g = SmallGraph();
  const std::vector<TaskId> ids = g.AliveTasks();
  const TaskId victim = g.AddTask(GpuTask("victim", Us(1), 1));
  g.AddEdge(ids[0], victim);
  GraphCorruptor::DetachFromChain(&g, victim);  // isolate the edge defect
  GraphCorruptor::KillInPlace(&g, victim);
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "edge-integrity");
  EXPECT_TRUE(NamesTask(f, victim));
  EXPECT_NE(f.message.find("dead"), std::string::npos);
}

TEST(GraphLintPass, AsymmetricEdge) {
  DependencyGraph g = SmallGraph();
  const std::vector<TaskId> ids = g.AliveTasks();
  GraphCorruptor::AddRawChild(&g, ids[0], ids[2]);  // no parent back-link
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "edge-integrity");
  EXPECT_NE(f.message.find("asymmetric"), std::string::npos);
  EXPECT_TRUE(NamesTask(f, ids[0]));
  EXPECT_TRUE(NamesTask(f, ids[2]));
}

TEST(GraphLintPass, DuplicateEdge) {
  DependencyGraph g = SmallGraph();
  GraphCorruptor::DuplicateFirstChildEdge(&g, g.AliveTasks().front());
  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_NE(ExpectFlaggedBy(report, "edge-integrity").message.find("duplicate"),
            std::string::npos);
}

TEST(GraphLintPass, SelfEdge) {
  DependencyGraph g = SmallGraph();
  const TaskId a = g.AliveTasks().front();
  GraphCorruptor::AddSelfEdge(&g, a);
  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_NE(ExpectFlaggedBy(report, "edge-integrity").message.find("self edge"),
            std::string::npos);
}

// ---- acyclic ----

TEST(GraphLintPass, CycleIsReportedWithItsPath) {
  DependencyGraph g;
  const TaskId a = g.AddTask(GpuTask("a"));
  const TaskId b = g.AddTask(GpuTask("b"));
  const TaskId c = g.AddTask(GpuTask("c"));
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "acyclic");
  // The cycle path closes on itself and names every member with its task name.
  ASSERT_GE(f.tasks.size(), 4u);
  EXPECT_EQ(f.tasks.front(), f.tasks.back());
  EXPECT_TRUE(NamesTask(f, a));
  EXPECT_TRUE(NamesTask(f, b));
  EXPECT_TRUE(NamesTask(f, c));
  EXPECT_NE(f.message.find("'b'"), std::string::npos) << f.message;
  // Feasibility fallout: the starved-task smell names the blast radius.
  EXPECT_NE(ExpectFlaggedBy(report, "schedule-smell").message.find("never become ready"),
            std::string::npos);
  // And the boolean API reports the same defect as "pass: message".
  std::string error;
  EXPECT_FALSE(g.Validate(&error));
  EXPECT_NE(error.find("acyclic: "), std::string::npos) << error;
}

// ---- thread-sequence / orphan-lane ----

TEST(GraphLintPass, DeadTaskStillLinked) {
  DependencyGraph g;
  const TaskId a = g.AddTask(GpuTask("a"));
  g.AddTask(GpuTask("b"));
  GraphCorruptor::KillInPlace(&g, a);  // dead but still spliced into its lane
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "thread-sequence");
  EXPECT_TRUE(NamesTask(f, a));
  EXPECT_NE(f.message.find("dead"), std::string::npos);
}

TEST(GraphLintPass, BrokenSpliceLink) {
  DependencyGraph g;
  const TaskId a = g.AddTask(GpuTask("a"));
  const TaskId b = g.AddTask(GpuTask("b"));
  g.AddEdge(a, b);
  GraphCorruptor::BreakSeqPrev(&g, b, a + 100);  // in-range bogus link
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "thread-sequence");
  EXPECT_TRUE(NamesTask(f, b));
  EXPECT_NE(f.message.find("asymmetric splice"), std::string::npos);
}

TEST(GraphLintPass, SequenceCycle) {
  DependencyGraph g;
  const TaskId a = g.AddTask(GpuTask("a"));
  const TaskId b = g.AddTask(GpuTask("b"));
  GraphCorruptor::BreakSeqNext(&g, b, a);  // b -> a while a -> b: chain loops
  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_FALSE(FindingsIn(report, "thread-sequence").empty()) << report.ToString();
}

TEST(GraphLintPass, WrongThreadField) {
  DependencyGraph g = SmallGraph();
  const TaskId gpu_task = g.AliveTasks()[1];
  GraphCorruptor::SetLaneField(&g, gpu_task, 0);  // chained on gpu lane, claims cpu
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "thread-sequence");
  EXPECT_TRUE(NamesTask(f, gpu_task));
  // The phrase the legacy Validate() API (and its tests) key on.
  EXPECT_NE(f.message.find("wrong thread"), std::string::npos);
  EXPECT_FALSE(f.lane.empty());
}

TEST(GraphLintPass, StaleTail) {
  DependencyGraph g = SmallGraph();
  const TaskId gpu_lane_task = g.AliveTasks()[1];
  const int lane = GraphCorruptor::LaneOf(g, gpu_lane_task);
  GraphCorruptor::SetLaneTail(&g, lane, gpu_lane_task);  // real tail is ids[2]
  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_NE(ExpectFlaggedBy(report, "thread-sequence").message.find("stale tail"),
            std::string::npos);
}

TEST(GraphLintPass, AliveCountDrift) {
  DependencyGraph g = SmallGraph();
  const int lane = GraphCorruptor::LaneOf(g, g.AliveTasks()[1]);
  GraphCorruptor::SetLaneAliveCount(&g, lane, 7);
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "thread-sequence");
  EXPECT_NE(f.message.find("alive-count drift"), std::string::npos);
  EXPECT_FALSE(f.lane.empty());
}

TEST(GraphLintPass, OrphanedTask) {
  DependencyGraph g = SmallGraph();
  const TaskId orphan = g.AliveTasks()[2];
  GraphCorruptor::DetachFromChain(&g, orphan);
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "orphan-lane");
  EXPECT_TRUE(NamesTask(f, orphan));
}

// ---- duration-sanity / timestamp-monotone / schedule-smell ----

TEST(GraphLintPass, NegativeDuration) {
  DependencyGraph g = SmallGraph();
  const TaskId a = g.AliveTasks().front();
  g.task(a).duration = -Us(1);
  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_TRUE(NamesTask(ExpectFlaggedBy(report, "duration-sanity"), a));
}

TEST(GraphLintPass, BackwardTimestampIsAWarningNotAnError) {
  DependencyGraph g;
  Task first = GpuTask("first");
  first.start = Us(100);
  Task second = GpuTask("second");
  second.start = Us(50);  // measured, earlier than its chain predecessor
  const TaskId a = g.AddTask(first);
  const TaskId b = g.AddTask(second);
  g.LinkSequential();
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "timestamp-monotone");
  EXPECT_EQ(f.severity, LintSeverity::kWarning);
  EXPECT_TRUE(NamesTask(f, a));
  EXPECT_TRUE(NamesTask(f, b));
  EXPECT_TRUE(report.ok());  // warnings alone keep the graph legal
  EXPECT_EQ(report.warnings(), 1);
}

TEST(GraphLintPass, UnmeasuredTasksAreExemptFromTimingPasses) {
  DependencyGraph g;
  Task measured = GpuTask("measured");
  measured.start = Us(100);
  g.AddTask(measured);
  g.AddTask(GpuTask("inserted"));  // start == 0: the transform-inserted shape
  g.LinkSequential();
  EXPECT_TRUE(GraphLint::LintGraph(g).ok());
}

TEST(GraphLintPass, ZeroDurationPricedComm) {
  DependencyGraph g = SmallGraph();
  const TaskId comm = g.AddTask(CommTask("allreduce", /*bytes=*/1 << 20, /*dur=*/0));
  const LintReport report = GraphLint::LintGraph(g);
  const LintFinding& f = ExpectFlaggedBy(report, "schedule-smell");
  EXPECT_EQ(f.severity, LintSeverity::kWarning);
  EXPECT_TRUE(NamesTask(f, comm));
  EXPECT_TRUE(report.ok());
}

// ---- iteration-anchor: the PR 5 bug class ----

// A synthetic two-iteration profile: phase-tagged measured GPU work so
// IterationStarts() yields two windows, plus a weight update in window 0.
struct TwoIterationGraph {
  DependencyGraph graph;
  TaskId bwd_iter2 = kInvalidTask;  // measured backward in window 1
  TaskId wu_iter1 = kInvalidTask;   // measured weight update in window 0
};

TwoIterationGraph BuildTwoIterationGraph() {
  TwoIterationGraph out;
  auto phase_task = [](const char* name, Phase phase, TimeNs start, int stream) {
    Task t = GpuTask(name, Us(10), stream);
    t.phase = phase;
    t.start = start;
    return t;
  };
  DependencyGraph& g = out.graph;
  g.AddTask(phase_task("fwd_i1", Phase::kForward, Us(10), 0));
  g.AddTask(phase_task("bwd_i1", Phase::kBackward, Us(20), 0));
  g.AddTask(phase_task("fwd_i2", Phase::kForward, Us(40), 0));
  out.bwd_iter2 = g.AddTask(phase_task("bwd_i2", Phase::kBackward, Us(50), 0));
  // The weight update lives on its own stream, so no sequential edge gives
  // the backward a path back to it — the backward-in-time edge below is NOT
  // a cycle, which is exactly why acyclicity alone missed this bug class.
  out.wu_iter1 = g.AddTask(phase_task("wu_i1", Phase::kWeightUpdate, Us(30), 1));
  g.LinkSequential();
  return out;
}

TEST(GraphLintPass, CrossIterationAnchorWithoutCycleIsCaught) {
  TwoIterationGraph t = BuildTwoIterationGraph();
  // The pre-fix WhatIfDistributed shape: gradient communication anchored on
  // the *global* last backward (iteration 2) feeding the *global* first
  // weight update (iteration 1) — backward in time, yet acyclic.
  t.graph.AddEdge(t.bwd_iter2, t.wu_iter1);
  const LintReport report = GraphLint::LintGraph(t.graph);
  EXPECT_TRUE(FindingsIn(report, "acyclic").empty()) << report.ToString();
  const LintFinding& f = ExpectFlaggedBy(report, "iteration-anchor");
  EXPECT_EQ(f.severity, LintSeverity::kError);
  EXPECT_TRUE(NamesTask(f, t.bwd_iter2));
  EXPECT_TRUE(NamesTask(f, t.wu_iter1));
  EXPECT_NE(f.message.find("backward across iteration windows"), std::string::npos);
}

TEST(GraphLintPass, ForwardCrossIterationEdgesAreLegal) {
  TwoIterationGraph t = BuildTwoIterationGraph();
  t.graph.AddEdge(t.wu_iter1, t.bwd_iter2);  // window 0 -> window 1: fine
  EXPECT_TRUE(GraphLint::LintGraph(t.graph).ok());
}

// Regression: emulate the pre-fix WhatIfGist anchor bug on a real
// two-iteration trace. Gist anchored encode/decode on global first/last
// selections; on a 2-iteration profile the "last forward" is in iteration 2
// and the "first backward" in iteration 1, so the anchor edge pointed
// backward in time and (via the stream's sequential chain) closed a cycle.
// Both passes must catch it, with a concrete path.
TEST(GraphLintRegression, PreFixGistAnchorOnTwoIterationTraceIsCaught) {
  const Trace& trace = CachedTrace(ModelId::kTinyMlp, /*iterations=*/2);
  DependencyGraph g = BuildDependencyGraph(trace);

  // Global anchors, resolved over the whole trace — the pre-fix behavior.
  TaskId last_fwd = kInvalidTask;
  TaskId first_bwd = kInvalidTask;
  for (TaskId id : g.AliveTasks()) {
    const Task& t = g.task(id);
    if (t.type != TaskType::kGpu) {
      continue;
    }
    if (t.phase == Phase::kForward &&
        (last_fwd == kInvalidTask || t.start > g.task(last_fwd).start)) {
      last_fwd = id;
    }
    if (t.phase == Phase::kBackward &&
        (first_bwd == kInvalidTask || t.start < g.task(first_bwd).start)) {
      first_bwd = id;
    }
  }
  ASSERT_NE(last_fwd, kInvalidTask);
  ASSERT_NE(first_bwd, kInvalidTask);
  ASSERT_GT(g.task(last_fwd).start, g.task(first_bwd).start)
      << "trace is not actually multi-iteration";

  g.AddEdge(last_fwd, first_bwd);  // iteration 2 -> iteration 1

  const LintReport report = GraphLint::LintGraph(g);
  EXPECT_FALSE(report.ok());
  // The edge points backward across IterationStarts windows...
  const LintFinding& anchor = ExpectFlaggedBy(report, "iteration-anchor");
  EXPECT_TRUE(NamesTask(anchor, last_fwd));
  EXPECT_TRUE(NamesTask(anchor, first_bwd));
  // ...and closes a cycle through the stream's sequential chain, reported
  // with a concrete path.
  const LintFinding& cycle = ExpectFlaggedBy(report, "acyclic");
  EXPECT_GE(cycle.tasks.size(), 3u);
  EXPECT_EQ(cycle.tasks.front(), cycle.tasks.back());
}

// ---- acceptance gate: every shipping what-if passes strict lint ----

struct WhatIfCase {
  const char* name;
  std::function<void(DependencyGraph*, const ModelGraph&, const Trace&)> apply;
};

const std::vector<WhatIfCase>& WhatIfs() {
  static const std::vector<WhatIfCase>* cases = new std::vector<WhatIfCase>{
      {"baseline", [](DependencyGraph*, const ModelGraph&, const Trace&) {}},
      {"amp", [](DependencyGraph* g, const ModelGraph&, const Trace&) { WhatIfAmp(g); }},
      {"fused_adam",
       [](DependencyGraph* g, const ModelGraph&, const Trace&) { WhatIfFusedAdam(g); }},
      {"rbn",
       [](DependencyGraph* g, const ModelGraph& m, const Trace&) {
         WhatIfRestructuredBatchnorm(g, m);
       }},
      {"metaflow",
       [](DependencyGraph* g, const ModelGraph& m, const Trace&) {
         WhatIfMetaFlowFuseConvBn(g, m);
       }},
      {"gist", [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfGist(g, m); }},
      {"vdnn", [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfVdnn(g, m); }},
      {"distributed_4x2",
       [](DependencyGraph* g, const ModelGraph&, const Trace& t) {
         DistributedWhatIf opts;
         opts.cluster.machines = 4;
         opts.cluster.gpus_per_machine = 2;
         WhatIfDistributed(g, t.gradients(), opts);
       }},
  };
  return *cases;
}

class WhatIfLint : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WhatIfLint, TransformOutputPassesStrictLint) {
  const ModelId model = AllModels()[static_cast<size_t>(std::get<0>(GetParam()))];
  const int iterations = std::get<1>(GetParam());
  const WhatIfCase& what_if = WhatIfs()[static_cast<size_t>(std::get<2>(GetParam()))];

  const Trace& trace = CachedTrace(model, iterations);
  const ModelGraph model_graph = BuildModel(model);
  DependencyGraph graph = BuildDependencyGraph(trace);
  what_if.apply(&graph, model_graph, trace);

  const LintReport report = GraphLint::LintGraph(graph);
  EXPECT_EQ(report.errors(), 0) << what_if.name << " on a " << iterations
                                << "-iteration trace fails lint:\n"
                                << report.ToString();

  const SimPlan plan = Simulator().Compile(graph);
  const LintReport plan_report = GraphLint::LintPlan(plan, graph);
  EXPECT_EQ(plan_report.errors(), 0) << plan_report.ToString();
}

std::string WhatIfLintName(const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
  std::string name = ModelName(AllModels()[static_cast<size_t>(std::get<0>(info.param))]);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  name.erase(std::remove(name.begin(), name.end(), '_'), name.end());
  return name + "_i" + std::to_string(std::get<1>(info.param)) + "_" +
         WhatIfs()[static_cast<size_t>(std::get<2>(info.param))].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsBothDepths, WhatIfLint,
    ::testing::Combine(::testing::Range(0, static_cast<int>(AllModels().size())),
                       ::testing::Values(1, 2),
                       ::testing::Range(0, static_cast<int>(WhatIfs().size()))),
    WhatIfLintName);

// ---- plan passes ----

TEST(PlanLint, CleanPlanIsClean) {
  const DependencyGraph g = SmallGraph();
  const SimPlan plan = Simulator().Compile(g);
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.passes_run.size(), 4u);
}

TEST(PlanLint, StructuralMutationAfterCompileIsStale) {
  DependencyGraph g = SmallGraph();
  const SimPlan plan = Simulator().Compile(g);
  const std::vector<TaskId> ids = g.AliveTasks();
  g.AddEdge(ids[0], ids[2]);  // bumps structure_stamp
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_NE(ExpectFlaggedBy(report, "plan-stamp").message.find("stale structure stamp"),
            std::string::npos);
}

TEST(PlanLint, MissedRetimeIsCaught) {
  DependencyGraph g = SmallGraph();
  const SimPlan plan = Simulator().Compile(g);
  const TaskId a = g.AliveTasks().front();
  g.task(a).duration += Us(3);  // timing edit: stamp unchanged, plan stale
  const LintReport report = GraphLint::LintPlan(plan, g);
  const LintFinding& f = ExpectFlaggedBy(report, "plan-timing");
  EXPECT_TRUE(NamesTask(f, a));
  EXPECT_NE(f.message.find("Retime"), std::string::npos);
}

TEST(PlanLint, CorruptedPredCount) {
  const DependencyGraph g = SmallGraph();
  SimPlan plan = Simulator().Compile(g);
  PlanCorruptor::BreakPredCount(&plan, 1, 5);
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_NE(ExpectFlaggedBy(report, "plan-csr").message.find("pred-count"), std::string::npos);
}

TEST(PlanLint, RedirectedSuccessor) {
  const DependencyGraph g = SmallGraph();
  SimPlan plan = Simulator().Compile(g);
  PlanCorruptor::RedirectSucc(&plan, 0, 0);
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_FALSE(FindingsIn(report, "plan-csr").empty()) << report.ToString();
}

TEST(PlanLint, CorruptedLaneAssignment) {
  const DependencyGraph g = SmallGraph();
  SimPlan plan = Simulator().Compile(g);
  PlanCorruptor::BreakLane(&plan, 0, 1);
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_FALSE(FindingsIn(report, "plan-lane").empty()) << report.ToString();
}

TEST(PlanLint, CorruptedDuration) {
  const DependencyGraph g = SmallGraph();
  SimPlan plan = Simulator().Compile(g);
  PlanCorruptor::BreakDuration(&plan, 0, Us(999));
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_FALSE(FindingsIn(report, "plan-timing").empty()) << report.ToString();
}

TEST(PlanLint, ForgedStampIsCaught) {
  const DependencyGraph g = SmallGraph();
  SimPlan plan = Simulator().Compile(g);
  PlanCorruptor::BumpGraphStamp(&plan);
  const LintReport report = GraphLint::LintPlan(plan, g);
  EXPECT_FALSE(FindingsIn(report, "plan-stamp").empty()) << report.ToString();
}

// ---- shard passes ----

// Two GPU streams feeding an allreduce: the comm boundary cuts the lane
// partition, so the shard plan really has multiple shards and real
// cross-shard window entries for the corruptors to break. Durations are
// distinct so the two window bounds differ (SwapWindowBounds must not be a
// no-op).
DependencyGraph ShardableGraph() {
  DependencyGraph g;
  const TaskId a0 = g.AddTask(GpuTask("fwd0", Us(40), /*stream=*/0));
  const TaskId a1 = g.AddTask(GpuTask("bwd0", Us(30), /*stream=*/0));
  const TaskId b0 = g.AddTask(GpuTask("fwd1", Us(50), /*stream=*/1));
  const TaskId b1 = g.AddTask(GpuTask("bwd1", Us(35), /*stream=*/1));
  const TaskId c = g.AddTask(CommTask("allreduce", /*bytes=*/1 << 20, /*dur=*/Us(80)));
  g.AddEdge(a0, a1);
  g.AddEdge(b0, b1);
  g.AddEdge(a1, c);
  g.AddEdge(b1, c);
  g.LinkSequential();
  return g;
}

// A ShardPlan references its plan, so the test holds the two together.
struct CompiledShards {
  explicit CompiledShards(const DependencyGraph& g, int num_shards = 4)
      : plan(Simulator().Compile(g)), shards(ShardPlan::Compile(plan, num_shards)) {}
  CompiledShards(const CompiledShards&) = delete;
  CompiledShards& operator=(const CompiledShards&) = delete;

  SimPlan plan;
  ShardPlan shards;
};

TEST(ShardLint, CleanShardPlanIsClean) {
  const CompiledShards compiled(ShardableGraph());
  const ShardPlan& shards = compiled.shards;
  EXPECT_GE(shards.num_shards(), 2);
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.passes_run.size(), 3u);
}

TEST(ShardLint, CleanZooShardPlansAreClean) {
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  const Daydream daydream(trace);
  for (const int jobs : {2, 8}) {
    const CompiledShards compiled(daydream.graph(), jobs);
    const ShardPlan& shards = compiled.shards;
    const LintReport report = GraphLint::LintShards(shards);
    EXPECT_TRUE(report.ok()) << "sim_jobs=" << jobs << "\n" << report.ToString();
  }
}

TEST(ShardLint, EmptyShardPlanIsFlagged) {
  const ShardPlan shards;
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_NE(ExpectFlaggedBy(report, "shard-partition").message.find("empty"),
            std::string::npos);
}

TEST(ShardLint, ReassignedLaneBreaksPartition) {
  CompiledShards compiled(ShardableGraph());
  ShardPlan& shards = compiled.shards;
  // Point lane 0 at a shard no grouped list claims; the disjoint-cover walk
  // must notice the disagreement.
  ShardCorruptor::BreakLaneShard(&shards, 0, shards.num_shards());
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_FALSE(FindingsIn(report, "shard-partition").empty()) << report.ToString();
}

TEST(ShardLint, ForgedTaskCountBreaksPartition) {
  CompiledShards compiled(ShardableGraph());
  ShardPlan& shards = compiled.shards;
  ShardCorruptor::BreakTaskCount(&shards, 0, 9999);
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_NE(ExpectFlaggedBy(report, "shard-partition").message.find("tasks"),
            std::string::npos);
}

TEST(ShardLint, RedirectedWindowEntryBreaksEdges) {
  CompiledShards compiled(ShardableGraph());
  ShardPlan& shards = compiled.shards;
  // Whatever slot 0 is, pointing it at a wild window position is wrong: an
  // intra-shard edge may carry no entry, and no shard's range holds 1 << 20.
  ShardCorruptor::RedirectWindowEntry(&shards, 0, 1 << 20);
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_FALSE(FindingsIn(report, "shard-edges").empty()) << report.ToString();
}

TEST(ShardLint, ForgedWindowSourceBreaksEdges) {
  CompiledShards compiled(ShardableGraph());
  ShardPlan& shards = compiled.shards;
  ShardCorruptor::BreakWindowSource(&shards, 0, 1 << 20);
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_FALSE(FindingsIn(report, "shard-edges").empty()) << report.ToString();
}

TEST(ShardLint, CorruptedStaticBoundBreaksHorizon) {
  CompiledShards compiled(ShardableGraph());
  ShardPlan& shards = compiled.shards;
  ShardCorruptor::BreakStaticBound(&shards, 0, Us(999));
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_NE(ExpectFlaggedBy(report, "shard-horizon").message.find("longest-path"),
            std::string::npos);
}

TEST(ShardLint, SwappedWindowBoundsBreakHorizon) {
  CompiledShards compiled(ShardableGraph());
  ShardPlan& shards = compiled.shards;
  // The allreduce shard holds both cross-shard entries, sorted ascending by
  // bound (70us, 85us); swapping them moves the horizon backward.
  ShardCorruptor::SwapWindowBounds(&shards, 0, 1);
  const LintReport report = GraphLint::LintShards(shards);
  EXPECT_FALSE(FindingsIn(report, "shard-horizon").empty()) << report.ToString();
}

// ---- strict sweep mode ----

TEST(SweepValidate, StandardSweepPassesStrictValidation) {
  const Trace& trace = CachedTrace(ModelId::kTinyMlp);
  const Daydream daydream(trace);
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.gpus_per_machine = 2;
  const std::vector<SweepCase> cases = BuildStandardSweep(trace, {cluster});
  SweepOptions options;
  options.validate = true;  // full catalog + plan lint per case
  options.num_threads = 2;
  const std::vector<SweepOutcome> outcomes = SweepRunner(daydream, options).Run(cases);
  ASSERT_EQ(outcomes.size(), cases.size());
  for (const SweepOutcome& o : outcomes) {
    EXPECT_GT(o.prediction.predicted, 0) << o.name;
  }
}

}  // namespace
}  // namespace daydream
