// Differential test of the simulator engine against the Algorithm-1 oracle:
// the compiled-plan event engine (Simulator::Run, or an explicit SimPlan)
// must reproduce the literal frontier scan (tests/reference_scan.h)
// *exactly* — same makespan, same per-task start/end, same per-lane
// accounting — on every model in the zoo under every what-if
// transformation, on P3's priority-scheduled parameter-server graphs, on
// replicated multi-worker cluster graphs, and on seeded random DAGs, under
// both SchedulePolicy values. The plan Retime path (shared structure block,
// rebuilt timings/keys) and sharded dispatch get the same treatment.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/graph_builder.h"
#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/core/sim_plan.h"
#include "src/core/transform.h"
#include "src/runtime/ground_truth.h"
#include "src/util/thread_pool.h"
#include "tests/reference_scan.h"

namespace daydream {
namespace {

void ExpectSameResult(const SimResult& reference, const SimResult& event) {
  EXPECT_EQ(reference.makespan, event.makespan);
  EXPECT_EQ(reference.start, event.start);
  EXPECT_EQ(reference.end, event.end);
  EXPECT_EQ(reference.lane_threads, event.lane_threads);
  EXPECT_EQ(reference.lane_busy, event.lane_busy);
  EXPECT_EQ(reference.lane_end, event.lane_end);
  EXPECT_EQ(reference.dispatched, event.dispatched);
}

// Traces are expensive to collect; cache one per (model, iterations).
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

struct WhatIfCase {
  const char* name;
  // Applies the transformation; receives the model graph for layer-structured
  // what-ifs and the trace for gradient metadata.
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
       [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfMetaFlowFuseConvBn(g, m); }},
      {"gist", [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfGist(g, m); }},
      {"vdnn", [](DependencyGraph* g, const ModelGraph& m, const Trace&) { WhatIfVdnn(g, m); }},
      {"distributed_4x2",
       [](DependencyGraph* g, const ModelGraph&, const Trace& t) {
         DistributedWhatIf opts;
         opts.cluster.machines = 4;
         opts.cluster.gpus_per_machine = 2;
         WhatIfDistributed(g, t.gradients(), opts);
       }},
      {"distributed_2x2_25gbps",
       [](DependencyGraph* g, const ModelGraph&, const Trace& t) {
         DistributedWhatIf opts;
         opts.cluster.machines = 2;
         opts.cluster.gpus_per_machine = 2;
         opts.cluster.network.bandwidth_gbps = 25.0;
         WhatIfDistributed(g, t.gradients(), opts);
       }},
  };
  return *cases;
}

class EngineEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineEquivalence, EventEngineReproducesReference) {
  const ModelId model = AllModels()[static_cast<size_t>(std::get<0>(GetParam()))];
  const WhatIfCase& what_if = WhatIfs()[static_cast<size_t>(std::get<1>(GetParam()))];

  const Trace& trace = CachedTrace(model);
  const ModelGraph model_graph = BuildModel(model);
  DependencyGraph graph = BuildDependencyGraph(trace);
  what_if.apply(&graph, model_graph, trace);

  ExpectSameResult(ReferenceScan(graph), Simulator().Run(graph));
}

std::string CaseName(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  std::string name = ModelName(AllModels()[static_cast<size_t>(std::get<0>(info.param))]);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name + "__" + WhatIfs()[static_cast<size_t>(std::get<1>(info.param))].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllWhatIfs, EngineEquivalence,
    ::testing::Combine(::testing::Range(0, static_cast<int>(AllModels().size())),
                       ::testing::Range(0, static_cast<int>(WhatIfs().size()))),
    CaseName);

// The priority scheduler drives P3's parameter-server graphs: push/pull chains
// with per-slice priorities on two communication channels.
TEST(EngineEquivalencePriority, P3ParameterServerGraphs) {
  for (ModelId model : {ModelId::kResNet50, ModelId::kGnmt, ModelId::kVgg19}) {
    const Trace& trace = CachedTrace(model, /*iterations=*/2);
    const Daydream daydream(trace);
    DependencyGraph graph = daydream.CloneGraph();
    PsWhatIf options;
    WhatIfP3(&graph, BuildModel(model), options);

    const SchedulePolicy priority = SchedulePolicy::kPriorityComm;
    ExpectSameResult(ReferenceScan(graph, priority), Simulator(priority).Run(graph));
  }
}

TEST(EngineEquivalencePriority, DistributedGraphs) {
  for (ModelId model : {ModelId::kResNet50, ModelId::kBertBase}) {
    const Trace& trace = CachedTrace(model);
    DependencyGraph graph = BuildDependencyGraph(trace);
    DistributedWhatIf opts;
    opts.cluster.machines = 4;
    opts.cluster.gpus_per_machine = 2;
    WhatIfDistributed(&graph, trace.gradients(), opts);

    const SchedulePolicy priority = SchedulePolicy::kPriorityComm;
    ExpectSameResult(ReferenceScan(graph, priority), Simulator(priority).Run(graph));
  }
}

// Random DAGs: tasks on realistic lane kinds (comm tasks on comm channels),
// random forward edges, zero durations and gaps included — the adversarial
// shapes for ready-structure bookkeeping.
DependencyGraph RandomGraph(int seed, bool with_priorities) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  DependencyGraph g;
  const int cpu_threads = 1 + static_cast<int>(rng() % 3);
  const int gpu_streams = 1 + static_cast<int>(rng() % 3);
  const int comm_channels = 1 + static_cast<int>(rng() % 2);
  const int num_tasks = 120 + static_cast<int>(rng() % 80);

  std::vector<TaskId> ids;
  for (int i = 0; i < num_tasks; ++i) {
    Task t;
    const int lane = static_cast<int>(rng() % 10);
    if (lane < 4) {
      t.type = TaskType::kCpu;
      t.thread = ExecThread::Cpu(static_cast<int>(rng()) % cpu_threads);
    } else if (lane < 8) {
      t.type = TaskType::kGpu;
      t.thread = ExecThread::Gpu(static_cast<int>(rng()) % gpu_streams);
    } else {
      t.type = TaskType::kComm;
      t.thread = ExecThread::Comm(static_cast<int>(rng()) % comm_channels);
      if (with_priorities) {
        t.priority = static_cast<int>(rng() % 5);
      }
    }
    t.duration = static_cast<TimeNs>(rng() % 50) * Us(1);  // zero durations included
    t.gap = static_cast<TimeNs>(rng() % 4) * Us(1);
    ids.push_back(g.AddTask(std::move(t)));
  }
  for (int i = 0; i < num_tasks; ++i) {
    for (int j = i + 1; j < num_tasks; ++j) {
      if (rng() % 100 < 3) {  // sparse forward edges keep the frontier wide
        g.AddEdge(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
      }
    }
  }
  return g;
}

class RandomGraphEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphEquivalence, EarliestStart) {
  const DependencyGraph g = RandomGraph(GetParam(), /*with_priorities=*/false);
  ExpectSameResult(ReferenceScan(g), Simulator().Run(g));
}

TEST_P(RandomGraphEquivalence, PriorityComm) {
  const DependencyGraph g = RandomGraph(GetParam() + 1000, /*with_priorities=*/true);
  const SchedulePolicy priority = SchedulePolicy::kPriorityComm;
  ExpectSameResult(ReferenceScan(g, priority), Simulator(priority).Run(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphEquivalence, ::testing::Range(1, 13));

// ---- Pipeline-parallel schedules ----
//
// Every generated pipeline graph (stages x micro-batches x schedule kind)
// must dispatch identically on the compiled-plan event engine and the
// Algorithm-1 oracle: the lane count scales with stages and the
// schedule is pinned by lane order, which makes these the widest-frontier
// graphs a what-if produces from a single profile.
class PipelineDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};  // stages, mb, schedule

TEST_P(PipelineDifferential, EventEngineReproducesReference) {
  const int stages = std::get<0>(GetParam());
  const int microbatches = std::get<1>(GetParam());
  const auto kind = std::get<2>(GetParam()) == 0 ? PipelineScheduleKind::kGPipe
                                                 : PipelineScheduleKind::k1F1B;

  const Trace& trace = CachedTrace(ModelId::kTinyMlp);
  const ModelGraph model = BuildModel(ModelId::kTinyMlp);
  DependencyGraph graph = BuildDependencyGraph(trace);
  PipelineWhatIf options;
  options.num_stages = stages;
  options.num_microbatches = microbatches;
  options.schedule = kind;
  WhatIfPipeline(&graph, model, options);

  ExpectSameResult(ReferenceScan(graph), Simulator().Run(graph));
}

std::string PipelineCaseName(const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
  return std::string(std::get<2>(info.param) == 0 ? "gpipe" : "fb") + "_s" +
         std::to_string(std::get<0>(info.param)) + "_m" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(StagesByMicrobatches, PipelineDifferential,
                         ::testing::Combine(::testing::Values(2, 3, 4, 8),
                                            ::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0, 1)),
                         PipelineCaseName);

// The same differential on a paper model, at the shapes the CLI sweeps.
TEST(PipelineDifferentialModels, GnmtPipelines) {
  const Trace& trace = CachedTrace(ModelId::kGnmt);
  const ModelGraph model = BuildModel(ModelId::kGnmt);
  for (const auto kind : {PipelineScheduleKind::kGPipe, PipelineScheduleKind::k1F1B}) {
    for (const int stages : {2, 4}) {
      DependencyGraph graph = BuildDependencyGraph(trace);
      PipelineWhatIf options;
      options.num_stages = stages;
      options.num_microbatches = 4;
      options.schedule = kind;
      WhatIfPipeline(&graph, model, options);
      ExpectSameResult(ReferenceScan(graph), Simulator().Run(graph));
    }
  }
}

// Random retimes of a pipeline plan: the shared-structure Retime path must
// stay exact on stage-by-micro-batch lane layouts.
TEST(PipelineDifferentialRetime, RandomRetimesMatchReference) {
  const Trace& trace = CachedTrace(ModelId::kTinyMlp);
  const ModelGraph model = BuildModel(ModelId::kTinyMlp);
  std::mt19937 rng(20260730);
  for (int round = 0; round < 6; ++round) {
    DependencyGraph graph = BuildDependencyGraph(trace);
    PipelineWhatIf options;
    options.num_stages = 2 + round % 3;
    options.num_microbatches = 1 + round;
    options.schedule =
        round % 2 == 0 ? PipelineScheduleKind::kGPipe : PipelineScheduleKind::k1F1B;
    WhatIfPipeline(&graph, model, options);

    const SimPlan donor = SimPlan::Compile(graph);
    DependencyGraph scaled = graph.Clone();
    for (TaskId id : scaled.AliveTasks()) {
      Task& t = scaled.task(id);
      t.duration = t.duration / (1 + static_cast<TimeNs>(rng() % 4));
      if (rng() % 3 == 0) {
        t.gap = static_cast<TimeNs>(rng() % 20) * Us(1);
      }
    }
    ASSERT_TRUE(donor.CompatibleWith(scaled));
    const SimPlan retimed = SimPlan::Retime(donor, scaled);
    ExpectSameResult(ReferenceScan(scaled), retimed.Run());
  }
}

// ---- Compiled-plan specifics: explicit Compile / Retime / invalidation ----

TEST(SimPlanDifferential, ClusterGraphsMatchReferenceUnderBothSchedulers) {
  // Distributed data-parallel cluster graphs: the single-worker profile
  // replicated across workers (the shared ReplicateWorkers helper perf_core
  // benches with), plus the allReduce schedule of the what-if.
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  DependencyGraph worker = BuildDependencyGraph(trace);
  DistributedWhatIf opts;
  opts.cluster.machines = 2;
  opts.cluster.gpus_per_machine = 2;
  WhatIfDistributed(&worker, trace.gradients(), opts);
  const DependencyGraph cluster = ReplicateWorkers(worker, 4);

  for (const SchedulePolicy policy :
       {SchedulePolicy::kEarliestStart, SchedulePolicy::kPriorityComm}) {
    const SimPlan plan = Simulator(policy).Compile(cluster);
    EXPECT_EQ(plan.num_tasks(), cluster.num_alive());
    EXPECT_EQ(plan.num_lanes(), cluster.num_lanes());
    ExpectSameResult(ReferenceScan(cluster, policy), plan.Run());
  }
}

TEST(SimPlanDifferential, RetimeMatchesFreshCompileAndReference) {
  const Trace& trace = CachedTrace(ModelId::kGnmt);
  const Daydream daydream(trace);

  // A timing-only what-if: AMP-style duration scaling plus gap and priority
  // edits — everything Retime must re-read, nothing that bumps the stamp.
  DependencyGraph transformed = daydream.CloneGraph();
  ASSERT_EQ(transformed.structure_stamp(), daydream.graph().structure_stamp());
  WhatIfAmp(&transformed);
  int flip = 0;
  for (TaskId id : transformed.Select(IsOnCpu())) {
    Task& t = transformed.task(id);
    t.gap = t.gap / 2;
    t.priority = (++flip % 3) - 1;
  }
  ASSERT_EQ(transformed.structure_stamp(), daydream.graph().structure_stamp());
  ASSERT_TRUE(daydream.baseline_plan().CompatibleWith(transformed));

  for (const SchedulePolicy policy :
       {SchedulePolicy::kEarliestStart, SchedulePolicy::kPriorityComm}) {
    const SimPlan retimed = Simulator(policy).Compile(transformed, &daydream.baseline_plan());
    const SimPlan fresh = SimPlan::Compile(transformed, policy);
    const SimResult reference = ReferenceScan(transformed, policy);
    ExpectSameResult(reference, retimed.Run());
    ExpectSameResult(reference, fresh.Run());
  }
}

TEST(SimPlanDifferential, StructuralMutationInvalidatesCompatibility) {
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  const Daydream daydream(trace);

  DependencyGraph timing_only = daydream.CloneGraph();
  WhatIfAmp(&timing_only);  // timing-only: stamp preserved
  EXPECT_EQ(timing_only.structure_stamp(), daydream.graph().structure_stamp());
  EXPECT_TRUE(daydream.baseline_plan().CompatibleWith(timing_only));

  DependencyGraph structural = daydream.CloneGraph();
  WhatIfFusedAdam(&structural);  // removes tasks: stamp bumped
  EXPECT_NE(structural.structure_stamp(), daydream.graph().structure_stamp());
  EXPECT_FALSE(daydream.baseline_plan().CompatibleWith(structural));

  // Simulator::Compile silently falls back to a full compile — and the full
  // compile still matches the oracle on the mutated graph.
  const SimPlan plan = Simulator().Compile(structural, &daydream.baseline_plan());
  ExpectSameResult(ReferenceScan(structural), plan.Run());
}

// ---- Deterministic structure stamps: one structure block per what-if family ----

// Every multi-GPU `distributed` config inserts one all-reduce per gradient
// bucket, whatever the cluster: the clones receive the same mutation sequence,
// so they carry one stamp and differ only in the all-reduce durations.
std::vector<ClusterConfig> MultiGpuClusters() {
  std::vector<ClusterConfig> clusters;
  for (const auto& [machines, gpus, gbps] :
       std::vector<std::tuple<int, int, double>>{{2, 1, 10.0}, {2, 2, 25.0}, {4, 2, 40.0},
                                                 {8, 8, 100.0}}) {
    ClusterConfig cluster;
    cluster.machines = machines;
    cluster.gpus_per_machine = gpus;
    cluster.network.bandwidth_gbps = gbps;
    clusters.push_back(cluster);
  }
  return clusters;
}

DependencyGraph DistributedClone(const Daydream& daydream, const ClusterConfig& cluster) {
  DependencyGraph graph = daydream.CloneGraph();
  DistributedWhatIf options;
  options.cluster = cluster;
  WhatIfDistributed(&graph, daydream.trace().gradients(), options);
  return graph;
}

TEST(StructureStamp, MultiGpuDistributedConfigsShareOneStructure) {
  for (ModelId model : PaperModels()) {
    SCOPED_TRACE(ModelName(model));
    const Daydream daydream(CachedTrace(model));
    std::vector<DependencyGraph> family;
    for (const ClusterConfig& cluster : MultiGpuClusters()) {
      family.push_back(DistributedClone(daydream, cluster));
      EXPECT_EQ(family.back().structure_stamp(), family.front().structure_stamp())
          << cluster.Label();
    }
    EXPECT_NE(family.front().structure_stamp(), daydream.graph().structure_stamp());

    // Each config retimed over the first config's plan answers exactly what a
    // fresh compile and the Algorithm-1 oracle answer.
    const SimPlan donor = daydream.Plan(family.front());
    for (size_t i = 1; i < family.size(); ++i) {
      bool retimed = false;
      const SimPlan plan = daydream.Plan(family[i], &retimed, &donor);
      EXPECT_TRUE(retimed);
      const SimResult reference = ReferenceScan(family[i]);
      ExpectSameResult(reference, plan.Run());
      ExpectSameResult(reference, SimPlan::Compile(family[i]).Run());
    }
  }
}

TEST(StructureStamp, OtherWhatIfsStayOutOfTheDistributedFamily) {
  for (ModelId model : PaperModels()) {
    SCOPED_TRACE(ModelName(model));
    const Daydream daydream(CachedTrace(model));
    const uint64_t family = DistributedClone(daydream, MultiGpuClusters().front()).structure_stamp();

    // A 1-GPU cluster inserts nothing: it keeps the baseline structure.
    const DependencyGraph single = DistributedClone(daydream, ClusterConfig{});
    EXPECT_EQ(single.structure_stamp(), daydream.graph().structure_stamp());
    EXPECT_NE(single.structure_stamp(), family);

    DependencyGraph fused = daydream.CloneGraph();
    WhatIfFusedAdam(&fused);
    EXPECT_NE(fused.structure_stamp(), family);

    DependencyGraph gist = daydream.CloneGraph();
    WhatIfGist(&gist, BuildModel(model));
    EXPECT_NE(gist.structure_stamp(), family);
  }
}

TEST(StructureStamp, EqualMutationSequencesGiveEqualStampsAndUndoDoesNot) {
  DependencyGraph graph;
  std::vector<TaskId> ids;
  for (int i = 0; i < 3; ++i) {
    Task t;
    t.type = TaskType::kGpu;
    t.thread = ExecThread::Gpu(0);
    t.duration = Us(10);
    ids.push_back(graph.AddTask(std::move(t)));
  }
  const uint64_t before = graph.structure_stamp();

  DependencyGraph twin = graph.Clone();
  graph.AddEdge(ids[0], ids[2]);
  const uint64_t added = graph.structure_stamp();
  EXPECT_NE(added, before);
  twin.AddEdge(ids[0], ids[2]);
  EXPECT_EQ(twin.structure_stamp(), added);  // same sequence, same stamp

  // The edge is gone again, but the fold is not invertible: a plan compiled
  // before the round trip is not silently reused.
  graph.RemoveEdge(ids[0], ids[2]);
  EXPECT_NE(graph.structure_stamp(), before);
  EXPECT_NE(graph.structure_stamp(), added);
}

TEST(SimPlanDifferential, RandomGraphRetime) {
  std::mt19937 rng(4242);
  for (int seed = 1; seed <= 8; ++seed) {
    const DependencyGraph base = RandomGraph(seed + 900, /*with_priorities=*/true);
    const SimPlan donor = SimPlan::Compile(base);
    DependencyGraph scaled = base.Clone();
    for (TaskId id : scaled.AliveTasks()) {
      Task& t = scaled.task(id);
      t.duration = t.duration / (1 + static_cast<TimeNs>(rng() % 3));
      if (rng() % 4 == 0) {
        t.gap = 0;
      }
    }
    ASSERT_TRUE(donor.CompatibleWith(scaled));
    const SimPlan retimed = SimPlan::Retime(donor, scaled);
    ExpectSameResult(ReferenceScan(scaled), retimed.Run());
  }
}

// ---- Deterministic tie-break regression ----
//
// Equal feasible times on one lane must dispatch in ascending task id (the
// documented determinism contract), identically across runs and the oracle.
TEST(TieBreakRegression, SameLaneTiesDispatchInIdOrder) {
  DependencyGraph g;
  std::vector<TaskId> ids;
  for (int i = 0; i < 6; ++i) {
    Task t;
    t.type = TaskType::kGpu;
    t.thread = ExecThread::Gpu(0);
    t.duration = Us(10);
    ids.push_back(g.AddTask(std::move(t)));
  }
  const SimResult a = Simulator().Run(g);
  const SimResult b = Simulator().Run(g);
  EXPECT_EQ(a.start, b.start);
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(a.start[static_cast<size_t>(ids[i - 1])], a.start[static_cast<size_t>(ids[i])]);
  }
  ExpectSameResult(ReferenceScan(g), a);
}

TEST(TieBreakRegression, PriorityBeatsIdOnCommChannel) {
  DependencyGraph g;
  Task low;
  low.type = TaskType::kComm;
  low.thread = ExecThread::Comm(0);
  low.duration = Us(10);
  low.priority = 1;
  const TaskId low_id = g.AddTask(std::move(low));
  Task high;
  high.type = TaskType::kComm;
  high.thread = ExecThread::Comm(0);
  high.duration = Us(10);
  high.priority = 7;
  const TaskId high_id = g.AddTask(std::move(high));

  const SimResult r = Simulator(SchedulePolicy::kPriorityComm).Run(g);
  EXPECT_LT(r.start[static_cast<size_t>(high_id)], r.start[static_cast<size_t>(low_id)]);
  ExpectSameResult(ReferenceScan(g, SchedulePolicy::kPriorityComm), r);
}

// A task that becomes ready while its lane is still busy joins the tie-break
// pool and must lose the id tie-break it would have won on bound order alone.
TEST(TieBreakRegression, LateReadyTaskJoinsTiePool) {
  DependencyGraph g;
  // Lane occupier: busy until 30us with a 20us trailing gap -> progress 50us.
  Task busy;
  busy.type = TaskType::kGpu;
  busy.thread = ExecThread::Gpu(0);
  busy.duration = Us(30);
  busy.gap = Us(20);
  const TaskId busy_id = g.AddTask(std::move(busy));

  // Gate on another lane finishing at 40us, feeding the later-id task.
  Task gate;
  gate.type = TaskType::kCpu;
  gate.thread = ExecThread::Cpu(0);
  gate.duration = Us(40);
  const TaskId gate_id = g.AddTask(std::move(gate));

  Task first;  // ready at t=0, id smaller
  first.type = TaskType::kGpu;
  first.thread = ExecThread::Gpu(0);
  first.duration = Us(10);
  const TaskId first_id = g.AddTask(std::move(first));

  Task second;  // becomes ready at 40us < progress 50us -> same tie pool
  second.type = TaskType::kGpu;
  second.thread = ExecThread::Gpu(0);
  second.duration = Us(10);
  const TaskId second_id = g.AddTask(std::move(second));
  g.AddEdge(gate_id, second_id);

  const SimResult r = Simulator().Run(g);
  EXPECT_EQ(r.start[static_cast<size_t>(busy_id)], 0);
  // Both become feasible at progress=50us; lower id dispatches first.
  EXPECT_EQ(r.start[static_cast<size_t>(first_id)], Us(50));
  EXPECT_EQ(r.start[static_cast<size_t>(second_id)], Us(60));
  ExpectSameResult(ReferenceScan(g), r);
}

// ---- Sharded parallel dispatch ----
//
// The windowed barrier engine must be *exactly* equal to both oracles — the
// Algorithm-1 scan and the serial plan dispatch — at every sim_jobs level. The
// contract is byte-identical SimResults, not approximate equality, so the
// whole zoo x what-if matrix runs through ExpectSameResult, and the random
// DAGs (zero durations, bound ties, cross-lane webs) hammer the shard
// boundaries and the stall fallback.

const std::vector<int>& ShardJobLevels() {
  static const std::vector<int>* levels = new std::vector<int>{1, 2, 4, 8};
  return *levels;
}

// Runs the full differential at every job level: parallel vs the oracle and
// parallel vs serial plan dispatch.
void ExpectShardedMatches(const DependencyGraph& graph, SchedulePolicy policy) {
  const SimPlan plan = SimPlan::Compile(graph, policy);
  const SimResult serial = plan.Run();
  ExpectSameResult(ReferenceScan(graph, policy), serial);
  for (const int jobs : ShardJobLevels()) {
    const ShardPlan shards = ShardPlan::Compile(plan, jobs);
    EXPECT_LE(shards.num_shards(), std::max(1, jobs));
    ThreadPool pool(shards.num_shards() - 1);
    ExpectSameResult(serial, shards.Run(&pool));
    // Pool-less path (orchestrator thread runs every shard) must match too.
    ExpectSameResult(serial, shards.Run(nullptr));
  }
}

class ShardDifferential : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardDifferential, ParallelDispatchReproducesReference) {
  const ModelId model = AllModels()[static_cast<size_t>(std::get<0>(GetParam()))];
  const WhatIfCase& what_if = WhatIfs()[static_cast<size_t>(std::get<1>(GetParam()))];

  const Trace& trace = CachedTrace(model);
  const ModelGraph model_graph = BuildModel(model);
  DependencyGraph graph = BuildDependencyGraph(trace);
  what_if.apply(&graph, model_graph, trace);

  ExpectShardedMatches(graph, SchedulePolicy::kEarliestStart);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllWhatIfs, ShardDifferential,
    ::testing::Combine(::testing::Range(0, static_cast<int>(AllModels().size())),
                       ::testing::Range(0, static_cast<int>(WhatIfs().size()))),
    CaseName);

class ShardRandomGraph : public ::testing::TestWithParam<int> {};

TEST_P(ShardRandomGraph, EarliestStart) {
  ExpectShardedMatches(RandomGraph(GetParam() + 2000, /*with_priorities=*/false),
                       SchedulePolicy::kEarliestStart);
}

TEST_P(ShardRandomGraph, PriorityComm) {
  ExpectShardedMatches(RandomGraph(GetParam() + 3000, /*with_priorities=*/true),
                       SchedulePolicy::kPriorityComm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardRandomGraph, ::testing::Range(1, 13));

TEST(ShardDifferentialCluster, ReplicatedDistributedWorkers) {
  // The target workload shape: replicated workers joined by an all-reduce
  // channel — the partition that gives real multi-shard parallelism.
  const Trace& trace = CachedTrace(ModelId::kResNet50);
  DependencyGraph worker = BuildDependencyGraph(trace);
  DistributedWhatIf opts;
  opts.cluster.machines = 2;
  opts.cluster.gpus_per_machine = 2;
  DependencyGraph cluster = ReplicateWorkers(worker, 4);
  WhatIfDistributed(&cluster, trace.gradients(), opts);

  const SimPlan plan = SimPlan::Compile(cluster);
  const SimResult serial = plan.Run();
  for (const int jobs : ShardJobLevels()) {
    const ShardPlan shards = ShardPlan::Compile(plan, jobs);
    if (jobs > 1) {
      // 4 worker components + comm channels: sharding must actually split.
      EXPECT_GE(shards.num_shards(), std::min(jobs, 2));
    }
    ThreadPool pool(shards.num_shards() - 1);
    ExpectSameResult(serial, shards.Run(&pool));
  }
  ExpectSameResult(ReferenceScan(cluster), serial);
}

TEST(ShardDifferentialRetime, RetimedPlansReshardExactly) {
  // Retime invalidates a ShardPlan's window bounds (timing changed), so the
  // supported pattern is recompile-from-retimed-plan; the result must track
  // the oracle on the scaled graph at every job level.
  std::mt19937 rng(77);
  for (int seed = 1; seed <= 6; ++seed) {
    const DependencyGraph base = RandomGraph(seed + 4000, /*with_priorities=*/false);
    const SimPlan donor = SimPlan::Compile(base);
    DependencyGraph scaled = base.Clone();
    for (TaskId id : scaled.AliveTasks()) {
      Task& t = scaled.task(id);
      t.duration = t.duration / (1 + static_cast<TimeNs>(rng() % 3));
    }
    ASSERT_TRUE(donor.CompatibleWith(scaled));
    const SimPlan retimed = SimPlan::Retime(donor, scaled);
    const SimResult oracle = ReferenceScan(scaled);
    for (const int jobs : ShardJobLevels()) {
      ExpectSameResult(oracle, RunPlanParallel(retimed, jobs));
    }
  }
}

TEST(ShardDifferentialDeterminism, RepeatedRunsAreByteIdentical) {
  // Same plan, same job level, repeated runs: thread scheduling must never
  // leak into the result (the serve smoke depends on byte-identical JSON).
  const DependencyGraph g = RandomGraph(31337, /*with_priorities=*/true);
  const SimPlan plan = SimPlan::Compile(g, SchedulePolicy::kPriorityComm);
  const ShardPlan shards = ShardPlan::Compile(plan, 4);
  ThreadPool pool(3);
  const SimResult first = shards.Run(&pool);
  for (int rep = 0; rep < 8; ++rep) {
    ExpectSameResult(first, shards.Run(&pool));
  }
}

}  // namespace
}  // namespace daydream
