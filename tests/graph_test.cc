#include <gtest/gtest.h>

#include "src/core/graph_builder.h"
#include "src/core/simulator.h"
#include "src/runtime/ground_truth.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

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

// ---- graph primitives ----

TEST(DependencyGraph, AddTaskAndEdges) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  g.AddEdge(a, b);
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_EQ(g.children(a), std::vector<TaskId>{b});
  EXPECT_EQ(g.parents(b), std::vector<TaskId>{a});
  EXPECT_EQ(g.num_alive(), 2);
}

TEST(DependencyGraph, EdgeDeduplication) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  EXPECT_EQ(g.children(a).size(), 1u);
}

TEST(DependencyGraph, SelfEdgeIgnored) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  g.AddEdge(a, a);
  EXPECT_TRUE(g.children(a).empty());
}

TEST(DependencyGraph, RemoveEdge) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  g.AddEdge(a, b);
  g.RemoveEdge(a, b);
  EXPECT_FALSE(g.HasEdge(a, b));
  EXPECT_TRUE(g.parents(b).empty());
}

TEST(DependencyGraph, LinkSequential) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(GpuTask("k"));
  g.LinkSequential();
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_FALSE(g.HasEdge(b, c));  // different lanes are not linked
}

TEST(DependencyGraph, RemoveRewiresParentsToChildren) {
  // Figure 4: removing a task reconnects its neighbours.
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  g.Remove(b);
  EXPECT_FALSE(g.alive(b));
  EXPECT_TRUE(g.HasEdge(a, c));
  EXPECT_EQ(g.ThreadSequence(ExecThread::Cpu(0)), (std::vector<TaskId>{a, c}));
}

TEST(DependencyGraph, InsertAfterSplicesSequence) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  const TaskId b = g.InsertAfter(a, CpuTask("b"));
  EXPECT_EQ(g.ThreadSequence(ExecThread::Cpu(0)), (std::vector<TaskId>{a, b, c}));
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_TRUE(g.HasEdge(b, c));
  EXPECT_FALSE(g.HasEdge(a, c));
}

TEST(DependencyGraph, InsertBeforeSplicesSequence) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  const TaskId b = g.InsertBefore(c, CpuTask("b"));
  EXPECT_EQ(g.ThreadSequence(ExecThread::Cpu(0)), (std::vector<TaskId>{a, b, c}));
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_TRUE(g.HasEdge(b, c));
}

TEST(DependencyGraph, InsertAfterCrossThread) {
  DependencyGraph g;
  const TaskId launch = g.AddTask(CpuTask("launch"));
  const TaskId k1 = g.AddTask(GpuTask("k1"));
  g.LinkSequential();
  Task k2 = GpuTask("k2");
  const TaskId id = g.InsertAfter(launch, std::move(k2));  // GPU task, CPU anchor
  EXPECT_TRUE(g.HasEdge(launch, id));
  EXPECT_TRUE(g.HasEdge(k1, id));  // appended to the stream tail
}

TEST(DependencyGraph, SelectByPredicate) {
  DependencyGraph g;
  g.AddTask(CpuTask("a"));
  g.AddTask(GpuTask("k"));
  const std::vector<TaskId> gpus = g.Select([](const Task& t) { return t.is_gpu(); });
  EXPECT_EQ(gpus.size(), 1u);
  EXPECT_EQ(g.task(gpus[0]).name, "k");
}

TEST(DependencyGraph, ValidateDetectsCycle) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  EXPECT_FALSE(g.Validate());
  EXPECT_TRUE(g.TopologicalOrder().empty());
}

TEST(DependencyGraph, TopologicalOrderRespectsEdges) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(GpuTask("c"));
  g.AddEdge(a, c);
  g.AddEdge(b, c);
  const std::vector<TaskId> order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), c);
}

TEST(DependencyGraph, StatsCount) {
  DependencyGraph g;
  g.AddTask(CpuTask("a"));
  g.AddTask(GpuTask("k"));
  Task comm;
  comm.type = TaskType::kComm;
  comm.thread = ExecThread::Comm(0);
  g.AddTask(std::move(comm));
  const DependencyGraph::Stats s = g.ComputeStats();
  EXPECT_EQ(s.tasks, 3);
  EXPECT_EQ(s.cpu_tasks, 1);
  EXPECT_EQ(s.gpu_tasks, 1);
  EXPECT_EQ(s.comm_tasks, 1);
  EXPECT_EQ(s.threads, 3);
}

TEST(DependencyGraph, IntrusiveNeighbours) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  EXPECT_EQ(g.PrevInThread(a), kInvalidTask);
  EXPECT_EQ(g.NextInThread(a), b);
  EXPECT_EQ(g.PrevInThread(c), b);
  EXPECT_EQ(g.NextInThread(c), kInvalidTask);
  g.Remove(b);
  EXPECT_EQ(g.NextInThread(a), c);
  EXPECT_EQ(g.PrevInThread(c), a);
}

TEST(DependencyGraph, RemoveHeadAndTailRelink) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  g.Remove(a);
  g.Remove(c);
  EXPECT_EQ(g.ThreadSequence(ExecThread::Cpu(0)), (std::vector<TaskId>{b}));
  const TaskId d = g.AddTask(CpuTask("d"));
  EXPECT_EQ(g.ThreadSequence(ExecThread::Cpu(0)), (std::vector<TaskId>{b, d}));
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST(DependencyGraph, RemoveDeduplicatesRewiredEdges) {
  // a -> b -> c plus a direct a -> c edge: removing b must not duplicate a->c.
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  g.AddEdge(a, c);
  g.Remove(b);
  EXPECT_EQ(g.children(a), std::vector<TaskId>{c});
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST(DependencyGraph, ThreadsSortedByExecThreadOrder) {
  DependencyGraph g;
  Task comm;
  comm.type = TaskType::kComm;
  comm.thread = ExecThread::Comm(0);
  g.AddTask(std::move(comm));
  g.AddTask(GpuTask("k"));
  g.AddTask(CpuTask("a"));
  const std::vector<ExecThread> threads = g.Threads();
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_TRUE(threads[0] < threads[1]);
  EXPECT_TRUE(threads[1] < threads[2]);
}

TEST(DependencyGraph, CloneCompactsDeadNodesAndStaysIndependent) {
  DependencyGraph g;
  const TaskId a = g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  const TaskId c = g.AddTask(CpuTask("c"));
  g.LinkSequential();
  g.Remove(b);

  DependencyGraph clone = g.Clone();
  EXPECT_EQ(clone.capacity(), g.capacity());  // ids keep their meaning
  EXPECT_FALSE(clone.alive(b));
  EXPECT_TRUE(clone.task(b).name.empty());  // dead payload dropped
  EXPECT_EQ(clone.ThreadSequence(ExecThread::Cpu(0)), (std::vector<TaskId>{a, c}));
  EXPECT_TRUE(clone.HasEdge(a, c));

  clone.Remove(c);
  EXPECT_TRUE(g.alive(c));  // originals unaffected
  std::string error;
  EXPECT_TRUE(clone.Validate(&error)) << error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST(DependencyGraph, IndexedSelectTracksFieldMutations) {
  DependencyGraph g;
  const TaskId a = g.AddTask(GpuTask("k1"));
  const TaskId b = g.AddTask(GpuTask("k2"));
  g.task(a).phase = Phase::kForward;
  g.task(a).layer_id = 1;
  g.task(b).phase = Phase::kForward;
  g.task(b).layer_id = 2;
  g.EnsureSelectIndexes();
  TaskQuery forward;
  forward.phase = Phase::kForward;
  EXPECT_EQ(g.Select(forward), (std::vector<TaskId>{a, b}));

  // Re-assign through the mutable accessor: the next structured Select must
  // see the move between buckets.
  g.task(b).phase = Phase::kBackward;
  g.task(b).layer_id = 5;
  TaskQuery backward;
  backward.phase = Phase::kBackward;
  TaskQuery layer5;
  layer5.layer_id = 5;
  EXPECT_EQ(g.Select(forward), std::vector<TaskId>{a});
  EXPECT_EQ(g.Select(backward), std::vector<TaskId>{b});
  EXPECT_EQ(g.Select(layer5), std::vector<TaskId>{b});

  // And back again, which exercises bucket re-entry + sort/unique.
  g.task(b).phase = Phase::kForward;
  EXPECT_EQ(g.Select(forward), (std::vector<TaskId>{a, b}));
  EXPECT_EQ(g.Select(forward), (std::vector<TaskId>{a, b}));  // stable on re-read
}

TEST(DependencyGraph, ValidateCatchesThreadFieldDesync) {
  DependencyGraph g;
  g.AddTask(CpuTask("a"));
  const TaskId b = g.AddTask(CpuTask("b"));
  EXPECT_TRUE(g.Validate());
  g.task(b).thread = ExecThread::Gpu(3);  // desync: node stays filed under cpu:0
  std::string error;
  EXPECT_FALSE(g.Validate(&error));
  EXPECT_NE(error.find("wrong thread"), std::string::npos);
}

TEST(ExecThread, OrderingAndLabels) {
  EXPECT_LT(ExecThread::Cpu(0), ExecThread::Gpu(0));
  EXPECT_LT(ExecThread::Gpu(0), ExecThread::Comm(0));
  EXPECT_LT(ExecThread::Cpu(0), ExecThread::Cpu(1));
  EXPECT_EQ(ExecThread::Gpu(2).Label(), "gpu:2");
}

// ---- builder on real traces: the five dependency types (§4.2.2) ----

class BuilderModelTest : public ::testing::TestWithParam<ModelId> {};

std::string BuilderParamName(const ::testing::TestParamInfo<ModelId>& info) {
  std::string name = ModelName(info.param);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, BuilderModelTest, ::testing::ValuesIn(PaperModels()),
                         BuilderParamName);

TEST_P(BuilderModelTest, GraphValidAndComplete) {
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(GetParam()));
  const DependencyGraph g = BuildDependencyGraph(trace);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
  // Every non-marker event becomes a task.
  int expected = 0;
  for (const TraceEvent& e : trace.events()) {
    expected += e.kind != EventKind::kLayerMarker ? 1 : 0;
  }
  EXPECT_EQ(g.num_alive(), expected);
}

TEST_P(BuilderModelTest, ReplayMatchesMeasuredMakespan) {
  // The central fidelity property: simulating the *untransformed* graph
  // reproduces the measured execution.
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(GetParam()));
  const DependencyGraph g = BuildDependencyGraph(trace);
  const SimResult sim = Simulator().Run(g);
  EXPECT_LT(RelErrorPct(static_cast<double>(sim.makespan),
                        static_cast<double>(trace.makespan())),
            0.5)
      << "sim " << ToMs(sim.makespan) << "ms vs measured " << ToMs(trace.makespan()) << "ms";
}

TEST_P(BuilderModelTest, EveryGpuTaskHasALaunchParent) {
  // Dependency type 3: correlation edges.
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(GetParam()));
  const DependencyGraph g = BuildDependencyGraph(trace);
  for (TaskId id : g.Select([](const Task& t) { return t.is_gpu(); })) {
    bool has_launch_parent = false;
    for (TaskId p : g.parents(id)) {
      const Task& parent = g.task(p);
      if (parent.is_cpu() && (parent.api == ApiKind::kLaunchKernel ||
                              parent.api == ApiKind::kMemcpyAsync)) {
        has_launch_parent = true;
      }
    }
    EXPECT_TRUE(has_launch_parent) << g.task(id).DebugString();
  }
}

TEST_P(BuilderModelTest, SequentialChainsExist) {
  // Dependency types 1 and 2.
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(GetParam()));
  const DependencyGraph g = BuildDependencyGraph(trace);
  for (const ExecThread& thread : g.Threads()) {
    const std::vector<TaskId> seq = g.ThreadSequence(thread);
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(seq[i], seq[i + 1]))
          << thread.Label() << " position " << i;
    }
  }
}

TEST_P(BuilderModelTest, BlockingApisClippedWithGpuEdges) {
  // Dependency type 4: sync APIs keep only their overhead as duration; the
  // measured wait is reproduced through a GPU -> CPU edge to the next task.
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(GetParam()));
  const DependencyGraph g = BuildDependencyGraph(trace);
  bool found_sync = false;
  for (TaskId id : g.Select(
           [](const Task& t) { return t.api == ApiKind::kDeviceSynchronize; })) {
    found_sync = true;
    EXPECT_LE(g.task(id).duration, kSyncApiFloor);
  }
  EXPECT_TRUE(found_sync);
  // Some CPU task has a GPU parent (the wait edge).
  bool gpu_to_cpu = false;
  for (TaskId id : g.Select([](const Task& t) { return t.is_cpu(); })) {
    for (TaskId p : g.parents(id)) {
      gpu_to_cpu |= g.task(p).is_gpu();
    }
  }
  EXPECT_TRUE(gpu_to_cpu);
}

TEST_P(BuilderModelTest, GapsNonNegativeAndBounded) {
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(GetParam()));
  const DependencyGraph g = BuildDependencyGraph(trace);
  for (TaskId id : g.AliveTasks()) {
    const Task& t = g.task(id);
    EXPECT_GE(t.gap, 0) << t.DebugString();
    if (t.is_gpu()) {
      EXPECT_EQ(t.gap, 0) << "GPU tasks carry no gap";
    }
  }
}

TEST(Builder, CommunicationEventsBecomeCommTasks) {
  RunConfig config = DefaultRunConfig(ModelId::kVgg19);
  config.gpu = GpuSpec::P4000();
  config.framework = FrameworkProfile::Mxnet();
  config.batch = 16;
  config.comm = CommBackend::kPs;
  config.cluster.machines = 4;
  config.cluster.gpus_per_machine = 1;
  config.cluster.network.bandwidth_gbps = 5.0;
  const ExecutionResult r = RunGroundTruth(config, 3);
  const DependencyGraph g = BuildDependencyGraph(r.trace);
  const DependencyGraph::Stats s = g.ComputeStats();
  EXPECT_GT(s.comm_tasks, 0);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

}  // namespace
}  // namespace daydream
