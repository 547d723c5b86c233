#include <gtest/gtest.h>

#include "src/core/simulator.h"
#include "tests/reference_scan.h"

namespace daydream {
namespace {

Task Make(TaskType type, ExecThread thread, TimeNs dur, TimeNs gap = 0, int priority = 0) {
  Task t;
  t.type = type;
  t.thread = thread;
  t.duration = dur;
  t.gap = gap;
  t.priority = priority;
  return t;
}

TEST(Simulator, EmptyGraph) {
  DependencyGraph g;
  const SimResult r = Simulator().Run(g);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_EQ(r.dispatched, 0);
}

TEST(Simulator, SingleTask) {
  DependencyGraph g;
  const TaskId a = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  const SimResult r = Simulator().Run(g);
  EXPECT_EQ(r.makespan, Us(10));
  EXPECT_EQ(r.start[static_cast<size_t>(a)], 0);
  EXPECT_EQ(r.EndOf(a), Us(10));
}

TEST(Simulator, ChainOnOneThread) {
  DependencyGraph g;
  g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(20)));
  g.LinkSequential();
  EXPECT_EQ(Simulator().Run(g).makespan, Us(30));
}

TEST(Simulator, GapOccupiesThreadButNotChildren) {
  // Alg. 1 line 13: thread progress advances by duration + gap; our deviation
  // from line 16: cross-thread children start at end (without the gap).
  DependencyGraph g;
  const TaskId launch =
      g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(5), /*gap=*/Us(50)));
  const TaskId next_cpu = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(5)));
  const TaskId kernel = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(10)));
  g.LinkSequential();
  g.AddEdge(launch, kernel);
  const SimResult r = Simulator().Run(g);
  EXPECT_EQ(r.start[static_cast<size_t>(kernel)], Us(5));     // right after the launch
  EXPECT_EQ(r.start[static_cast<size_t>(next_cpu)], Us(55));  // after the gap
}

TEST(Simulator, ParallelThreadsOverlap) {
  DependencyGraph g;
  g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(30)));
  g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(40)));
  EXPECT_EQ(Simulator().Run(g).makespan, Us(40));
}

TEST(Simulator, DiamondDependency) {
  DependencyGraph g;
  const TaskId a = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  const TaskId b = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(20)));
  const TaskId c = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(1), Us(30)));
  const TaskId d = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(1), Us(5)));
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  const SimResult r = Simulator().Run(g);
  EXPECT_EQ(r.start[static_cast<size_t>(d)], Us(40));  // max(10+20, 10+30)
  EXPECT_EQ(r.makespan, Us(45));
}

TEST(Simulator, MakespanAtLeastCriticalPath) {
  DependencyGraph g;
  const TaskId a = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  const TaskId b = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(100)));
  const TaskId c = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  EXPECT_EQ(Simulator().Run(g).makespan, Us(120));
}

TEST(Simulator, MakespanAtLeastPerThreadWork) {
  DependencyGraph g;
  for (int i = 0; i < 5; ++i) {
    g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(10)));
  }
  EXPECT_GE(Simulator().Run(g).makespan, Us(50));  // one lane serializes
}

TEST(Simulator, ThreadBusyAccounting) {
  DependencyGraph g;
  g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(15)));
  const SimResult r = Simulator().Run(g);
  // Flat lane-indexed accounting.
  ASSERT_EQ(r.lane_busy.size(), 1u);
  EXPECT_EQ(r.lane_threads[0], ExecThread::Cpu(0));
  EXPECT_EQ(r.lane_busy[0], Us(25));
  EXPECT_EQ(r.lane_end[0], Us(25));
}

TEST(Simulator, LanesThatNeverDispatchStayOutOfTheMapViews) {
  DependencyGraph g;
  const TaskId a = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(10)));
  g.Remove(a);  // lane 0 stays interned but has no alive tasks
  const SimResult r = Simulator().Run(g);
  ASSERT_EQ(r.lane_end.size(), 2u);
  EXPECT_EQ(r.lane_threads[0], ExecThread::Cpu(0));
  EXPECT_EQ(r.lane_end[0], -1);
  EXPECT_EQ(r.lane_busy[0], 0);
  EXPECT_EQ(r.lane_threads[1], ExecThread::Gpu(0));
  EXPECT_EQ(r.lane_end[1], Us(10));
}

TEST(Simulator, DispatchCountsAliveOnly) {
  DependencyGraph g;
  const TaskId a = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  g.Remove(a);
  EXPECT_EQ(Simulator().Run(g).dispatched, 1);
}

TEST(Simulator, EarliestStartPolicyDeterministic) {
  DependencyGraph g;
  for (int i = 0; i < 10; ++i) {
    g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(i % 2), Us(10 + i)));
  }
  const SimResult a = Simulator().Run(g);
  const SimResult b = Simulator().Run(g);
  EXPECT_EQ(a.start, b.start);
}

TEST(Simulator, PrioritySchedulerPrefersHighPriorityComm) {
  // Two comm tasks on the same channel, both ready at t=0: the priority
  // scheduler must dispatch the high-priority one first (P3's core mechanism).
  DependencyGraph g;
  const TaskId low = g.AddTask(Make(TaskType::kComm, ExecThread::Comm(0), Us(100), 0, /*prio=*/1));
  const TaskId high = g.AddTask(Make(TaskType::kComm, ExecThread::Comm(0), Us(100), 0, /*prio=*/9));

  const SimResult fifo = Simulator().Run(g);
  EXPECT_LT(fifo.start[static_cast<size_t>(low)], fifo.start[static_cast<size_t>(high)]);

  const SimResult prio = Simulator(SchedulePolicy::kPriorityComm).Run(g);
  EXPECT_LT(prio.start[static_cast<size_t>(high)], prio.start[static_cast<size_t>(low)]);
}

TEST(Simulator, PrioritySchedulerStillHonorsReadiness) {
  // A high-priority task that becomes ready later cannot start before an
  // already-running transfer finishes (non-preemptive channel).
  DependencyGraph g;
  const TaskId gate = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(50)));
  const TaskId low = g.AddTask(Make(TaskType::kComm, ExecThread::Comm(0), Us(100), 0, 1));
  const TaskId high = g.AddTask(Make(TaskType::kComm, ExecThread::Comm(0), Us(100), 0, 9));
  g.AddEdge(gate, high);  // high priority ready only at t=50
  const SimResult r = Simulator(SchedulePolicy::kPriorityComm).Run(g);
  EXPECT_EQ(r.start[static_cast<size_t>(low)], 0);
  EXPECT_EQ(r.start[static_cast<size_t>(high)], Us(100));
}

TEST(Simulator, ReferenceEngineAgreesOnDiamond) {
  DependencyGraph g;
  const TaskId a = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(0), Us(10)));
  const TaskId b = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(0), Us(20)));
  const TaskId c = g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(1), Us(30)));
  const TaskId d = g.AddTask(Make(TaskType::kCpu, ExecThread::Cpu(1), Us(5)));
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  const SimResult run = Simulator().Run(g);
  const SimResult reference = ReferenceScan(g);
  EXPECT_EQ(run.start, reference.start);
  EXPECT_EQ(run.end, reference.end);
  EXPECT_EQ(run.makespan, reference.makespan);
}

TEST(Simulator, StartTimesRespectEdges) {
  DependencyGraph g;
  std::vector<TaskId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(g.AddTask(Make(TaskType::kGpu, ExecThread::Gpu(i % 3), Us(1 + i % 7))));
  }
  for (int i = 1; i < 50; i += 3) {
    g.AddEdge(ids[static_cast<size_t>(i - 1)], ids[static_cast<size_t>(i)]);
  }
  const SimResult r = Simulator().Run(g);
  for (TaskId id : g.AliveTasks()) {
    for (TaskId child : g.children(id)) {
      EXPECT_GE(r.start[static_cast<size_t>(child)], r.EndOf(id));
    }
  }
}

}  // namespace
}  // namespace daydream
