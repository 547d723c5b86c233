// Randomized differential test for DependencyGraph's mutation layer.
//
// The production graph stores thread sequences intrusively (prev/next links +
// an interned thread table) and answers structured selects from lazily
// maintained phase/layer indexes. This test drives identical operation
// sequences through the production graph and through ReferenceGraph — a
// deliberately naive transcription of the pre-change storage model
// (std::map<ExecThread, std::vector<TaskId>> sequences, linear-scan selects) —
// and asserts the two agree on every observable: thread sets and sequences,
// adjacency, topological order, select results, and Validate.
//
// Runs in every ctest config, including -DDAYDREAM_SANITIZE=ON, which makes it
// the ASan/UBSan stress for the intrusive link surgery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <random>
#include <vector>

#include "src/core/transform.h"

namespace daydream {
namespace {

// Faithful copy of the pre-change DependencyGraph semantics, kept naive on
// purpose: correctness oracle, not a performance target.
class ReferenceGraph {
 public:
  TaskId AddTask(Task task) {
    const TaskId id = static_cast<TaskId>(tasks_.size());
    task.id = id;
    sequences_[task.thread].push_back(id);
    tasks_.push_back({std::move(task), {}, {}, true});
    return id;
  }

  void AddEdge(TaskId from, TaskId to) {
    if (from == to) {
      return;
    }
    auto& children = tasks_[static_cast<size_t>(from)].children;
    if (std::find(children.begin(), children.end(), to) != children.end()) {
      return;
    }
    children.push_back(to);
    tasks_[static_cast<size_t>(to)].parents.push_back(from);
  }

  void RemoveEdge(TaskId from, TaskId to) {
    auto& children = tasks_[static_cast<size_t>(from)].children;
    auto cit = std::find(children.begin(), children.end(), to);
    if (cit == children.end()) {
      return;
    }
    children.erase(cit);
    auto& parents = tasks_[static_cast<size_t>(to)].parents;
    parents.erase(std::find(parents.begin(), parents.end(), from));
  }

  bool HasEdge(TaskId from, TaskId to) const {
    const auto& children = tasks_[static_cast<size_t>(from)].children;
    return std::find(children.begin(), children.end(), to) != children.end();
  }

  void LinkSequential() {
    for (const auto& [thread, seq] : sequences_) {
      TaskId prev = kInvalidTask;
      for (TaskId id : seq) {
        if (!alive(id)) {
          continue;
        }
        if (prev != kInvalidTask) {
          AddEdge(prev, id);
        }
        prev = id;
      }
    }
  }

  TaskId InsertAfter(TaskId anchor, Task task) {
    const ExecThread thread = task.thread;
    const TaskId id = static_cast<TaskId>(tasks_.size());
    task.id = id;
    tasks_.push_back({std::move(task), {}, {}, true});
    auto& seq = sequences_[thread];
    auto pos = std::find(seq.begin(), seq.end(), anchor);
    if (pos != seq.end()) {
      TaskId next = kInvalidTask;
      for (auto it = pos + 1; it != seq.end(); ++it) {
        if (alive(*it)) {
          next = *it;
          break;
        }
      }
      seq.insert(pos + 1, id);
      if (next != kInvalidTask && HasEdge(anchor, next)) {
        RemoveEdge(anchor, next);
      }
      AddEdge(anchor, id);
      if (next != kInvalidTask) {
        AddEdge(id, next);
      }
    } else {
      TaskId tail = kInvalidTask;
      for (auto it = seq.rbegin(); it != seq.rend(); ++it) {
        if (alive(*it)) {
          tail = *it;
          break;
        }
      }
      seq.push_back(id);
      if (tail != kInvalidTask) {
        AddEdge(tail, id);
      }
      AddEdge(anchor, id);
    }
    return id;
  }

  TaskId InsertBefore(TaskId anchor, Task task) {
    const ExecThread thread = task.thread;
    const TaskId id = static_cast<TaskId>(tasks_.size());
    task.id = id;
    tasks_.push_back({std::move(task), {}, {}, true});
    auto& seq = sequences_[thread];
    auto pos = std::find(seq.begin(), seq.end(), anchor);
    TaskId prev = kInvalidTask;
    for (auto it = seq.begin(); it != pos; ++it) {
      if (alive(*it)) {
        prev = *it;
      }
    }
    seq.insert(pos, id);
    if (prev != kInvalidTask && HasEdge(prev, anchor)) {
      RemoveEdge(prev, anchor);
    }
    if (prev != kInvalidTask) {
      AddEdge(prev, id);
    }
    AddEdge(id, anchor);
    return id;
  }

  void Remove(TaskId id) {
    Entry& n = tasks_[static_cast<size_t>(id)];
    const std::vector<TaskId> parents = n.parents;
    const std::vector<TaskId> children = n.children;
    for (TaskId p : parents) {
      RemoveEdge(p, id);
    }
    for (TaskId c : children) {
      RemoveEdge(id, c);
    }
    for (TaskId p : parents) {
      for (TaskId c : children) {
        AddEdge(p, c);
      }
    }
    n.alive = false;
    auto& seq = sequences_[n.task.thread];
    seq.erase(std::find(seq.begin(), seq.end(), id));
  }

  std::vector<TaskId> Select(const TaskQuery& query) const {
    std::vector<TaskId> out;
    for (const Entry& n : tasks_) {
      if (n.alive && query.Matches(n.task)) {
        out.push_back(n.task.id);
      }
    }
    return out;
  }

  bool alive(TaskId id) const {
    return id >= 0 && id < static_cast<TaskId>(tasks_.size()) &&
           tasks_[static_cast<size_t>(id)].alive;
  }
  Task& task(TaskId id) { return tasks_[static_cast<size_t>(id)].task; }
  const std::vector<TaskId>& parents(TaskId id) const {
    return tasks_[static_cast<size_t>(id)].parents;
  }
  const std::vector<TaskId>& children(TaskId id) const {
    return tasks_[static_cast<size_t>(id)].children;
  }
  int capacity() const { return static_cast<int>(tasks_.size()); }

  std::vector<ExecThread> Threads() const {
    std::vector<ExecThread> out;
    for (const auto& [thread, seq] : sequences_) {
      for (TaskId id : seq) {
        if (alive(id)) {
          out.push_back(thread);
          break;
        }
      }
    }
    return out;
  }

  std::vector<TaskId> ThreadSequence(const ExecThread& thread) const {
    std::vector<TaskId> out;
    auto it = sequences_.find(thread);
    if (it == sequences_.end()) {
      return out;
    }
    for (TaskId id : it->second) {
      if (alive(id)) {
        out.push_back(id);
      }
    }
    return out;
  }

  std::vector<TaskId> TopologicalOrder() const {
    std::vector<int> refs(tasks_.size(), 0);
    std::queue<TaskId> ready;
    int alive_count = 0;
    for (const Entry& n : tasks_) {
      if (!n.alive) {
        continue;
      }
      ++alive_count;
      refs[static_cast<size_t>(n.task.id)] = static_cast<int>(n.parents.size());
      if (n.parents.empty()) {
        ready.push(n.task.id);
      }
    }
    std::vector<TaskId> order;
    while (!ready.empty()) {
      const TaskId id = ready.front();
      ready.pop();
      order.push_back(id);
      for (TaskId c : tasks_[static_cast<size_t>(id)].children) {
        if (--refs[static_cast<size_t>(c)] == 0) {
          ready.push(c);
        }
      }
    }
    if (static_cast<int>(order.size()) != alive_count) {
      return {};
    }
    return order;
  }

 private:
  struct Entry {
    Task task;
    std::vector<TaskId> parents;
    std::vector<TaskId> children;
    bool alive = true;
  };
  std::vector<Entry> tasks_;
  std::map<ExecThread, std::vector<TaskId>> sequences_;
};

// ---- the randomized driver ----

struct Fuzzer {
  std::mt19937 rng;
  DependencyGraph graph;
  ReferenceGraph reference;
  std::vector<TaskId> live;
  // Batch removal mode: RemoveBatchBoth joins the op mix. A multi-task batch
  // appends its new edges in its own order, so from the first batch on the
  // graphs are compared by edge sets (sorted adjacency) rather than by
  // ordered adjacency and Kahn order.
  bool batch_removals = false;
  bool ordered_adjacency = true;

  explicit Fuzzer(uint32_t seed) : rng(seed) {}

  int RandInt(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); }

  ExecThread RandThread() {
    switch (RandInt(0, 2)) {
      case 0:
        return ExecThread::Cpu(RandInt(0, 3));
      case 1:
        return ExecThread::Gpu(RandInt(0, 3));
      default:
        return ExecThread::Comm(RandInt(0, 1));
    }
  }

  Task RandTask() {
    Task t;
    switch (RandInt(0, 3)) {
      case 0:
        t.type = TaskType::kCpu;
        break;
      case 1:
        t.type = TaskType::kGpu;
        break;
      case 2:
        t.type = TaskType::kDataLoad;
        break;
      default:
        t.type = TaskType::kComm;
        break;
    }
    t.thread = RandThread();
    t.duration = RandInt(1, 100);
    t.start = RandInt(0, 1000);
    t.layer_id = RandInt(-1, 6);
    t.phase = static_cast<Phase>(RandInt(0, 4));
    t.name = RandInt(0, 1) != 0 ? "elementwise_kernel" : "volta_sgemm";
    return t;
  }

  TaskId RandLive() { return live[static_cast<size_t>(RandInt(0, (int)live.size() - 1))]; }

  // BFS over the reference adjacency. The driver must only perform insertions
  // and edge additions that keep the graph acyclic (as real transformations
  // do), so cycle-closing ops are skipped.
  bool Reachable(TaskId from, TaskId to) {
    if (from == to) {
      return true;
    }
    std::vector<TaskId> stack = {from};
    std::vector<bool> seen(static_cast<size_t>(reference.capacity()), false);
    seen[static_cast<size_t>(from)] = true;
    while (!stack.empty()) {
      const TaskId id = stack.back();
      stack.pop_back();
      for (TaskId c : reference.children(id)) {
        if (c == to) {
          return true;
        }
        if (!seen[static_cast<size_t>(c)]) {
          seen[static_cast<size_t>(c)] = true;
          stack.push_back(c);
        }
      }
    }
    return false;
  }

  TaskId AddTaskBoth(Task t) {
    const TaskId a = graph.AddTask(t);
    const TaskId b = reference.AddTask(std::move(t));
    EXPECT_EQ(a, b);
    live.push_back(a);
    return a;
  }

  void AddEdgeBoth(TaskId from, TaskId to) {
    graph.AddEdge(from, to);
    reference.AddEdge(from, to);
  }

  // One RemoveTasks call on the production graph against per-id
  // ReferenceGraph::Remove over the same ids, in order (dead and repeated ids
  // skipped, as RemoveTasks does).
  void RemoveTasksBoth(const std::vector<TaskId>& ids) {
    graph.RemoveTasks(ids);
    for (TaskId id : ids) {
      if (reference.alive(id)) {
        reference.Remove(id);
      }
    }
    std::erase_if(live, [&](TaskId id) { return !reference.alive(id); });
    if (ids.size() > 1) {
      ordered_adjacency = false;
    }
  }

  void RemoveBatchBoth() {
    if (live.size() <= 3) {
      return;
    }
    // Drawn with replacement, so batches carry repeated ids too.
    const int count = RandInt(1, std::min(8, static_cast<int>(live.size()) - 2));
    std::vector<TaskId> ids;
    for (int i = 0; i < count; ++i) {
      ids.push_back(RandLive());
    }
    RemoveTasksBoth(ids);
  }

  void AddBoth() { AddTaskBoth(RandTask()); }

  void AddEdgeBoth() {
    if (live.size() < 2) {
      return;
    }
    TaskId x = RandLive();
    TaskId y = RandLive();
    if (x == y || Reachable(y, x)) {
      return;
    }
    graph.AddEdge(x, y);
    reference.AddEdge(x, y);
  }

  void RemoveEdgeBoth() {
    if (live.empty()) {
      return;
    }
    const TaskId x = RandLive();
    const auto& children = reference.children(x);
    if (children.empty()) {
      return;
    }
    const TaskId y = children[static_cast<size_t>(RandInt(0, (int)children.size() - 1))];
    graph.RemoveEdge(x, y);
    reference.RemoveEdge(x, y);
  }

  void InsertAfterBoth() {
    if (live.empty()) {
      return;
    }
    const TaskId anchor = RandLive();
    Task t = RandTask();
    if (RandInt(0, 1) != 0) {
      // Same-thread insertion exercises the splice path.
      t.thread = graph.task(anchor).thread;
    }
    if (t.thread == graph.task(anchor).thread) {
      const TaskId next = graph.NextInThread(anchor);
      if (next != kInvalidTask && Reachable(next, anchor)) {
        return;  // the splice's id -> next edge would close a cycle
      }
    }
    const TaskId a = graph.InsertAfter(anchor, t);
    const TaskId b = reference.InsertAfter(anchor, std::move(t));
    ASSERT_EQ(a, b);
    live.push_back(a);
  }

  void InsertBeforeBoth() {
    if (live.empty()) {
      return;
    }
    const TaskId anchor = RandLive();
    Task t = RandTask();
    t.thread = graph.task(anchor).thread;  // InsertBefore requires the anchor's thread
    const TaskId prev = graph.PrevInThread(anchor);
    if (prev != kInvalidTask && Reachable(anchor, prev)) {
      return;  // the splice's id -> anchor edge would close a cycle
    }
    const TaskId a = graph.InsertBefore(anchor, t);
    const TaskId b = reference.InsertBefore(anchor, std::move(t));
    ASSERT_EQ(a, b);
    live.push_back(a);
  }

  void RemoveBoth() {
    if (live.size() <= 2) {
      return;
    }
    const size_t slot = static_cast<size_t>(RandInt(0, (int)live.size() - 1));
    const TaskId id = live[slot];
    graph.Remove(id);
    reference.Remove(id);
    live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
  }

  // Mutating fields through the mutable accessor must re-bucket the task in
  // the production graph's select indexes.
  void MutateFieldsBoth() {
    if (live.empty()) {
      return;
    }
    const TaskId id = RandLive();
    const int layer = RandInt(-1, 6);
    const Phase phase = static_cast<Phase>(RandInt(0, 4));
    graph.task(id).layer_id = layer;
    graph.task(id).phase = phase;
    reference.task(id).layer_id = layer;
    reference.task(id).phase = phase;
  }

  void CheckEquivalent() {
    ASSERT_EQ(graph.capacity(), reference.capacity());
    ASSERT_EQ(graph.num_alive(), static_cast<int>(live.size()));

    const std::vector<ExecThread> threads = graph.Threads();
    ASSERT_EQ(threads, reference.Threads());
    int chained = 0;
    for (const ExecThread& thread : threads) {
      const std::vector<TaskId> seq = graph.ThreadSequence(thread);
      ASSERT_EQ(seq, reference.ThreadSequence(thread)) << thread.Label();
      chained += static_cast<int>(seq.size());
      // Intrusive navigation agrees with the materialized sequence.
      for (size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(graph.PrevInThread(seq[i]), i == 0 ? kInvalidTask : seq[i - 1]);
        ASSERT_EQ(graph.NextInThread(seq[i]), i + 1 == seq.size() ? kInvalidTask : seq[i + 1]);
      }
    }
    ASSERT_EQ(chained, graph.num_alive());

    const auto sorted = [](std::vector<TaskId> ids) {
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    for (TaskId id : live) {
      if (ordered_adjacency) {
        ASSERT_EQ(graph.parents(id), reference.parents(id)) << "parents of " << id;
        ASSERT_EQ(graph.children(id), reference.children(id)) << "children of " << id;
      } else {
        ASSERT_EQ(sorted(graph.parents(id)), sorted(reference.parents(id))) << "parents of " << id;
        ASSERT_EQ(sorted(graph.children(id)), sorted(reference.children(id)))
            << "children of " << id;
      }
    }
    if (ordered_adjacency) {
      ASSERT_EQ(graph.TopologicalOrder(), reference.TopologicalOrder());
    } else {
      ASSERT_EQ(graph.TopologicalOrder().size(), live.size());
    }

    std::string error;
    ASSERT_TRUE(graph.Validate(&error)) << error;
  }

  void CheckSelects() {
    const std::vector<TaskQuery> queries = {
        IsOnGpu(),
        IsOnCpu(),
        IsComm(),
        PhaseIs(Phase::kBackward),
        PhaseIs(static_cast<Phase>(RandInt(0, 4))),
        LayerIs(RandInt(-1, 6)),
        All(IsOnGpu(), PhaseIs(Phase::kForward)),
        All(IsOnGpu(), All(LayerIs(RandInt(-1, 6)), PhaseIs(Phase::kBackward))),
        All(PhaseIs(Phase::kForward), PhaseIs(Phase::kBackward)),  // impossible
        Any(IsComm(), NameContains("sgemm")),
        Not(IsOnGpu()),
        CommIs(CommKind::kAllReduce),
    };
    for (const TaskQuery& q : queries) {
      ASSERT_EQ(graph.Select(q), reference.Select(q));
      std::vector<TaskId> streamed;
      graph.ForEachSelected(q, [&](const Task& t) { streamed.push_back(t.id); });
      ASSERT_EQ(streamed, reference.Select(q));
    }
  }

  void Run(int steps) {
    for (int i = 0; i < 8; ++i) {
      AddBoth();
    }
    graph.LinkSequential();
    reference.LinkSequential();
    CheckEquivalent();
    // Warm the production indexes early in half the runs so mutations hit the
    // maintenance path, not the build path.
    if (RandInt(0, 1) != 0) {
      graph.EnsureSelectIndexes();
    }
    for (int step = 0; step < steps; ++step) {
      switch (RandInt(0, batch_removals ? 7 : 6)) {
        case 0:
          AddBoth();
          break;
        case 1:
          AddEdgeBoth();
          break;
        case 2:
          RemoveEdgeBoth();
          break;
        case 3:
          InsertAfterBoth();
          break;
        case 4:
          InsertBeforeBoth();
          break;
        case 5:
          RemoveBoth();
          break;
        case 7:
          RemoveBatchBoth();
          break;
        default:
          MutateFieldsBoth();
          break;
      }
      if (step % 7 == 0) {
        CheckSelects();
      }
      if (step % 11 == 0) {
        CheckEquivalent();
      }
    }
    CheckEquivalent();
    CheckSelects();
  }
};

TEST(GraphMutationDiff, RandomizedAgainstReference) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Fuzzer fuzzer(seed);
    fuzzer.Run(400);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(GraphMutationDiff, BatchRemovalMatchesPerIdRemoval) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Fuzzer fuzzer(seed);
    fuzzer.batch_removals = true;
    fuzzer.Run(400);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(GraphMutationDiff, SingleTaskBatchKeepsOrderedAdjacency) {
  Fuzzer fuzzer(7);
  fuzzer.Run(200);
  if (testing::Test::HasFatalFailure()) {
    return;
  }
  while (fuzzer.live.size() > 2) {
    fuzzer.RemoveTasksBoth({fuzzer.RandLive()});
    fuzzer.CheckEquivalent();
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_TRUE(fuzzer.ordered_adjacency);
}

// Fused Adam's shape (§5.1): a stream chain of kernels, each launched from its
// own task on a CPU chain, with kept work before and after. Removing every
// kernel and launch but the first is the batch that was quadratic per id.
TEST(GraphMutationDiff, FusedAdamShapedChainBatchRemoval) {
  constexpr int kKernels = 400;
  Fuzzer fuzzer(1);
  const auto make = [](TaskType type, ExecThread thread, const char* name) {
    Task t;
    t.type = type;
    t.thread = thread;
    t.duration = 5;
    t.phase = Phase::kWeightUpdate;
    t.name = name;
    return t;
  };
  const TaskId cpu_head =
      fuzzer.AddTaskBoth(make(TaskType::kCpu, ExecThread::Cpu(0), "bwd_launch"));
  const TaskId gpu_head =
      fuzzer.AddTaskBoth(make(TaskType::kGpu, ExecThread::Gpu(0), "bwd_kernel"));
  std::vector<TaskId> launches;
  std::vector<TaskId> kernels;
  for (int i = 0; i < kKernels; ++i) {
    launches.push_back(
        fuzzer.AddTaskBoth(make(TaskType::kCpu, ExecThread::Cpu(0), "cudaLaunchKernel")));
    kernels.push_back(
        fuzzer.AddTaskBoth(make(TaskType::kGpu, ExecThread::Gpu(0), "adam_kernel")));
  }
  const TaskId cpu_tail = fuzzer.AddTaskBoth(make(TaskType::kCpu, ExecThread::Cpu(0), "sync"));
  const TaskId gpu_tail = fuzzer.AddTaskBoth(make(TaskType::kGpu, ExecThread::Gpu(0), "next_fwd"));
  fuzzer.graph.LinkSequential();
  fuzzer.reference.LinkSequential();
  fuzzer.AddEdgeBoth(cpu_head, gpu_head);
  for (int i = 0; i < kKernels; ++i) {
    fuzzer.AddEdgeBoth(launches[static_cast<size_t>(i)], kernels[static_cast<size_t>(i)]);
  }
  fuzzer.AddEdgeBoth(gpu_tail, cpu_tail);  // the sync waits on the stream
  fuzzer.CheckEquivalent();
  if (testing::Test::HasFatalFailure()) {
    return;
  }

  std::vector<TaskId> doomed(kernels.begin() + 1, kernels.end());
  doomed.insert(doomed.end(), launches.begin() + 1, launches.end());
  fuzzer.RemoveTasksBoth(doomed);
  fuzzer.CheckEquivalent();
  if (testing::Test::HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(fuzzer.graph.num_alive(), 6);
  EXPECT_TRUE(fuzzer.graph.HasEdge(kernels[0], gpu_tail));
  EXPECT_TRUE(fuzzer.graph.HasEdge(launches[0], gpu_tail));  // through the removed launches
  EXPECT_TRUE(fuzzer.graph.HasEdge(launches[0], cpu_tail));
  EXPECT_EQ(fuzzer.graph.ThreadSequence(ExecThread::Gpu(0)),
            (std::vector<TaskId>{gpu_head, kernels[0], gpu_tail}));
}

TEST(GraphMutationDiff, CloneMatchesOriginalAndStaysIndependent) {
  Fuzzer fuzzer(99);
  fuzzer.Run(200);
  if (testing::Test::HasFatalFailure()) {
    return;
  }
  DependencyGraph clone = fuzzer.graph.Clone();
  ASSERT_EQ(clone.capacity(), fuzzer.graph.capacity());
  ASSERT_EQ(clone.num_alive(), fuzzer.graph.num_alive());
  ASSERT_EQ(clone.TopologicalOrder(), fuzzer.graph.TopologicalOrder());
  for (const ExecThread& thread : fuzzer.graph.Threads()) {
    ASSERT_EQ(clone.ThreadSequence(thread), fuzzer.graph.ThreadSequence(thread));
  }
  for (TaskId id : fuzzer.graph.AliveTasks()) {
    ASSERT_EQ(clone.parents(id), fuzzer.graph.parents(id));
    ASSERT_EQ(clone.children(id), fuzzer.graph.children(id));
    ASSERT_EQ(clone.task(id).name, fuzzer.graph.task(id).name);
  }
  std::string error;
  ASSERT_TRUE(clone.Validate(&error)) << error;

  // Mutating the clone must not leak into the original (and vice versa).
  const std::vector<TaskId> alive = clone.AliveTasks();
  const TaskId anchor = alive.front();
  Task extra;
  extra.thread = clone.task(anchor).thread;
  extra.name = "clone_only";
  clone.InsertAfter(anchor, std::move(extra));
  ASSERT_EQ(clone.num_alive(), fuzzer.graph.num_alive() + 1);
  ASSERT_TRUE(clone.Validate(&error)) << error;
  ASSERT_TRUE(fuzzer.graph.Validate(&error)) << error;
  fuzzer.CheckEquivalent();  // original still matches the reference
}

}  // namespace
}  // namespace daydream
