// Test-only corruption hooks for GraphLint's property suite.
//
// GraphLint exists to catch graphs and plans that violated invariants the
// public mutation API cannot violate — a transform bug, a future refactor, a
// memory stomp. Testing the verifier therefore needs a way to *inject* each
// defect class directly into the private representation. GraphCorruptor and
// PlanCorruptor are the sanctioned back doors: friends of DependencyGraph /
// SimPlan that break exactly one invariant per method, named after the lint
// pass that must catch them.
//
// Test support: linked into graph_lint_test only, never into the daydream
// library.
#ifndef TESTS_GRAPH_TESTING_H_
#define TESTS_GRAPH_TESTING_H_

#include "src/core/dependency_graph.h"
#include "src/core/sim_plan.h"

namespace daydream {

class GraphCorruptor {
 public:
  // edge-integrity defects.
  static void AddRawChild(DependencyGraph* graph, TaskId from, TaskId to);  // asymmetric
  static void AddRawParent(DependencyGraph* graph, TaskId to, TaskId from);
  static void DuplicateFirstChildEdge(DependencyGraph* graph, TaskId from);
  static void AddSelfEdge(DependencyGraph* graph, TaskId id);
  // Marks `id` dead without unlinking it from edges or its thread chain:
  // dangling edges + thread-sequence "dead task linked" in one move.
  static void KillInPlace(DependencyGraph* graph, TaskId id);

  // thread-sequence defects.
  static void BreakSeqPrev(DependencyGraph* graph, TaskId id, TaskId bogus);
  static void BreakSeqNext(DependencyGraph* graph, TaskId id, TaskId bogus);
  static void SetLaneField(DependencyGraph* graph, TaskId id, int32_t lane);
  static void SetLaneTail(DependencyGraph* graph, int lane, TaskId tail);
  static void SetLaneAliveCount(DependencyGraph* graph, int lane, int count);
  // orphan-lane: unlinks `id` from its chain but leaves it alive (and fixes
  // the neighbours/lane bookkeeping so only the orphanhood is broken).
  static void DetachFromChain(DependencyGraph* graph, TaskId id);

  static int LaneOf(const DependencyGraph& graph, TaskId id);
};

class PlanCorruptor {
 public:
  // plan-stamp: pretends the plan was compiled from a different structure.
  static void BumpGraphStamp(SimPlan* plan);
  // plan-csr: desynchronizes pred_count from the successor lists.
  static void BreakPredCount(SimPlan* plan, int plan_index, int32_t count);
  // plan-csr: rewrites one successor slot.
  static void RedirectSucc(SimPlan* plan, int slot, int32_t target);
  // plan-lane: reassigns a task's lane id without touching the sequences.
  static void BreakLane(SimPlan* plan, int plan_index, int32_t lane);
  // plan-timing: edits the frozen SoA duration directly.
  static void BreakDuration(SimPlan* plan, int plan_index, TimeNs duration);

 private:
  // Plans share their structure block; corruption clones it first so other
  // plans (and the donor) stay intact.
  static SimPlan::Structure* MutableStructure(SimPlan* plan);
};

class ShardCorruptor {
 public:
  // shard-partition: reassigns one lane without touching the grouped lists.
  static void BreakLaneShard(ShardPlan* shards, int lane, int32_t shard);
  // shard-partition: desynchronizes a shard's task count.
  static void BreakTaskCount(ShardPlan* shards, int shard, int32_t count);
  // shard-edges: points one cross-shard edge at a different window entry.
  static void RedirectWindowEntry(ShardPlan* shards, int slot, int32_t pos);
  // shard-edges: rewrites a window entry's recorded source.
  static void BreakWindowSource(ShardPlan* shards, int pos, int32_t source);
  // shard-horizon: corrupts one static lower bound.
  static void BreakStaticBound(ShardPlan* shards, int plan_index, TimeNs bound);
  // shard-horizon: swaps two window bounds so the horizon moves backward.
  static void SwapWindowBounds(ShardPlan* shards, int pos_a, int pos_b);
};

}  // namespace daydream

#endif  // TESTS_GRAPH_TESTING_H_
