#include "tests/graph_testing.h"

#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace daydream {

void GraphCorruptor::AddRawChild(DependencyGraph* graph, TaskId from, TaskId to) {
  graph->node(from).children.push_back(to);
}

void GraphCorruptor::AddRawParent(DependencyGraph* graph, TaskId to, TaskId from) {
  graph->node(to).parents.push_back(from);
}

void GraphCorruptor::DuplicateFirstChildEdge(DependencyGraph* graph, TaskId from) {
  auto& children = graph->node(from).children;
  DD_CHECK(!children.empty()) << "task " << from << " has no edge to duplicate";
  const TaskId to = children.front();
  children.push_back(to);
  graph->node(to).parents.push_back(from);
}

void GraphCorruptor::AddSelfEdge(DependencyGraph* graph, TaskId id) {
  graph->node(id).children.push_back(id);
  graph->node(id).parents.push_back(id);
}

void GraphCorruptor::KillInPlace(DependencyGraph* graph, TaskId id) {
  DependencyGraph::Node& n = graph->node(id);
  DD_CHECK(n.alive);
  n.alive = false;
  --graph->num_alive_;
}

void GraphCorruptor::BreakSeqPrev(DependencyGraph* graph, TaskId id, TaskId bogus) {
  graph->node(id).seq_prev = bogus;
}

void GraphCorruptor::BreakSeqNext(DependencyGraph* graph, TaskId id, TaskId bogus) {
  graph->node(id).seq_next = bogus;
}

void GraphCorruptor::SetLaneField(DependencyGraph* graph, TaskId id, int32_t lane) {
  graph->node(id).lane = lane;
}

void GraphCorruptor::SetLaneTail(DependencyGraph* graph, int lane, TaskId tail) {
  graph->threads_[static_cast<size_t>(lane)].tail = tail;
}

void GraphCorruptor::SetLaneAliveCount(DependencyGraph* graph, int lane, int count) {
  graph->threads_[static_cast<size_t>(lane)].alive_count = count;
}

void GraphCorruptor::DetachFromChain(DependencyGraph* graph, TaskId id) {
  // Unlink does a clean splice-out (neighbours, head/tail, alive_count) but
  // leaves the node alive — exactly the orphan shape.
  graph->Unlink(id);
}

int GraphCorruptor::LaneOf(const DependencyGraph& graph, TaskId id) {
  return graph.node(id).lane;
}

SimPlan::Structure* PlanCorruptor::MutableStructure(SimPlan* plan) {
  DD_CHECK(!plan->empty());
  auto copy = std::make_shared<SimPlan::Structure>(*plan->structure_);
  SimPlan::Structure* raw = copy.get();
  plan->structure_ = std::move(copy);
  return raw;
}

void PlanCorruptor::BumpGraphStamp(SimPlan* plan) {
  MutableStructure(plan)->graph_stamp += 1;
}

void PlanCorruptor::BreakPredCount(SimPlan* plan, int plan_index, int32_t count) {
  MutableStructure(plan)->pred_count[static_cast<size_t>(plan_index)] = count;
}

void PlanCorruptor::RedirectSucc(SimPlan* plan, int slot, int32_t target) {
  MutableStructure(plan)->succ[static_cast<size_t>(slot)] = target;
}

void PlanCorruptor::BreakLane(SimPlan* plan, int plan_index, int32_t lane) {
  MutableStructure(plan)->lane[static_cast<size_t>(plan_index)] = lane;
}

void PlanCorruptor::BreakDuration(SimPlan* plan, int plan_index, TimeNs duration) {
  plan->duration_[static_cast<size_t>(plan_index)] = duration;
}


void ShardCorruptor::BreakLaneShard(ShardPlan* shards, int lane, int32_t shard) {
  shards->shard_of_lane_[static_cast<size_t>(lane)] = shard;
}

void ShardCorruptor::BreakTaskCount(ShardPlan* shards, int shard, int32_t count) {
  shards->shard_task_count_[static_cast<size_t>(shard)] = count;
}

void ShardCorruptor::RedirectWindowEntry(ShardPlan* shards, int slot, int32_t pos) {
  shards->edge_window_pos_[static_cast<size_t>(slot)] = pos;
}

void ShardCorruptor::BreakWindowSource(ShardPlan* shards, int pos, int32_t source) {
  shards->window_source_[static_cast<size_t>(pos)] = source;
}

void ShardCorruptor::BreakStaticBound(ShardPlan* shards, int plan_index, TimeNs bound) {
  shards->static_start_lb_[static_cast<size_t>(plan_index)] = bound;
}

void ShardCorruptor::SwapWindowBounds(ShardPlan* shards, int pos_a, int pos_b) {
  std::swap(shards->window_end_[static_cast<size_t>(pos_a)],
            shards->window_end_[static_cast<size_t>(pos_b)]);
}

}  // namespace daydream
