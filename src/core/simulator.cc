#include "src/core/simulator.h"

#include "src/core/sim_plan.h"
#include "src/util/logging.h"

namespace daydream {

TimeNs SimResult::EndOf(TaskId id) const {
  DD_CHECK_GE(id, 0);
  DD_CHECK_LT(id, static_cast<TaskId>(end.size()));
  return end[static_cast<size_t>(id)];
}

SimResult Simulator::Run(const DependencyGraph& graph) const {
  return SimPlan::Compile(graph, policy_).Run();
}

SimPlan Simulator::Compile(const DependencyGraph& graph, const SimPlan* donor) const {
  if (donor != nullptr && donor->CompatibleWith(graph)) {
    return SimPlan::Retime(*donor, graph, policy_);
  }
  return SimPlan::Compile(graph, policy_);
}

}  // namespace daydream
