#include "src/core/predictor.h"

#include <utility>

#include "src/util/logging.h"

namespace daydream {

double PredictionResult::SpeedupPct() const {
  if (baseline == 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(baseline - predicted) / static_cast<double>(baseline);
}

double PredictionResult::SpeedupRatio() const {
  if (predicted == 0) {
    return 0.0;
  }
  return static_cast<double>(baseline) / static_cast<double>(predicted);
}

Daydream::Daydream(Trace trace)
    : trace_(std::move(trace)), graph_(BuildDependencyGraph(trace_)) {
  InitBaseline();
}

Daydream::Daydream(Trace trace, DependencyGraph graph)
    : trace_(std::move(trace)), graph_(std::move(graph)) {
  InitBaseline();
}

void Daydream::InitBaseline() {
  std::string error;
  DD_CHECK(graph_.Validate(&error)) << "invalid dependency graph: " << error;
  // Build the select indexes once on the baseline graph ("profile once"):
  // every per-case clone starts with warm indexes.
  graph_.EnsureSelectIndexes();
  // Compile the baseline plan once, too: the baseline simulation runs over
  // it, and its structure block is shared with every timing-only what-if.
  baseline_plan_ = Simulator().Compile(graph_);
  baseline_sim_ = baseline_plan_.Run().makespan;
}

TimeNs Daydream::BaselineSimTime() const { return baseline_sim_; }

DependencyGraph Daydream::Transform(const std::function<void(DependencyGraph*)>& transform,
                                   bool full_lint, LintReport* report) const {
  DependencyGraph transformed = graph_.Clone();
  if (transform) {
    transform(&transformed);
  }
  *report = full_lint ? GraphLint::LintGraph(transformed) : GraphLint::LintStructure(transformed);
  return transformed;
}

SimPlan Daydream::Plan(const DependencyGraph& transformed, bool* retimed,
                       const SimPlan* donor) const {
  if (donor == nullptr) {
    donor = &baseline_plan_;
  }
  if (retimed != nullptr) {
    *retimed = donor->CompatibleWith(transformed);
  }
  return Simulator().Compile(transformed, donor);
}

PredictionResult Daydream::Predict(const std::function<void(DependencyGraph*)>& transform) const {
#ifndef NDEBUG
  constexpr bool kFullLint = true;
#else
  constexpr bool kFullLint = false;
#endif
  LintReport report;
  const DependencyGraph transformed = Transform(transform, kFullLint, &report);
  DD_CHECK(report.ok()) << "what-if transform produced a graph that fails lint:\n"
                        << report.ToString();
  PredictionResult result;
  result.baseline = baseline_sim_;
  result.predicted = RunPlanParallel(Plan(transformed), /*sim_jobs=*/1).makespan;
  return result;
}

}  // namespace daydream
