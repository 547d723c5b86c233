// Daydream's top-level what-if API (Figure 2 workflow).
//
//   Trace trace = ...;                       // Phase 1: collected profile
//   Daydream dd(trace);                      // Phase 2: dependency graph
//   PredictionResult r = dd.Predict([](DependencyGraph& g) {
//     WhatIfAmp(&g);                         // Phase 3: graph transformation
//   });                                      // Phase 4: simulation
//   r.predicted / r.SpeedupPct() ...
#ifndef SRC_CORE_PREDICTOR_H_
#define SRC_CORE_PREDICTOR_H_

#include <functional>

#include "src/core/dependency_graph.h"
#include "src/core/graph_builder.h"
#include "src/core/graph_lint.h"
#include "src/core/sim_plan.h"
#include "src/trace/trace.h"

namespace daydream {

struct PredictionResult {
  TimeNs baseline = 0;   // simulated makespan of the untransformed graph
  TimeNs predicted = 0;  // simulated makespan after the transformation

  double SpeedupPct() const;   // (baseline - predicted) / baseline * 100
  double SpeedupRatio() const; // baseline / predicted
};

class Daydream {
 public:
  explicit Daydream(Trace trace);

  // Adopts a dependency graph that was already built (and verified) for
  // `trace` — the service layer builds the graph first so it can refuse a
  // malformed trace with a lint report instead of aborting mid-construction,
  // then hands the verified graph over without paying a second build.
  Daydream(Trace trace, DependencyGraph graph);

  const Trace& trace() const { return trace_; }
  const DependencyGraph& graph() const { return graph_; }
  // Cheap per-what-if copy (DependencyGraph::Clone): dead-node payloads are
  // compacted, insertion headroom is reserved, and the interned thread table
  // plus warm select indexes are carried over instead of being rebuilt.
  DependencyGraph CloneGraph() const { return graph_.Clone(); }

  // The baseline graph compiled once ("profile once"): Plan retimes it for
  // timing-only what-ifs, sharing its structure block.
  const SimPlan& baseline_plan() const { return baseline_plan_; }

  // Simulated makespan of the baseline graph — should reproduce the measured
  // iteration time (validated in tests).
  TimeNs BaselineSimTime() const;

  // The two steps every prediction path runs — Predict, TraceSession and
  // SweepRunner all build and plan a what-if through them.
  //
  // Transform clones the baseline graph, applies `transform` (none when
  // empty) and lints the result: the full catalog when `full_lint`, the
  // structural passes otherwise. *report receives the findings; a graph whose
  // report is not ok() must not be planned.
  DependencyGraph Transform(const std::function<void(DependencyGraph*)>& transform,
                            bool full_lint, LintReport* report) const;

  // Plan retimes `donor` — baseline_plan() when null — when `transformed`
  // has the donor's structure (SimPlan::CompatibleWith) and compiles a fresh
  // plan otherwise. *retimed, when non-null, records which.
  SimPlan Plan(const DependencyGraph& transformed, bool* retimed = nullptr,
               const SimPlan* donor = nullptr) const;

  // Transform + Plan + dispatch. Debug/test builds hold every what-if output
  // to the full lint catalog — timing passes included — so a transform that
  // wires an anchor backward across iterations fails here, naming the edge,
  // not as a wrong prediction; release builds run the structural passes.
  PredictionResult Predict(const std::function<void(DependencyGraph*)>& transform) const;

 private:
  // Shared tail of both constructors: validate, warm the select indexes,
  // compile + run the baseline plan.
  void InitBaseline();

  Trace trace_;
  DependencyGraph graph_;
  SimPlan baseline_plan_;
  TimeNs baseline_sim_;
};

}  // namespace daydream

#endif  // SRC_CORE_PREDICTOR_H_
