// Quickstart: the paper's Figure 2 workflow end to end.
//
// 1. Profile one training iteration of ResNet-50 (CUPTI-style trace from the
//    synthetic training substrate).
// 2. Build the kernel-granularity dependency graph.
// 3. Ask a what-if question: "what if the network bandwidth doubles?" for a
//    4-machine deployment, plus "what if I enable mixed precision?".
// 4. Simulate and report predicted iteration times.
#include <cstdio>

#include "src/core/breakdown.h"
#include "src/core/critical_path.h"
#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/runtime/ground_truth.h"
#include "src/util/string_util.h"
#include "src/util/table.h"

#include <iostream>

using namespace daydream;

int main() {
  // Phase 1: trace collection (one profiled iteration on a single GPU).
  RunConfig config = DefaultRunConfig(ModelId::kResNet50);
  Trace trace = CollectBaselineTrace(config);
  const TraceValidation validation = trace.Validate();
  std::printf("trace: %zu events, %s\n", trace.size(), validation.Summary().c_str());

  // Phase 2: dependency-graph construction.
  Daydream daydream(trace);
  const DependencyGraph::Stats stats = daydream.graph().ComputeStats();
  std::printf("graph: %d tasks (%d cpu / %d gpu), %d edges, %d threads\n", stats.tasks,
              stats.cpu_tasks, stats.gpu_tasks, stats.edges, stats.threads);
  std::printf("baseline: measured %.2f ms, simulated %.2f ms\n", ToMs(trace.makespan()),
              ToMs(daydream.BaselineSimTime()));
  std::printf("breakdown: %s\n", ComputeBreakdown(trace).Summary().c_str());
  std::printf("%s\n\n", ComputeCriticalPath(daydream.graph()).Summary().c_str());

  TablePrinter table({"what-if", "predicted iter (ms)", "vs baseline"});

  // What if we enable Automatic Mixed Precision?
  const PredictionResult amp = daydream.Predict([](DependencyGraph* g) { WhatIfAmp(g); });
  table.AddRow({"mixed precision (AMP)", StrFormat("%.2f", ToMs(amp.predicted)),
                StrFormat("%+.1f%%", -amp.SpeedupPct())});

  // What if we train on 4 machines x 1 GPU over 10 Gbps — and what if that
  // network were twice as fast?
  for (double gbps : {10.0, 20.0}) {
    DistributedWhatIf dist;
    dist.cluster.machines = 4;
    dist.cluster.gpus_per_machine = 1;
    dist.cluster.network.bandwidth_gbps = gbps;
    const PredictionResult r = daydream.Predict(
        [&](DependencyGraph* g) { WhatIfDistributed(g, daydream.trace().gradients(), dist); });
    table.AddRow({StrFormat("4 workers @ %.0f Gbps", gbps), StrFormat("%.2f", ToMs(r.predicted)),
                  StrFormat("%+.1f%%", -r.SpeedupPct())});
  }

  table.Print(std::cout);
  return validation.ok() ? 0 : 1;
}
