// Optimization advisor: rank every applicable built-in optimization for a
// model — the paper's headline use case ("Will optimization X improve the
// performance of my model?", §1) answered from one profile.
#include <iostream>

#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/runtime/ground_truth.h"
#include "src/util/string_util.h"
#include "src/util/table.h"

#include <algorithm>

using namespace daydream;

int main(int argc, char** argv) {
  ModelId model = ModelId::kBertLarge;
  if (argc > 1) {
    const std::string arg = argv[1];
    for (ModelId id : AllModels()) {
      if (arg == ModelName(id)) {
        model = id;
      }
    }
  }
  const RunConfig config = DefaultRunConfig(model);
  const ModelGraph model_graph = BuildModel(config.model, config.batch);
  std::cout << "Profiling " << ModelName(model) << " and evaluating optimizations...\n\n";
  const Trace profile = CollectBaselineTrace(config);
  Daydream daydream(profile);

  struct Entry {
    std::string name;
    double speedup_pct;
    TimeNs predicted;
    std::string note;
  };
  std::vector<Entry> entries;
  auto evaluate = [&](const std::string& name, const std::string& note,
                      const std::function<void(DependencyGraph*)>& transform) {
    const PredictionResult r = daydream.Predict(transform);
    entries.push_back({name, r.SpeedupPct(), r.predicted, note});
  };

  evaluate("Automatic Mixed Precision", "Apex AMP, tensor cores",
           [](DependencyGraph* g) { WhatIfAmp(g); });
  if (config.optimizer == OptimizerKind::kAdam) {
    evaluate("FusedAdam", "Apex fused optimizer",
             [](DependencyGraph* g) { WhatIfFusedAdam(g); });
    evaluate("AMP + FusedAdam", "both together", [](DependencyGraph* g) {
      WhatIfAmp(g);
      WhatIfFusedAdam(g);
    });
  }
  evaluate("MetaFlow conv+BN fusion", "graph substitution",
           [&](DependencyGraph* g) { WhatIfMetaFlowFuseConvBn(g, model_graph); });
  evaluate("Gist (lossless)", "binarized ReLU activations",
           [&](DependencyGraph* g) { WhatIfGist(g, model_graph); });
  evaluate("vDNN conv offload", "conv activations offloaded to host",
           [&](DependencyGraph* g) { WhatIfVdnn(g, model_graph); });

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.speedup_pct > b.speedup_pct; });

  std::cout << StrFormat("baseline iteration: %.1f ms\n\n", ToMs(daydream.BaselineSimTime()));
  TablePrinter table({"rank", "optimization", "predicted (ms)", "speedup", "notes"});
  int rank = 1;
  for (const Entry& e : entries) {
    table.AddRow({StrFormat("%d", rank++), e.name, StrFormat("%.1f", ToMs(e.predicted)),
                  StrFormat("%+.1f%%", e.speedup_pct), e.note});
  }
  table.Print(std::cout);
  std::cout << "\nNegative speedup = the optimization would slow this model down "
               "(it trades time for memory).\n";
  return 0;
}
