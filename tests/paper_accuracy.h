// The paper-accuracy table: one row per (figure, model, case) the paper
// reports, each holding its own bound.
//
// Ground truth is the synthetic executor (src/runtime/) running the real
// optimization; Daydream sees only the executor's single-GPU, unoptimized
// profile (CollectBaselineTrace). bench/accuracy prints the table and writes
// BENCH_accuracy.json; integration_test holds each row to its bound and the
// committed JSON to a byte-identical regeneration. Test support, like
// reference_scan: linked into those two binaries, never into libdaydream.
#ifndef TESTS_PAPER_ACCURACY_H_
#define TESTS_PAPER_ACCURACY_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/breakdown.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/sweep.h"

namespace daydream {

struct AccuracyResult {
  // The measured run with the config's ground-truth optimization off when it
  // enables one; otherwise the prediction with the row's edit undone (the
  // simulated baseline when the row has no edit).
  TimeNs baseline = 0;
  TimeNs ground_truth = 0;  // 0 when the row is not measured
  TimeNs predicted = 0;
  TimeNs simulated_baseline = 0;  // Daydream's replay of the profile
  double error_pct = 0.0;
  bool within_paper_bound = true;
  RuntimeBreakdown baseline_breakdown, ground_truth_breakdown;  // breakdown rows
  std::vector<AllReduceRecord> calls, sync_calls;               // allreduce_calls rows
  TimeNs sync_ground_truth = 0;                                 // allreduce_calls rows
};

struct AccuracyRow {
  std::string figure;  // "fig05", "fig07", "fig08", "fig10", "s52", "s64", "abl_*"
  ModelId model = ModelId::kResNet50;
  // The case: a ResolveWhatIf name (the transform `daydream predict` and
  // serve run), "p3" (PredictPsIterationTime on a 2-iteration profile), or
  // empty for a replay of the profile. what_if.cluster configures
  // distributed and p3.
  WhatIfRequest what_if;
  // A graph edit applied after the case, for what the resolver has no name
  // for: BlueConnect, DGC, lossy Gist and the ablations.
  std::string ablation;
  std::function<void(DependencyGraph*)> edit;
  RunConfig config;      // the ground-truth run
  bool measured = true;  // false: prediction only (no implementation exists)
  std::optional<double> paper_bound_pct;
  bool breakdown = false;        // Fig. 6: CPU/GPU breakdown of both runs
  bool allreduce_calls = false;  // Fig. 9: per-call NCCL times, plain and synced
  AccuracyResult result;         // filled by MeasureAccuracy
};

// 119 rows: fig05 4, fig07 3, fig08 76, fig10 10, s52 7, s64 1,
// abl_dependencies 15, abl_gaps 3.
std::vector<AccuracyRow> PaperAccuracyTable();

// Fills each row's result; rows that share a profile share one Daydream.
void MeasureAccuracy(std::vector<AccuracyRow>* rows);

// The BENCH_accuracy.json document of measured rows, byte-stable.
std::string AccuracyJson(const std::vector<AccuracyRow>& rows);

// The case as one label: "distributed 4x1 @ 40Gbps", "amp", "".
std::string CaseLabel(const AccuracyRow& row);

}  // namespace daydream

#endif  // TESTS_PAPER_ACCURACY_H_
