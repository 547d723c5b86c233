// End-to-end accuracy tests: Daydream's predictions vs the ground-truth
// executor, asserting the paper's headline accuracy claims.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/runtime/ground_truth.h"
#include "src/util/stats.h"
#include "tests/paper_accuracy.h"

namespace daydream {
namespace {

// Every row of one figure within the bound the table stores for it, so each
// bound lives in one place.
void ExpectFigureWithinPaperBounds(const std::string& figure, size_t expected_rows) {
  std::vector<AccuracyRow> rows = PaperAccuracyTable();
  std::erase_if(rows, [&](const AccuracyRow& row) { return row.figure != figure; });
  ASSERT_EQ(rows.size(), expected_rows) << figure;
  MeasureAccuracy(&rows);
  for (const AccuracyRow& row : rows) {
    const std::string label = row.figure + " " + ModelName(row.model) + " " + CaseLabel(row);
    ASSERT_TRUE(row.paper_bound_pct.has_value()) << label;
    EXPECT_LE(row.result.error_pct, *row.paper_bound_pct) << label;
    if (row.figure == "fig05") {
      // The prediction must detect AMP as beneficial.
      EXPECT_LT(row.result.predicted, row.result.simulated_baseline) << label;
    }
  }
}

// The committed BENCH_accuracy.json is the table's output byte for byte;
// regenerate it with DAYDREAM_UPDATE_GOLDEN=1 (or ./build/accuracy). It pins
// the two fig10 rows outside the paper's 16.2% P3 bound (VGG-19 at 20 and
// 25 Gbps).
TEST(PaperAccuracy, CommittedJsonMatches) {
  std::vector<AccuracyRow> rows = PaperAccuracyTable();
  ASSERT_EQ(rows.size(), 119u);
  MeasureAccuracy(&rows);
  const std::string fresh = AccuracyJson(rows);
  if (std::getenv("DAYDREAM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(DAYDREAM_ACCURACY_JSON, std::ios::binary) << fresh;
  }
  std::ostringstream committed;
  committed << std::ifstream(DAYDREAM_ACCURACY_JSON, std::ios::binary).rdbuf();
  EXPECT_EQ(fresh, committed.str())
      << DAYDREAM_ACCURACY_JSON << " drifted from the accuracy table. If intended, run\n"
      << "  DAYDREAM_UPDATE_GOLDEN=1 ./integration_test --gtest_filter=PaperAccuracy.Committed*\n"
      << "and commit the diff.";
}

// ---- Figure 5: AMP ----

// Paper: < 13% on all four models.
TEST(PaperAccuracy, AmpErrorsUnderBound) { ExpectFigureWithinPaperBounds("fig05", 4); }

TEST(PaperAccuracy, BertLargeAmpModerateGain) {
  // §1 / Figure 5: BERT_LARGE gains ~17.2% from AMP — far below the 2-3x
  // kernel-level speedups, because the CPU becomes the bottleneck.
  RunConfig config = DefaultRunConfig(ModelId::kBertLarge);
  const TimeNs fp32 = RunGroundTruth(config).IterationTime();
  config.gt.amp = true;
  const TimeNs fp16 = RunGroundTruth(config).IterationTime();
  const double speedup_pct = 100.0 * (1.0 - static_cast<double>(fp16) / fp32);
  EXPECT_GT(speedup_pct, 10.0);
  EXPECT_LT(speedup_pct, 28.0);
}

// ---- Figure 7: FusedAdam ----

// Paper: < 13% on all three models.
TEST(PaperAccuracy, FusedAdamErrorsUnderBound) { ExpectFigureWithinPaperBounds("fig07", 3); }

TEST(PaperAccuracy, FusedAdamBertLargeBigGnmtSmall) {
  // §6.3: BERT_LARGE improves ~38.7% (WU is ~45% of its iteration and
  // launches ~5.2k kernels); GNMT improves little (WU < 10%).
  auto gt_speedup = [](ModelId model) {
    RunConfig config = DefaultRunConfig(model);
    const TimeNs base = RunGroundTruth(config).IterationTime();
    config.gt.fused_adam = true;
    const TimeNs fused = RunGroundTruth(config).IterationTime();
    return 100.0 * (1.0 - static_cast<double>(fused) / base);
  };
  const double bert_large = gt_speedup(ModelId::kBertLarge);
  const double gnmt = gt_speedup(ModelId::kGnmt);
  EXPECT_GT(bert_large, 30.0);
  EXPECT_LT(gnmt, 12.0);
  EXPECT_GT(bert_large, 3.0 * gnmt);
}

TEST(PaperAccuracy, BertWeightUpdateFractions) {
  // §6.3: WU is ~30% of BERT base iteration time and ~45% for BERT large.
  auto wu_fraction = [](ModelId model) {
    const Trace trace = CollectBaselineTrace(DefaultRunConfig(model));
    const std::vector<LayerSpan> spans = trace.ExtractLayerSpans();
    TimeNs wu = 0;
    for (const LayerSpan& s : spans) {
      if (s.phase == Phase::kWeightUpdate) {
        wu += s.end - s.begin;
      }
    }
    return static_cast<double>(wu) / trace.makespan();
  };
  EXPECT_NEAR(wu_fraction(ModelId::kBertBase), 0.30, 0.10);
  EXPECT_NEAR(wu_fraction(ModelId::kBertLarge), 0.45, 0.10);
}

// ---- §6.4: Reconstructing Batchnorm ----

TEST(PaperAccuracy, RbnPredictionOptimisticVsGroundTruth) {
  const RunConfig config = DefaultRunConfig(ModelId::kDenseNet121);
  const ModelGraph model = BuildModel(config.model, config.batch);
  const ExecutionResult baseline = RunGroundTruth(config);
  RunConfig rbn = config;
  rbn.gt.restructured_bn = true;
  const TimeNs gt = RunGroundTruth(rbn).IterationTime();
  Daydream dd(baseline.trace);
  const PredictionResult pred =
      dd.Predict([&](DependencyGraph* g) { WhatIfRestructuredBatchnorm(g, model); });
  const double gt_speedup = 100.0 * (1.0 - static_cast<double>(gt) / baseline.IterationTime());
  // The paper's qualitative result: both show a moderate gain, and the
  // prediction overestimates it (12.7% predicted vs 7% measured).
  EXPECT_GT(gt_speedup, 3.0);
  EXPECT_GT(pred.SpeedupPct(), gt_speedup);
  EXPECT_LT(pred.SpeedupPct(), 2.2 * gt_speedup);
}

// ---- Figure 8: distributed ----

// Paper: at most 10% on all 76 configurations.
TEST(PaperAccuracy, DistributedPredictionErrors) { ExpectFigureWithinPaperBounds("fig08", 76); }

TEST(PaperAccuracy, DistributedScalingShape) {
  // Iteration time grows with worker count at fixed bandwidth (comm overhead)
  // and shrinks with bandwidth at fixed worker count.
  const Trace baseline = CollectBaselineTrace(DefaultRunConfig(ModelId::kVgg19));
  Daydream dd(baseline);
  auto predict = [&](int machines, double gbps) {
    DistributedWhatIf opts;
    opts.cluster.machines = machines;
    opts.cluster.gpus_per_machine = 1;
    opts.cluster.network.bandwidth_gbps = gbps;
    return dd
        .Predict([&](DependencyGraph* g) { WhatIfDistributed(g, dd.trace().gradients(), opts); })
        .predicted;
  };
  EXPECT_LT(predict(2, 10.0), predict(4, 10.0));
  EXPECT_GT(predict(4, 10.0), predict(4, 40.0));
}

// ---- Figure 9: NCCL interference ----

TEST(PaperAccuracy, NcclInterferenceRatios) {
  RunConfig config = DefaultRunConfig(ModelId::kGnmt);
  config.comm = CommBackend::kNccl;
  config.cluster.machines = 4;
  config.cluster.gpus_per_machine = 1;
  config.cluster.network.bandwidth_gbps = 40.0;
  const ExecutionResult base = RunGroundTruth(config);
  config.gt.sync_before_allreduce = true;
  const ExecutionResult sync = RunGroundTruth(config);

  RunningStats over_theory;
  for (const AllReduceRecord& r : base.allreduce_calls) {
    over_theory.Add(static_cast<double>(r.actual) / r.theoretical);
  }
  // Paper: ground truth ~34% above theoretical on average.
  EXPECT_GT(over_theory.mean(), 1.15);
  EXPECT_LT(over_theory.mean(), 1.45);
  // Sync never hurts end-to-end and can help (paper: up to 22%).
  EXPECT_LE(sync.IterationTime(), static_cast<TimeNs>(base.IterationTime() * 1.01));
}

// ---- general: the tool's raison d'etre ----

TEST(PaperAccuracy, RanksOptimizationsCorrectly) {
  // Daydream's purpose: distinguish effective optimizations from weak ones
  // (§1). For BERT large, FusedAdam >> AMP ~ moderate > Gist (a slowdown).
  const RunConfig config = DefaultRunConfig(ModelId::kBertLarge);
  const Trace baseline = CollectBaselineTrace(config);
  Daydream dd(baseline);
  const double fused =
      dd.Predict([](DependencyGraph* g) { WhatIfFusedAdam(g); }).SpeedupPct();
  const double amp = dd.Predict([](DependencyGraph* g) { WhatIfAmp(g); }).SpeedupPct();
  EXPECT_GT(fused, amp);
  EXPECT_GT(amp, 0.0);
}

TEST(PaperAccuracy, PredictionsAreDeterministic) {
  const RunConfig config = DefaultRunConfig(ModelId::kResNet50);
  const Trace t1 = CollectBaselineTrace(config);
  const Trace t2 = CollectBaselineTrace(config);
  Daydream a(t1);
  Daydream b(t2);
  EXPECT_EQ(a.BaselineSimTime(), b.BaselineSimTime());
  EXPECT_EQ(a.Predict([](DependencyGraph* g) { WhatIfAmp(g); }).predicted,
            b.Predict([](DependencyGraph* g) { WhatIfAmp(g); }).predicted);
}

TEST(PaperAccuracy, BaselineSimulationReproducesMeasurement) {
  // Phase-2 fidelity across every model: the simulated untransformed graph
  // must match the measured iteration (the paper's implicit correctness bar).
  for (ModelId model : PaperModels()) {
    const Trace trace = CollectBaselineTrace(DefaultRunConfig(model));
    Daydream dd(trace);
    EXPECT_LT(RelErrorPct(static_cast<double>(dd.BaselineSimTime()),
                          static_cast<double>(trace.makespan())),
              0.5)
        << ModelName(model);
  }
}

}  // namespace
}  // namespace daydream
