#include "tests/paper_accuracy.h"

#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "src/core/optimizations/optimizations.h"
#include "src/core/transform.h"
#include "src/models/model_zoo.h"
#include "src/util/logging.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

namespace daydream {

namespace {

AccuracyRow Row(const char* figure, ModelId model, const char* what_if,
                std::optional<double> paper_bound_pct, const char* ablation = "",
                std::function<void(DependencyGraph*)> edit = nullptr) {
  AccuracyRow row;
  row.figure = figure;
  row.model = model;
  row.what_if.what_if = what_if;
  row.ablation = ablation;
  row.edit = std::move(edit);
  row.config = DefaultRunConfig(model);
  row.paper_bound_pct = paper_bound_pct;
  return row;
}

ClusterConfig Cluster(int machines, int gpus, double gbps) {
  return {.machines = machines, .gpus_per_machine = gpus, .network = {.bandwidth_gbps = gbps}};
}

// Drops the CPU<->GPU edges into GPU tasks (launch -> kernel correlation,
// §4.2.2 dependency type 3) or into CPU tasks (GPU -> CPU sync, type 4).
void DropCrossDeviceEdges(DependencyGraph* g, bool into_gpu) {
  for (TaskId child : g->Select(into_gpu ? IsOnGpu() : IsOnCpu())) {
    for (TaskId p : std::vector<TaskId>(g->parents(child))) {
      if (into_gpu ? g->task(p).is_cpu() : g->task(p).is_gpu()) {
        g->RemoveEdge(p, child);
      }
    }
  }
}

// §4.2.1: the gaps that carry the framework's CPU overhead.
void DropGaps(DependencyGraph* g) {
  for (TaskId id : g->AliveTasks()) {
    g->task(id).gap = 0;
  }
}

// P3's cross-iteration dependencies need a 2-iteration profile (§5.1); its
// ground truth reads the steady state of a 4-iteration run.
bool IsP3(const AccuracyRow& row) { return row.what_if.what_if == "p3"; }

// Six decimals: times are exact to the ns, so the JSON is byte-stable.
std::string Num(double v) { return StrFormat("%.6f", v); }
std::string Ms(TimeNs t) { return Num(ToMs(t)); }
std::string OrNull(bool present, const std::string& value) { return present ? value : "null"; }
double SpeedupPct(TimeNs t, TimeNs baseline) {
  return 100.0 * (1.0 - static_cast<double>(t) / static_cast<double>(baseline));
}

std::string BreakdownJson(const RuntimeBreakdown& b) {
  return StrFormat(R"({"total_ms": %s, "cpu_only_ms": %s, "gpu_only_ms": %s, "overlap_ms": %s})",
                   Ms(b.total).c_str(), Ms(b.cpu_only).c_str(), Ms(b.gpu_only).c_str(),
                   Ms(b.overlap).c_str());
}

}  // namespace

std::string CaseLabel(const AccuracyRow& row) {
  const std::string& name = row.what_if.what_if;
  return name == "distributed" || name == "p3" ? name + " " + row.what_if.cluster.Label() : name;
}

std::vector<AccuracyRow> PaperAccuracyTable() {
  std::vector<AccuracyRow> rows;

  // Figure 5: AMP, error < 13%. Figure 6's CPU/GPU breakdown rides on the
  // same FP32 and FP16 runs.
  for (ModelId model :
       {ModelId::kBertBase, ModelId::kBertLarge, ModelId::kGnmt, ModelId::kResNet50}) {
    rows.push_back(Row("fig05", model, "amp", 13.0));
    rows.back().config.gt.amp = true;
    rows.back().breakdown = true;
  }

  // Figure 7: FusedAdam, error <= 13%.
  for (ModelId model : {ModelId::kBertBase, ModelId::kBertLarge, ModelId::kGnmt}) {
    rows.push_back(Row("fig07", model, "fused_adam", 13.0));
    rows.back().config.gt.fused_adam = true;
  }

  // Figure 8: data parallelism predicted from a 1-GPU profile against NCCL
  // ground truth, error <= ~10%. Figure 9's per-call NCCL times ride on the
  // GNMT 4x1 @ 40 Gbps run.
  const std::vector<std::pair<int, int>> shapes = {{1, 1}, {2, 1}, {3, 1}, {4, 1},
                                                   {2, 2}, {3, 2}, {4, 2}};
  for (ModelId model :
       {ModelId::kResNet50, ModelId::kGnmt, ModelId::kBertBase, ModelId::kBertLarge}) {
    for (double gbps : {10.0, 20.0, 40.0}) {
      for (const auto& [machines, gpus] : shapes) {
        if (machines * gpus == 1 && gbps != 10.0) {
          continue;  // the single-GPU row is bandwidth-independent
        }
        AccuracyRow row = Row("fig08", model, "distributed", 10.0);
        row.what_if.cluster = Cluster(machines, gpus, gbps);
        if (machines * gpus > 1) {
          row.config.comm = CommBackend::kNccl;
          row.config.cluster = row.what_if.cluster;
        }
        row.allreduce_calls = model == ModelId::kGnmt && machines == 4 && gpus == 1 && gbps == 40;
        rows.push_back(row);
      }
    }
  }

  // Figure 10: P3 over MXNet's parameter server, 4 machines x 1 P4000 with
  // the P3 paper's small batches, error <= 16.2%.
  const std::vector<std::pair<ModelId, std::vector<double>>> p3_sweeps = {
      {ModelId::kResNet50, {1.0, 2.0, 4.0, 6.0, 8.0}},
      {ModelId::kVgg19, {5.0, 10.0, 15.0, 20.0, 25.0}}};
  for (const auto& [model, bandwidths] : p3_sweeps) {
    for (double gbps : bandwidths) {
      AccuracyRow row = Row("fig10", model, "p3", 16.2);
      row.what_if.cluster = Cluster(4, 1, gbps);
      row.config.gpu = GpuSpec::P4000();
      row.config.framework = FrameworkProfile::Mxnet();
      row.config.batch = 16;
      row.config.comm = CommBackend::kPs;
      row.config.cluster = row.what_if.cluster;
      row.config.gt.p3 = true;
      rows.push_back(row);
    }
  }

  // §5.2: optimizations no implementation exists for, expressed with the
  // transformation primitives. Predictions only; an edited row's baseline is
  // its case alone (BlueConnect and DGC against the flat ring).
  const ClusterConfig cluster_4x4 = Cluster(4, 4, 10.0);
  const DgcWhatIf dgc{.cluster = cluster_4x4};
  const GistWhatIf lossy{.lossy = true};
  auto resnet = std::make_shared<const ModelGraph>(BuildModel(ModelId::kResNet50));
  const std::vector<std::tuple<const char*, const char*, std::function<void(DependencyGraph*)>>>
      s52 = {{"distributed", "", nullptr},
             {"distributed", "blueconnect",
              [cluster_4x4](DependencyGraph* g) { WhatIfBlueConnect(g, cluster_4x4); }},
             {"distributed", "dgc", [dgc](DependencyGraph* g) { WhatIfDgc(g, dgc); }},
             {"metaflow", "", nullptr},
             {"vdnn", "", nullptr},
             {"gist", "", nullptr},
             {"", "gist_lossy",
              [resnet, lossy](DependencyGraph* g) { WhatIfGist(g, *resnet, lossy); }}};
  for (const auto& [what_if, ablation, edit] : s52) {
    rows.push_back(Row("s52", ModelId::kResNet50, what_if, std::nullopt, ablation, edit));
    rows.back().what_if.cluster = cluster_4x4;
    rows.back().measured = false;
  }

  // §6.4: restructured batchnorm on DenseNet-121 (Caffe). The paper predicts
  // 12.7% against a measured ~7% and states no error bound.
  rows.push_back(Row("s64", ModelId::kDenseNet121, "rbn", std::nullopt));
  rows.back().config.gt.restructured_bn = true;

  // Ablation of §4.2.2's dependency types: the baseline replay against the
  // measured profile with one ingredient removed at a time.
  const std::vector<std::pair<const char*, std::function<void(DependencyGraph*)>>> ablations = {
      {"", nullptr},
      {"no_correlation", [](DependencyGraph* g) { DropCrossDeviceEdges(g, /*into_gpu=*/true); }},
      {"no_sync", [](DependencyGraph* g) { DropCrossDeviceEdges(g, /*into_gpu=*/false); }},
      {"no_gaps", DropGaps},
      {"no_sync_no_gaps", [](DependencyGraph* g) {
         DropCrossDeviceEdges(g, /*into_gpu=*/false);
         DropGaps(g);
       }}};
  for (ModelId model : {ModelId::kResNet50, ModelId::kGnmt, ModelId::kBertLarge}) {
    for (const auto& [ablation, edit] : ablations) {
      rows.push_back(Row("abl_dependencies", model, "", std::nullopt, ablation, edit));
    }
  }

  // Ablation of §4.2.1's gaps: AMP predicted from a gap-less graph misses
  // the CPU floor (the with-gaps prediction is the fig05 row).
  for (ModelId model : {ModelId::kBertBase, ModelId::kBertLarge, ModelId::kResNet50}) {
    rows.push_back(Row("abl_gaps", model, "amp", std::nullopt, "no_gaps", DropGaps));
    rows.back().config.gt.amp = true;
  }
  return rows;
}

void MeasureAccuracy(std::vector<AccuracyRow>* rows) {
  std::map<std::string, Daydream> profiles;
  for (AccuracyRow& row : *rows) {
    const int profile_iterations = IsP3(row) ? 2 : 1;
    const int gt_iterations = IsP3(row) ? 4 : 1;
    const RunConfig& c = row.config;
    const std::string key = StrFormat("%s b=%lld %s %s x%d", ModelName(c.model),
                                      static_cast<long long>(c.batch), c.framework.name.c_str(),
                                      c.gpu.name.c_str(), profile_iterations);
    auto it = profiles.find(key);
    if (it == profiles.end()) {
      it = profiles.emplace(key, CollectBaselineTrace(c, profile_iterations)).first;
    }
    const Daydream& daydream = it->second;
    const auto model = std::make_shared<const ModelGraph>(BuildModel(c.model, c.batch));

    AccuracyResult& result = row.result;
    result.simulated_baseline = daydream.BaselineSimTime();
    std::function<void(DependencyGraph*)> resolved;
    if (IsP3(row)) {
      DD_CHECK(!row.edit) << "p3 rows take no graph edit";
      result.predicted = PredictPsIterationTime(
          daydream, *model,
          {.network = row.what_if.cluster.network, .num_servers = row.what_if.cluster.machines});
    } else {
      std::string error;
      DD_CHECK(row.what_if.what_if.empty() ||
               (ResolveWhatIf(row.what_if, daydream.trace(), model, &resolved, &error) && resolved))
          << row.figure << ": " << error;
      std::function<void(DependencyGraph*)> transform = resolved;
      if (row.edit) {
        transform = [&](DependencyGraph* g) {
          if (resolved) {
            resolved(g);
          }
          row.edit(g);
        };
      }
      result.predicted = daydream.Predict(transform).predicted;
    }

    ExecutionResult unoptimized;
    if (c.gt.amp || c.gt.fused_adam || c.gt.restructured_bn || c.gt.p3) {
      RunConfig off = c;
      off.gt = GroundTruthOptions{};
      unoptimized = RunGroundTruth(off, gt_iterations);
      result.baseline = unoptimized.IterationTime();
    } else {
      result.baseline = row.edit ? daydream.Predict(resolved).predicted : result.simulated_baseline;
    }

    if (row.measured) {
      // A row without a case replays the profile: its ground truth is the
      // profile's own span, every thread included, as the simulator sees it.
      const bool replay = row.what_if.what_if.empty();
      const ExecutionResult run = replay ? ExecutionResult{} : RunGroundTruth(c, gt_iterations);
      result.ground_truth = replay ? daydream.trace().makespan() : run.IterationTime();
      result.error_pct = RelErrorPct(static_cast<double>(result.predicted),
                                     static_cast<double>(result.ground_truth));
      result.within_paper_bound = !row.paper_bound_pct || result.error_pct <= *row.paper_bound_pct;
      if (row.breakdown) {
        result.baseline_breakdown = ComputeBreakdown(unoptimized.trace);
        result.ground_truth_breakdown = ComputeBreakdown(run.trace);
      }
      if (row.allreduce_calls) {
        RunConfig synced = c;
        synced.gt.sync_before_allreduce = true;
        const ExecutionResult sync_run = RunGroundTruth(synced, gt_iterations);
        result.calls = run.allreduce_calls;
        result.sync_calls = sync_run.allreduce_calls;
        result.sync_ground_truth = sync_run.IterationTime();
      }
    }
  }
}

std::string AccuracyJson(const std::vector<AccuracyRow>& rows) {
  std::string json = R"({
  "schema": "daydream-bench-accuracy-v1",
  "ground_truth": "synthetic executor (src/runtime/) running the optimization itself; Daydream sees only its single-GPU unoptimized profile",
  "rows": [
)";
  for (size_t i = 0; i < rows.size(); ++i) {
    const AccuracyRow& row = rows[i];
    const AccuracyResult& r = row.result;
    const bool bounded = row.paper_bound_pct.has_value();
    json += StrFormat(R"(    {"figure": "%s", "model": "%s", "case": "%s", "ablation": "%s", "config": "%s")",
                      row.figure.c_str(), ModelName(row.model), CaseLabel(row).c_str(),
                      row.ablation.c_str(), row.config.Label().c_str());
    const std::pair<const char*, std::string> fields[] = {
        {"paper_bound_pct", OrNull(bounded, Num(row.paper_bound_pct.value_or(0.0)))},
        {"baseline_ms", Ms(r.baseline)},
        {"ground_truth_ms", OrNull(row.measured, Ms(r.ground_truth))},
        {"predicted_ms", Ms(r.predicted)},
        {"error_pct", OrNull(row.measured, Num(r.error_pct))},
        {"within_paper_bound", OrNull(bounded, r.within_paper_bound ? "true" : "false")},
        {"gt_speedup_pct", OrNull(row.measured, Num(SpeedupPct(r.ground_truth, r.baseline)))},
        {"predicted_speedup_pct", Num(SpeedupPct(r.predicted, r.baseline))}};
    for (const auto& [key, value] : fields) {
      json += StrFormat(R"(, "%s": %s)", key, value.c_str());
    }
    if (row.breakdown) {
      json += R"(, "breakdown": {"baseline": )" + BreakdownJson(r.baseline_breakdown) +
              R"(, "ground_truth": )" + BreakdownJson(r.ground_truth_breakdown) + "}";
    }
    if (row.allreduce_calls) {
      // Figure 9: interference puts the overlapped calls above the ring
      // formula; a CUDA sync before each reduction recovers most of it.
      RunningStats over_theory;
      RunningStats sync_improvement;
      json += R"(, "allreduce_calls": [)";
      for (size_t k = 0; k < r.calls.size(); ++k) {
        const AllReduceRecord& b = r.calls[k];
        const AllReduceRecord& s = r.sync_calls[k];
        over_theory.Add(100.0 * (static_cast<double>(b.actual) / b.theoretical - 1.0));
        sync_improvement.Add(100.0 * (1.0 - static_cast<double>(s.actual) / b.actual));
        json += StrFormat(
            R"(%s      {"bucket": %d, "bytes": %lld, "actual_ms": %s, "sync_ms": %s, "optimal_ms": %s, "theoretical_ms": %s})",
            k == 0 ? "\n" : ",\n", b.bucket_id, static_cast<long long>(b.bytes),
            Ms(b.actual).c_str(), Ms(s.actual).c_str(), Ms(b.optimal).c_str(),
            Ms(b.theoretical).c_str());
      }
      json += StrFormat(
          R"(%s    ], "actual_over_theoretical_pct": %s, "sync_improvement_pct": %s, "sync_ground_truth_ms": %s, "sync_gt_speedup_pct": %s)",
          "\n", Num(over_theory.mean()).c_str(), Num(sync_improvement.mean()).c_str(),
          Ms(r.sync_ground_truth).c_str(),
          Num(SpeedupPct(r.sync_ground_truth, r.ground_truth)).c_str());
    }
    json += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  return json + "  ]\n}\n";
}

}  // namespace daydream
