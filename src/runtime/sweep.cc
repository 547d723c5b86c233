#include "src/runtime/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/graph_lint.h"
#include "src/core/optimizations/optimizations.h"
#include "src/models/model_zoo.h"
#include "src/trace/chrome_trace.h"  // JsonEscape
#include "src/util/csv.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace daydream {

namespace {

std::string NetworkSignature(const NetworkSpec& network) {
  return StrFormat("%.17g/%lld/%.17g/%lld", network.bandwidth_gbps,
                   static_cast<long long>(network.inter_node_latency), network.intra_node_gbs,
                   static_cast<long long>(network.intra_node_latency));
}

std::shared_ptr<const ModelGraph> ZooModelGraph(const Trace& trace) {
  const std::optional<ModelId> model_id = LookupModel(trace.model_name());
  return model_id ? std::make_shared<const ModelGraph>(BuildModel(*model_id)) : nullptr;
}

// Appends the case when `request` resolves to a transform over `trace`.
void AppendCase(std::vector<SweepCase>* cases, std::string name, const WhatIfRequest& request,
                const Trace& trace, const std::shared_ptr<const ModelGraph>& model) {
  std::function<void(DependencyGraph*)> transform;
  std::string error;
  if (ResolveWhatIf(request, trace, model, &transform, &error) && transform) {
    cases->push_back({std::move(name), std::move(transform)});
  }
}

}  // namespace

std::string WhatIfRequest::Signature() const {
  // Only parameters that shape the transform belong here: validate and
  // sim_jobs select how a transformed graph is consumed, not what it is, and
  // must not fragment the transform cache.
  if (what_if == "distributed") {
    return StrFormat("distributed:%dx%d:%s", cluster.machines, cluster.gpus_per_machine,
                     NetworkSignature(cluster.network).c_str());
  }
  if (what_if == "pipeline") {
    std::string boundaries;
    for (int b : pipeline.boundaries) {
      boundaries += StrFormat(",%d", b);
    }
    return StrFormat("pipeline:%d:%d:%d:%s:%s:%lld:%.17g", pipeline.num_stages,
                     pipeline.num_microbatches, static_cast<int>(pipeline.schedule),
                     boundaries.c_str(), NetworkSignature(pipeline.network).c_str(),
                     static_cast<long long>(pipeline.launch_overhead),
                     pipeline.microbatch_efficiency);
  }
  return what_if;
}

bool ResolveWhatIf(const WhatIfRequest& request, const Trace& trace,
                   const std::shared_ptr<const ModelGraph>& model,
                   std::function<void(DependencyGraph*)>* transform, std::string* error) {
  const std::string& name = request.what_if;
  *transform = nullptr;
  if (name == "amp") {
    *transform = [](DependencyGraph* g) { WhatIfAmp(g); };
    return true;
  }
  if (name == "fused_adam") {
    *transform = [](DependencyGraph* g) { WhatIfFusedAdam(g); };
    return true;
  }
  if (name == "distributed") {
    DistributedWhatIf opts;
    opts.cluster = request.cluster;
    auto gradients = std::make_shared<const std::vector<GradientInfo>>(trace.gradients());
    *transform = [gradients, opts](DependencyGraph* g) { WhatIfDistributed(g, *gradients, opts); };
    return true;
  }
  const bool layered = name == "rbn" || name == "metaflow" || name == "gist" || name == "vdnn";
  if (!layered && name != "pipeline") {
    *error = StrFormat("unknown what-if '%s'", name.c_str());
    return false;
  }
  if (model == nullptr) {
    *error = layered ? "trace lacks a known model name (needed for layer kinds)"
                     : "trace lacks a known model name (needed for activation/parameter sizes)";
    return true;
  }
  if (name == "rbn") {
    *transform = [model](DependencyGraph* g) { WhatIfRestructuredBatchnorm(g, *model); };
  } else if (name == "metaflow") {
    *transform = [model](DependencyGraph* g) { WhatIfMetaFlowFuseConvBn(g, *model); };
  } else if (name == "gist") {
    *transform = [model](DependencyGraph* g) { WhatIfGist(g, *model); };
  } else if (name == "vdnn") {
    *transform = [model](DependencyGraph* g) { WhatIfVdnn(g, *model); };
  } else {
    const PipelineWhatIf opts = request.pipeline;
    *transform = [model, opts](DependencyGraph* g) { WhatIfPipeline(g, *model, opts); };
  }
  return true;
}

SweepRunner::SweepRunner(const Daydream& daydream, SweepOptions options)
    : daydream_(daydream), options_(options) {}

SweepOutcome SweepRunner::RunCase(const SweepCase& sweep_case, ThreadPool* pool) const {
  SweepOutcome outcome;
  outcome.name = sweep_case.name;
  outcome.prediction.baseline = daydream_.BaselineSimTime();
  const int sim_jobs = std::max(options_.sim_jobs, 1);
  // Structural verification is non-negotiable — a malformed graph aborts
  // deep inside the engine with no context. --validate escalates to the full
  // lint catalog (timing + smell passes) and reports every finding at once.
  LintReport report;
  std::optional<DependencyGraph> transformed =
      daydream_.Transform(sweep_case.transform, options_.validate, &report);
  DD_CHECK(report.ok()) << "sweep case '" << sweep_case.name
                        << "' produced an invalid graph:\n"
                        << report.ToString();
  outcome.tasks = transformed->num_alive();
  const SimPlan plan = daydream_.Plan(*transformed);
  if (options_.validate) {
    const LintReport plan_report = GraphLint::LintPlan(plan, *transformed);
    DD_CHECK(plan_report.ok()) << "sweep case '" << sweep_case.name
                               << "' compiled an inconsistent plan:\n"
                               << plan_report.ToString();
    if (sim_jobs > 1) {
      // Sharded dispatch trusts the partition/window metadata blindly;
      // strict mode verifies it per case.
      const LintReport shard_report = GraphLint::LintShards(ShardPlan::Compile(plan, sim_jobs));
      DD_CHECK(shard_report.ok()) << "sweep case '" << sweep_case.name
                                  << "' compiled an inconsistent shard plan:\n"
                                  << shard_report.ToString();
    }
  }
  // The plan is self-contained: the clone dies before dispatch, so a case
  // holds plan-sized, not graph-sized, memory while it simulates.
  transformed.reset();
  outcome.prediction.predicted = RunPlanParallel(plan, sim_jobs, pool).makespan;
  return outcome;
}

std::vector<SweepOutcome> SweepRunner::Run(const std::vector<SweepCase>& cases,
                                           bool* deadline_exceeded) const {
  int budget = options_.num_threads;
  if (budget <= 0) {
    budget = static_cast<int>(std::thread::hardware_concurrency());
  }
  // The caller joins every ParallelFor, so the pool plus the caller is the
  // whole budget. A sharded case dispatch nests its shards on the same pool,
  // so cases × shards never exceeds it; a matrix narrower than the budget
  // keeps threads for its shards.
  const int64_t width = static_cast<int64_t>(cases.size()) * std::max(options_.sim_jobs, 1);
  ThreadPool pool(static_cast<int>(std::min<int64_t>(budget, width)) - 1);
  std::vector<SweepOutcome> outcomes(cases.size());
  std::atomic<bool> expired{false};
  pool.ParallelFor(static_cast<int>(cases.size()), [&](int i) {
    // Cooperative cancellation: cases claimed after the budget expires stay
    // blank; cases already running finish.
    if (options_.deadline.Expired()) {
      expired.store(true, std::memory_order_relaxed);
      return;
    }
    outcomes[i] = RunCase(cases[i], &pool);
  });
  if (deadline_exceeded != nullptr) {
    *deadline_exceeded = expired.load(std::memory_order_relaxed);
  }
  return outcomes;
}

std::vector<SweepCase> BuildStandardSweep(const Trace& trace,
                                          const std::vector<ClusterConfig>& clusters) {
  // One shared immutable model graph serves all layer-structured cases; the
  // resolver skips them when the trace's model is not in the zoo.
  const std::shared_ptr<const ModelGraph> model = ZooModelGraph(trace);
  std::vector<SweepCase> cases;
  for (const char* name : {"amp", "fused_adam", "rbn", "metaflow", "gist", "vdnn"}) {
    WhatIfRequest request;
    request.what_if = name;
    AppendCase(&cases, name, request, trace, model);
  }
  for (const ClusterConfig& cluster : clusters) {
    WhatIfRequest request;
    request.what_if = "distributed";
    request.cluster = cluster;
    AppendCase(&cases, "distributed " + cluster.Label(), request, trace, model);
  }
  return cases;
}

bool AppendPipelineSweep(std::vector<SweepCase>* cases, const Trace& trace,
                         const PipelineSweepSpec& spec) {
  const std::shared_ptr<const ModelGraph> model = ZooModelGraph(trace);
  if (model == nullptr) {
    return false;
  }
  std::vector<PipelineScheduleKind> schedules = spec.schedules;
  if (schedules.empty()) {
    schedules = {PipelineScheduleKind::k1F1B, PipelineScheduleKind::kGPipe};
  }
  for (const int stages : spec.stages) {
    for (const PipelineScheduleKind kind : schedules) {
      WhatIfRequest request;
      request.what_if = "pipeline";
      request.pipeline.num_stages = stages;
      request.pipeline.num_microbatches = spec.microbatches;
      request.pipeline.schedule = kind;
      request.pipeline.network = spec.network;
      AppendCase(cases,
                 StrFormat("pipeline %dst/%dmb %s", stages, spec.microbatches, ToString(kind)),
                 request, trace, model);
    }
  }
  return true;
}

void RankBySpeedup(std::vector<SweepOutcome>* outcomes) {
  std::sort(outcomes->begin(), outcomes->end(), [](const SweepOutcome& a, const SweepOutcome& b) {
    if (a.prediction.predicted != b.prediction.predicted) {
      return a.prediction.predicted < b.prediction.predicted;
    }
    return a.name < b.name;
  });
}

std::string SweepOutcomeJson(const SweepOutcome& outcome) {
  return StrFormat(
      "{\"name\": \"%s\", \"predicted_ms\": %.3f, \"speedup_pct\": %.2f, "
      "\"speedup_ratio\": %.3f, \"tasks\": %d}",
      JsonEscape(outcome.name).c_str(), ToMs(outcome.prediction.predicted),
      outcome.prediction.SpeedupPct(), outcome.prediction.SpeedupRatio(), outcome.tasks);
}

std::string SweepReportJson(const std::vector<SweepOutcome>& outcomes) {
  std::ostringstream os;
  os << "{\n";
  // No outcomes means no baseline was simulated; omit the field rather than
  // reporting a fake 0.0 ms baseline.
  if (!outcomes.empty()) {
    os << StrFormat("  \"baseline_ms\": %.3f,\n", ToMs(outcomes.front().prediction.baseline));
  }
  os << "  \"cases\": [\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    os << "    " << SweepOutcomeJson(outcomes[i]) << (i + 1 < outcomes.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

bool WriteSweepCsv(const std::vector<SweepOutcome>& outcomes, const std::string& path) {
  // CsvWriter reports open failure itself — no probe open/close/reopen, which
  // used to truncate the target twice.
  CsvWriter csv(path,
                {"what_if", "baseline_ms", "predicted_ms", "speedup_pct", "speedup_ratio", "tasks"});
  if (!csv.ok()) {
    return false;
  }
  for (const SweepOutcome& o : outcomes) {
    csv.AddRow({o.name, StrFormat("%.3f", ToMs(o.prediction.baseline)),
                StrFormat("%.3f", ToMs(o.prediction.predicted)),
                StrFormat("%.2f", o.prediction.SpeedupPct()),
                StrFormat("%.3f", o.prediction.SpeedupRatio()), StrFormat("%d", o.tasks)});
  }
  csv.Flush();  // surface flush-time failures (e.g. full disk) in the result
  return csv.ok();
}

}  // namespace daydream
