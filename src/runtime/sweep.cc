#include "src/runtime/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
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

// One case through the prepare stage: the compiled plan only — the
// transformed clone is freed as soon as its plan exists.
struct SweepRunner::Prepared {
  size_t index = 0;
  int tasks = 0;
  SimPlan plan;
};

SweepRunner::SweepRunner(const Daydream& daydream, SweepOptions options)
    : daydream_(daydream), options_(options) {}

SweepRunner::Prepared SweepRunner::Prepare(const SweepCase& sweep_case, size_t index) const {
  Prepared prepared;
  prepared.index = index;
  // Structural verification is non-negotiable — a malformed graph aborts
  // deep inside the engine with no context. --validate escalates to the full
  // lint catalog (timing + smell passes) and reports every finding at once.
  LintReport report;
  const DependencyGraph transformed =
      daydream_.Transform(sweep_case.transform, options_.validate, &report);
  DD_CHECK(report.ok()) << "sweep case '" << sweep_case.name
                        << "' produced an invalid graph:\n"
                        << report.ToString();
  prepared.tasks = transformed.num_alive();
  prepared.plan = daydream_.Plan(transformed);
  if (options_.validate) {
    const LintReport plan_report = GraphLint::LintPlan(prepared.plan, transformed);
    DD_CHECK(plan_report.ok()) << "sweep case '" << sweep_case.name
                               << "' compiled an inconsistent plan:\n"
                               << plan_report.ToString();
    if (options_.sim_jobs > 1) {
      // Sharded dispatch trusts the partition/window metadata blindly;
      // strict mode verifies it per case. The lint-only shard plan is
      // rebuilt at dispatch (it must reference the plan's final address).
      const ShardPlan shards = ShardPlan::Compile(prepared.plan, options_.sim_jobs);
      const LintReport shard_report = GraphLint::LintShards(shards);
      DD_CHECK(shard_report.ok()) << "sweep case '" << sweep_case.name
                                  << "' compiled an inconsistent shard plan:\n"
                                  << shard_report.ToString();
    }
  }
  // The plan is self-contained: the clone dies here, before simulation, so a
  // prepared-but-unsimulated case holds plan-sized, not graph-sized, memory.
  return prepared;
}

std::vector<SweepOutcome> SweepRunner::Run(const std::vector<SweepCase>& cases,
                                           bool* deadline_exceeded) const {
  if (deadline_exceeded != nullptr) {
    *deadline_exceeded = false;
  }
  std::vector<SweepOutcome> outcomes(cases.size());
  if (cases.empty()) {
    return outcomes;
  }
  const bool bounded = options_.deadline.bounded();
  // One thread budget covers both parallelism levels: sim_jobs > 1 trades
  // case-level width for per-case sharded dispatch (workers ~ budget /
  // sim_jobs; the freed threads become the shared shard pool), so cases ×
  // shards never oversubscribes the requested thread count.
  int budget = options_.num_threads;
  if (budget <= 0) {
    budget = static_cast<int>(std::thread::hardware_concurrency());
  }
  budget = std::max(budget, 1);
  const int sim_jobs = std::max(options_.sim_jobs, 1);
  std::unique_ptr<ThreadPool> shard_pool;
  if (sim_jobs > 1) {
    shard_pool = std::make_unique<ThreadPool>(std::max(budget - std::max(budget / sim_jobs, 1), 0));
  }

  auto record = [&](Prepared* prepared, const SweepCase& sweep_case) {
    SweepOutcome& out = outcomes[prepared->index];
    out.name = sweep_case.name;
    out.tasks = prepared->tasks;
    out.prediction.baseline = daydream_.BaselineSimTime();
    out.prediction.predicted =
        RunPlanParallel(prepared->plan, sim_jobs, shard_pool.get()).makespan;
  };

  const int workers = std::clamp(budget / sim_jobs, 1, static_cast<int>(cases.size()));

  // Two-stage pipeline over one worker pool: each worker drains ready plans
  // first (simulation is the stage that retires cases) and otherwise claims
  // the next case to prepare. `depth` bounds prepared-but-unsimulated cases
  // so a fast prepare stage cannot balloon memory. The calling thread is
  // one of the workers; alone, it prepares and simulates in case order.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Prepared> ready;
  size_t next_case = 0;
  size_t simulated = 0;
  size_t preparing = 0;
  bool deadline_hit = false;
  const size_t depth = static_cast<size_t>(workers) + 2;

  auto work = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    while (simulated < cases.size()) {
      // Cooperative cancellation: an expired budget abandons unclaimed cases
      // and drains already-prepared ones unrecorded. Cases mid-Prepare still
      // finish (preparers count themselves as simulated on re-entry).
      if (bounded && !deadline_hit && options_.deadline.Expired()) {
        deadline_hit = true;
        simulated += (cases.size() - next_case) + ready.size();
        next_case = cases.size();
        ready.clear();
        cv.notify_all();
        continue;
      }
      if (!ready.empty()) {
        Prepared prepared = std::move(ready.front());
        ready.pop_front();
        cv.notify_all();  // queue space freed for preparers
        lock.unlock();
        record(&prepared, cases[prepared.index]);
        lock.lock();
        if (++simulated == cases.size()) {
          cv.notify_all();
        }
        continue;
      }
      if (next_case < cases.size() && ready.size() + preparing < depth) {
        const size_t i = next_case++;
        ++preparing;
        lock.unlock();
        Prepared prepared = Prepare(cases[i], i);
        lock.lock();
        --preparing;
        if (deadline_hit) {
          // The budget expired while this case was being prepared: retire it
          // unrecorded instead of feeding the abandoned simulate stage.
          if (++simulated == cases.size()) {
            cv.notify_all();
          }
        } else {
          ready.push_back(std::move(prepared));
          cv.notify_all();
        }
        continue;
      }
      cv.wait(lock);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) {
    t.join();
  }
  if (deadline_hit && deadline_exceeded != nullptr) {
    *deadline_exceeded = true;
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
    const SweepOutcome& o = outcomes[i];
    os << StrFormat(
        "    {\"name\": \"%s\", \"predicted_ms\": %.3f, \"speedup_pct\": %.2f, "
        "\"speedup_ratio\": %.3f, \"tasks\": %d}%s\n",
        JsonEscape(o.name).c_str(), ToMs(o.prediction.predicted), o.prediction.SpeedupPct(),
        o.prediction.SpeedupRatio(), o.tasks, i + 1 < outcomes.size() ? "," : "");
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
