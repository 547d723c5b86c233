#include "e2ebench/harness.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "e2ebench/cupti_writer.h"
#include "src/core/graph_builder.h"
#include "src/core/graph_lint.h"
#include "src/core/layer_map.h"
#include "src/core/optimizations/optimizations.h"
#include "src/runtime/ground_truth.h"
#include "src/trace/chrome_trace.h"
#include "src/util/string_util.h"
#include "tools/cli_args.h"

extern char** environ;

namespace e2ebench {

using daydream::DependencyGraph;
using daydream::ModelId;
using daydream::StrFormat;
using daydream::TimeNs;
using daydream::TraceFormat;

// ---- helpers ----

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

CpuRotation::CpuRotation(size_t part, size_t parts) {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  next_ = part * cpus_.size() / std::max<size_t>(parts, 1);
}

CpuRotation::~CpuRotation() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }

void CpuRotation::Next() {
  if (cpus_.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double ElapsedS(int64_t since_ns) { return static_cast<double>(NowNs() - since_ns) / 1e9; }

std::string FormatMs(TimeNs t) { return StrFormat("%.3f", daydream::ToMs(t)); }

std::string JsonString(const std::string& text) {
  return "\"" + daydream::JsonEscape(text) + "\"";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

double RunChildPeakRssMb(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, args[0], nullptr, nullptr, args.data(), environ) != 0) {
    return -1;
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
}

void ReportLatency(const std::vector<double>& latency_ms, double elapsed_s, int64_t units,
                   Result* result) {
  result->e2e["latency_ms_p50"] = Quantile(latency_ms, 0.50);
  result->e2e["latency_ms_p90"] = Quantile(latency_ms, 0.90);
  result->e2e["latency_ms_p99"] = Quantile(latency_ms, 0.99);
  result->e2e["throughput_per_s"] = elapsed_s > 0 ? static_cast<double>(units) / elapsed_s : 0;
  result->samples["latency_ms"] = static_cast<int64_t>(latency_ms.size());
}

std::string Result::ToJson() const {
  std::ostringstream os;
  auto numbers = [&os](const auto& map) {
    os << "{";
    bool first = true;
    for (const auto& [name, value] : map) {
      os << (first ? "" : ", ") << JsonString(name) << ": " << StrFormat("%.9g", double(value));
      first = false;
    }
    os << "}";
  };
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    os << (i ? ", " : "") << JsonString(errors[i]);
  }
  os << "], \"prep_s\": [";
  for (size_t i = 0; i < prep_s.size(); ++i) {
    os << (i ? ", " : "") << StrFormat("%.9g", prep_s[i]);
  }
  os << "], \"e2e\": ";
  numbers(e2e);
  os << ", \"layers\": ";
  numbers(layers);
  os << ", \"samples\": ";
  numbers(samples);
  os << ", \"accuracy\": [";
  for (size_t i = 0; i < accuracy_rows.size(); ++i) {
    os << (i ? ", " : "") << accuracy_rows[i];
  }
  os << "], \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : notes) {
    os << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- requests and ground truth ----

bool MakeRequest(const WhatIf& what_if, daydream::WhatIfRequest* request, std::string* error) {
  daydream::Args args;
  args.command = "predict";
  args.flags = what_if.flags;
  return daydream::ParseWhatIfRequest(args, request, error);
}

std::string TracePath(const std::string& dir, ModelId model, TraceFormat format) {
  const char* suffix = format == TraceFormat::kDdtrace  ? ".ddtrace"
                       : format == TraceFormat::kChrome ? ".chrome.json"
                                                        : ".cupti.jsonl";
  return dir + "/" + daydream::ModelName(model) + suffix;
}

std::string SweepTracePath(const std::string& dir) {
  return dir + StrFormat("/BERT_Large.%dit.ddtrace", kSweepIterations);
}

namespace {

bool HasBatchnorm(ModelId model) {
  return model == ModelId::kResNet50 || model == ModelId::kDenseNet121;
}

// The what-ifs the synthetic executor implements for real: AMP, FusedAdam
// (Adam models), restructured batchnorm (BN models) and NCCL data parallel.
std::optional<daydream::RunConfig> GroundTruthConfig(ModelId model, const WhatIf& what_if,
                                                     uint64_t seed) {
  daydream::RunConfig config = daydream::DefaultRunConfig(model);
  config.seed_salt = SeedSalt(seed);
  const std::string& name = what_if.name();
  if (name == "amp") {
    config.gt.amp = true;
  } else if (name == "fused_adam" &&
             daydream::DefaultOptimizer(model) == daydream::OptimizerKind::kAdam) {
    config.gt.fused_adam = true;
  } else if (name == "rbn" && HasBatchnorm(model)) {
    config.gt.restructured_bn = true;
  } else if (name == "distributed") {
    daydream::WhatIfRequest request;
    std::string error;
    if (!MakeRequest(what_if, &request, &error)) {
      return std::nullopt;
    }
    config.comm = daydream::CommBackend::kNccl;
    config.cluster = request.cluster;
  } else {
    return std::nullopt;
  }
  return config;
}

std::vector<std::pair<ModelId, WhatIf>> AccuracySet(const std::string& workload) {
  std::vector<std::pair<ModelId, WhatIf>> set;
  auto add_model = [&set](ModelId model, const std::vector<WhatIf>& distributed) {
    for (const char* name : {"amp", "fused_adam", "rbn"}) {
      if (GroundTruthConfig(model, SimpleWhatIf(name), 0).has_value()) {
        set.emplace_back(model, SimpleWhatIf(name));
      }
    }
    for (const WhatIf& what_if : distributed) {
      set.emplace_back(model, what_if);
    }
  };
  if (workload == "cold-predict") {
    std::vector<WhatIf> distributed;
    for (const WhatIf& what_if : ColdWhatIfs()) {
      if (what_if.name() == "distributed") {
        distributed.push_back(what_if);
      }
    }
    for (ModelId model : PaperModels()) {
      add_model(model, distributed);
    }
  } else if (workload == "warm-serve") {
    for (ModelId model : WarmModels()) {
      add_model(model, {Distributed("4x2", "25")});
    }
  } else {
    add_model(ModelId::kBertLarge, {Distributed("2x2", "25"), Distributed("4x2", "25")});
  }
  return set;
}

daydream::Trace Collect(ModelId model, uint64_t seed, int iterations) {
  daydream::RunConfig config = daydream::DefaultRunConfig(model);
  config.seed_salt = SeedSalt(seed);
  return daydream::CollectBaselineTrace(config, iterations);
}

}  // namespace

int Setup(const Options& options) {
  const std::string& dir = options.dir;
  const bool sweep = options.workload == "sweep";
  const int iterations = sweep ? kSweepIterations : 1;
  if (options.workload == "cold-predict") {
    for (ModelId model : PaperModels()) {
      const daydream::Trace trace = Collect(model, options.seed, 1);
      if (!daydream::WriteTraceFile(trace, TracePath(dir, model, TraceFormat::kDdtrace)) ||
          !daydream::WriteChromeTraceFile(trace, TracePath(dir, model, TraceFormat::kChrome)) ||
          !WriteCuptiTraceFile(trace, TracePath(dir, model, TraceFormat::kCupti))) {
        return 1;
      }
    }
  } else if (options.workload == "warm-serve") {
    for (ModelId model : WarmModels()) {
      const daydream::Trace trace = Collect(model, options.seed, 1);
      if (!daydream::WriteTraceFile(trace, TracePath(dir, model, TraceFormat::kDdtrace))) {
        return 1;
      }
    }
  } else if (sweep) {
    const daydream::Trace trace = Collect(ModelId::kBertLarge, options.seed, iterations);
    if (!daydream::WriteTraceFile(trace, SweepTracePath(dir))) {
      return 1;
    }
  } else {
    return 2;
  }

  // Ground truth: the executed (synthetic-executor) run time of each accuracy
  // question, with the host time the run took.
  std::ofstream out(dir + "/ground_truth.tsv");
  for (const auto& [model, what_if] : AccuracySet(options.workload)) {
    const std::optional<daydream::RunConfig> config =
        GroundTruthConfig(model, what_if, options.seed);
    const int64_t start = NowNs();
    const daydream::ExecutionResult run = daydream::RunGroundTruth(*config, iterations);
    const double run_ms = ElapsedS(start) * 1e3;
    out << daydream::ModelName(model) << "\t" << what_if.Key() << "\t"
        << StrFormat("%.17g", daydream::ToMs(run.total_time)) << "\t"
        << StrFormat("%.6f", run_ms) << "\n";
  }
  return out.good() ? 0 : 1;
}

std::vector<GroundTruth> ReadGroundTruth(const std::string& dir) {
  std::vector<GroundTruth> truth;
  std::ifstream in(dir + "/ground_truth.tsv");
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> fields = daydream::StrSplit(line, '\t');
    if (fields.size() != 4) {
      continue;
    }
    for (ModelId model : daydream::AllModels()) {
      if (fields[0] == daydream::ModelName(model)) {
        truth.push_back(GroundTruth{model, fields[1], std::stod(fields[2]), std::stod(fields[3])});
      }
    }
  }
  return truth;
}

void ReportAccuracy(const std::vector<GroundTruth>& truth,
                    const std::map<std::pair<std::string, std::string>, double>& predicted_ms,
                    Result* result) {
  std::vector<double> errors;
  std::vector<double> run_ms;
  for (const GroundTruth& gt : truth) {
    run_ms.push_back(gt.run_ms);
    const auto it = predicted_ms.find({daydream::ModelName(gt.model), gt.key});
    if (it == predicted_ms.end()) {
      continue;  // the loop never asked this question
    }
    const double err = std::abs(it->second - gt.ground_truth_ms) / gt.ground_truth_ms * 100.0;
    errors.push_back(err);
    result->accuracy_rows.push_back(StrFormat(
        "{\"model\": %s, \"what_if\": %s, \"predicted_ms\": %.3f, "
        "\"ground_truth_ms\": %.3f, \"err_pct\": %.3f}",
        JsonString(daydream::ModelName(gt.model)).c_str(), JsonString(gt.key).c_str(),
        it->second, gt.ground_truth_ms, err));
  }
  double sum = 0;
  for (double e : errors) {
    sum += e;
  }
  result->e2e["accuracy_err_pct_mean"] = errors.empty() ? 0 : sum / static_cast<double>(errors.size());
  result->e2e["accuracy_err_pct_max"] =
      errors.empty() ? 0 : *std::max_element(errors.begin(), errors.end());
  result->samples["accuracy_questions"] = static_cast<int64_t>(errors.size());
  result->layers["runtime.ground_truth_ms"] = Median(run_ms);
  result->samples["runtime.ground_truth_ms"] = static_cast<int64_t>(run_ms.size());
  result->notes["ground_truth"] =
      "synthetic executor (src/runtime), not hardware: accuracy is prediction vs the "
      "repo's own ground-truth machine";
}

// ---- the timed library paths ----

std::optional<TimeNs> ColdPredict(const std::string& path, TraceFormat format,
                                  const WhatIf& what_if, std::string* error,
                                  double* session_open_ms) {
  std::optional<daydream::Trace> trace = daydream::ReadTraceFileAs(path, format, error);
  if (!trace.has_value()) {
    return std::nullopt;
  }
  const int64_t open_start = NowNs();
  std::shared_ptr<daydream::TraceSession> session =
      daydream::TraceSession::Create(std::move(*trace), daydream::SessionOptions{}, error);
  if (session_open_ms != nullptr) {
    *session_open_ms = ElapsedS(open_start) * 1e3;
  }
  if (session == nullptr) {
    return std::nullopt;
  }
  daydream::WhatIfRequest request;
  if (!MakeRequest(what_if, &request, error)) {
    return std::nullopt;
  }
  daydream::PredictOutcome outcome;
  if (session->Predict(request, &outcome, error) != daydream::SessionStatus::kOk) {
    return std::nullopt;
  }
  return outcome.prediction.predicted;
}

namespace {

// The benchmark's own copy of TraceSession::ResolveTransform for the
// decomposed cold path, which has no session to ask.
std::function<void(DependencyGraph*)> ResolveOwn(
    const daydream::WhatIfRequest& request, const daydream::Trace& trace,
    const std::shared_ptr<const daydream::ModelGraph>& model) {
  const std::string& name = request.what_if;
  if (name == "amp") {
    return [](DependencyGraph* g) { daydream::WhatIfAmp(g); };
  }
  if (name == "fused_adam") {
    return [](DependencyGraph* g) { daydream::WhatIfFusedAdam(g); };
  }
  if (model == nullptr) {
    return nullptr;
  }
  if (name == "rbn") {
    return [model](DependencyGraph* g) { daydream::WhatIfRestructuredBatchnorm(g, *model); };
  }
  if (name == "metaflow") {
    return [model](DependencyGraph* g) { daydream::WhatIfMetaFlowFuseConvBn(g, *model); };
  }
  if (name == "gist") {
    return [model](DependencyGraph* g) { daydream::WhatIfGist(g, *model); };
  }
  if (name == "vdnn") {
    return [model](DependencyGraph* g) { daydream::WhatIfVdnn(g, *model); };
  }
  if (name == "pipeline") {
    const daydream::PipelineWhatIf opts = request.pipeline;
    return [model, opts](DependencyGraph* g) { daydream::WhatIfPipeline(g, *model, opts); };
  }
  if (name == "distributed") {
    daydream::DistributedWhatIf opts;
    opts.cluster = request.cluster;
    const std::vector<daydream::GradientInfo> gradients = trace.gradients();
    return [opts, gradients](DependencyGraph* g) {
      daydream::WhatIfDistributed(g, gradients, opts);
    };
  }
  return nullptr;
}

std::shared_ptr<const daydream::SimPlan> PlanFor(
    const daydream::Daydream& dd, const std::function<void(DependencyGraph*)>& transform,
    const std::string& what_if, SpanLog* log, int64_t id, std::string* error) {
  std::optional<DependencyGraph> graph;
  {
    ScopedSpan span(log, "core.transform.clone", id);
    graph.emplace(dd.CloneGraph());
  }
  {
    ScopedSpan span(log, "core.transform.apply." + what_if, id);
    transform(&*graph);
  }
  {
    ScopedSpan span(log, "core.transform.lint", id);
    const daydream::LintReport report = daydream::GraphLint::LintStructure(*graph);
    if (!report.ok()) {
      *error = "what-if " + what_if + " produced an invalid graph";
      return nullptr;
    }
  }
  const bool retime = dd.baseline_plan().CompatibleWith(*graph);
  std::shared_ptr<const daydream::SimPlan> plan;
  {
    ScopedSpan span(log, retime ? "core.plan.retime" : "core.plan.compile", id);
    plan = std::make_shared<const daydream::SimPlan>(
        daydream::Simulator().Compile(*graph, retime ? &dd.baseline_plan() : nullptr));
  }
  // The plan is self-contained; dropping the clone is the transform's last
  // cost (large on big graphs).
  ScopedSpan span(log, "core.transform.release", id);
  graph.reset();
  return plan;
}

}  // namespace

bool DecomposedOpen(daydream::Trace trace, SpanLog* log, int64_t id, OpenedTrace* opened,
                    std::string* error) {
  std::optional<DependencyGraph> graph;
  {
    ScopedSpan span(log, "core.graph.build", id);
    graph.emplace(daydream::BuildDependencyGraph(trace));
  }
  {
    ScopedSpan span(log, "core.graph.lint", id);
    if (!daydream::GraphLint::LintStructure(*graph).ok()) {
      *error = "trace produces an invalid dependency graph";
      return false;
    }
  }
  {
    ScopedSpan span(log, "core.graph.baseline_plan", id);
    opened->daydream.emplace(std::move(trace), std::move(*graph));
  }
  {
    ScopedSpan span(log, "core.graph.layer_map", id);
    const daydream::LayerMap layer_map = daydream::LayerMap::Compute(opened->daydream->trace());
    (void)layer_map;
  }
  ScopedSpan span(log, "models.build_model", id);
  for (ModelId candidate : daydream::AllModels()) {
    if (opened->daydream->trace().model_name() == daydream::ModelName(candidate)) {
      opened->model = std::make_shared<const daydream::ModelGraph>(daydream::BuildModel(candidate));
    }
  }
  return true;
}

std::optional<TimeNs> DecomposedColdPredict(const std::string& path, TraceFormat format,
                                            const WhatIf& what_if, SpanLog* log, int64_t id,
                                            int64_t* events, std::string* error) {
  ScopedSpan root(log, "cold.question", id);
  std::optional<daydream::Trace> trace;
  {
    ScopedSpan span(log, std::string("trace.read.") + daydream::ToString(format), id);
    trace = daydream::ReadTraceFileAs(path, format, error);
    if (!trace.has_value()) {
      return std::nullopt;
    }
    *events = static_cast<int64_t>(trace->size());
    span.set_work(*events);
  }
  OpenedTrace opened;
  if (!DecomposedOpen(std::move(*trace), log, id, &opened, error)) {
    return std::nullopt;
  }
  const daydream::Daydream& dd = *opened.daydream;
  daydream::WhatIfRequest request;
  std::function<void(DependencyGraph*)> transform;
  {
    ScopedSpan span(log, "core.transform.resolve", id);
    if (!MakeRequest(what_if, &request, error)) {
      return std::nullopt;
    }
    transform = ResolveOwn(request, dd.trace(), opened.model);
    if (!transform) {
      *error = "cannot resolve what-if " + what_if.Key();
      return std::nullopt;
    }
  }
  const std::shared_ptr<const daydream::SimPlan> plan =
      PlanFor(dd, transform, request.what_if, log, id, error);
  if (plan == nullptr) {
    return std::nullopt;
  }
  return DecomposedDispatch(*plan, log, id);
}

std::shared_ptr<const daydream::SimPlan> DecomposedPlan(const daydream::TraceSession& session,
                                                        const daydream::WhatIfRequest& request,
                                                        SpanLog* log, int64_t id,
                                                        std::string* error) {
  std::function<void(DependencyGraph*)> transform;
  {
    ScopedSpan span(log, "core.transform.resolve", id);
    if (session.ResolveTransform(request, &transform, error) != daydream::SessionStatus::kOk) {
      return nullptr;
    }
  }
  return PlanFor(session.daydream(), transform, request.what_if, log, id, error);
}

TimeNs DecomposedDispatch(const daydream::SimPlan& plan, SpanLog* log, int64_t id) {
  ScopedSpan span(log, "core.dispatch.run", id);
  span.set_work(plan.num_tasks());
  return plan.Run().makespan;
}

namespace {

// Span name -> metric name: "_ms" goes on the stage that follows the layer
// prefix ("trace.read.chrome" -> "trace.read_ms.chrome").
std::string MetricName(const std::string& span) {
  static const char* const kLayers[] = {"core.graph.",  "core.transform.", "core.plan.",
                                        "core.dispatch.", "trace.",          "models.",
                                        "service."};
  for (const char* layer : kLayers) {
    const std::string prefix = layer;
    if (span.rfind(prefix, 0) == 0) {
      const std::string rest = span.substr(prefix.size());
      const size_t dot = rest.find('.');
      return dot == std::string::npos ? span + "_ms"
                                      : prefix + rest.substr(0, dot) + "_ms" + rest.substr(dot);
    }
  }
  return "";
}

}  // namespace

void ReportSpans(const std::vector<const SpanLog*>& logs, Result* result) {
  const std::map<std::string, SpanStats> stats = AggregateSpans(logs);
  for (const auto& [name, s] : stats) {
    const std::string metric = MetricName(name);
    if (metric.empty()) {
      continue;
    }
    result->layers[metric] = Median(s.self_ms);
    result->samples[metric] = static_cast<int64_t>(s.self_ms.size());
  }
  for (const char* format : {"ddtrace", "chrome", "cupti"}) {
    const auto it = stats.find(std::string("trace.read.") + format);
    if (it != stats.end() && it->second.self_s > 0) {
      result->layers[std::string("trace.events_per_s.") + format] =
          static_cast<double>(it->second.work) / it->second.self_s;
    }
  }
  const auto count = [&stats](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? size_t{0} : it->second.self_ms.size();
  };
  const size_t retimes = count("core.plan.retime");
  const size_t builds = retimes + count("core.plan.compile");
  if (builds > 0) {
    result->layers["core.plan.retime_share"] =
        static_cast<double>(retimes) / static_cast<double>(builds);
  }
  const auto run = stats.find("core.dispatch.run");
  if (run != stats.end() && run->second.self_s > 0) {
    result->layers["core.dispatch.tasks_per_s"] =
        static_cast<double>(run->second.work) / run->second.self_s;
  }
}

void WriteSpans(const std::vector<const SpanLog*>& logs, const std::string& path) {
  std::ofstream out(path);
  for (size_t i = 0; i < logs.size(); ++i) {
    logs[i]->Write(out, static_cast<int>(i));
  }
}

}  // namespace e2ebench
