#include "src/service/session.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/core/breakdown.h"
#include "src/core/critical_path.h"
#include "src/core/graph_builder.h"
#include "src/core/layer_report.h"
#include "src/core/optimizations/p3.h"
#include "src/core/transform.h"
#include "src/util/fault.h"
#include "src/util/string_util.h"

namespace daydream {

std::shared_ptr<TraceSession> TraceSession::Create(Trace trace, SessionOptions options,
                                                   std::string* error) {
  if (trace.empty()) {
    if (error != nullptr) {
      *error = "trace contains no events; nothing to analyze (re-run `daydream collect`?)";
    }
    return nullptr;
  }
  DependencyGraph graph = BuildDependencyGraph(trace);
  // Refuse here, with the lint report, rather than letting the Daydream
  // constructor DD_CHECK-abort the process on a malformed graph.
  const LintReport report = GraphLint::LintStructure(graph);
  if (!report.ok()) {
    if (error != nullptr) {
      *error = "trace produces an invalid dependency graph:\n" + report.ToString();
    }
    return nullptr;
  }
  return std::shared_ptr<TraceSession>(
      new TraceSession(std::move(trace), std::move(graph), options));
}

TraceSession::TraceSession(Trace trace, DependencyGraph graph, SessionOptions options)
    : options_(options),
      daydream_(std::move(trace), std::move(graph)),
      model_id_(LookupModel(daydream_.trace().model_name())) {
  if (model_id_.has_value()) {
    model_graph_ = std::make_shared<const ModelGraph>(BuildModel(*model_id_));
  }
  resident_bytes_ = daydream_.trace().size() * sizeof(TraceEvent) +
                    static_cast<size_t>(daydream_.graph().num_alive()) * sizeof(Task);
}

SessionStatus TraceSession::ResolveTransform(const WhatIfRequest& request,
                                             std::function<void(DependencyGraph*)>* transform,
                                             std::string* error) const {
  if (!ResolveWhatIf(request, daydream_.trace(), model_graph_, transform, error)) {
    return SessionStatus::kUnknownWhatIf;
  }
  return *transform ? SessionStatus::kOk : SessionStatus::kBadRequest;
}

SessionStatus TraceSession::Predict(const WhatIfRequest& request, PredictOutcome* outcome,
                                    std::string* error, const Deadline& deadline) {
  const std::string signature = request.Signature();
  std::shared_ptr<const SimPlan> plan;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(signature);
    if (it != cache_.end()) {
      it->second.sequence = ++cache_sequence_;
      plan = it->second.plan;
    }
  }

  // A miss builds the transformed graph outside the lock: clone + transform
  // can take tens of milliseconds and the baseline graph supports concurrent
  // const access (the SweepRunner contract). Structural lint runs before
  // anyone compiles the graph — SimPlan::Compile DD_CHECKs on a broken
  // structure, and a daemon must refuse, not abort. Strict mode (`predict
  // --validate`) builds the graph on a hit too and holds it to the full lint
  // catalog, with every finding reported, before any prediction.
  std::optional<DependencyGraph> graph;
  if (plan == nullptr || request.validate) {
    std::function<void(DependencyGraph*)> transform;
    const SessionStatus resolved = ResolveTransform(request, &transform, error);
    if (resolved != SessionStatus::kOk) {
      return resolved;
    }
    LintReport report;
    graph = daydream_.Transform(transform, /*full_lint=*/request.validate, &report);
    if (!report.ok()) {
      *error = StrFormat(request.validate ? "what-if '%s' fails lint:\n"
                                          : "what-if '%s' produced an invalid graph:\n",
                         request.what_if.c_str()) +
               report.ToString();
      return SessionStatus::kLintFailed;
    }
  }
  if (deadline.Expired()) {
    *error = "deadline expired after the what-if transform";
    return SessionStatus::kDeadlineExceeded;
  }

  // A miss retimes over any cached plan with its structure (a what-if
  // family: every multi-GPU `distributed` config shares one), falling back to
  // the baseline plan inside Daydream::Plan.
  std::shared_ptr<const SimPlan> donor;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    ++(plan != nullptr ? stats_.hits : stats_.misses);
    if (plan == nullptr) {
      for (const auto& [key, entry] : cache_) {
        if (entry.plan->CompatibleWith(*graph)) {
          donor = entry.plan;
          break;
        }
      }
    }
  }
  outcome->plan_cache_hit = plan != nullptr;
  if (plan == nullptr) {
    if (FaultInjector::Global().ShouldFail("plan_compile")) {
      *error = "injected fault at plan_compile";
      return SessionStatus::kUnavailable;
    }
    bool retimed = false;
    plan = std::make_shared<const SimPlan>(daydream_.Plan(*graph, &retimed, donor.get()));
    // Fault site: a failed store degrades gracefully — this request still
    // answers from its local plan, the cache keeps nothing.
    std::vector<CacheEntry> victims;  // freed after cache_mu_ is released
    if (!FaultInjector::Global().ShouldFail("plan_cache_insert")) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      ++(retimed ? stats_.retimes : stats_.compiles);
      // A concurrent miss may have stored this signature first; its plan wins.
      auto it = cache_.try_emplace(signature, CacheEntry{plan}).first;
      it->second.sequence = ++cache_sequence_;
      while (cache_.size() > options_.plan_cache_capacity) {
        auto victim = std::min_element(cache_.begin(), cache_.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.second.sequence < b.second.sequence;
                                       });
        if (victim == it) {
          break;
        }
        victims.push_back(std::move(victim->second));
        cache_.erase(victim);
        ++stats_.evictions;
      }
    }
  }
  graph.reset();  // the plan is all the dispatch reads

  outcome->tasks = plan->num_tasks();
  outcome->prediction.baseline = daydream_.BaselineSimTime();
  if (deadline.Expired()) {
    *error = "deadline expired before plan dispatch";
    return SessionStatus::kDeadlineExceeded;
  }
  // sim_jobs is clamped to the machine here (the serve executor additionally
  // caps it against its own worker count before the request reaches us). The
  // sharded engine checks the deadline between synchronization horizons —
  // the only dispatch path with a cooperative mid-run exit.
  const int sim_jobs =
      std::clamp(request.sim_jobs, 1,
                 std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  bool deadline_hit = false;
  outcome->prediction.predicted =
      RunPlanParallel(*plan, sim_jobs, nullptr, &deadline, &deadline_hit).makespan;
  if (deadline_hit) {
    *error = "deadline expired during plan dispatch";
    return SessionStatus::kDeadlineExceeded;
  }
  return SessionStatus::kOk;
}

SessionStatus TraceSession::PredictP3(const WhatIfRequest& request, TimeNs* iteration,
                                      std::string* error) const {
  if (!model_id_.has_value()) {
    *error = "trace lacks a known model name";
    return SessionStatus::kBadRequest;
  }
  // PredictPsIterationTime DD_CHECKs on anything but a 2-iteration profile;
  // refuse here instead.
  const size_t boundaries =
      daydream_.graph()
          .Select(All(ApiIs(ApiKind::kDeviceSynchronize), NameContains("iter_end")))
          .size();
  if (boundaries != 2) {
    *error = "p3 needs a 2-iteration trace (re-run `daydream collect --iterations 2`)";
    return SessionStatus::kBadRequest;
  }
  PsWhatIf options;
  options.network = request.cluster.network;
  options.num_servers = request.cluster.machines;
  *iteration = PredictPsIterationTime(
      daydream_, BuildModel(*model_id_, DefaultBatch(*model_id_)), options);
  return SessionStatus::kOk;
}

PlanCacheStats TraceSession::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return stats_;
}

size_t TraceSession::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

std::vector<SweepOutcome> TraceSession::Sweep(const std::vector<SweepCase>& cases,
                                              const SweepOptions& options,
                                              bool* deadline_exceeded) const {
  return SweepRunner(daydream_, options).Run(cases, deadline_exceeded);
}

SessionStatus TraceSession::Lint(const WhatIfRequest* request, LintReport* report,
                                 bool* plan_passes_run, std::string* error) const {
  std::function<void(DependencyGraph*)> transform;
  if (request != nullptr) {
    const SessionStatus resolved = ResolveTransform(*request, &transform, error);
    if (resolved != SessionStatus::kOk) {
      return resolved;
    }
  }

  const DependencyGraph graph = daydream_.Transform(transform, /*full_lint=*/true, report);

  // Lint the compiled plan too — but only for a graph whose structure held
  // up, since Compile DD_CHECKs on (and a cyclic graph would wedge it).
  *plan_passes_run = report->ok();
  if (report->ok()) {
    const SimPlan plan = daydream_.Plan(graph);
    const LintReport plan_report = GraphLint::LintPlan(plan, graph);
    report->findings.insert(report->findings.end(), plan_report.findings.begin(),
                            plan_report.findings.end());
    report->passes_run.insert(report->passes_run.end(), plan_report.passes_run.begin(),
                              plan_report.passes_run.end());
    report->truncated = report->truncated || plan_report.truncated;
    report->num_errors += plan_report.num_errors;
    report->num_warnings += plan_report.num_warnings;
  }
  return SessionStatus::kOk;
}

std::string TraceSession::ReportText() const {
  const Trace& trace = daydream_.trace();
  std::string out;
  out += "model:  " + trace.model_name() + "\n";
  out += "config: " + trace.config() + "\n";
  out += StrFormat("events: %zu over %.1f ms\n\n", trace.size(), ToMs(trace.makespan()));
  out += ComputeBreakdown(trace).Summary() + "\n";
  out += ComputeCriticalPath(daydream_.graph()).Summary() + "\n\n";
  out += "hottest layer phases by GPU time:\n" + BuildLayerReport(trace).ToString(12);
  return out;
}

void SessionManager::EnforceQuotasLocked(const std::string& keep) {
  auto over_quota = [this] {
    if (limits_.max_sessions != 0 && sessions_.size() > limits_.max_sessions) {
      return true;
    }
    if (limits_.max_resident_bytes != 0) {
      size_t resident = 0;
      for (const Entry& entry : sessions_) {
        resident += entry.session->resident_bytes();
      }
      return resident > limits_.max_resident_bytes;
    }
    return false;
  };
  while (over_quota()) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->handle == keep) {
        continue;  // the just-opened session must survive its own admission
      }
      if (victim == sessions_.end() || it->last_use < victim->last_use) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) {
      break;  // only `keep` is left; a single over-budget session is admitted
    }
    sessions_.erase(victim);
    ++evicted_;
  }
}

std::string SessionManager::Open(std::shared_ptr<TraceSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string handle = StrFormat("s%llu", static_cast<unsigned long long>(++next_handle_));
  sessions_.push_back(Entry{handle, std::move(session), ++use_clock_});
  EnforceQuotasLocked(handle);
  return handle;
}

std::shared_ptr<TraceSession> SessionManager::Get(const std::string& handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : sessions_) {
    if (entry.handle == handle) {
      entry.last_use = ++use_clock_;  // LRU bump: active sessions evict last
      return entry.session;
    }
  }
  return nullptr;
}

bool SessionManager::Close(const std::string& handle) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->handle == handle) {
      sessions_.erase(it);
      return true;
    }
  }
  return false;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SessionManager::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

size_t SessionManager::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t resident = 0;
  for (const Entry& entry : sessions_) {
    resident += entry.session->resident_bytes();
  }
  return resident;
}

std::vector<std::string> SessionManager::Handles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> handles;
  handles.reserve(sessions_.size());
  for (const Entry& entry : sessions_) {
    handles.push_back(entry.handle);
  }
  return handles;
}

}  // namespace daydream
