// sweep: TraceSession::Sweep, repeated, on a 6-iteration BERT_Large trace
// (~8.7e4 tasks) with jobs = nproc and sim_jobs = 1.
#include <atomic>
#include <iostream>
#include <thread>

#include "e2ebench/harness.h"
#include "src/util/string_util.h"
#include "tools/cli_args.h"

namespace e2ebench {

using daydream::StrFormat;
using daydream::TimeNs;
using daydream::TraceFormat;

namespace {

constexpr int kSetupRepeats = 5;

int Jobs() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

// The case matrix exactly as `daydream sweep --cluster ... --gbps ...
// --pipeline-stages ...` builds it.
std::vector<daydream::SweepCase> BuildCases(const daydream::Trace& trace,
                                            const SweepMatrix& matrix) {
  daydream::Args args;
  args.command = "sweep";
  args.flags["cluster"] = daydream::StrJoin(matrix.clusters, ",");
  args.flags["gbps"] = daydream::StrJoin(matrix.gbps, ",");
  std::vector<std::string> stages;
  for (int s : matrix.pipeline_stages) {
    stages.push_back(std::to_string(s));
  }
  args.flags["pipeline-stages"] = daydream::StrJoin(stages, ",");
  std::string error;
  const std::optional<std::vector<daydream::ClusterConfig>> clusters =
      daydream::ParseClusterList(args, &error);
  const std::optional<daydream::PipelineFlags> pipeline =
      daydream::ParsePipelineFlags(args, &error);
  std::vector<daydream::SweepCase> cases = daydream::BuildStandardSweep(trace, *clusters);
  daydream::PipelineSweepSpec spec;
  spec.stages = pipeline->stages;
  spec.microbatches = pipeline->microbatches;
  spec.schedules = pipeline->schedules;
  spec.network = pipeline->network;
  daydream::AppendPipelineSweep(&cases, trace, spec);
  return cases;
}

std::shared_ptr<daydream::TraceSession> OpenSession(const std::string& path,
                                                    daydream::SessionOptions session_options,
                                                    std::string* error) {
  std::optional<daydream::Trace> trace =
      daydream::ReadTraceFileAs(path, TraceFormat::kDdtrace, error);
  return trace ? daydream::TraceSession::Create(std::move(*trace), session_options, error)
               : nullptr;
}

// Each case's answer on a fresh session through TraceSession::Predict (the
// cold predict path after the load), four cases at a time. A one-entry
// cache keeps at most the in-flight transformed graphs resident.
std::vector<std::optional<TimeNs>> PredictEachCase(const std::string& path,
                                                   const std::vector<WhatIf>& what_ifs,
                                                   std::string* error) {
  std::vector<std::optional<TimeNs>> answers(what_ifs.size());
  daydream::SessionOptions session_options;
  session_options.plan_cache_capacity = 1;
  std::shared_ptr<daydream::TraceSession> session = OpenSession(path, session_options, error);
  if (session == nullptr) {
    return answers;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < Jobs(); ++t) {
    threads.emplace_back([&] {
      for (size_t k = next++; k < what_ifs.size(); k = next++) {
        daydream::WhatIfRequest request;
        daydream::PredictOutcome outcome;
        std::string ignored;
        if (MakeRequest(what_ifs[k], &request, &ignored) &&
            session->Predict(request, &outcome, &ignored) == daydream::SessionStatus::kOk) {
          answers[k] = outcome.prediction.predicted;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return answers;
}

}  // namespace

int RunSweep(const Options& options, Result* result) {
  const std::vector<GroundTruth> truth = ReadGroundTruth(options.dir);
  const std::string path = SweepTracePath(options.dir);
  const SweepMatrix matrix = StandardSweepMatrix();
  const std::vector<WhatIf> what_ifs = SweepWhatIfs(matrix);

  // Set-up, repeated for its median: read the trace, open the session, build
  // the case matrix.
  std::shared_ptr<daydream::TraceSession> session;
  std::vector<daydream::SweepCase> cases;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    session.reset();
    std::string error;
    session = OpenSession(path, daydream::SessionOptions{}, &error);
    if (session == nullptr) {
      std::cerr << "sweep set-up failed: " << error << "\n";
      return 1;
    }
    cases = BuildCases(session->trace(), matrix);
    result->prep_s.push_back(ElapsedS(t0));
  }
  if (cases.size() != what_ifs.size()) {
    std::cerr << "sweep matrix has " << cases.size() << " cases, expected " << what_ifs.size()
              << "\n";
    return 1;
  }

  daydream::SweepOptions sweep_options;
  sweep_options.num_threads = Jobs();
  sweep_options.sim_jobs = 1;

  // The traced run first rebuilds the session open from its layer calls,
  // then follows every Sweep call with the same matrix decomposed into layer
  // calls at the same width, so both see the host in the same state.
  std::string error;
  SpanLog open_log;
  std::vector<SpanLog> logs(options.trace ? static_cast<size_t>(Jobs()) : 0);
  if (options.trace) {
    ScopedSpan root(&open_log, "sweep.open", -1);
    std::optional<daydream::Trace> trace;
    {
      ScopedSpan span(&open_log, "trace.read.ddtrace", -1);
      trace = daydream::ReadTraceFileAs(path, TraceFormat::kDdtrace, &error);
      span.set_work(trace ? static_cast<int64_t>(trace->size()) : 0);
    }
    OpenedTrace opened;
    if (!trace || !DecomposedOpen(std::move(*trace), &open_log, -1, &opened, &error)) {
      result->Fail("decomposed open failed: " + error);
    }
  }

  std::vector<double> latency_ms;
  std::vector<double> wall_ms;  // decomposed calls
  int64_t cases_done = 0;
  // One untimed call first, so that one-off first-call costs stay out of the
  // timed calls. Its answers are the reference the timed calls are held to.
  const int64_t warmup_start = NowNs();
  const std::vector<daydream::SweepOutcome> first = session->Sweep(cases, sweep_options);
  result->notes["sweep_warmup_call_ms"] = StrFormat("%.1f", ElapsedS(warmup_start) * 1e3);
  result->attempted += static_cast<int64_t>(cases.size());
  if (first.size() != cases.size()) {
    std::cerr << "sweep answered " << first.size() << " of " << cases.size() << " cases\n";
    return 1;
  }
  const int64_t start = NowNs();
  for (int64_t call = 0; latency_ms.empty() || ElapsedS(start) < options.seconds; ++call) {
    const int64_t t0 = NowNs();
    std::vector<daydream::SweepOutcome> outcomes = session->Sweep(cases, sweep_options);
    latency_ms.push_back(ElapsedS(t0) * 1e3);
    result->attempted += static_cast<int64_t>(cases.size());
    cases_done += static_cast<int64_t>(cases.size());
    for (size_t k = 0; k < cases.size(); ++k) {
      if (k >= outcomes.size() || outcomes[k].name != cases[k].name ||
          outcomes[k].prediction.predicted != first[k].prediction.predicted) {
        result->Fail("sweep case " + cases[k].name + " answered differently across calls");
      }
    }
    if (!options.trace) {
      continue;
    }
    std::vector<std::optional<TimeNs>> answers(cases.size());
    std::atomic<size_t> next{0};
    const int64_t d0 = NowNs();
    std::vector<std::thread> threads;
    for (size_t w = 0; w < logs.size(); ++w) {
      threads.emplace_back([&, w] {
        SpanLog* log = &logs[w];
        for (size_t k = next++; k < cases.size(); k = next++) {
          const int64_t id = call * 1000 + static_cast<int64_t>(k);
          daydream::WhatIfRequest request;
          std::string ignored;
          if (!MakeRequest(what_ifs[k], &request, &ignored)) {
            continue;
          }
          std::shared_ptr<const daydream::SimPlan> plan;  // freed after the span
          ScopedSpan root(log, "runtime.sweep_case", id);
          plan = DecomposedPlan(*session, request, log, id, &ignored);
          if (plan != nullptr) {
            answers[k] = DecomposedDispatch(*plan, log, id);
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    wall_ms.push_back(ElapsedS(d0) * 1e3);
    for (size_t k = 0; k < cases.size(); ++k) {
      ++result->attempted;
      if (answers[k] != first[k].prediction.predicted) {
        result->Fail("decomposed sweep case " + cases[k].name + " differs from Sweep");
      }
    }
  }
  const double elapsed = ElapsedS(start);
  ReportLatency(latency_ms, elapsed, cases_done, result);
  result->e2e["peak_rss_mb"] = PeakRssMb();
  result->samples["sweep_calls"] = static_cast<int64_t>(latency_ms.size());

  // Cold, warm and sweep agree: every case equals a fresh session's predict.
  const std::vector<std::optional<TimeNs>> cold = PredictEachCase(path, what_ifs, &error);
  std::map<std::pair<std::string, std::string>, double> predicted_ms;
  for (size_t k = 0; k < cases.size(); ++k) {
    if (cold[k] != first[k].prediction.predicted) {
      result->Fail(StrFormat("sweep case %s: %s ms, predict %s ms", cases[k].name.c_str(),
                             FormatMs(first[k].prediction.predicted).c_str(),
                             cold[k] ? FormatMs(*cold[k]).c_str() : error.c_str()));
    }
    predicted_ms[{"BERT_Large", what_ifs[k].Key()}] = daydream::ToMs(first[k].prediction.predicted);
  }
  ReportAccuracy(truth, predicted_ms, result);

  if (!options.trace) {
    return 0;
  }

  std::vector<const SpanLog*> all = {&open_log};
  std::vector<double> case_ms;
  double busy_ms = 0;
  for (const SpanLog& log : logs) {
    all.push_back(&log);
    for (const Span& span : log.spans()) {
      if (span.parent < 0) {
        case_ms.push_back(static_cast<double>(span.duration_ns()) / 1e6);
        busy_ms += case_ms.back();
      }
    }
  }
  ReportSpans(all, result);
  double total_wall_ms = 0;
  for (double w : wall_ms) {
    total_wall_ms += w;
  }
  result->layers["runtime.sweep_case_ms.p50"] = Median(case_ms);
  result->layers["runtime.sweep_case_ms.max"] = Quantile(case_ms, 1.0);
  result->samples["runtime.sweep_case_ms"] = static_cast<int64_t>(case_ms.size());
  result->layers["runtime.sweep_busy_frac"] =
      busy_ms / (total_wall_ms * static_cast<double>(logs.size()));
  result->layers["bench.coverage_pct"] = Coverage(all) * 100.0;
  result->layers["bench.tracing_overhead_pct"] =
      (Median(wall_ms) / Median(latency_ms) - 1.0) * 100.0;
  WriteSpans(all, options.spans_out);
  return 0;
}

}  // namespace e2ebench
