// daydream — command-line front end for the library.
//
//   daydream collect --model BERT_Large --out profile.ddtrace [--chrome t.json]
//   daydream report  --trace profile.ddtrace
//   daydream predict --trace profile.ddtrace --what-if amp
//   daydream predict --trace profile.ddtrace --what-if fused_adam
//   daydream predict --trace profile.ddtrace --what-if distributed --cluster 4x2 --gbps 25
//   daydream sweep   --trace profile.ddtrace --cluster 2x2,4x2 --gbps 10,25 --csv sweep.csv
//   daydream serve   [--port N]
//   daydream models
//
// `collect` runs the synthetic training substrate (in a real deployment this
// step is the CUPTI profiling run); every other analysis verb works on any
// persisted trace — the paper's profile-once / ask-many-questions workflow.
// The analysis verbs are thin clients over the service layer (src/service/):
// each one opens a TraceSession and issues a single query, the same path a
// long-lived `daydream serve` daemon answers many queries over.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "src/models/model_zoo.h"
#include "src/runtime/ground_truth.h"
#include "src/service/serve.h"
#include "src/service/session.h"
#include "src/service/version.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/import_chrome.h"
#include "src/trace/import_cupti.h"
#include "src/trace/trace_io.h"
#include "src/util/string_util.h"
#include "src/util/table.h"
#include "tools/cli_args.h"

namespace daydream {
namespace {

int Usage() {
  std::cerr <<
      R"(usage: daydream <command> [flags]

commands:
  models                                list the model zoo
  collect  --model <name> [--iterations N] [--out FILE] [--chrome FILE]
  import   --in FILE --format <cupti|chrome|ddtrace> [--out FILE]
                                        convert a profiler dump to the native
                                        .ddtrace format (cupti: JSON-lines
                                        activity records; chrome: trace-event
                                        array, e.g. our own --chrome export)
  report   --trace FILE                 breakdown + critical path + per-layer table
           [--format <ddtrace|cupti|chrome>]  (all analysis verbs accept
                                         --format; default ddtrace)
  predict  --trace FILE --what-if <amp|fused_adam|rbn|metaflow|gist|vdnn|distributed|p3|pipeline>
           [--cluster MxG] [--gbps BW]  (distributed/p3 options)
           [--pipeline-stages N] [--microbatches M] [--schedule gpipe|1f1b]
                                        (pipeline options)
           [--sim-jobs N]               (shards for parallel plan dispatch;
                                         same result, more cores)
           [--json FILE]                (machine-readable result)
           [--validate]                 (full GraphLint pass over the what-if
                                         output before predicting)
  lint     --trace FILE                 run the GraphLint catalog over the graph
           [--what-if <name>]           (lint a transformed graph instead)
           [--json FILE] [--strict]     (--strict: warnings also fail; exit 0
                                         clean, 1 findings, 2 usage errors)
  sweep    --trace FILE                 evaluate the whole what-if matrix concurrently
           [--cluster M1xG1,M2xG2,...] [--gbps BW1,BW2,...] [--jobs N]
           [--sim-jobs N]               (shards per case simulation; the
                                         thread budget is shared with --jobs)
           [--pipeline-stages N1,N2,...] [--microbatches M]
           [--schedule gpipe|1f1b|both]
           [--csv FILE] [--json FILE] [--validate]
  serve    [--port N] [--jobs N]        line-delimited-JSON prediction daemon
           [--sim-jobs N]               (stdin/stdout without --port; see
                                         docs/serve.md; --sim-jobs sets the
                                         default shards per request)
           [--max-queue N] [--request-timeout-ms MS] [--max-connections N]
           [--max-sessions N] [--max-resident-mb MB] [--max-line-kib KIB]
                                        (admission control & quotas; 0
                                         disables a bound; SIGINT/SIGTERM
                                         drain gracefully)
  version  [--json]                     build + protocol version
)";
  return 2;
}

int CmdModels() {
  for (ModelId id : AllModels()) {
    const ModelGraph g = BuildModel(id);
    std::cout << StrFormat("%-14s batch=%-3lld layers=%-4d params=%.1fM\n", ModelName(id),
                           static_cast<long long>(DefaultBatch(id)), g.num_layers(),
                           static_cast<double>(g.TotalParamElems()) / 1e6);
  }
  return 0;
}

int CmdCollect(const Args& args) {
  const std::optional<ModelId> model = LookupModel(args.Get("model"));
  if (!model.has_value()) {
    std::cerr << "unknown --model; run `daydream models`\n";
    return 2;
  }
  const std::optional<int> iterations = ParseInt(args.Get("iterations", "1"));
  if (!iterations.has_value() || *iterations < 1) {
    std::cerr << "bad --iterations '" << args.Get("iterations") << "' (expected a positive integer)\n";
    return 2;
  }
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(*model), *iterations);
  const TraceValidation validation = trace.Validate();
  std::cout << StrFormat("collected %zu events (%.1f ms, %s)\n", trace.size(),
                         ToMs(trace.makespan()), validation.Summary().c_str());
  const std::string out = args.Get("out", "profile.ddtrace");
  if (!WriteTraceFile(trace, out)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << "\n";
  const std::string chrome = args.Get("chrome");
  if (!chrome.empty()) {
    if (!WriteChromeTraceFile(trace, chrome)) {
      std::cerr << "cannot write " << chrome << "\n";
      return 1;
    }
    std::cout << "wrote " << chrome << "\n";
  }
  return validation.ok() ? 0 : 1;
}

// `daydream import`: one-shot conversion from a real-profiler dump to the
// native format, so the rest of the toolchain (and older builds) only ever
// sees .ddtrace. The analysis verbs can also ingest directly via --format.
int CmdImport(const Args& args) {
  const std::string in = args.Get("in");
  if (in.empty()) {
    std::cerr << "--in is required\n";
    return 2;
  }
  const std::string format_text = args.Get("format");
  const std::optional<TraceFormat> format = ParseTraceFormat(format_text);
  if (!format.has_value()) {
    std::cerr << "bad --format '" << format_text << "' (expected cupti, chrome or ddtrace)\n";
    return 2;
  }
  std::string error;
  std::optional<Trace> trace;
  if (*format == TraceFormat::kCupti) {
    CuptiImportStats stats;
    trace = ImportCuptiTraceFile(in, &error, &stats);
    if (trace.has_value()) {
      std::cout << StrFormat(
          "imported %llu records -> %llu events (%llu correlation pairs matched)\n",
          static_cast<unsigned long long>(stats.records),
          static_cast<unsigned long long>(stats.events),
          static_cast<unsigned long long>(stats.matched));
      if (stats.unmatched_gpu + stats.unmatched_launch + stats.duplicate_gpu +
              stats.duplicate_launch >
          0) {
        std::cout << StrFormat(
            "correlation repairs: %llu unmatched GPU, %llu unmatched launch, "
            "%llu duplicate GPU, %llu duplicate launch\n",
            static_cast<unsigned long long>(stats.unmatched_gpu),
            static_cast<unsigned long long>(stats.unmatched_launch),
            static_cast<unsigned long long>(stats.duplicate_gpu),
            static_cast<unsigned long long>(stats.duplicate_launch));
      }
    }
  } else if (*format == TraceFormat::kChrome) {
    ChromeImportStats stats;
    trace = ImportChromeTraceFile(in, &error, &stats);
    if (trace.has_value()) {
      std::cout << StrFormat("imported %llu events, %llu gradient rows (%llu rows skipped)\n",
                             static_cast<unsigned long long>(stats.events),
                             static_cast<unsigned long long>(stats.gradients),
                             static_cast<unsigned long long>(stats.skipped_rows));
    }
  } else {
    trace = ReadTraceFileAs(in, *format, &error);
  }
  if (!trace.has_value()) {
    std::cerr << "cannot import " << in << ": " << error << "\n";
    return 1;
  }
  const TraceValidation validation = trace->Validate();
  std::cout << StrFormat("%zu events (%.1f ms, %s)\n", trace->size(), ToMs(trace->makespan()),
                         validation.Summary().c_str());
  const std::string out = args.Get("out", "imported.ddtrace");
  if (!WriteTraceFile(*trace, out)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << out << "\n";
  return validation.ok() ? 0 : 1;
}

std::optional<Trace> LoadTrace(const Args& args) {
  const std::string path = args.Get("trace");
  if (path.empty()) {
    std::cerr << "--trace is required\n";
    return std::nullopt;
  }
  const std::string format_text = args.Get("format", "ddtrace");
  const std::optional<TraceFormat> format = ParseTraceFormat(format_text);
  if (!format.has_value()) {
    std::cerr << "bad --format '" << format_text << "' (expected ddtrace, cupti or chrome)\n";
    return std::nullopt;
  }
  std::string error;
  std::optional<Trace> trace = ReadTraceFileAs(path, *format, &error);
  if (!trace.has_value()) {
    std::cerr << "cannot read trace from " << path << ": " << error << "\n";
    return std::nullopt;
  }
  if (trace->empty()) {
    std::cerr << "trace " << path
              << " contains no events; nothing to analyze (re-run `daydream collect`?)\n";
    return std::nullopt;
  }
  return trace;
}

// Loads the trace and opens the in-process TraceSession every analysis verb
// queries (the single-client special case of `daydream serve`).
std::shared_ptr<TraceSession> LoadSession(const Args& args) {
  std::optional<Trace> trace = LoadTrace(args);
  if (!trace.has_value()) {
    return nullptr;
  }
  std::string error;
  std::shared_ptr<TraceSession> session =
      TraceSession::Create(std::move(*trace), SessionOptions{}, &error);
  if (session == nullptr) {
    std::cerr << error << "\n";
  }
  return session;
}

// Writes `body` to the --json FILE, if one was given. False (after a
// diagnostic) when the file cannot be written.
bool WriteJsonFlag(const Args& args, const std::string& body, const char* lead = "") {
  const std::string path = args.Get("json");
  if (path.empty()) {
    return true;
  }
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << body;
  std::cout << lead << "wrote " << path << "\n";
  return true;
}

int CmdReport(const Args& args) {
  const std::shared_ptr<TraceSession> session = LoadSession(args);
  if (session == nullptr) {
    return 2;
  }
  std::cout << session->ReportText();
  return 0;
}

int CmdPredict(const Args& args) {
  const std::shared_ptr<TraceSession> session = LoadSession(args);
  if (session == nullptr) {
    return 2;
  }
  WhatIfRequest request;
  std::string error;
  if (!ParseWhatIfRequest(args, &request, &error)) {
    std::cerr << error << "\n";
    return 2;
  }

  if (request.what_if == "p3") {
    TimeNs predicted = 0;
    if (session->PredictP3(request, &predicted, &error) != SessionStatus::kOk) {
      std::cerr << error << "\n";
      return 2;
    }
    std::cout << StrFormat("P3 predicted steady-state iteration: %.1f ms\n", ToMs(predicted));
    // The field names of the serve verb's p3 response.
    const std::string json = StrFormat(
        "{\n"
        "  \"what_if\": \"p3\",\n"
        "  \"p3_iteration_ms\": %.3f\n"
        "}\n",
        ToMs(predicted));
    return WriteJsonFlag(args, json) ? 0 : 1;
  }

  PredictOutcome outcome;
  switch (session->Predict(request, &outcome, &error)) {
    case SessionStatus::kOk:
      break;
    case SessionStatus::kUnknownWhatIf:
      std::cerr << "unknown --what-if '" << request.what_if << "'\n";
      return Usage();
    case SessionStatus::kBadRequest:
      std::cerr << error << "\n";
      return 2;
    case SessionStatus::kLintFailed:
      std::cerr << error;
      return 1;
    case SessionStatus::kDeadlineExceeded:
    case SessionStatus::kUnavailable:
      // The CLI passes no deadline and arms no faults; reachable only with
      // DAYDREAM_FAULTS set in the environment.
      std::cerr << error << "\n";
      return 2;
  }
  const PredictionResult& r = outcome.prediction;
  std::cout << StrFormat(
      "baseline (simulated): %.1f ms\n"
      "predicted with '%s': %.1f ms (%+.1f%%)\n",
      ToMs(r.baseline), request.what_if.c_str(), ToMs(r.predicted), -r.SpeedupPct());
  const std::string json = StrFormat(
      "{\n"
      "  \"what_if\": \"%s\",\n"
      "  \"baseline_ms\": %.3f,\n"
      "  \"predicted_ms\": %.3f,\n"
      "  \"speedup_pct\": %.2f,\n"
      "  \"speedup_ratio\": %.3f\n"
      "}\n",
      JsonEscape(request.what_if).c_str(), ToMs(r.baseline), ToMs(r.predicted), r.SpeedupPct(),
      r.SpeedupRatio());
  return WriteJsonFlag(args, json) ? 0 : 1;
}

// `daydream lint`: the GraphLint catalog as a standalone verb. Lints the
// trace's dependency graph (optionally after a --what-if transform) plus the
// compiled simulation plan against it. Exit codes: 0 clean, 1 findings
// (warnings count only under --strict), 2 usage/load errors.
int CmdLint(const Args& args) {
  const std::shared_ptr<TraceSession> session = LoadSession(args);
  if (session == nullptr) {
    return 2;
  }
  const std::string what_if = args.Get("what-if");
  WhatIfRequest request;
  std::string error;
  if (!what_if.empty() && !ParseWhatIfRequest(args, &request, &error)) {
    std::cerr << error << "\n";
    return 2;
  }

  LintReport report;
  bool plan_passes_run = false;
  switch (session->Lint(what_if.empty() ? nullptr : &request, &report, &plan_passes_run,
                        &error)) {
    case SessionStatus::kOk:
      break;
    case SessionStatus::kUnknownWhatIf:
      std::cerr << "cannot lint --what-if '" << what_if
                << "' (not a graph transform; see `daydream predict`)\n";
      return 2;
    case SessionStatus::kBadRequest:
    case SessionStatus::kLintFailed:
    case SessionStatus::kDeadlineExceeded:
    case SessionStatus::kUnavailable:
      std::cerr << error << "\n";
      return 2;
  }
  if (!plan_passes_run) {
    std::cout << "plan passes skipped: graph lint found errors\n";
  }

  std::cout << report.ToString();
  if (!WriteJsonFlag(args, report.ToJson())) {
    return 1;
  }
  if (report.errors() > 0) {
    return 1;
  }
  if (args.Has("strict") && report.warnings() > 0) {
    return 1;
  }
  return 0;
}

int CmdSweep(const Args& args) {
  const std::shared_ptr<TraceSession> session = LoadSession(args);
  if (session == nullptr) {
    return 2;
  }
  std::vector<SweepCase> cases;
  SweepOptions options;
  std::string error;
  if (!ParseSweepRequest(args, session->trace(), &cases, &options, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  std::vector<SweepOutcome> outcomes = session->Sweep(cases, options);
  RankBySpeedup(&outcomes);

  std::cout << StrFormat("baseline (simulated): %.1f ms — %zu what-if cases\n\n",
                         ToMs(session->daydream().BaselineSimTime()), outcomes.size());
  TablePrinter table({"rank", "what-if", "predicted(ms)", "speedup(%)", "ratio", "tasks"});
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    table.AddRow({StrFormat("%zu", i + 1), o.name, StrFormat("%.1f", ToMs(o.prediction.predicted)),
                  StrFormat("%+.1f", o.prediction.SpeedupPct()),
                  StrFormat("%.2f", o.prediction.SpeedupRatio()), StrFormat("%d", o.tasks)});
  }
  table.Print(std::cout);

  const std::string csv = args.Get("csv");
  if (!csv.empty()) {
    if (!WriteSweepCsv(outcomes, csv)) {
      std::cerr << "cannot write " << csv << "\n";
      return 1;
    }
    std::cout << "\nwrote " << csv << "\n";
  }
  return WriteJsonFlag(args, SweepReportJson(outcomes), "\n") ? 0 : 1;
}

int CmdServe(const Args& args) {
  ServeOptions options;
  const std::optional<int> jobs = ParseInt(args.Get("jobs", "4"));
  if (!jobs.has_value() || *jobs < 1) {
    std::cerr << "bad --jobs '" << args.Get("jobs") << "' (expected a positive integer)\n";
    return 2;
  }
  options.workers = *jobs;
  const std::optional<int> sim_jobs = ParseInt(args.Get("sim-jobs", "1"));
  if (!sim_jobs.has_value() || *sim_jobs < 1) {
    std::cerr << "bad --sim-jobs '" << args.Get("sim-jobs")
              << "' (expected a positive integer)\n";
    return 2;
  }
  options.sim_jobs = *sim_jobs;
  // Admission-control knobs; the defaults live in ServeLimits and show up in
  // the `stats` verb. Zero disables a bound (see docs/serve.md).
  struct IntKnob {
    const char* flag;
    int minimum;
    int* target;
  };
  int max_sessions = static_cast<int>(options.limits.max_sessions);
  int max_resident_mb = 0;
  int max_line_kib = static_cast<int>(options.limits.max_line_bytes / 1024);
  const IntKnob knobs[] = {
      {"max-queue", 0, &options.limits.max_queue},
      {"request-timeout-ms", 0, &options.limits.request_timeout_ms},
      {"max-connections", 0, &options.limits.max_connections},
      {"max-sessions", 0, &max_sessions},
      {"max-resident-mb", 0, &max_resident_mb},
      {"max-line-kib", 0, &max_line_kib},
  };
  for (const IntKnob& knob : knobs) {
    if (!args.Has(knob.flag)) {
      continue;
    }
    const std::optional<int> value = ParseInt(args.Get(knob.flag));
    if (!value.has_value() || *value < knob.minimum) {
      std::cerr << "bad --" << knob.flag << " '" << args.Get(knob.flag)
                << "' (expected an integer >= " << knob.minimum << ")\n";
      return 2;
    }
    *knob.target = *value;
  }
  options.limits.max_sessions = static_cast<size_t>(max_sessions);
  options.limits.max_resident_bytes = static_cast<size_t>(max_resident_mb) * kMiB;
  options.limits.max_line_bytes = static_cast<size_t>(max_line_kib) * 1024;
  // The daemon proper handles SIGINT/SIGTERM as a graceful drain; in-process
  // tests drive the transports without touching process signal state.
  options.install_signal_handlers = true;
  const std::string port_text = args.Get("port");
  if (port_text.empty()) {
    return RunServeStdio(std::cin, std::cout, options);
  }
  const std::optional<int> port = ParseInt(port_text);
  if (!port.has_value() || *port < 0 || *port > 65535) {
    std::cerr << "bad --port '" << port_text << "' (expected 0..65535; 0 picks a free port)\n";
    return 2;
  }
  return RunServeTcp(*port, options);
}

int CmdVersion(const Args& args) {
  if (args.Has("json")) {
    std::cout << DaydreamVersionJson() << "\n";
    return 0;
  }
  std::cout << "daydream " << DaydreamVersionString() << "\n"
            << "serve protocol: v" << kServeProtocolVersion << "\n"
            << "trace schema: " << kTraceSchemaVersion << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << "error: " << args.error << "\n";
    return Usage();
  }
  if (args.command == "models") {
    return CmdModels();
  }
  if (args.command == "collect") {
    return CmdCollect(args);
  }
  if (args.command == "import") {
    return CmdImport(args);
  }
  if (args.command == "report") {
    return CmdReport(args);
  }
  if (args.command == "predict") {
    return CmdPredict(args);
  }
  if (args.command == "lint") {
    return CmdLint(args);
  }
  if (args.command == "sweep") {
    return CmdSweep(args);
  }
  if (args.command == "serve") {
    return CmdServe(args);
  }
  if (args.command == "version") {
    return CmdVersion(args);
  }
  if (args.command.empty()) {
    return Usage();
  }
  // An attempted-but-unknown verb names itself and the valid verbs rather
  // than drowning the typo in the full usage text.
  std::cerr << UnknownCommandMessage(args.command) << "\n";
  return 2;
}

}  // namespace
}  // namespace daydream

int main(int argc, char** argv) { return daydream::Main(argc, argv); }
