// Shared pieces of the benchmark harness: options, the result record each
// workload fills, the in-process cold path, ground truth and small helpers.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "e2ebench/plan.h"
#include "e2ebench/span.h"
#include "src/service/session.h"
#include "src/trace/trace_io.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  std::string dir;        // generated inputs (written by `setup`)
  double seconds = 10;    // measured time
  bool trace = false;     // the traced (stage-decomposed) run
  std::string daydream;   // the shipped CLI binary (warm-serve daemon)
  std::string self;       // this binary (re-exec'd for process-level RSS)
  std::string spans_out;  // where the traced run writes its spans
};

// What one workload run reports. `e2e` and `layers` hold metric values by
// their BENCHMARK.json names; `samples` the sample count behind a value.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // every failed check, in words
  std::vector<double> prep_s;       // repeated in-process set-up times
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, int64_t> samples;
  std::vector<std::string> accuracy_rows;  // JSON objects
  std::map<std::string, std::string> notes;

  void Fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
  std::string ToJson() const;
};

int RunColdPredict(const Options& options, Result* result);
int RunWarmServe(const Options& options, Result* result);
int RunSweep(const Options& options, Result* result);

// ---- set-up ----

// Generates the workload's inputs into options.dir: traces in every format
// the workload reads, plus ground_truth.tsv for its accuracy questions.
int Setup(const Options& options);

std::string TracePath(const std::string& dir, daydream::ModelId model,
                      daydream::TraceFormat format);
std::string SweepTracePath(const std::string& dir);

// One accuracy question: a what-if the synthetic executor (src/runtime) also
// implements, with its executed iteration time.
struct GroundTruth {
  daydream::ModelId model;
  std::string key;          // WhatIf::Key()
  double ground_truth_ms = 0;
  double run_ms = 0;        // host time RunGroundTruth took
};
std::vector<GroundTruth> ReadGroundTruth(const std::string& dir);

// Records per-question error against the synthetic executor and the
// accuracy_err_pct_{mean,max} metrics. `predicted_ms` maps (model name,
// WhatIf key) to the workload's answer.
void ReportAccuracy(const std::vector<GroundTruth>& truth,
                    const std::map<std::pair<std::string, std::string>, double>& predicted_ms,
                    Result* result);

// ---- the library paths the workloads time ----

// Builds the session-layer request exactly as `daydream predict` would from
// the same flags.
bool MakeRequest(const WhatIf& what_if, daydream::WhatIfRequest* request, std::string* error);

// The cold path one `daydream predict` invocation takes: read the trace,
// open a session, predict. Returns nullopt (with *error) on any failure.
std::optional<daydream::TimeNs> ColdPredict(const std::string& path, daydream::TraceFormat format,
                                            const WhatIf& what_if, std::string* error,
                                            double* session_open_ms = nullptr);

// What TraceSession::Create builds, rebuilt from the layers' public calls in
// spans: BuildDependencyGraph, GraphLint::LintStructure, the Daydream
// constructor (baseline plan), LayerMap::Compute and BuildModel.
struct OpenedTrace {
  std::optional<daydream::Daydream> daydream;
  std::shared_ptr<const daydream::ModelGraph> model;
};
bool DecomposedOpen(daydream::Trace trace, SpanLog* log, int64_t request, OpenedTrace* opened,
                    std::string* error);

// The same question decomposed into the layers' public calls, each in a span
// (trace -> core.graph -> models -> core.transform -> core.plan ->
// core.dispatch). The answer must equal ColdPredict's.
std::optional<daydream::TimeNs> DecomposedColdPredict(const std::string& path,
                                                      daydream::TraceFormat format,
                                                      const WhatIf& what_if, SpanLog* log,
                                                      int64_t request, int64_t* events,
                                                      std::string* error);

// Clone + transform + lint + compile-or-retime of one resolved what-if over a
// session's baseline, in spans. Shared by the warm-serve and sweep
// decompositions. Returns null when the transform output fails lint.
std::shared_ptr<const daydream::SimPlan> DecomposedPlan(
    const daydream::TraceSession& session, const daydream::WhatIfRequest& request,
    SpanLog* log, int64_t request_id, std::string* error);

// SimPlan::Run in a span; records the plan size for tasks_per_s.
daydream::TimeNs DecomposedDispatch(const daydream::SimPlan& plan, SpanLog* log,
                                    int64_t request_id);

// Per-layer metrics from the traced run's spans: medians of self time (plus
// sample counts) for every span name, the plan retime share and the dispatch
// rate.
void ReportSpans(const std::vector<const SpanLog*>& logs, Result* result);

// Writes the spans to `path` (JSON lines, one log per thread).
void WriteSpans(const std::vector<const SpanLog*>& logs, const std::string& path);

// ---- helpers ----

double Quantile(std::vector<double> xs, double q);  // linear interpolation
double Median(const std::vector<double>& xs);

// This host's cores do not all run at one speed at one time, and the kernel
// keeps a busy thread on one core, so a whole run would measure whichever
// core it landed on. Moving a thread round-robin over the allowed CPUs makes
// every run sample every core alike. Threads that rotate together start
// `part` of `parts` of the way round, so they stay on different CPUs.
class CpuRotation {
 public:
  explicit CpuRotation(size_t part = 0, size_t parts = 1);
  ~CpuRotation();  // restores the thread's affinity
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Moves the calling thread to the next CPU.
  void Next();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double ElapsedS(int64_t since_ns);
std::string FormatMs(daydream::TimeNs t);  // the serve protocol's "%.3f"
std::string JsonString(const std::string& text);
// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();
// Runs argv to completion; returns the child's peak RSS in MiB (negative on
// failure).
double RunChildPeakRssMb(const std::vector<std::string>& argv);

// Fills the latency/throughput metrics shared by every workload.
void ReportLatency(const std::vector<double>& latency_ms, double elapsed_s, int64_t units,
                   Result* result);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
