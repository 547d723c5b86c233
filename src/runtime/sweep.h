// Parallel what-if sweep — "profile once, ask many questions" at full width.
//
// A SweepRunner evaluates a matrix of optimization × cluster configurations
// against one parsed trace. The expensive per-trace work (parsing, dependency
// graph construction, baseline simulation, baseline plan compilation) happens
// exactly once, in the shared Daydream instance. Each sweep case then runs
// Daydream's prediction steps end to end on one worker:
//
//   Daydream::Transform (clone the baseline graph, apply the transformation,
//   lint), then Daydream::Plan — timing-only transformations (duration / gap /
//   priority edits — AMP-style scaling) retime the shared baseline plan
//   instead of recompiling its CSR structure (DependencyGraph::structure_stamp()
//   certifies this). Structural cases compile their own plan each, even when
//   they share one structure (several multi-GPU `distributed` configs); only
//   the serve session cache retimes a family over one cached plan. The clone
//   is released as soon as the plan exists, and the plan is dispatched
//   (RunPlanParallel).
//
// Cases are claimed one at a time from a single ThreadPool sized to the
// thread budget; a sharded dispatch (sim_jobs > 1) nests its shards on the
// same pool, so every core stays busy and cases × shards never exceeds the
// budget (§7.1's workflow: the profile is collected once, and every question
// asked of it is cheap).
//
// This header also holds the one what-if resolver (ResolveWhatIf): sweep
// case construction and the service layer's single predictions map what-if
// names to graph transforms through it.
#ifndef SRC_RUNTIME_SWEEP_H_
#define SRC_RUNTIME_SWEEP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/network_spec.h"
#include "src/core/optimizations/pipeline_transform.h"
#include "src/core/predictor.h"
#include "src/models/model_graph.h"
#include "src/parallel/pipeline.h"
#include "src/util/deadline.h"

namespace daydream {

class ThreadPool;

// One what-if question, as data: the `daydream predict` flags and the serve
// protocol build the same request (tools/cli_args.h ParseWhatIfRequest).
struct WhatIfRequest {
  std::string what_if;       // amp|fused_adam|rbn|metaflow|gist|vdnn|distributed|pipeline
  ClusterConfig cluster;     // distributed
  PipelineWhatIf pipeline;   // pipeline
  bool validate = false;     // full lint catalog over the transformed graph
  // Shards for the plan dispatch (sharded parallel engine; 1 = serial).
  // Consumption-only, like validate: it changes how fast the answer arrives,
  // never the answer, so it must not enter Signature() — requests differing
  // only in sim_jobs share cached transforms and plans.
  int sim_jobs = 1;

  // Canonical cache signature: every parameter that shapes the transform.
  std::string Signature() const;
};

// Resolves request.what_if to its graph transform. `trace` supplies the
// gradient metadata distributed what-ifs need; `model` is the model graph of
// the trace's zoo model (null when the model is not in the zoo), which the
// layer-structured what-ifs (rbn, metaflow, gist, vdnn) and pipeline need.
// Returns false with *error set when the name is not a graph transform — p3
// included: it reports its own metric through PredictPsIterationTime.
// Returns true otherwise, with *transform set, or left empty with *error set
// when the what-if needs a null `model`.
bool ResolveWhatIf(const WhatIfRequest& request, const Trace& trace,
                   const std::shared_ptr<const ModelGraph>& model,
                   std::function<void(DependencyGraph*)>* transform, std::string* error);

// One cell of the sweep matrix: a named graph transformation.
struct SweepCase {
  std::string name;
  std::function<void(DependencyGraph*)> transform;
};

struct SweepOutcome {
  std::string name;
  PredictionResult prediction;
  // Alive tasks in the transformed graph (sweep cases can grow the graph —
  // distributed what-ifs insert communication tasks).
  int tasks = 0;
};

struct SweepOptions {
  // Worker threads; 0 = one per hardware thread (at least 1).
  int num_threads = 0;
  // Shards per case simulation (sharded parallel dispatch; 1 = the serial
  // engine). Shards share the case workers' pool, so they add no threads:
  // worth > 1 only when the matrix is narrower than the machine — at full
  // case-width, case-level parallelism already saturates every core.
  int sim_jobs = 1;
  // Strict verification (`daydream sweep --validate`): every transformed
  // graph runs the full GraphLint catalog (timing + smell passes, not just
  // the structural set) and every compiled plan is linted against its graph
  // before dispatch. Catches transform bugs at the case that planted them
  // instead of as a wrong number in the ranking.
  bool validate = false;
  // Wall-clock budget for the whole matrix, checked between cases (a serve
  // request's deadline, threaded through TraceSession::Sweep). Unbounded by
  // default — the CLI and benchmarks run to completion.
  Deadline deadline;
};

class SweepRunner {
 public:
  // Keeps a reference to `daydream` (graph, baseline simulation and baseline
  // plan); the caller must keep it alive for the runner's lifetime. All
  // concurrent access to it is read-only. A pre-built baseline graph without
  // a trace sweeps through Daydream(Trace(), graph).
  explicit SweepRunner(const Daydream& daydream, SweepOptions options = SweepOptions{});

  // Evaluates every case (concurrently when options.num_threads != 1);
  // outcomes are returned in case order. When options.deadline expires the
  // runner stops claiming cases, sets *deadline_exceeded (if non-null), and
  // returns with the unreached outcomes left blank (empty name, zero
  // prediction) — callers that set a deadline must check the flag before
  // trusting the vector.
  std::vector<SweepOutcome> Run(const std::vector<SweepCase>& cases,
                                bool* deadline_exceeded = nullptr) const;

 private:
  // Transform → lint → plan → dispatch for one case; a sharded dispatch
  // runs its shards on `pool`.
  SweepOutcome RunCase(const SweepCase& sweep_case, ThreadPool* pool) const;

  const Daydream& daydream_;
  SweepOptions options_;
};

// The standard sweep matrix for `trace`: framework what-ifs (AMP, fused Adam),
// the layer-structured what-ifs when the trace's model is in the zoo (RBN,
// MetaFlow conv+BN fusion, Gist, vDNN), and one distributed data-parallel
// what-if per cluster configuration. P3 is excluded — it needs a two-iteration
// trace and reports a different metric (steady-state iteration span).
std::vector<SweepCase> BuildStandardSweep(const Trace& trace,
                                          const std::vector<ClusterConfig>& clusters);

// The pipeline-parallel corner of the sweep matrix: stages × schedules at one
// micro-batch count (`daydream sweep --pipeline-stages 2,4 --microbatches 4
// --schedule 1f1b`).
struct PipelineSweepSpec {
  std::vector<int> stages;                       // e.g. {2, 4}
  int microbatches = 4;
  std::vector<PipelineScheduleKind> schedules;   // empty = both kinds
  NetworkSpec network;                           // inter-stage P2P link
};

// Appends one case per stages × schedules cell. Pipeline what-ifs need the
// model graph for activation/parameter sizes, so the trace's model must be in
// the zoo: returns false (appending nothing) when it is not.
bool AppendPipelineSweep(std::vector<SweepCase>* cases, const Trace& trace,
                         const PipelineSweepSpec& spec);

// Sorts outcomes best-first: predicted makespan ascending, ties by name.
void RankBySpeedup(std::vector<SweepOutcome>* outcomes);

// Serialization for the CLI, the serve `sweep` verb and CI artifacts: one
// outcome as a one-line JSON object, and the whole report around it.
std::string SweepOutcomeJson(const SweepOutcome& outcome);
std::string SweepReportJson(const std::vector<SweepOutcome>& outcomes);
bool WriteSweepCsv(const std::vector<SweepOutcome>& outcomes, const std::string& path);

}  // namespace daydream

#endif  // SRC_RUNTIME_SWEEP_H_
