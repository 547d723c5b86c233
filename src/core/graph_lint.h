// GraphLint: a pass-based static verifier for dependency graphs and compiled
// simulation plans.
//
// Daydream's predictions are only as good as the graphs its what-if
// transforms synthesize, and the failure mode is silent: a transform that
// wires an anchor edge backward in time produces a cyclic graph that only
// surfaces as an abort deep inside the sweep (the multi-iteration
// WhatIfGist/WhatIfDistributed bug class). With planners generating thousands
// of candidate graphs per query, malformed candidates must be rejected
// *cheaply* and with diagnostics that say what is broken, where — not just
// "validate failed".
//
// GraphLint runs a catalog of named passes, each detecting one defect class:
//
//   graph passes (GraphLint::LintGraph / LintStructure):
//     edge-integrity      dangling (dead-endpoint), asymmetric, duplicate and
//                         self edges
//     acyclic             dependency cycles, reported with the actual cycle
//                         path (task ids + names), found by iterative DFS
//     thread-sequence     broken intrusive prev/next splices: asymmetric
//                         links, dead tasks still linked, wrong lane field,
//                         stale head/tail, alive-count drift, chain cycles
//     orphan-lane         alive tasks on no lane chain; lanes whose
//                         bookkeeping says they have tasks but whose chain is
//                         empty
//     duration-sanity     negative durations/gaps
//     timestamp-monotone  measured per-thread start times that go backward
//                         along a lane (unmeasured tasks — start == 0, the
//                         transform-inserted shape — are skipped)  [warning]
//     iteration-anchor    edges between measured tasks that point backward
//                         across IterationStarts windows — the exact
//                         cross-iteration anchor bug class PR 5 fixed
//     schedule-smell      feasibility smells: tasks starved behind a cycle,
//                         zero-duration communication carrying priced bytes
//                         [warning]
//
//   plan passes (GraphLint::LintPlan, against the graph the plan claims to
//   represent):
//     plan-stamp          stale structure_stamp / capacity / task-id set —
//                         the plan no longer describes this graph
//     plan-csr            CSR consistency: succ_offset monotone and in
//                         range, pred_count vs successor symmetry,
//                         initial_ready == the zero-indegree set
//     plan-lane           lane table consistency: lane ids in range, dense
//                         per-lane sequences are a grouped permutation, lane
//                         assignment matches the graph
//     plan-timing         SoA duration/gap arrays match the graph's current
//                         timings (detects a missed Retime)
//
//   shard passes (GraphLint::LintShards, against the plan the shard plan was
//   compiled from):
//     shard-partition     shard lane assignment is a disjoint cover of the
//                         plan's lanes; grouped lane lists and per-shard task
//                         counts agree with it
//     shard-edges         cross-shard window entries correspond 1:1 with the
//                         CSR's cross-shard edges (and intra-shard edges have
//                         none); sources match
//     shard-horizon       per-shard window bounds are monotone non-decreasing
//                         and equal the sources' static completion bounds;
//                         the static lower bounds satisfy the longest-path
//                         recurrence over the CSR
//
// Severities: kError findings mean simulation is meaningless or will abort;
// kWarning findings are smells worth surfacing but legal to simulate.
// Entry points:
//   - DependencyGraph::Validate() routes through LintStructure (structural
//     passes only) and reports the first error,
//   - SweepRunner lints every transformed case (full pass set in strict
//     mode — SweepOptions::validate / `daydream sweep --validate`),
//   - `daydream lint` exposes the full catalog on the CLI (--json for
//     machine-readable findings),
//   - planners prune broken candidates via LintGraph().ok().
#ifndef SRC_CORE_GRAPH_LINT_H_
#define SRC_CORE_GRAPH_LINT_H_

#include <string>
#include <vector>

#include "src/core/dependency_graph.h"

namespace daydream {

class ShardPlan;
class SimPlan;

enum class LintSeverity { kWarning, kError };
const char* ToString(LintSeverity severity);

// One defect found by one pass. `tasks` holds the offending task ids — for
// an "acyclic" finding it is the actual cycle path (first task repeated at
// the end); `lane` is the offending execution lane's label when the defect is
// lane-shaped.
struct LintFinding {
  std::string pass;
  LintSeverity severity = LintSeverity::kError;
  std::string message;
  std::vector<TaskId> tasks;
  std::string lane;
};

struct LintOptions {
  // Findings are capped so lint stays cheap and readable on badly broken
  // graphs; LintReport::truncated records that the cap was hit.
  int max_findings = 64;
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::vector<std::string> passes_run;
  bool truncated = false;

  bool ok() const { return num_errors == 0; }
  int errors() const { return num_errors; }
  int warnings() const { return num_warnings; }
  const LintFinding* FirstError() const;

  // "clean, 9 passes" / "3 errors, 1 warning (9 passes)".
  std::string Summary() const;
  // Multi-line human-readable report: one "[severity] pass: message" line per
  // finding plus the summary.
  std::string ToString() const;
  // Machine-readable form for `daydream lint --json` and planner consumers.
  std::string ToJson() const;

  // Maintained by the lint driver; callers only read.
  int num_errors = 0;
  int num_warnings = 0;
};

class GraphLint {
 public:
  // Full pass catalog over a graph.
  static LintReport LintGraph(const DependencyGraph& graph, const LintOptions& options = {});

  // Structural passes only (edge-integrity, acyclic, thread-sequence,
  // orphan-lane, duration-sanity) — the invariant set every consumer of the
  // graph relies on. Backs DependencyGraph::Validate().
  static LintReport LintStructure(const DependencyGraph& graph, const LintOptions& options = {});

  // Plan passes: verifies `plan` against the graph it claims to represent.
  static LintReport LintPlan(const SimPlan& plan, const DependencyGraph& graph,
                             const LintOptions& options = {});

  // Shard passes: verifies a shard plan's partition and window metadata
  // against the plan it was compiled from. Sharded dispatch trusts this
  // metadata unconditionally (the engine indexes owner-partitioned arrays
  // with it), so `--validate` paths run these before a parallel run.
  static LintReport LintShards(const ShardPlan& shards, const LintOptions& options = {});

 private:
  // Finding collector with the max_findings cap; defined in the .cc.
  struct Sink;

  // One static member per pass (members of GraphLint so the friend grants in
  // DependencyGraph / SimPlan cover them; friendship does not extend to
  // nested classes' members).
  static void PassEdgeIntegrity(const DependencyGraph& graph, Sink* sink);
  // Emits the first cycle found (with its path); `starved` receives the
  // number of tasks that can never become ready, 0 when acyclic.
  static void PassAcyclic(const DependencyGraph& graph, Sink* sink, int* starved);
  static void PassThreadSequence(const DependencyGraph& graph, Sink* sink);
  static void PassDurationSanity(const DependencyGraph& graph, Sink* sink);
  static void PassTimestampMonotone(const DependencyGraph& graph, Sink* sink);
  static void PassIterationAnchor(const DependencyGraph& graph, Sink* sink);
  static void PassScheduleSmell(const DependencyGraph& graph, int starved, Sink* sink);
  static void PassPlanStamp(const SimPlan& plan, const DependencyGraph& graph, Sink* sink,
                            bool* stale);
  static void PassPlanCsr(const SimPlan& plan, const DependencyGraph& graph, bool stale,
                          Sink* sink);
  static void PassPlanLane(const SimPlan& plan, const DependencyGraph& graph, bool stale,
                           Sink* sink);
  static void PassPlanTiming(const SimPlan& plan, const DependencyGraph& graph, bool stale,
                             Sink* sink);
  static void PassShardPartition(const ShardPlan& shards, Sink* sink, bool* broken);
  static void PassShardEdges(const ShardPlan& shards, bool broken, Sink* sink);
  static void PassShardHorizon(const ShardPlan& shards, bool broken, Sink* sink);
};

}  // namespace daydream

#endif  // SRC_CORE_GRAPH_LINT_H_
