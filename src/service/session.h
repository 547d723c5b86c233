// TraceSession: the load-once / query-many lifecycle behind the prediction
// service.
//
// Every `daydream` CLI invocation used to re-read the trace, rebuild the
// dependency graph and recompile SimPlans from scratch. A TraceSession does
// that work exactly once — trace, built graph, baseline plan and baseline
// simulation — and then answers an arbitrary number of
// predict/sweep/lint queries against it:
//
//   - Predict serves a WhatIfRequest from one LRU cache keyed on the request
//     signature. An entry holds only the compiled plan: a repeated query is a
//     lookup + plan dispatch. A miss resolves the request (ResolveWhatIf,
//     src/runtime/sweep.h), builds the transformed graph, plans it and drops
//     the graph. The plan is a Retime over any cached plan with the same
//     structure stamp — one structure block per what-if family (all
//     multi-GPU `distributed` configs share one; timing-only what-ifs share
//     the baseline's) — and a full CSR compile only for a new structure.
//   - PredictP3 answers the p3 what-if, which is not a graph transform (it
//     reports the steady-state parameter-server iteration).
//   - Sweep runs a case matrix through SweepRunner over this session's shared
//     Daydream instance.
//   - Lint runs the GraphLint catalog over the session graph (optionally
//     after a what-if transform) plus the compiled plan.
//
// All entry points are thread-safe: the RequestExecutor drives one session
// from many client threads, and the in-process CLI path is the single-client
// special case of the same API. Sessions are addressed by handle through the
// SessionManager (the `daydream serve` session table).
#ifndef SRC_SERVICE_SESSION_H_
#define SRC_SERVICE_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/graph_lint.h"
#include "src/core/predictor.h"
#include "src/models/model_zoo.h"
#include "src/runtime/sweep.h"
#include "src/util/deadline.h"

namespace daydream {

struct PredictOutcome {
  PredictionResult prediction;
  int tasks = 0;            // alive tasks in the transformed graph
  bool plan_cache_hit = false;  // served straight from the session's cache
};

// The plan side of the session cache. A hit or miss is counted once per
// predict that reaches its plan (after the transform, the deadline check and
// the `validate` lint).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  // Evicted cache entries.
  uint64_t evictions = 0;
  // How the misses were filled: Retime over a cached or baseline plan with
  // the same structure vs a full CSR compile.
  uint64_t retimes = 0;
  uint64_t compiles = 0;
};

// How a session call failed; the CLI maps these onto its historical exit
// codes (unknown what-if -> usage, lint findings -> 1, the rest -> 2).
// kDeadlineExceeded: the request's Deadline expired at a cooperative
// cancellation point. kUnavailable: an armed fault site (src/util/fault.h)
// failed the operation — the graceful-degradation path the chaos suite
// drives.
enum class SessionStatus {
  kOk,
  kUnknownWhatIf,
  kBadRequest,
  kLintFailed,
  kDeadlineExceeded,
  kUnavailable,
};

struct SessionOptions {
  // Bounds the session's signature-keyed plan cache.
  size_t plan_cache_capacity = 64;
};

class TraceSession {
 public:
  // Builds the load-once state. Returns nullptr with *error set when the
  // trace is empty or produces a graph that fails structural lint — the
  // daemon must refuse bad input with an envelope, never abort.
  static std::shared_ptr<TraceSession> Create(Trace trace,
                                              SessionOptions options = SessionOptions{},
                                              std::string* error = nullptr);

  const Trace& trace() const { return daydream_.trace(); }
  const Daydream& daydream() const { return daydream_; }

  // Resolves request.what_if to a graph transform through ResolveWhatIf with
  // this session's model graph (p3 is not a graph transform — it reports its
  // own metric; see PredictP3).
  SessionStatus ResolveTransform(const WhatIfRequest& request,
                                 std::function<void(DependencyGraph*)>* transform,
                                 std::string* error) const;

  // One what-if prediction with warm-plan reuse (see file comment). The
  // request is resolved through ResolveTransform only on a cache miss or a
  // `validate` request (which lints a fresh transform, then dispatches the
  // cached plan on a hit).
  // `deadline` is checked between the pipeline's stages (after the transform,
  // after the compile, between shard horizons when the dispatch is sharded):
  // an expired budget returns kDeadlineExceeded instead of finishing.
  SessionStatus Predict(const WhatIfRequest& request, PredictOutcome* outcome,
                        std::string* error, const Deadline& deadline = Deadline());

  // The p3 what-if: the predicted steady-state parameter-server iteration
  // (PredictPsIterationTime). kBadRequest, never an abort, when the trace's
  // model is not in the zoo or the trace is not a 2-iteration profile.
  SessionStatus PredictP3(const WhatIfRequest& request, TimeNs* iteration,
                          std::string* error) const;

  // The sweep matrix over this session's shared Daydream. When
  // options.deadline expires mid-matrix the runner stops claiming cases and
  // sets *deadline_exceeded (remaining outcomes are left blank).
  std::vector<SweepOutcome> Sweep(const std::vector<SweepCase>& cases,
                                  const SweepOptions& options,
                                  bool* deadline_exceeded = nullptr) const;

  // GraphLint catalog over the session graph — after `request`'s transform
  // when non-null — plus the compiled plan when the graph passes structural
  // lint (*plan_passes_run records whether it did).
  SessionStatus Lint(const WhatIfRequest* request, LintReport* report, bool* plan_passes_run,
                     std::string* error) const;

  // The `daydream report` analyses (breakdown, critical path, hottest
  // layers), verbatim.
  std::string ReportText() const;

  PlanCacheStats plan_cache_stats() const;
  size_t plan_cache_size() const;

  // Estimated resident footprint (trace events + alive graph tasks), the
  // quantity SessionManager's max_resident_bytes quota sums. An estimate on
  // purpose: eviction needs a stable relative ordering, not an allocator
  // audit.
  size_t resident_bytes() const { return resident_bytes_; }

 private:
  struct CacheEntry {
    std::shared_ptr<const SimPlan> plan;
    uint64_t sequence = 0;  // LRU clock
  };

  TraceSession(Trace trace, DependencyGraph graph, SessionOptions options);

  const SessionOptions options_;
  Daydream daydream_;
  std::optional<ModelId> model_id_;
  // Layer-structured what-ifs need the model graph; built once, shared by
  // every resolved transform (read-only, as in BuildStandardSweep).
  std::shared_ptr<const ModelGraph> model_graph_;

  size_t resident_bytes_ = 0;
  mutable std::mutex cache_mu_;
  std::map<std::string, CacheEntry> cache_;  // signature -> entry
  uint64_t cache_sequence_ = 0;
  PlanCacheStats stats_;
};

// Resource quotas for the session table; zero disables a bound.
struct SessionManagerLimits {
  size_t max_sessions = 0;
  size_t max_resident_bytes = 0;
};

// The serve session table: handles ("s1", "s2", ...) -> sessions.
// Thread-safe; a session closed while requests are in flight stays alive
// until the last shared_ptr drops. Opening a session past the quotas evicts
// the least-recently-used session (Get bumps recency); an evicted handle
// answers `unknown_session` afterwards — clients re-`open`, which is cheap
// compared to wedging the daemon on resident traces nobody queries.
class SessionManager {
 public:
  SessionManager() = default;
  explicit SessionManager(SessionManagerLimits limits) : limits_(limits) {}

  std::string Open(std::shared_ptr<TraceSession> session);
  std::shared_ptr<TraceSession> Get(const std::string& handle) const;
  bool Close(const std::string& handle);
  size_t size() const;
  // Handles in insertion order (stable listing for the `sessions` verb).
  std::vector<std::string> Handles() const;

  uint64_t evicted() const;        // sessions dropped by quota eviction
  size_t resident_bytes() const;   // summed session estimates

 private:
  struct Entry {
    std::string handle;
    std::shared_ptr<TraceSession> session;
    uint64_t last_use = 0;  // LRU clock; bumped by Get
  };

  // Drops LRU entries until the quotas hold, never evicting `keep` (the
  // just-opened session must survive its own admission). Called under mu_.
  void EnforceQuotasLocked(const std::string& keep);

  const SessionManagerLimits limits_;
  mutable std::mutex mu_;
  // Insertion-ordered (handle "s10" must list after "s9", which a map keyed
  // on the handle string would not give); session counts are small.
  mutable std::vector<Entry> sessions_;
  uint64_t next_handle_ = 0;
  mutable uint64_t use_clock_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace daydream

#endif  // SRC_SERVICE_SESSION_H_
