// Seeded workload plans for the end-to-end benchmark: which questions the
// cold-predict loop asks, which requests the warm-serve clients send, and the
// sweep matrix. Everything a run feeds the program is derived from the seed
// here, so two runs with one seed see the same inputs (plan_selftest checks
// it).
#ifndef E2EBENCH_PLAN_H_
#define E2EBENCH_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/models/model_zoo.h"
#include "src/trace/trace_io.h"

namespace e2ebench {

// One what-if as the flag map `daydream predict` and the serve protocol take
// (keys without the leading dashes: what-if, cluster, gbps, pipeline-stages,
// schedule). The in-process paths parse it with ParseWhatIfRequest, the serve
// client lowers it to request fields, so both ask the same question.
struct WhatIf {
  std::map<std::string, std::string> flags;

  const std::string& name() const { return flags.at("what-if"); }
  // Stable key, e.g. "distributed:4x2:25" or "pipeline:4:gpipe".
  std::string Key() const;
};

WhatIf SimpleWhatIf(const std::string& name);
WhatIf Distributed(const std::string& cluster, const std::string& gbps);
WhatIf Pipeline(int stages, const std::string& schedule);

// The six paper models (Table 2) in zoo order.
std::vector<daydream::ModelId> PaperModels();

// Synthetic-executor noise salt for a seed: traces and ground truth of one
// seed share it.
std::string SeedSalt(uint64_t seed);

// A seed kept out of every tuning run of this benchmark. A claimed gain is
// confirmed on it after the change is written (README.md).
inline constexpr uint64_t kHeldOutSeed = 7919;

// ---- cold-predict ----

struct Question {
  daydream::ModelId model;
  WhatIf what_if;
  daydream::TraceFormat format;
};

// The what-if axis: the six single-GPU what-ifs, distributed at a few
// cluster/Gbps points and pipeline at a few stage counts.
std::vector<WhatIf> ColdWhatIfs();

// Questions in one pass: models × what-ifs × formats.
size_t ColdPassSize();

// `count` questions: back-to-back passes over the full model × what-if ×
// format matrix, each pass in its own seeded order. Every prefix of whole
// passes therefore holds the same multiset of questions for every seed.
std::vector<Question> ColdPredictQuestions(uint64_t seed, size_t count);

// ---- warm-serve ----

enum class RequestKind { kPredict, kStats, kReport, kLint };

struct Request {
  RequestKind kind = RequestKind::kPredict;
  int session = 0;  // index into WarmModels()
  WhatIf what_if;   // predict only
  bool hot = false; // predict: one of the session's hot signatures
};

// The five models whose sessions the daemon serves.
std::vector<daydream::ModelId> WarmModels();

// Hot signatures every session sees most of the time: the six single-GPU
// what-ifs plus one distributed config.
std::vector<WhatIf> WarmHotWhatIfs();

// The long tail of distributed cluster × Gbps configs. Sized so hot plus
// tail signatures exceed the default 64-entry transform and plan cache.
std::vector<WhatIf> WarmTailWhatIfs();

// Request `index` of the seeded stream (counter-based, so both client
// connections can draw from one shared counter): about 90% hot predicts,
// about 9.5% tail predicts, and a small share of stats, report and lint.
Request WarmServeRequest(uint64_t seed, uint64_t index);

// ---- sweep ----

// Iterations in the sweep workload's BERT_Large trace (~8.7e4 tasks).
inline constexpr int kSweepIterations = 6;

struct SweepMatrix {
  std::vector<std::string> clusters;  // "MxG"
  std::vector<std::string> gbps;
  std::vector<int> pipeline_stages;   // both schedules each
};

// Standard what-ifs + clusters × bandwidths + stages × schedules (27 cases).
SweepMatrix StandardSweepMatrix();

// The single what-if a sweep case name denotes (for cross-checks against
// the predict paths), e.g. "distributed 4x2 @ 25Gbps" -> distributed:4x2:25.
std::vector<WhatIf> SweepWhatIfs(const SweepMatrix& matrix);

}  // namespace e2ebench

#endif  // E2EBENCH_PLAN_H_
