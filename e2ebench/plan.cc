#include "e2ebench/plan.h"

#include <algorithm>

#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace e2ebench {

using daydream::ModelId;
using daydream::Rng;
using daydream::StrFormat;
using daydream::TraceFormat;

std::string WhatIf::Key() const {
  std::string key = name();
  for (const char* flag : {"cluster", "gbps", "pipeline-stages", "schedule"}) {
    const auto it = flags.find(flag);
    if (it != flags.end()) {
      key += ":" + it->second;
    }
  }
  return key;
}

WhatIf SimpleWhatIf(const std::string& name) { return WhatIf{{{"what-if", name}}}; }

WhatIf Distributed(const std::string& cluster, const std::string& gbps) {
  return WhatIf{{{"what-if", "distributed"}, {"cluster", cluster}, {"gbps", gbps}}};
}

WhatIf Pipeline(int stages, const std::string& schedule) {
  return WhatIf{{{"what-if", "pipeline"},
                 {"pipeline-stages", StrFormat("%d", stages)},
                 {"schedule", schedule}}};
}

std::vector<ModelId> PaperModels() { return daydream::PaperModels(); }

std::string SeedSalt(uint64_t seed) {
  return StrFormat("e2ebench-%llu", static_cast<unsigned long long>(seed));
}

namespace {

const char* const kSingleGpuWhatIfs[] = {"amp", "fused_adam", "rbn", "metaflow", "gist", "vdnn"};

// Fisher-Yates with the repo's deterministic generator.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

}  // namespace

std::vector<WhatIf> ColdWhatIfs() {
  std::vector<WhatIf> what_ifs;
  for (const char* name : kSingleGpuWhatIfs) {
    what_ifs.push_back(SimpleWhatIf(name));
  }
  what_ifs.push_back(Distributed("2x1", "10"));
  what_ifs.push_back(Distributed("2x2", "25"));
  what_ifs.push_back(Distributed("4x2", "40"));
  what_ifs.push_back(Pipeline(2, "1f1b"));
  what_ifs.push_back(Pipeline(4, "gpipe"));
  return what_ifs;
}

size_t ColdPassSize() { return PaperModels().size() * ColdWhatIfs().size() * 3; }

std::vector<Question> ColdPredictQuestions(uint64_t seed, size_t count) {
  std::vector<Question> matrix;
  for (ModelId model : PaperModels()) {
    for (const WhatIf& what_if : ColdWhatIfs()) {
      for (TraceFormat format : {TraceFormat::kDdtrace, TraceFormat::kChrome, TraceFormat::kCupti}) {
        matrix.push_back(Question{model, what_if, format});
      }
    }
  }
  Rng rng(StrFormat("e2ebench/cold/%llu", static_cast<unsigned long long>(seed)));
  std::vector<Question> questions;
  questions.reserve(count);
  while (questions.size() < count) {
    std::vector<Question> pass = matrix;
    Shuffle(&pass, &rng);
    for (Question& q : pass) {
      if (questions.size() == count) {
        break;
      }
      questions.push_back(std::move(q));
    }
  }
  return questions;
}

std::vector<ModelId> WarmModels() {
  return {ModelId::kResNet50, ModelId::kVgg19, ModelId::kDenseNet121, ModelId::kGnmt,
          ModelId::kBertBase};
}

std::vector<WhatIf> WarmHotWhatIfs() {
  std::vector<WhatIf> what_ifs;
  for (const char* name : kSingleGpuWhatIfs) {
    what_ifs.push_back(SimpleWhatIf(name));
  }
  what_ifs.push_back(Distributed("4x2", "25"));
  return what_ifs;
}

std::vector<WhatIf> WarmTailWhatIfs() {
  std::vector<WhatIf> what_ifs;
  for (int machines : {2, 3, 4, 6, 8}) {
    for (int gpus : {1, 2, 4}) {
      for (const char* gbps : {"10", "20", "25", "40", "50", "100"}) {
        if (machines == 4 && gpus == 2 && std::string(gbps) == "25") {
          continue;  // the hot config
        }
        what_ifs.push_back(Distributed(StrFormat("%dx%d", machines, gpus), gbps));
      }
    }
  }
  return what_ifs;  // 89 configs: 7 hot + 89 tail > 64 per session
}

Request WarmServeRequest(uint64_t seed, uint64_t index) {
  static const std::vector<WhatIf> hot = WarmHotWhatIfs();
  static const std::vector<WhatIf> tail = WarmTailWhatIfs();
  static const size_t sessions = WarmModels().size();
  Rng rng(static_cast<uint64_t>(seed) * 0x9E3779B97F4A7C15ULL ^ (index + 0x632BE59BD9B4E019ULL));
  Request request;
  request.session = static_cast<int>(rng.NextBelow(sessions));
  const double u = rng.NextDouble();
  if (u < 0.0035) {
    request.kind = RequestKind::kStats;
  } else if (u < 0.0045) {
    request.kind = RequestKind::kReport;
  } else if (u < 0.005) {
    request.kind = RequestKind::kLint;
  } else if (u < 0.905) {
    request.hot = true;
    request.what_if = hot[rng.NextBelow(hot.size())];
  } else {
    request.what_if = tail[rng.NextBelow(tail.size())];
  }
  return request;
}

SweepMatrix StandardSweepMatrix() {
  SweepMatrix matrix;
  matrix.clusters = {"2x1", "2x2", "4x2", "4x4", "8x2"};
  matrix.gbps = {"10", "25", "40"};
  matrix.pipeline_stages = {2, 4, 8};
  return matrix;
}

std::vector<WhatIf> SweepWhatIfs(const SweepMatrix& matrix) {
  // Case order of BuildStandardSweep + AppendPipelineSweep: the six
  // single-GPU what-ifs, clusters (outer) × bandwidths, then stages (outer)
  // × {1f1b, gpipe}. Pipeline links ride the first bandwidth.
  std::vector<WhatIf> what_ifs;
  for (const char* name : kSingleGpuWhatIfs) {
    what_ifs.push_back(SimpleWhatIf(name));
  }
  for (const std::string& cluster : matrix.clusters) {
    for (const std::string& gbps : matrix.gbps) {
      what_ifs.push_back(Distributed(cluster, gbps));
    }
  }
  for (int stages : matrix.pipeline_stages) {
    for (const char* schedule : {"1f1b", "gpipe"}) {
      WhatIf what_if = Pipeline(stages, schedule);
      what_if.flags["gbps"] = matrix.gbps.front();
      what_ifs.push_back(what_if);
    }
  }
  return what_ifs;
}

}  // namespace e2ebench
