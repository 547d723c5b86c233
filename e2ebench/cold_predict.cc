// cold-predict: one thread, closed loop, in-process. Each question reads a
// trace file, opens a fresh TraceSession and predicts one what-if — the work
// of one `daydream predict` invocation.
#include <tuple>

#include "e2ebench/cupti_writer.h"
#include "e2ebench/harness.h"
#include "src/trace/import_cupti.h"
#include "src/util/string_util.h"

namespace e2ebench {

using daydream::ModelId;
using daydream::StrFormat;
using daydream::TimeNs;
using daydream::TraceFormat;

namespace {

// More questions than any run can ask; the loop stops on time.
constexpr size_t kMaxQuestions = 200000;

using AnswerKey = std::pair<ModelId, std::string>;  // model, WhatIf::Key()

std::string Describe(const Question& q) {
  return StrFormat("%s %s [%s]", daydream::ModelName(q.model), q.what_if.Key().c_str(),
                   daydream::ToString(q.format));
}

// The CUPTI stream the benchmark wrote reproduces the model's trace exactly,
// and its import repaired no correlation id.
struct CuptiCheck {
  bool exact = false;
  uint64_t unmatched = 0;
};

CuptiCheck CheckCupti(const std::string& dir, ModelId model) {
  CuptiCheck check;
  daydream::CuptiImportStats stats;
  const std::optional<daydream::Trace> imported =
      daydream::ImportCuptiTraceFile(TracePath(dir, model, TraceFormat::kCupti), nullptr, &stats);
  const std::optional<daydream::Trace> original =
      daydream::ReadTraceFile(TracePath(dir, model, TraceFormat::kDdtrace));
  check.exact = imported && original && ExactRoundTrip(*original, *imported);
  check.unmatched =
      stats.unmatched_gpu + stats.unmatched_launch + stats.duplicate_gpu + stats.duplicate_launch;
  return check;
}

}  // namespace

int RunColdPredict(const Options& options, Result* result) {
  const int64_t prep_start = NowNs();
  const std::vector<GroundTruth> truth = ReadGroundTruth(options.dir);
  const std::vector<Question> questions = ColdPredictQuestions(options.seed, kMaxQuestions);
  const size_t pass_size = ColdPassSize();
  result->prep_s.push_back(ElapsedS(prep_start));

  // ---- the measured loop ----
  // Whole passes only, so every run times the same multiset of questions
  // whatever its seed: a pass starts while the previous one's duration still
  // fits the budget. The traced run asks each question twice in a row,
  // untraced and then decomposed into layer calls, so both see the host in
  // the same state.
  std::vector<std::optional<TimeNs>> answers;
  std::vector<double> latency_ms;
  std::vector<double> open_ms;
  std::map<std::string, std::vector<double>> per_question_ms;
  SpanLog log;
  std::optional<CpuRotation> rotation(std::in_place);
  const int64_t start = NowNs();
  double pass_s = 0;
  while (answers.size() + pass_size <= questions.size() &&
         (answers.empty() || ElapsedS(start) + pass_s <= options.seconds)) {
    const int64_t pass_start = NowNs();
    for (size_t i = answers.size(), end = i + pass_size; i < end; ++i) {
      rotation->Next();
      const Question& q = questions[i];
      const std::string path = TracePath(options.dir, q.model, q.format);
      std::string error;
      double session_open_ms = 0;
      const int64_t t0 = NowNs();
      answers.push_back(ColdPredict(path, q.format, q.what_if, &error, &session_open_ms));
      latency_ms.push_back(ElapsedS(t0) * 1e3);
      per_question_ms[Describe(q)].push_back(latency_ms.back());
      open_ms.push_back(session_open_ms);
      ++result->attempted;
      if (!answers.back().has_value()) {
        result->Fail(Describe(q) + ": " + error);
      }
      if (options.trace) {
        int64_t events = 0;
        const std::optional<TimeNs> decomposed = DecomposedColdPredict(
            path, q.format, q.what_if, &log, static_cast<int64_t>(i), &events, &error);
        ++result->attempted;
        if (!decomposed.has_value() || decomposed != answers.back()) {
          result->Fail(Describe(q) + ": decomposed answer differs from TraceSession::Predict " +
                       error);
        }
      }
    }
    pass_s = ElapsedS(pass_start);
    result->notes["cold_pass_s"] += StrFormat("%.3f ", pass_s);
  }
  const double elapsed = ElapsedS(start);
  rotation.reset();
  // The latency quantiles are taken over the matrix of distinct questions,
  // each at its median over the passes, so a slow moment of the host moves
  // one sample of a question and not the quantile.
  std::vector<double> question_ms;
  for (const auto& [question, ms] : per_question_ms) {
    question_ms.push_back(Median(ms));
  }
  ReportLatency(question_ms, elapsed, static_cast<int64_t>(answers.size()), result);
  result->samples["latency_ms"] = static_cast<int64_t>(latency_ms.size());
  result->notes["cold_passes"] = StrFormat("%zu", answers.size() / pass_size);
  result->e2e["peak_rss_mb"] = PeakRssMb();

  // ---- answer checks ----
  // Reference: the ddtrace answer for (model, what-if), computed outside the
  // loop when the loop never asked it.
  std::map<AnswerKey, TimeNs> reference;
  auto reference_for = [&](ModelId model, const WhatIf& what_if) -> std::optional<TimeNs> {
    const AnswerKey key{model, what_if.Key()};
    if (const auto it = reference.find(key); it != reference.end()) {
      return it->second;
    }
    std::string error;
    const std::optional<TimeNs> answer =
        ColdPredict(TracePath(options.dir, model, TraceFormat::kDdtrace), TraceFormat::kDdtrace,
                    what_if, &error);
    if (answer.has_value()) {
      reference[key] = *answer;
    }
    return answer;
  };
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].has_value() && questions[i].format == TraceFormat::kDdtrace) {
      reference.emplace(AnswerKey{questions[i].model, questions[i].what_if.Key()}, *answers[i]);
    }
  }
  std::map<ModelId, CuptiCheck> cupti;
  for (ModelId model : PaperModels()) {
    cupti[model] = CheckCupti(options.dir, model);
    if (cupti[model].unmatched != 0) {
      result->Fail(StrFormat("%s: CUPTI import repaired %llu correlation ids",
                             daydream::ModelName(model),
                             static_cast<unsigned long long>(cupti[model].unmatched)));
    }
  }
  std::map<AnswerKey, TimeNs> first_cupti;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].has_value()) {
      continue;
    }
    const Question& q = questions[i];
    std::optional<TimeNs> expected;
    if (q.format == TraceFormat::kCupti && !cupti[q.model].exact) {
      // The writer could not reproduce the trace byte for byte: hold cupti
      // answers to their own first answer instead.
      expected = first_cupti.emplace(AnswerKey{q.model, q.what_if.Key()}, *answers[i])
                     .first->second;
    } else {
      expected = reference_for(q.model, q.what_if);
    }
    if (expected != answers[i]) {
      result->Fail(Describe(q) + StrFormat(": answer %s ms, expected %s ms",
                                           FormatMs(*answers[i]).c_str(),
                                           expected ? FormatMs(*expected).c_str() : "none"));
    }
  }
  int exact = 0;
  for (const auto& [model, check] : cupti) {
    exact += check.exact ? 1 : 0;
  }
  result->notes["cupti_exact_models"] = StrFormat("%d of %zu", exact, cupti.size());

  std::map<std::pair<std::string, std::string>, double> predicted_ms;
  for (const GroundTruth& gt : truth) {
    for (const WhatIf& what_if : ColdWhatIfs()) {
      if (what_if.Key() == gt.key) {
        if (const std::optional<TimeNs> answer = reference_for(gt.model, what_if)) {
          predicted_ms[{daydream::ModelName(gt.model), gt.key}] = daydream::ToMs(*answer);
        }
      }
    }
  }
  ReportAccuracy(truth, predicted_ms, result);

  if (!options.trace) {
    return 0;
  }

  std::vector<const SpanLog*> logs = {&log};
  ReportSpans(logs, result);
  double traced_ms = 0;
  double untraced_ms = 0;
  for (const Span& span : log.spans()) {
    if (span.parent < 0) {
      traced_ms += static_cast<double>(span.duration_ns()) / 1e6;
      untraced_ms += latency_ms[static_cast<size_t>(span.request)];
    }
  }
  result->layers["bench.tracing_overhead_pct"] =
      untraced_ms > 0 ? (traced_ms / untraced_ms - 1.0) * 100.0 : 0;
  result->layers["bench.coverage_pct"] = Coverage(logs) * 100.0;
  result->layers["service.session_open_ms"] = Median(open_ms);
  result->samples["service.session_open_ms"] = static_cast<int64_t>(open_ms.size());
  result->layers["trace.peak_rss_mb.chrome"] = RunChildPeakRssMb(
      {options.self, "import-rss", "--path",
       TracePath(options.dir, ModelId::kBertLarge, TraceFormat::kChrome)});
  WriteSpans(logs, options.spans_out);
  return 0;
}

}  // namespace e2ebench
