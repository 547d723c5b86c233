// Service-layer tests: TraceSession warm-query reuse against the Daydream and
// Algorithm-1 oracles, the signature-keyed cache's policy (hit/miss/LRU
// eviction, racing misses, dropped plan stores), p3's precondition, and the
// SessionManager table — including the multi-client stress the TSan CI job
// runs (many threads hammering one session's cache).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/runtime/ground_truth.h"
#include "src/util/fault.h"
#include "src/service/session.h"
#include "tests/reference_scan.h"

namespace daydream {
namespace {

// ---- WhatIfRequest signatures ----

TEST(WhatIfRequestSignature, DistinguishesEveryTransformParameter) {
  WhatIfRequest amp;
  amp.what_if = "amp";
  WhatIfRequest dist;
  dist.what_if = "distributed";
  dist.cluster.machines = 2;
  dist.cluster.gpus_per_machine = 4;
  EXPECT_NE(amp.Signature(), dist.Signature());

  WhatIfRequest dist_fast = dist;
  dist_fast.cluster.network.bandwidth_gbps = 40.0;
  EXPECT_NE(dist.Signature(), dist_fast.Signature());

  // validate and sim_jobs select how the answer is consumed, not which graph
  // is built — they must share one cached transform.
  WhatIfRequest amp_validated = amp;
  amp_validated.validate = true;
  amp_validated.sim_jobs = 4;
  EXPECT_EQ(amp.Signature(), amp_validated.Signature());
}

// ---- The session's plan cache ----

TEST(PlanCache, StampInvalidationAfterStructuralMutation) {
  // The end-to-end contract: timing-only edits preserve the structure stamp
  // (their plans are filled by retiming the baseline structure), structural
  // mutation bumps it (its plan needs a full compile). Each signature keeps
  // its own plan either way.
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp));
  const Daydream daydream(trace);

  DependencyGraph amp = daydream.CloneGraph();
  WhatIfAmp(&amp);  // timing-only: stamp preserved
  EXPECT_EQ(amp.structure_stamp(), daydream.graph().structure_stamp());

  DependencyGraph fused = daydream.CloneGraph();
  WhatIfFusedAdam(&fused);  // removes optimizer tasks: stamp bumped
  EXPECT_NE(fused.structure_stamp(), daydream.graph().structure_stamp());

  SessionOptions options;
  options.plan_cache_capacity = 4;
  std::string error;
  std::shared_ptr<TraceSession> session = TraceSession::Create(trace, options, &error);
  ASSERT_NE(session, nullptr) << error;

  WhatIfRequest amp_request;
  amp_request.what_if = "amp";
  WhatIfRequest fused_request;
  fused_request.what_if = "fused_adam";
  PredictOutcome outcome;
  ASSERT_EQ(session->Predict(amp_request, &outcome, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(outcome.plan_cache_hit);
  ASSERT_EQ(session->Predict(fused_request, &outcome, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(outcome.plan_cache_hit);
  PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.retimes, 1u);   // amp
  EXPECT_EQ(stats.compiles, 1u);  // fused_adam
  EXPECT_EQ(session->plan_cache_size(), 2u);

  // The fused plan did not displace the amp plan: both are still reachable.
  ASSERT_EQ(session->Predict(amp_request, &outcome, &error), SessionStatus::kOk) << error;
  EXPECT_TRUE(outcome.plan_cache_hit);
  EXPECT_EQ(outcome.prediction.predicted,
            daydream.Predict([](DependencyGraph* g) { WhatIfAmp(g); }).predicted);
  ASSERT_EQ(session->Predict(fused_request, &outcome, &error), SessionStatus::kOk) << error;
  EXPECT_TRUE(outcome.plan_cache_hit);
  EXPECT_EQ(outcome.prediction.predicted,
            daydream.Predict([](DependencyGraph* g) { WhatIfFusedAdam(g); }).predicted);
  stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.retimes + stats.compiles, 2u);
}

// ---- TraceSession ----

class TraceSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new Trace(CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp)));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static std::shared_ptr<TraceSession> NewSession(
      SessionOptions options = SessionOptions{}) {
    std::string error;
    std::shared_ptr<TraceSession> session = TraceSession::Create(*trace_, options, &error);
    EXPECT_NE(session, nullptr) << error;
    return session;
  }

  static Trace* trace_;
};

Trace* TraceSessionTest::trace_ = nullptr;

TEST_F(TraceSessionTest, CreateRejectsEmptyTrace) {
  std::string error;
  EXPECT_EQ(TraceSession::Create(Trace{}, SessionOptions{}, &error), nullptr);
  EXPECT_NE(error.find("no events"), std::string::npos);
}

TEST_F(TraceSessionTest, PredictMatchesDaydreamOracle) {
  std::shared_ptr<TraceSession> session = NewSession();
  const Daydream oracle(*trace_);
  for (const char* name : {"amp", "fused_adam", "rbn", "metaflow", "gist", "vdnn"}) {
    WhatIfRequest request;
    request.what_if = name;
    PredictOutcome outcome;
    std::string error;
    ASSERT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk)
        << name << ": " << error;

    std::function<void(DependencyGraph*)> transform;
    ASSERT_EQ(session->ResolveTransform(request, &transform, &error), SessionStatus::kOk)
        << name << ": " << error;
    const PredictionResult expected = oracle.Predict(transform);
    EXPECT_EQ(outcome.prediction.baseline, expected.baseline) << name;
    EXPECT_EQ(outcome.prediction.predicted, expected.predicted) << name;
  }
}

TEST_F(TraceSessionTest, RepeatedTimingOnlyQueryHitsPlanCacheViaRetime) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  PredictOutcome first, second;
  std::string error;
  ASSERT_EQ(session->Predict(request, &first, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(request, &second, &error), SessionStatus::kOk) << error;

  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(first.prediction.predicted, second.prediction.predicted);

  // AMP only edits timings, so the miss was filled by retiming the baseline
  // plan's structure block, never a full CSR compile.
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.retimes, 1u);
  EXPECT_EQ(stats.compiles, 0u);
}

TEST_F(TraceSessionTest, StructuralWhatIfCompilesOnceThenHits) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "distributed";
  request.cluster.machines = 2;
  request.cluster.gpus_per_machine = 2;
  PredictOutcome first, second;
  std::string error;
  ASSERT_EQ(session->Predict(request, &first, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(request, &second, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(first.prediction.predicted, second.prediction.predicted);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.retimes, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(TraceSessionTest, DifferentClustersAreDifferentCacheEntries) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest narrow, wide;
  narrow.what_if = wide.what_if = "distributed";
  narrow.cluster.machines = wide.cluster.machines = 2;
  narrow.cluster.gpus_per_machine = wide.cluster.gpus_per_machine = 2;
  narrow.cluster.network.bandwidth_gbps = 10.0;
  wide.cluster.network.bandwidth_gbps = 40.0;

  PredictOutcome a, b;
  std::string error;
  ASSERT_EQ(session->Predict(narrow, &a, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(wide, &b, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(b.plan_cache_hit);  // a different question, not a warm hit
  EXPECT_LE(b.prediction.predicted, a.prediction.predicted);  // 40 Gbps >= 10
}

TEST_F(TraceSessionTest, DistributedFamilyCompilesOnceThenRetimes) {
  // Every multi-GPU `distributed` config has one graph structure; only the
  // all-reduce durations differ. The first miss compiles, every later config
  // retimes over a cached plan — and answers exactly what a fresh session
  // answers.
  std::shared_ptr<TraceSession> session = NewSession();
  const std::vector<std::tuple<int, int, double>> clusters = {
      {2, 1, 10.0}, {2, 2, 25.0}, {4, 2, 40.0}, {8, 8, 100.0}};
  for (const auto& [machines, gpus, gbps] : clusters) {
    WhatIfRequest request;
    request.what_if = "distributed";
    request.cluster.machines = machines;
    request.cluster.gpus_per_machine = gpus;
    request.cluster.network.bandwidth_gbps = gbps;
    PredictOutcome warm, fresh;
    std::string error;
    ASSERT_EQ(session->Predict(request, &warm, &error), SessionStatus::kOk) << error;
    EXPECT_FALSE(warm.plan_cache_hit);
    ASSERT_EQ(NewSession()->Predict(request, &fresh, &error), SessionStatus::kOk) << error;
    EXPECT_EQ(warm.prediction.predicted, fresh.prediction.predicted) << request.Signature();
    EXPECT_EQ(warm.tasks, fresh.tasks);
  }
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.misses, clusters.size());
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.retimes, clusters.size() - 1);
  EXPECT_EQ(session->plan_cache_size(), clusters.size());
}

TEST_F(TraceSessionTest, TransformCacheEvictionInvalidatesCachedPlans) {
  SessionOptions options;
  options.plan_cache_capacity = 1;
  std::shared_ptr<TraceSession> session = NewSession(options);

  WhatIfRequest amp, dist;
  amp.what_if = "amp";
  dist.what_if = "distributed";
  PredictOutcome outcome;
  std::string error;
  ASSERT_EQ(session->Predict(amp, &outcome, &error), SessionStatus::kOk) << error;
  ASSERT_EQ(session->Predict(dist, &outcome, &error), SessionStatus::kOk) << error;
  // dist evicted amp's entry (capacity 1), and with it amp's plan — so the
  // repeat must rebuild instead of serving a stale hit.
  ASSERT_EQ(session->Predict(amp, &outcome, &error), SessionStatus::kOk) << error;
  EXPECT_FALSE(outcome.plan_cache_hit);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST_F(TraceSessionTest, TransformEvictionKeepsOtherTimingOnlyPlans) {
  // On ResNet-50, amp and the default 1x1 distributed are both timing-only:
  // their transformed graphs keep the baseline's structure stamp. Evicting
  // amp's entry must drop amp's plan alone — and count as an eviction — not
  // every plan cached under that shared stamp.
  SessionOptions options;
  options.plan_cache_capacity = 2;
  std::string error;
  std::shared_ptr<TraceSession> session = TraceSession::Create(
      CollectBaselineTrace(DefaultRunConfig(ModelId::kResNet50)), options, &error);
  ASSERT_NE(session, nullptr) << error;
  auto predict_hits = [&](const char* what_if) {
    WhatIfRequest request;
    request.what_if = what_if;
    PredictOutcome outcome;
    EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
    return outcome.plan_cache_hit;
  };
  EXPECT_FALSE(predict_hits("amp"));
  EXPECT_FALSE(predict_hits("distributed"));
  EXPECT_TRUE(predict_hits("distributed"));
  EXPECT_FALSE(predict_hits("gist"));  // evicts amp's entry (capacity 2)
  EXPECT_EQ(session->plan_cache_size(), 2u);
  EXPECT_EQ(session->plan_cache_stats().evictions, 1u);
  // distributed's plan is still cached.
  EXPECT_TRUE(predict_hits("distributed"));
}

TEST_F(TraceSessionTest, PredictionMatchesReferenceScan) {
  // The session's answer equals the Algorithm-1 oracle run on the same
  // transformed graph.
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  PredictOutcome outcome;
  std::string error;
  ASSERT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;

  std::function<void(DependencyGraph*)> transform;
  ASSERT_EQ(session->ResolveTransform(request, &transform, &error), SessionStatus::kOk) << error;
  DependencyGraph transformed = session->daydream().CloneGraph();
  transform(&transformed);
  EXPECT_EQ(outcome.prediction.predicted, ReferenceScan(transformed).makespan);
  EXPECT_EQ(outcome.tasks, transformed.num_alive());
}

TEST_F(TraceSessionTest, CacheEvictsTheLeastRecentlyUsedSignature) {
  SessionOptions options;
  options.plan_cache_capacity = 2;
  std::shared_ptr<TraceSession> session = NewSession(options);
  auto predict_hits = [&](const char* what_if) {
    WhatIfRequest request;
    request.what_if = what_if;
    PredictOutcome outcome;
    std::string error;
    EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
    return outcome.plan_cache_hit;
  };
  EXPECT_FALSE(predict_hits("amp"));
  EXPECT_FALSE(predict_hits("fused_adam"));
  EXPECT_TRUE(predict_hits("amp"));    // amp is now the most recently used
  EXPECT_FALSE(predict_hits("gist"));  // evicts fused_adam, the LRU entry
  EXPECT_EQ(session->plan_cache_size(), 2u);
  EXPECT_EQ(session->plan_cache_stats().evictions, 1u);
  EXPECT_TRUE(predict_hits("amp"));
  EXPECT_TRUE(predict_hits("gist"));
  EXPECT_FALSE(predict_hits("fused_adam"));
}

TEST_F(TraceSessionTest, ConcurrentMissesOnOneSignatureKeepOneEntry) {
  // Every thread misses the cold signature at once; each builds its own
  // graph and plan, but the cache ends up with one entry and all answers
  // agree.
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  constexpr int kThreads = 8;
  std::vector<TimeNs> predicted(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PredictOutcome outcome;
      std::string error;
      if (session->Predict(request, &outcome, &error) == SessionStatus::kOk) {
        predicted[t] = outcome.prediction.predicted;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(predicted[t], 0) << "thread " << t;
    EXPECT_EQ(predicted[t], predicted[0]) << "thread " << t;
  }
  EXPECT_EQ(session->plan_cache_size(), 1u);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.retimes, stats.misses);  // every miss filled (amp retimes)
  EXPECT_EQ(stats.compiles, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(TraceSessionTest, DroppedPlanStoreKeepsNothing) {
  SessionOptions options;
  options.plan_cache_capacity = 1;
  std::shared_ptr<TraceSession> session = NewSession(options);
  auto predict = [&](const char* what_if, bool drop_store) {
    WhatIfRequest request;
    request.what_if = what_if;
    PredictOutcome outcome;
    std::string error;
    std::string arm_error;
    if (drop_store) {
      EXPECT_TRUE(FaultInjector::Global().ArmSpec("plan_cache_insert:fail", &arm_error))
          << arm_error;
    }
    EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
    FaultInjector::Global().Disarm();
    return outcome;
  };

  // The request still answers from its local plan; nothing is stored and no
  // retime or compile is counted.
  const PredictOutcome dropped = predict("amp", /*drop_store=*/true);
  EXPECT_FALSE(dropped.plan_cache_hit);
  EXPECT_EQ(session->plan_cache_size(), 0u);
  PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.retimes + stats.compiles, 0u);

  // Nothing was kept: the next query misses again, rebuilds and stores its
  // plan; the one after hits.
  EXPECT_FALSE(predict("amp", false).plan_cache_hit);
  const PredictOutcome warm = predict("amp", false);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(dropped.prediction.predicted, warm.prediction.predicted);
  EXPECT_EQ(dropped.tasks, warm.tasks);
  EXPECT_EQ(session->plan_cache_size(), 1u);
  stats = session->plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.retimes, 1u);

  // A dropped store inserts no entry, so it evicts nothing: amp survives
  // fused_adam's dropped store and is evicted (one eviction) by gist's.
  EXPECT_FALSE(predict("fused_adam", /*drop_store=*/true).plan_cache_hit);
  EXPECT_EQ(session->plan_cache_stats().evictions, 0u);
  EXPECT_TRUE(predict("amp", false).plan_cache_hit);
  predict("gist", false);
  EXPECT_EQ(session->plan_cache_stats().evictions, 1u);
  EXPECT_EQ(session->plan_cache_size(), 1u);
  EXPECT_FALSE(predict("amp", false).plan_cache_hit);
  EXPECT_EQ(session->plan_cache_stats().evictions, 2u);
}

TEST_F(TraceSessionTest, P3NeedsATwoIterationTrace) {
  WhatIfRequest request;
  request.what_if = "p3";
  request.cluster.machines = 2;
  TimeNs iteration = 0;
  std::string error;
  // The fixture trace profiles one iteration: refused, not aborted.
  EXPECT_EQ(NewSession()->PredictP3(request, &iteration, &error), SessionStatus::kBadRequest);
  EXPECT_NE(error.find("2-iteration trace"), std::string::npos) << error;

  std::shared_ptr<TraceSession> two_iterations = TraceSession::Create(
      CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), /*iterations=*/2),
      SessionOptions{}, &error);
  ASSERT_NE(two_iterations, nullptr) << error;
  ASSERT_EQ(two_iterations->PredictP3(request, &iteration, &error), SessionStatus::kOk) << error;
  EXPECT_GT(iteration, 0);
}

TEST_F(TraceSessionTest, UnknownWhatIfIsReportedNotFatal) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "overclock";
  PredictOutcome outcome;
  std::string error;
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kUnknownWhatIf);
  // p3 is deliberately not a graph transform either (it reports its own
  // steady-state metric; callers route it to PredictPsIterationTime).
  request.what_if = "p3";
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kUnknownWhatIf);
}

TEST_F(TraceSessionTest, LayerStructuredWhatIfNeedsAKnownModel) {
  Trace renamed = *trace_;
  renamed.set_model_name("mystery-net");
  std::string error;
  std::shared_ptr<TraceSession> session =
      TraceSession::Create(renamed, SessionOptions{}, &error);
  ASSERT_NE(session, nullptr) << error;
  WhatIfRequest request;
  request.what_if = "rbn";
  PredictOutcome outcome;
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kBadRequest);
  EXPECT_NE(error.find("known model name"), std::string::npos);
  request.what_if = "p3";
  TimeNs iteration = 0;
  error.clear();
  EXPECT_EQ(session->PredictP3(request, &iteration, &error), SessionStatus::kBadRequest);
  EXPECT_NE(error.find("known model name"), std::string::npos);
}

TEST_F(TraceSessionTest, ValidatedPredictRunsTheFullCatalog) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  request.validate = true;
  PredictOutcome outcome;
  std::string error;
  EXPECT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
}

TEST_F(TraceSessionTest, ValidateOnACachedSignatureHitsAndRunsTheFullCatalog) {
  std::shared_ptr<TraceSession> session = NewSession();
  WhatIfRequest request;
  request.what_if = "amp";
  PredictOutcome cold, validated;
  std::string error;
  ASSERT_EQ(session->Predict(request, &cold, &error), SessionStatus::kOk) << error;
  request.validate = true;
  ASSERT_EQ(session->Predict(request, &validated, &error), SessionStatus::kOk) << error;
  EXPECT_TRUE(validated.plan_cache_hit);
  EXPECT_EQ(validated.prediction.predicted, cold.prediction.predicted);
  EXPECT_EQ(validated.tasks, cold.tasks);
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // The hit still lints a fresh transform with the full catalog: a negative
  // kernel duration passes the structural lint a plain miss runs, so the
  // unvalidated query caches a plan, yet the validated one is refused by
  // duration-sanity.
  Trace negative = *trace_;
  for (TraceEvent& event : negative.mutable_events()) {
    if (event.kind == EventKind::kKernel) {
      event.duration = -Us(1);
      break;
    }
  }
  std::shared_ptr<TraceSession> tainted = TraceSession::Create(negative, SessionOptions{}, &error);
  ASSERT_NE(tainted, nullptr) << error;
  request.validate = false;
  ASSERT_EQ(tainted->Predict(request, &cold, &error), SessionStatus::kOk) << error;
  request.validate = true;
  EXPECT_EQ(tainted->Predict(request, &validated, &error), SessionStatus::kLintFailed);
  EXPECT_NE(error.find("duration-sanity"), std::string::npos) << error;
}

TEST_F(TraceSessionTest, LintCleanGraphRunsPlanPasses) {
  std::shared_ptr<TraceSession> session = NewSession();
  LintReport report;
  bool plan_passes_run = false;
  std::string error;
  ASSERT_EQ(session->Lint(nullptr, &report, &plan_passes_run, &error), SessionStatus::kOk);
  EXPECT_TRUE(plan_passes_run);
  EXPECT_EQ(report.errors(), 0);
}

TEST_F(TraceSessionTest, ReportTextNamesTheModel) {
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string report = session->ReportText();
  EXPECT_NE(report.find(trace_->model_name()), std::string::npos);
  EXPECT_NE(report.find("hottest layer phases"), std::string::npos);
}

TEST_F(TraceSessionTest, SweepRunsTheStandardMatrix) {
  std::shared_ptr<TraceSession> session = NewSession();
  const std::vector<SweepCase> cases =
      BuildStandardSweep(session->trace(), {ClusterConfig{}});
  ASSERT_FALSE(cases.empty());
  const std::vector<SweepOutcome> outcomes = session->Sweep(cases, SweepOptions{});
  ASSERT_EQ(outcomes.size(), cases.size());
  for (const SweepOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.prediction.baseline, session->daydream().BaselineSimTime());
  }
}

TEST_F(TraceSessionTest, ConcurrentClientsShareTheCachesSafely) {
  // The TSan stress: N client threads fire mixed what-ifs at one session.
  // Every request must succeed and agree with the single-threaded answer.
  std::shared_ptr<TraceSession> session = NewSession();

  WhatIfRequest amp, fused, dist;
  amp.what_if = "amp";
  fused.what_if = "fused_adam";
  dist.what_if = "distributed";
  dist.cluster.machines = 2;
  dist.cluster.gpus_per_machine = 2;
  const std::vector<WhatIfRequest> requests = {amp, fused, dist};

  std::vector<TimeNs> expected;
  for (const WhatIfRequest& request : requests) {
    PredictOutcome outcome;
    std::string error;
    ASSERT_EQ(session->Predict(request, &outcome, &error), SessionStatus::kOk) << error;
    expected.push_back(outcome.prediction.predicted);
  }

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t pick = static_cast<size_t>(t + i) % requests.size();
        PredictOutcome outcome;
        std::string error;
        if (session->Predict(requests[pick], &outcome, &error) != SessionStatus::kOk ||
            outcome.prediction.predicted != expected[pick]) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // Every predict is exactly one cache probe, and warm queries dominate.
  const PlanCacheStats stats = session->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kIterations + requests.size()));
  EXPECT_GE(stats.hits, stats.misses);
}

// ---- SessionManager ----

TEST_F(TraceSessionTest, SessionManagerHandsOutStableHandles) {
  SessionManager manager;
  const std::string first = manager.Open(NewSession());
  const std::string second = manager.Open(NewSession());
  EXPECT_NE(first, second);
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_NE(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(second), nullptr);
  EXPECT_EQ(manager.Get("nope"), nullptr);
  EXPECT_EQ(manager.Handles(), (std::vector<std::string>{first, second}));

  EXPECT_TRUE(manager.Close(first));
  EXPECT_FALSE(manager.Close(first));
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.Get(first), nullptr);
}

TEST_F(TraceSessionTest, SessionManagerListsHandlesInInsertionOrder) {
  SessionManager manager;
  std::shared_ptr<TraceSession> session = NewSession();
  std::vector<std::string> opened;
  opened.reserve(11);
  for (int i = 0; i < 11; ++i) {
    opened.push_back(manager.Open(session));  // "s1" ... "s11"
  }
  // "s10"/"s11" must list after "s9" — insertion order, not lexicographic.
  EXPECT_EQ(manager.Handles(), opened);
}

TEST_F(TraceSessionTest, SessionManagerSurvivesConcurrentClients) {
  // M sessions opened/queried/closed from N threads; a session closed while
  // another thread holds its shared_ptr stays usable until released.
  SessionManager manager;
  std::shared_ptr<TraceSession> shared_session = NewSession();
  constexpr int kThreads = 6;
  constexpr int kSessionsPerThread = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        const std::string handle = manager.Open(shared_session);
        std::shared_ptr<TraceSession> session = manager.Get(handle);
        if (session == nullptr) {
          ++failures[t];
          continue;
        }
        WhatIfRequest request;
        request.what_if = "amp";
        PredictOutcome outcome;
        std::string error;
        if (session->Predict(request, &outcome, &error) != SessionStatus::kOk) {
          ++failures[t];
        }
        if (!manager.Close(handle)) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  EXPECT_EQ(manager.size(), 0u);
}

// ---- SessionManager quotas ----

TEST_F(TraceSessionTest, SessionManagerEvictsTheLeastRecentlyUsedSession) {
  SessionManager manager(SessionManagerLimits{/*max_sessions=*/2, /*max_resident_bytes=*/0});
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string first = manager.Open(session);
  const std::string second = manager.Open(session);
  // Touching the first makes the second the LRU candidate.
  EXPECT_NE(manager.Get(first), nullptr);
  const std::string third = manager.Open(session);
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_EQ(manager.evicted(), 1u);
  EXPECT_EQ(manager.Get(second), nullptr);  // evicted handle is gone
  EXPECT_NE(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(third), nullptr);
}

TEST_F(TraceSessionTest, SessionManagerNeverEvictsTheSessionBeingOpened) {
  // max_sessions=1 forces every Open to evict — but the incoming session must
  // survive its own admission, so each Open replaces the previous one.
  SessionManager manager(SessionManagerLimits{/*max_sessions=*/1, /*max_resident_bytes=*/0});
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string first = manager.Open(session);
  const std::string second = manager.Open(session);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(second), nullptr);
  EXPECT_EQ(manager.evicted(), 1u);
}

TEST_F(TraceSessionTest, SessionManagerEnforcesTheResidentBytesQuota) {
  std::shared_ptr<TraceSession> session = NewSession();
  ASSERT_GT(session->resident_bytes(), 0u);
  // A quota that fits exactly one copy of this trace: opening a second evicts
  // the first, and a session alone over quota is never evicted (it is `keep`).
  SessionManager manager(
      SessionManagerLimits{/*max_sessions=*/0, /*max_resident_bytes=*/session->resident_bytes()});
  const std::string first = manager.Open(session);
  EXPECT_EQ(manager.resident_bytes(), session->resident_bytes());
  const std::string second = manager.Open(session);
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.evicted(), 1u);
  EXPECT_EQ(manager.Get(first), nullptr);
  EXPECT_NE(manager.Get(second), nullptr);
  EXPECT_EQ(manager.resident_bytes(), session->resident_bytes());
}

TEST_F(TraceSessionTest, SessionManagerResidentBytesTracksOpenAndClose) {
  SessionManager manager;  // unlimited
  std::shared_ptr<TraceSession> session = NewSession();
  const std::string first = manager.Open(session);
  const std::string second = manager.Open(session);
  EXPECT_EQ(manager.resident_bytes(), 2 * session->resident_bytes());
  EXPECT_TRUE(manager.Close(first));
  EXPECT_EQ(manager.resident_bytes(), session->resident_bytes());
  EXPECT_TRUE(manager.Close(second));
  EXPECT_EQ(manager.resident_bytes(), 0u);
  EXPECT_EQ(manager.evicted(), 0u);  // Close is not eviction
}

}  // namespace
}  // namespace daydream
