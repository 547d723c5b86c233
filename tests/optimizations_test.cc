#include <gtest/gtest.h>

#include "src/core/optimizations/optimizations.h"
#include "src/core/predictor.h"
#include "src/core/transform.h"
#include "src/runtime/ground_truth.h"
#include "src/util/string_util.h"

namespace daydream {
namespace {

// Shared fixtures: baseline profiles are expensive-ish, build once.
class OptimizationsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    resnet_trace_ = new Trace(CollectBaselineTrace(DefaultRunConfig(ModelId::kResNet50)));
    resnet_ = new Daydream(*resnet_trace_);
    resnet_model_ = new ModelGraph(BuildModel(ModelId::kResNet50));
    bert_trace_ = new Trace(CollectBaselineTrace(DefaultRunConfig(ModelId::kBertBase)));
    bert_ = new Daydream(*bert_trace_);
  }
  static void TearDownTestSuite() {
    delete resnet_;
    delete resnet_trace_;
    delete resnet_model_;
    delete bert_;
    delete bert_trace_;
  }

  static Trace* resnet_trace_;
  static Daydream* resnet_;
  static ModelGraph* resnet_model_;
  static Trace* bert_trace_;
  static Daydream* bert_;
};

Trace* OptimizationsTest::resnet_trace_ = nullptr;
Daydream* OptimizationsTest::resnet_ = nullptr;
ModelGraph* OptimizationsTest::resnet_model_ = nullptr;
Trace* OptimizationsTest::bert_trace_ = nullptr;
Daydream* OptimizationsTest::bert_ = nullptr;

// ---- AMP (Algorithm 3) ----

TEST_F(OptimizationsTest, AmpShrinksByNameClass) {
  DependencyGraph g = resnet_->CloneGraph();
  std::map<TaskId, TimeNs> before;
  for (TaskId id : g.Select(IsOnGpu())) {
    before[id] = g.task(id).duration;
  }
  WhatIfAmp(&g);
  for (const auto& [id, dur] : before) {
    const Task& t = g.task(id);
    const bool compute = StrContains(t.name, "sgemm") || StrContains(t.name, "scudnn");
    EXPECT_EQ(t.duration, static_cast<TimeNs>(dur / (compute ? 3.0 : 2.0))) << t.name;
  }
}

TEST_F(OptimizationsTest, AmpLeavesCpuAlone) {
  DependencyGraph g = resnet_->CloneGraph();
  std::map<TaskId, TimeNs> before;
  for (TaskId id : g.Select(IsOnCpu())) {
    before[id] = g.task(id).duration;
  }
  WhatIfAmp(&g);
  for (const auto& [id, dur] : before) {
    EXPECT_EQ(g.task(id).duration, dur);
  }
}

TEST_F(OptimizationsTest, AmpPredictsSpeedupBelowTheoretical) {
  const PredictionResult r = resnet_->Predict([](DependencyGraph* g) { WhatIfAmp(g); });
  EXPECT_GT(r.SpeedupRatio(), 1.3);  // clearly beneficial...
  EXPECT_LT(r.SpeedupRatio(), 3.0);  // ...but below the per-kernel 3x (§6.2)
}

// ---- FusedAdam (Algorithm 4) ----

TEST_F(OptimizationsTest, FusedAdamLeavesSingleWuKernel) {
  DependencyGraph g = bert_->CloneGraph();
  const int wu_before =
      static_cast<int>(g.Select(All(IsOnGpu(), PhaseIs(Phase::kWeightUpdate))).size());
  WhatIfFusedAdam(&g);
  const std::vector<TaskId> wu_after = g.Select(All(IsOnGpu(), PhaseIs(Phase::kWeightUpdate)));
  EXPECT_GT(wu_before, 2000);
  ASSERT_EQ(wu_after.size(), 1u);
  EXPECT_EQ(g.task(wu_after[0]).name, "multi_tensor_apply_adam_fused");
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, FusedAdamRemovesWuLaunches) {
  DependencyGraph g = bert_->CloneGraph();
  WhatIfFusedAdam(&g);
  EXPECT_EQ(g.Select(All(IsOnCpu(), PhaseIs(Phase::kWeightUpdate))).size(), 1u);
}

TEST_F(OptimizationsTest, FusedAdamSpeedsUpBert) {
  const PredictionResult r = bert_->Predict([](DependencyGraph* g) { WhatIfFusedAdam(g); });
  EXPECT_GT(r.SpeedupPct(), 10.0);  // §6.3: the WU phase is ~30% of BERT base
}

TEST_F(OptimizationsTest, FusedAdamNoopWithoutWeightUpdate) {
  DependencyGraph g;
  Task t;
  t.type = TaskType::kGpu;
  t.thread = ExecThread::Gpu(0);
  t.duration = Us(10);
  g.AddTask(std::move(t));
  WhatIfFusedAdam(&g);  // must not crash
  EXPECT_EQ(g.num_alive(), 1);
}

// ---- Reconstructing Batchnorm (Algorithm 5) ----

TEST_F(OptimizationsTest, RbnRemovesRelusHalvesBn) {
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kDenseNet121));
  const ModelGraph model = BuildModel(ModelId::kDenseNet121);
  Daydream dd(trace);
  DependencyGraph g = dd.CloneGraph();
  const TimeNs bn_before = TotalDuration(g, g.Select(All(IsOnGpu(), NameContains("batch_norm"))));
  WhatIfRestructuredBatchnorm(&g, model);
  EXPECT_TRUE(g.Select(All(IsOnGpu(), NameContains("relu"))).empty());
  const TimeNs bn_after = TotalDuration(g, g.Select(All(IsOnGpu(), NameContains("batch_norm"))));
  EXPECT_NEAR(static_cast<double>(bn_after), static_cast<double>(bn_before) / 2, 1e4);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

// ---- Distributed (Algorithm 6) ----

TEST_F(OptimizationsTest, DistributedInsertsOneAllReducePerBucket) {
  DependencyGraph g = resnet_->CloneGraph();
  DistributedWhatIf opts;
  opts.cluster.machines = 4;
  opts.cluster.gpus_per_machine = 1;
  WhatIfDistributed(&g, resnet_trace_->gradients(), opts);
  std::set<int> buckets;
  for (const GradientInfo& gi : resnet_trace_->gradients()) {
    buckets.insert(gi.bucket_id);
  }
  const std::vector<TaskId> comm =
      g.Select([](const Task& t) { return t.comm == CommKind::kAllReduce; });
  EXPECT_EQ(comm.size(), buckets.size());
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, DistributedAllReduceFeedsWeightUpdate) {
  DependencyGraph g = resnet_->CloneGraph();
  DistributedWhatIf opts;
  opts.cluster.machines = 2;
  opts.cluster.gpus_per_machine = 1;
  WhatIfDistributed(&g, resnet_trace_->gradients(), opts);
  for (TaskId id : g.Select(IsComm())) {
    bool feeds_wu = false;
    for (TaskId c : g.children(id)) {
      feeds_wu |= g.task(c).phase == Phase::kWeightUpdate;
    }
    bool has_bwd_parent = false;
    for (TaskId p : g.parents(id)) {
      has_bwd_parent |= g.task(p).is_gpu() && g.task(p).phase == Phase::kBackward;
    }
    EXPECT_TRUE(feeds_wu) << g.task(id).name;
    EXPECT_TRUE(has_bwd_parent || g.task(id).name != "allReduce_bucket0")
        << g.task(id).name;
  }
}

TEST_F(OptimizationsTest, DistributedSingleGpuNoop) {
  DependencyGraph g = resnet_->CloneGraph();
  const int before = g.num_alive();
  DistributedWhatIf opts;  // 1x1
  WhatIfDistributed(&g, resnet_trace_->gradients(), opts);
  EXPECT_EQ(g.num_alive(), before);
}

TEST_F(OptimizationsTest, DistributedSlowerNetworkPredictsSlower) {
  DistributedWhatIf slow;
  slow.cluster.machines = 4;
  slow.cluster.gpus_per_machine = 1;
  slow.cluster.network.bandwidth_gbps = 10.0;
  DistributedWhatIf fast = slow;
  fast.cluster.network.bandwidth_gbps = 40.0;
  const PredictionResult p_slow = resnet_->Predict(
      [&](DependencyGraph* g) { WhatIfDistributed(g, resnet_trace_->gradients(), slow); });
  const PredictionResult p_fast = resnet_->Predict(
      [&](DependencyGraph* g) { WhatIfDistributed(g, resnet_trace_->gradients(), fast); });
  EXPECT_GE(p_slow.predicted, p_fast.predicted);
  EXPECT_GE(p_fast.predicted, p_fast.baseline);  // comm never speeds up 1 GPU
}

TEST_F(OptimizationsTest, PredictAllReduceDurationCalibration) {
  DistributedWhatIf opts;
  opts.cluster.machines = 4;
  opts.cluster.gpus_per_machine = 1;
  const TimeNs calibrated = PredictAllReduceDuration(64 << 20, opts);
  opts.calibrate_nccl_overhead = false;
  const TimeNs raw = PredictAllReduceDuration(64 << 20, opts);
  EXPECT_GT(calibrated, raw);
}

// ---- P3 (Algorithm 7) ----

class P3Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RunConfig config = DefaultRunConfig(ModelId::kVgg19);
    config.gpu = GpuSpec::P4000();
    config.framework = FrameworkProfile::Mxnet();
    config.batch = 16;
    trace_ = new Trace(CollectBaselineTrace(config, /*iterations=*/2));
    daydream_ = new Daydream(*trace_);
    model_ = new ModelGraph(BuildModel(ModelId::kVgg19, 16));
  }
  static void TearDownTestSuite() {
    delete daydream_;
    delete trace_;
    delete model_;
  }
  static PsWhatIf Options(double gbps) {
    PsWhatIf opts;
    opts.network.bandwidth_gbps = gbps;
    opts.num_servers = 4;
    return opts;
  }
  static Trace* trace_;
  static Daydream* daydream_;
  static ModelGraph* model_;
};

Trace* P3Test::trace_ = nullptr;
Daydream* P3Test::daydream_ = nullptr;
ModelGraph* P3Test::model_ = nullptr;

TEST_F(P3Test, InsertsPrioritizedPushPullChains) {
  DependencyGraph g = daydream_->CloneGraph();
  WhatIfP3(&g, *model_, Options(10.0));
  const std::vector<TaskId> pushes =
      g.Select([](const Task& t) { return t.comm == CommKind::kPush; });
  const std::vector<TaskId> pulls =
      g.Select([](const Task& t) { return t.comm == CommKind::kPull; });
  EXPECT_EQ(pushes.size(), pulls.size());
  EXPECT_GT(pushes.size(), 500u);  // VGG's 575MB sliced at 512KB
  // Every pull has a push parent and a forward-GPU child.
  for (TaskId id : pulls) {
    bool push_parent = false;
    for (TaskId p : g.parents(id)) {
      push_parent |= g.task(p).comm == CommKind::kPush;
    }
    EXPECT_TRUE(push_parent);
  }
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(P3Test, RemovesWorkerWeightUpdate) {
  DependencyGraph g = daydream_->CloneGraph();
  WhatIfP3(&g, *model_, Options(10.0));
  EXPECT_TRUE(g.Select(PhaseIs(Phase::kWeightUpdate)).empty());
}

TEST_F(P3Test, EarlierLayersGetHigherPriority) {
  DependencyGraph g = daydream_->CloneGraph();
  WhatIfP3(&g, *model_, Options(10.0));
  int conv1_priority = 0;
  int fc8_priority = 0;
  for (TaskId id : g.Select([](const Task& t) { return t.comm == CommKind::kPush; })) {
    const Task& t = g.task(id);
    if (StrContains(t.name, StrFormat("layer%d_", model_->layers().front().id))) {
      conv1_priority = t.priority;
    }
  }
  for (TaskId id : g.Select([](const Task& t) { return t.comm == CommKind::kPush; })) {
    const Task& t = g.task(id);
    if (t.priority < conv1_priority) {
      fc8_priority = t.priority;
    }
  }
  EXPECT_GT(conv1_priority, fc8_priority);
}

TEST_F(P3Test, PredictionTracksBandwidth) {
  const TimeNs slow = PredictPsIterationTime(*daydream_, *model_, Options(5.0));
  const TimeNs fast = PredictPsIterationTime(*daydream_, *model_, Options(25.0));
  EXPECT_GT(slow, fast);
}

TEST_F(P3Test, PrioritizationHelps) {
  PsWhatIf p3 = Options(10.0);
  PsWhatIf fifo = Options(10.0);
  fifo.slice_bytes = 0;  // whole tensors
  fifo.prioritize = false;
  const TimeNs with_p3 = PredictPsIterationTime(*daydream_, *model_, p3);
  const TimeNs baseline = PredictPsIterationTime(*daydream_, *model_, fifo);
  EXPECT_LT(with_p3, baseline);
}

// ---- BlueConnect (Algorithm 8) ----

TEST_F(OptimizationsTest, BlueConnectDecomposesAllReduces) {
  DependencyGraph g = resnet_->CloneGraph();
  DistributedWhatIf opts;
  opts.cluster.machines = 4;
  opts.cluster.gpus_per_machine = 4;
  opts.cluster.network.bandwidth_gbps = 10.0;
  WhatIfDistributed(&g, resnet_trace_->gradients(), opts);
  const size_t allreduces =
      g.Select([](const Task& t) { return t.comm == CommKind::kAllReduce; }).size();
  WhatIfBlueConnect(&g, opts.cluster);
  EXPECT_TRUE(g.Select([](const Task& t) { return t.comm == CommKind::kAllReduce; }).empty());
  const size_t rs = g.Select([](const Task& t) { return t.comm == CommKind::kReduceScatter; }).size();
  const size_t ag = g.Select([](const Task& t) { return t.comm == CommKind::kAllGather; }).size();
  // Per allReduce: 1 intra + g inter reduce-scatters (and the same gathers).
  EXPECT_EQ(rs, allreduces * (1 + 4));
  EXPECT_EQ(ag, allreduces * (1 + 4));
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, BlueConnectFasterOnHierarchicalCluster) {
  DistributedWhatIf opts;
  opts.cluster.machines = 4;
  opts.cluster.gpus_per_machine = 4;
  opts.cluster.network.bandwidth_gbps = 10.0;
  const PredictionResult flat = resnet_->Predict(
      [&](DependencyGraph* g) { WhatIfDistributed(g, resnet_trace_->gradients(), opts); });
  const PredictionResult blue = resnet_->Predict([&](DependencyGraph* g) {
    WhatIfDistributed(g, resnet_trace_->gradients(), opts);
    WhatIfBlueConnect(g, opts.cluster);
  });
  EXPECT_LT(blue.predicted, flat.predicted);
}

// ---- MetaFlow (Algorithm 9) ----

TEST_F(OptimizationsTest, MetaFlowRemoveLayer) {
  DependencyGraph g = resnet_->CloneGraph();
  // Find a BN layer id from the model.
  int bn_layer = -1;
  for (const Layer& l : resnet_model_->layers()) {
    if (l.kind == LayerKind::kBatchNorm) {
      bn_layer = l.id;
      break;
    }
  }
  ASSERT_GE(bn_layer, 0);
  ASSERT_FALSE(g.Select(All(IsOnGpu(), LayerIs(bn_layer))).empty());
  MetaFlowRemoveLayer(&g, bn_layer);
  EXPECT_TRUE(g.Select(All(IsOnGpu(), LayerIs(bn_layer))).empty());
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, MetaFlowFuseConvBnSpeedsUp) {
  const PredictionResult r = resnet_->Predict(
      [&](DependencyGraph* g) { WhatIfMetaFlowFuseConvBn(g, *resnet_model_); });
  EXPECT_GT(r.SpeedupPct(), 2.0);
  EXPECT_LT(r.SpeedupPct(), 50.0);
}

// ---- vDNN (Algorithm 10) ----

TEST_F(OptimizationsTest, VdnnInsertsOffloadAndPrefetchPairs) {
  DependencyGraph g = resnet_->CloneGraph();
  WhatIfVdnn(&g, *resnet_model_);
  const size_t offloads = g.Select(NameContains("vdnn_offload")).size();
  const size_t prefetches = g.Select(NameContains("vdnn_prefetch")).size();
  // Two tasks per copy (launch + memcpy), one pair per conv layer.
  const size_t convs = static_cast<size_t>(resnet_model_->CountKind(LayerKind::kConv2d));
  EXPECT_EQ(offloads, 2 * convs);
  EXPECT_EQ(prefetches, 2 * convs);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, VdnnCostsTime) {
  // vDNN trades performance for memory: the what-if must predict overhead.
  const PredictionResult r =
      resnet_->Predict([&](DependencyGraph* g) { WhatIfVdnn(g, *resnet_model_); });
  EXPECT_GT(r.predicted, r.baseline);
}

// ---- Gist (Algorithm 11) ----

TEST_F(OptimizationsTest, GistInsertsCodecs) {
  DependencyGraph g = resnet_->CloneGraph();
  WhatIfGist(&g, *resnet_model_);
  EXPECT_GT(g.Select(NameContains("gist_encode")).size(), 0u);
  EXPECT_EQ(g.Select(NameContains("gist_encode_ssdc")).size() +
                g.Select(NameContains("gist_encode_binarize")).size(),
            g.Select(NameContains("gist_encode")).size());
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, GistOverheadPredicted) {
  const PredictionResult r =
      resnet_->Predict([&](DependencyGraph* g) { WhatIfGist(g, *resnet_model_); });
  EXPECT_GT(r.predicted, r.baseline);
  EXPECT_LT(r.predicted, static_cast<TimeNs>(r.baseline * 1.5));  // moderate overhead
}

// Regression: on a multi-iteration profile, Gist used to wire the encode of
// the LAST iteration's forward into the FIRST iteration's backward — an edge
// backward in time, i.e. a cycle. Codec pairs must stay within one iteration.
TEST_F(OptimizationsTest, GistStaysAcyclicOnTwoIterationTraces) {
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), /*iterations=*/2);
  const ModelGraph model = BuildModel(ModelId::kTinyMlp);
  DependencyGraph g = BuildDependencyGraph(trace);
  WhatIfGist(&g, model);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
  // One encode kernel per ReLU layer per iteration.
  EXPECT_EQ(g.Select(All(IsOnGpu(), NameContains("gist_encode"))).size(),
            2u * static_cast<size_t>(model.CountKind(LayerKind::kReLU)));
  EXPECT_GT(Simulator().Run(g).makespan, 0);
}

TEST_F(OptimizationsTest, GistLossyAddsDprKernels) {
  DependencyGraph g = resnet_->CloneGraph();
  GistWhatIf opts;
  opts.lossy = true;
  WhatIfGist(&g, *resnet_model_, opts);
  EXPECT_GT(g.Select(NameContains("gist_encode_dpr")).size(), 0u);
}

// Regression: the DDP what-if resolved "last backward" and "first weight
// update" globally, which on a 2-iteration profile wired iteration-2
// gradients into iteration-1's optimizer step (a cycle). One allReduce
// schedule per iteration window keeps the graph acyclic.
TEST_F(OptimizationsTest, DistributedStaysAcyclicOnTwoIterationTraces) {
  const Trace trace = CollectBaselineTrace(DefaultRunConfig(ModelId::kTinyMlp), /*iterations=*/2);
  DependencyGraph g = BuildDependencyGraph(trace);
  EXPECT_EQ(IterationStarts(g).size(), 2u);
  DistributedWhatIf dist;
  dist.cluster.machines = 2;
  dist.cluster.gpus_per_machine = 2;
  const int before = g.num_alive();
  WhatIfDistributed(&g, trace.gradients(), dist);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
  // One allReduce per bucket per iteration.
  const int buckets = static_cast<int>(g.Select(All(IsComm(), CommIs(CommKind::kAllReduce))).size());
  EXPECT_EQ(g.num_alive(), before + buckets);
  EXPECT_EQ(buckets % 2, 0);
  EXPECT_GT(buckets, 0);
  EXPECT_GT(Simulator().Run(g).makespan, 0);
}

// ---- DGC (Algorithm 12) ----

TEST_F(OptimizationsTest, DgcShrinksCommAndAddsCodecs) {
  DependencyGraph g = resnet_->CloneGraph();
  DistributedWhatIf dist;
  dist.cluster.machines = 4;
  dist.cluster.gpus_per_machine = 1;
  dist.cluster.network.bandwidth_gbps = 10.0;
  WhatIfDistributed(&g, resnet_trace_->gradients(), dist);
  const TimeNs comm_before = TotalDuration(g, g.Select(IsComm()));

  DgcWhatIf dgc;
  dgc.cluster = dist.cluster;
  dgc.compression_ratio = 0.01;
  WhatIfDgc(&g, dgc);
  const TimeNs comm_after = TotalDuration(g, g.Select(IsComm()));
  EXPECT_LT(comm_after, comm_before / 10);
  EXPECT_GT(g.Select(NameContains("dgc_compress")).size(), 0u);
  EXPECT_GT(g.Select(NameContains("dgc_decompress")).size(), 0u);
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST_F(OptimizationsTest, DgcHelpsWhenCommBound) {
  DistributedWhatIf dist;
  dist.cluster.machines = 4;
  dist.cluster.gpus_per_machine = 1;
  dist.cluster.network.bandwidth_gbps = 5.0;  // comm-bound
  const PredictionResult without = resnet_->Predict(
      [&](DependencyGraph* g) { WhatIfDistributed(g, resnet_trace_->gradients(), dist); });
  DgcWhatIf dgc;
  dgc.cluster = dist.cluster;
  const PredictionResult with = resnet_->Predict([&](DependencyGraph* g) {
    WhatIfDistributed(g, resnet_trace_->gradients(), dist);
    WhatIfDgc(g, dgc);
  });
  EXPECT_LT(with.predicted, without.predicted);
}

TEST_F(OptimizationsTest, EstimateElementwiseDurationScales) {
  const DependencyGraph& g = resnet_->graph();
  const TimeNs small = EstimateElementwiseDuration(g, 1 << 20);
  const TimeNs big = EstimateElementwiseDuration(g, 64 << 20);
  EXPECT_LT(small, big);
}

// ---- batch removal on real graphs ----

// The per-id oracle: cut the task out, wire its parents to its children with
// AddEdge, then remove the now-isolated task.
void RemoveOneByOne(DependencyGraph* graph, const std::vector<TaskId>& ids) {
  for (TaskId id : ids) {
    if (!graph->alive(id)) {
      continue;
    }
    const std::vector<TaskId> parents = graph->parents(id);
    const std::vector<TaskId> children = graph->children(id);
    for (TaskId p : parents) {
      graph->RemoveEdge(p, id);
    }
    for (TaskId c : children) {
      graph->RemoveEdge(id, c);
    }
    for (TaskId p : parents) {
      for (TaskId c : children) {
        graph->AddEdge(p, c);
      }
    }
    graph->Remove(id);
  }
}

void ExpectSameEdgeSets(const DependencyGraph& a, const DependencyGraph& b) {
  ASSERT_EQ(a.num_alive(), b.num_alive());
  const auto sorted = [](std::vector<TaskId> ids) {
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (TaskId id : a.AliveTasks()) {
    ASSERT_TRUE(b.alive(id)) << id;
    ASSERT_EQ(sorted(a.parents(id)), sorted(b.parents(id))) << "parents of " << id;
    ASSERT_EQ(sorted(a.children(id)), sorted(b.children(id))) << "children of " << id;
  }
  std::string error;
  EXPECT_TRUE(a.Validate(&error)) << error;
}

class BatchRemovalZoo : public ::testing::TestWithParam<ModelId> {};

// The sets fused Adam and P3 remove, taken out of each zoo model's baseline
// graph in one RemoveAll and by the per-id oracle, give the same graph.
TEST_P(BatchRemovalZoo, MatchesPerIdRemovalOnWeightUpdateSets) {
  const DependencyGraph base =
      BuildDependencyGraph(CollectBaselineTrace(DefaultRunConfig(GetParam())));
  DependencyGraph fused = base.Clone();
  WhatIfFusedAdam(&fused);
  std::vector<TaskId> fused_adam_set;
  for (TaskId id : base.AliveTasks()) {
    if (!fused.alive(id)) {
      fused_adam_set.push_back(id);
    }
  }
  const std::vector<TaskId> p3_set = base.Select(PhaseIs(Phase::kWeightUpdate));
  ASSERT_FALSE(fused_adam_set.empty());
  ASSERT_FALSE(p3_set.empty());

  for (const auto& [name, ids] : {std::pair{"fused adam set", fused_adam_set},
                                  std::pair{"p3 set", p3_set}}) {
    SCOPED_TRACE(name);
    DependencyGraph batch = base.Clone();
    RemoveAll(&batch, ids);
    DependencyGraph oracle = base.Clone();
    RemoveOneByOne(&oracle, ids);
    ExpectSameEdgeSets(batch, oracle);
    for (const ExecThread& thread : oracle.Threads()) {
      EXPECT_EQ(batch.ThreadSequence(thread), oracle.ThreadSequence(thread)) << thread.Label();
    }
    EXPECT_EQ(Simulator().Run(batch).makespan, Simulator().Run(oracle).makespan);
  }
  // WhatIfFusedAdam's own removal is the same batch.
  DependencyGraph batch = base.Clone();
  RemoveAll(&batch, fused_adam_set);
  ExpectSameEdgeSets(fused, batch);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, BatchRemovalZoo, ::testing::ValuesIn(AllModels()),
                         [](const ::testing::TestParamInfo<ModelId>& info) {
                           std::string name = ModelName(info.param);
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace daydream
