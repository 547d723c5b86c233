// Model zoo: the DNNs used in the paper's evaluation (Table 2).
//
//   Image classification: VGG-19, DenseNet-121, ResNet-50 (ImageNet)
//   Machine translation:  GNMT (WMT16)
//   Language modeling:    BERT base / BERT large (SQuAD)
//
// Plus TinyMLP, a milliseconds-scale smoke model (not in the paper) used by
// the golden-fixture and pipeline-schedule tests.
//
// Builders produce layer graphs with the real layer counts and parameter
// shapes of the published architectures; parameter totals are asserted
// against the literature values in tests/models_test.cc.
#ifndef SRC_MODELS_MODEL_ZOO_H_
#define SRC_MODELS_MODEL_ZOO_H_

#include <optional>
#include <string>
#include <vector>

#include "src/models/model_graph.h"

namespace daydream {

enum class ModelId {
  kResNet50,
  kVgg19,
  kDenseNet121,
  kGnmt,
  kBertBase,
  kBertLarge,
  kTinyMlp,
};

const char* ModelName(ModelId id);
// The zoo model named `name` (as ModelName spells it), or nullopt.
std::optional<ModelId> LookupModel(const std::string& name);
std::vector<ModelId> AllModels();
// The paper's evaluation set (Table 2): AllModels() without TinyMLP. Tests
// that assert paper-scale magnitudes (iteration times, accuracy bounds,
// sample-count floors) iterate these.
std::vector<ModelId> PaperModels();

// Per-GPU mini-batch sizes matching the paper's 11 GB RTX 2080 Ti budget.
int64_t DefaultBatch(ModelId id);

ModelGraph BuildModel(ModelId id, int64_t batch);
ModelGraph BuildModel(ModelId id);  // with DefaultBatch

// Individual builders (also usable directly).
ModelGraph BuildResNet50(int64_t batch);
ModelGraph BuildVgg19(int64_t batch);
ModelGraph BuildDenseNet121(int64_t batch);
// GNMT v2-style: 4-layer encoder (first layer bidirectional), 4-layer decoder
// with attention, 1024 hidden, 32k vocab.
ModelGraph BuildGnmt(int64_t batch, int64_t seq_len = 32);
// BERT for SQuAD: 384-token sequences.
ModelGraph BuildBertBase(int64_t batch, int64_t seq_len = 384);
ModelGraph BuildBertLarge(int64_t batch, int64_t seq_len = 384);
// Four small linear layers + loss; the fast smoke/fixture model.
ModelGraph BuildTinyMlp(int64_t batch);

}  // namespace daydream

#endif  // SRC_MODELS_MODEL_ZOO_H_
