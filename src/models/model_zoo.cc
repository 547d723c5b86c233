#include "src/models/model_zoo.h"

#include "src/util/logging.h"

namespace daydream {

const char* ModelName(ModelId id) {
  switch (id) {
    case ModelId::kResNet50:
      return "ResNet-50";
    case ModelId::kVgg19:
      return "VGG-19";
    case ModelId::kDenseNet121:
      return "DenseNet-121";
    case ModelId::kGnmt:
      return "GNMT";
    case ModelId::kBertBase:
      return "BERT_Base";
    case ModelId::kBertLarge:
      return "BERT_Large";
    case ModelId::kTinyMlp:
      return "TinyMLP";
  }
  return "?";
}

std::optional<ModelId> LookupModel(const std::string& name) {
  for (ModelId id : AllModels()) {
    if (name == ModelName(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::vector<ModelId> AllModels() {
  return {ModelId::kResNet50, ModelId::kVgg19,    ModelId::kDenseNet121, ModelId::kGnmt,
          ModelId::kBertBase, ModelId::kBertLarge, ModelId::kTinyMlp};
}

std::vector<ModelId> PaperModels() {
  return {ModelId::kResNet50, ModelId::kVgg19,    ModelId::kDenseNet121,
          ModelId::kGnmt,     ModelId::kBertBase, ModelId::kBertLarge};
}

int64_t DefaultBatch(ModelId id) {
  switch (id) {
    case ModelId::kResNet50:
      return 64;
    case ModelId::kVgg19:
      return 32;
    case ModelId::kDenseNet121:
      return 32;
    case ModelId::kGnmt:
      return 128;
    case ModelId::kBertBase:
      return 8;
    case ModelId::kBertLarge:
      return 2;  // 11 GB with 384-token sequences
    case ModelId::kTinyMlp:
      return 32;
  }
  DD_LOG(Fatal) << "unknown model";
  return 1;
}

ModelGraph BuildModel(ModelId id, int64_t batch) {
  switch (id) {
    case ModelId::kResNet50:
      return BuildResNet50(batch);
    case ModelId::kVgg19:
      return BuildVgg19(batch);
    case ModelId::kDenseNet121:
      return BuildDenseNet121(batch);
    case ModelId::kGnmt:
      return BuildGnmt(batch);
    case ModelId::kBertBase:
      return BuildBertBase(batch);
    case ModelId::kBertLarge:
      return BuildBertLarge(batch);
    case ModelId::kTinyMlp:
      return BuildTinyMlp(batch);
  }
  DD_LOG(Fatal) << "unknown model";
  return ModelGraph("invalid", 1);
}

ModelGraph BuildModel(ModelId id) { return BuildModel(id, DefaultBatch(id)); }

}  // namespace daydream
