// Trace container: the full profiling output of one training iteration.
//
// Besides the raw event stream, a Trace carries the side-channel data the paper
// obtains by instrumenting the framework (Section 4.1 / Phase 1): gradient
// tensor sizes per layer and the layer->bucket grouping PyTorch uses for NCCL
// allReduce calls. Daydream's graph builder consumes exactly this object.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "src/trace/trace_event.h"
#include "src/util/time_units.h"

namespace daydream {

// CPU-side [begin, end] window of one layer phase, reconstructed from layer
// markers. Used by the synchronization-free task-to-layer mapping (§4.3).
struct LayerSpan {
  int layer_id = -1;
  std::string layer_name;
  Phase phase = Phase::kUnknown;
  int thread_id = -1;
  TimeNs begin = 0;
  TimeNs end = 0;
};

// Instrumented gradient metadata for one layer (collected in a single-worker
// profile, used to build the distributed dependency graph).
struct GradientInfo {
  int layer_id = -1;
  int64_t bytes = 0;      // size of this layer's weight gradients
  int bucket_id = -1;     // PyTorch DDP gradient bucket this layer maps to
};

// CheckEvent's counterpart for the gradient side channel: bytes are
// non-negative and the layer and bucket ids are >= -1. Returns "" when the
// record holds, else the reason.
std::string CheckGradient(const GradientInfo& g);

// Result of Trace::Validate(). ok() iff no violations were recorded.
struct TraceValidation {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

class Trace {
 public:
  Trace() = default;

  // Metadata.
  void set_model_name(std::string name) { model_name_ = std::move(name); }
  const std::string& model_name() const { return model_name_; }
  void set_config(std::string config) { config_ = std::move(config); }
  const std::string& config() const { return config_; }

  // Event stream.
  void Add(TraceEvent event) { events_.push_back(std::move(event)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent>& mutable_events() { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Sorts events by (start, kind) — executors may emit out of order.
  void SortByStart();

  // Instrumentation side channel.
  void AddGradientInfo(GradientInfo info) { gradients_.push_back(info); }
  const std::vector<GradientInfo>& gradients() const { return gradients_; }

  // Whole-trace time bounds.
  TimeNs begin_time() const;
  TimeNs end_time() const;
  TimeNs makespan() const { return end_time() - begin_time(); }

  // Views (computed on demand; event order follows the stored order).
  std::vector<const TraceEvent*> CpuEvents(int thread_id) const;
  std::vector<const TraceEvent*> GpuEvents(int stream_id) const;
  std::vector<int> CpuThreadIds() const;
  std::vector<int> GpuStreamIds() const;
  std::vector<int> CommChannelIds() const;
  int CountKind(EventKind kind) const;

  // Reconstructs per-layer CPU windows from the kLayerMarker events. Markers
  // must nest properly per (layer, phase); violations are a validation error.
  std::vector<LayerSpan> ExtractLayerSpans() const;

  // Structural validation:
  //  - every event holds the event contract (CheckEvent),
  //  - events in the same CPU thread do not overlap in time,
  //  - events in the same GPU stream do not overlap in time,
  //  - correlation ids pair exactly one launch API with one GPU task,
  //  - every GPU task has a launching API that *precedes* it,
  //  - layer markers pair begin/end correctly.
  TraceValidation Validate() const;

 private:
  std::string model_name_;
  std::string config_;
  std::vector<TraceEvent> events_;
  std::vector<GradientInfo> gradients_;
};

}  // namespace daydream

#endif  // SRC_TRACE_TRACE_H_
