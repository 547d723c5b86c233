#include "src/trace/trace.h"

#include <algorithm>
#include <limits>
#include <set>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace daydream {

std::string TraceValidation::Summary() const {
  if (ok()) {
    return "trace valid";
  }
  std::string out = StrFormat("%zu violations:", violations.size());
  const size_t show = std::min<size_t>(violations.size(), 10);
  for (size_t i = 0; i < show; ++i) {
    out += "\n  " + violations[i];
  }
  if (violations.size() > show) {
    out += StrFormat("\n  ... and %zu more", violations.size() - show);
  }
  return out;
}

std::string CheckGradient(const GradientInfo& g) {
  if (g.bytes < 0) {
    return "negative gradient bytes";
  }
  if (g.layer_id < -1 || g.bucket_id < -1) {
    return "gradient layer/bucket out of range";
  }
  return "";
}

void Trace::SortByStart() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.start < b.start; });
}

TimeNs Trace::begin_time() const {
  TimeNs t = std::numeric_limits<TimeNs>::max();
  for (const TraceEvent& e : events_) {
    t = std::min(t, e.start);
  }
  return events_.empty() ? 0 : t;
}

TimeNs Trace::end_time() const {
  TimeNs t = std::numeric_limits<TimeNs>::min();
  for (const TraceEvent& e : events_) {
    t = std::max(t, e.end());
  }
  return events_.empty() ? 0 : t;
}

std::vector<const TraceEvent*> Trace::CpuEvents(int thread_id) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& e : events_) {
    if (e.is_cpu() && e.thread_id == thread_id) {
      out.push_back(&e);
    }
  }
  return out;
}

std::vector<const TraceEvent*> Trace::GpuEvents(int stream_id) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& e : events_) {
    if (e.is_gpu() && e.stream_id == stream_id) {
      out.push_back(&e);
    }
  }
  return out;
}

std::vector<int> Trace::CpuThreadIds() const {
  std::set<int> ids;
  for (const TraceEvent& e : events_) {
    if (e.is_cpu()) {
      ids.insert(e.thread_id);
    }
  }
  return {ids.begin(), ids.end()};
}

std::vector<int> Trace::GpuStreamIds() const {
  std::set<int> ids;
  for (const TraceEvent& e : events_) {
    if (e.is_gpu()) {
      ids.insert(e.stream_id);
    }
  }
  return {ids.begin(), ids.end()};
}

std::vector<int> Trace::CommChannelIds() const {
  std::set<int> ids;
  for (const TraceEvent& e : events_) {
    if (e.is_comm()) {
      ids.insert(e.channel_id);
    }
  }
  return {ids.begin(), ids.end()};
}

int Trace::CountKind(EventKind kind) const {
  int n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) {
      ++n;
    }
  }
  return n;
}

std::vector<LayerSpan> Trace::ExtractLayerSpans() const {
  // Key: (layer_id, phase). Markers for the same key must alternate begin/end.
  std::map<std::pair<int, int>, TraceEvent> open;
  std::vector<LayerSpan> spans;
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::kLayerMarker) {
      continue;
    }
    const auto key = std::make_pair(e.layer_id, static_cast<int>(e.phase));
    if (e.marker_begin) {
      open[key] = e;
    } else {
      auto it = open.find(key);
      if (it == open.end()) {
        continue;  // Validate() reports this; keep extraction best-effort.
      }
      LayerSpan span;
      span.layer_id = e.layer_id;
      span.layer_name = it->second.name;
      span.phase = e.phase;
      span.thread_id = e.thread_id;
      span.begin = it->second.start;
      span.end = e.start;
      spans.push_back(span);
      open.erase(it);
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const LayerSpan& a, const LayerSpan& b) { return a.begin < b.begin; });
  return spans;
}

namespace {

// Checks that the events (already filtered to one execution lane) do not overlap.
void CheckNoOverlap(const std::vector<const TraceEvent*>& lane, const char* lane_kind, int lane_id,
                    std::vector<std::string>* violations) {
  std::vector<const TraceEvent*> sorted = lane;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent* a, const TraceEvent* b) { return a->start < b->start; });
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i]->start < sorted[i - 1]->end()) {
      violations->push_back(StrFormat(
          "%s %d: overlap between '%s' [%.3f,%.3f)us and '%s' [%.3f,%.3f)us", lane_kind, lane_id,
          sorted[i - 1]->name.c_str(), ToUs(sorted[i - 1]->start), ToUs(sorted[i - 1]->end()),
          sorted[i]->name.c_str(), ToUs(sorted[i]->start), ToUs(sorted[i]->end())));
    }
  }
}

}  // namespace

TraceValidation Trace::Validate() const {
  TraceValidation result;
  auto* v = &result.violations;

  for (const TraceEvent& e : events_) {
    const std::string broken = CheckEvent(e);
    if (!broken.empty()) {
      v->push_back(StrFormat("%s: %s", broken.c_str(), e.DebugString().c_str()));
    }
  }

  // Lane exclusivity. Layer markers are instantaneous instrumentation stamps,
  // not scheduled tasks, so they are excluded from the overlap check.
  for (int tid : CpuThreadIds()) {
    std::vector<const TraceEvent*> lane;
    for (const TraceEvent* e : CpuEvents(tid)) {
      if (e->kind != EventKind::kLayerMarker) {
        lane.push_back(e);
      }
    }
    CheckNoOverlap(lane, "cpu thread", tid, v);
  }
  for (int sid : GpuStreamIds()) {
    CheckNoOverlap(GpuEvents(sid), "gpu stream", sid, v);
  }

  // Correlation consistency: one launching API <-> one GPU task per id; the API
  // must start before its GPU task starts (kernels launch asynchronously).
  std::map<int64_t, const TraceEvent*> launches;
  std::map<int64_t, const TraceEvent*> gpu_tasks;
  for (const TraceEvent& e : events_) {
    if (e.correlation_id == 0) {
      continue;
    }
    if (e.kind == EventKind::kRuntimeApi &&
        (e.api == ApiKind::kLaunchKernel || e.api == ApiKind::kMemcpyAsync ||
         e.api == ApiKind::kMemcpySync)) {
      if (!launches.emplace(e.correlation_id, &e).second) {
        v->push_back(StrFormat("duplicate launch correlation id %lld",
                               static_cast<long long>(e.correlation_id)));
      }
    } else if (e.is_gpu()) {
      if (!gpu_tasks.emplace(e.correlation_id, &e).second) {
        v->push_back(StrFormat("duplicate gpu correlation id %lld",
                               static_cast<long long>(e.correlation_id)));
      }
    }
  }
  for (const auto& [corr, gpu] : gpu_tasks) {
    auto it = launches.find(corr);
    if (it == launches.end()) {
      v->push_back(StrFormat("gpu task '%s' (corr %lld) has no launching API",
                             gpu->name.c_str(), static_cast<long long>(corr)));
      continue;
    }
    if (it->second->start > gpu->start) {
      v->push_back(StrFormat("gpu task '%s' starts before its launch API (corr %lld)",
                             gpu->name.c_str(), static_cast<long long>(corr)));
    }
  }

  // Layer markers must pair begin/end per (layer, phase).
  std::map<std::pair<int, int>, int> marker_depth;
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::kLayerMarker) {
      continue;
    }
    const auto key = std::make_pair(e.layer_id, static_cast<int>(e.phase));
    marker_depth[key] += e.marker_begin ? 1 : -1;
    if (marker_depth[key] < 0) {
      v->push_back(StrFormat("layer %d %s: end marker without begin", e.layer_id,
                             ToString(e.phase)));
      marker_depth[key] = 0;
    }
  }
  for (const auto& [key, depth] : marker_depth) {
    if (depth != 0) {
      v->push_back(
          StrFormat("layer %d phase %d: %d unmatched begin markers", key.first, key.second, depth));
    }
  }

  return result;
}

}  // namespace daydream
