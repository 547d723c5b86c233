// In-memory span log for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer's public functions in a
// ScopedSpan: name, start, end, parent span and request id. Spans stay in
// memory (one SpanLog per thread, no locking) and are written out when the
// run ends. A layer's self time is its span's duration minus the part its
// child spans cover.
#ifndef E2EBENCH_SPAN_H_
#define E2EBENCH_SPAN_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the same log; -1 = a root (one operation)
  int64_t request = -1;  // operation id shared by every span of one request
  int64_t child_ns = 0;  // summed duration of direct children
  int64_t work = 0;      // units the call processed (events read, tasks run)

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return duration_ns() - child_ns; }
};

class SpanLog {
 public:
  int Begin(std::string name, int64_t request) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    spans_[static_cast<size_t>(index)].start_ns = NowNs();
    return index;
  }

  void End(int index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    open_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ns += span.duration_ns();
    }
  }

  // Appends an already-finished root span (for calls whose span name is
  // only known once they return, e.g. a cache hit or miss).
  void Record(std::string name, int64_t start_ns, int64_t end_ns, int64_t request) {
    Span span;
    span.name = std::move(name);
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.request = request;
    spans_.push_back(std::move(span));
  }

  void SetWork(int index, int64_t work) { spans_[static_cast<size_t>(index)].work = work; }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, start/end (ns), parent, request.
  void Write(std::ostream& os, int thread) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times one call when `log` is non-null; free otherwise (the untraced run
// passes null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t request)
      : log_(log), index_(log != nullptr ? log->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(index_);
    }
  }
  void set_work(int64_t work) {
    if (log_ != nullptr) {
      log_->SetWork(index_, work);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Per-name aggregates over one or more logs.
struct SpanStats {
  std::vector<double> self_ms;   // one sample per span
  int64_t work = 0;              // summed Span::work
  double self_s = 0;             // summed self time
};
std::map<std::string, SpanStats> AggregateSpans(const std::vector<const SpanLog*>& logs);

// Share of the root spans' time that their descendants' self times cover:
// 1 - (sum of root self time) / (sum of root duration). Root self time is the
// benchmark's own glue between layer calls — time no layer accounts for.
double Coverage(const std::vector<const SpanLog*>& logs);

}  // namespace e2ebench

#endif  // E2EBENCH_SPAN_H_
