#include "e2ebench/span.h"

#include "src/trace/chrome_trace.h"

namespace e2ebench {

void SpanLog::Write(std::ostream& os, int thread) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"thread\": " << thread << ", \"id\": " << i << ", \"name\": \""
       << daydream::JsonEscape(s.name) << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}\n";
  }
}

std::map<std::string, SpanStats> AggregateSpans(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> stats;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      SpanStats& entry = stats[s.name];
      entry.self_ms.push_back(static_cast<double>(s.self_ns()) / 1e6);
      entry.work += s.work;
      entry.self_s += static_cast<double>(s.self_ns()) / 1e9;
    }
  }
  return stats;
}

double Coverage(const std::vector<const SpanLog*>& logs) {
  double root_ns = 0;
  double root_self_ns = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent < 0) {
        root_ns += static_cast<double>(s.duration_ns());
        root_self_ns += static_cast<double>(s.self_ns());
      }
    }
  }
  return root_ns > 0 ? 1.0 - root_self_ns / root_ns : 0.0;
}

}  // namespace e2ebench
