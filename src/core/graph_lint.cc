#include "src/core/graph_lint.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <queue>
#include <sstream>
#include <utility>

#include "src/core/sim_plan.h"
#include "src/core/transform.h"
#include "src/trace/chrome_trace.h"  // JsonEscape
#include "src/util/string_util.h"

namespace daydream {

const char* ToString(LintSeverity severity) {
  return severity == LintSeverity::kError ? "error" : "warning";
}

const LintFinding* LintReport::FirstError() const {
  for (const LintFinding& f : findings) {
    if (f.severity == LintSeverity::kError) {
      return &f;
    }
  }
  return nullptr;
}

std::string LintReport::Summary() const {
  if (num_errors == 0 && num_warnings == 0) {
    return StrFormat("clean, %zu passes", passes_run.size());
  }
  return StrFormat("%d error%s, %d warning%s (%zu passes%s)", num_errors,
                   num_errors == 1 ? "" : "s", num_warnings, num_warnings == 1 ? "" : "s",
                   passes_run.size(), truncated ? ", findings truncated" : "");
}

std::string LintReport::ToString() const {
  std::ostringstream os;
  for (const LintFinding& f : findings) {
    os << "[" << daydream::ToString(f.severity) << "] " << f.pass << ": " << f.message << "\n";
  }
  os << Summary() << "\n";
  return os.str();
}

std::string LintReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << StrFormat("  \"ok\": %s,\n  \"errors\": %d,\n  \"warnings\": %d,\n"
                  "  \"truncated\": %s,\n",
                  ok() ? "true" : "false", num_errors, num_warnings,
                  truncated ? "true" : "false");
  os << "  \"passes\": [";
  for (size_t i = 0; i < passes_run.size(); ++i) {
    os << "\"" << JsonEscape(passes_run[i]) << "\"" << (i + 1 < passes_run.size() ? ", " : "");
  }
  os << "],\n  \"findings\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    os << StrFormat("    {\"pass\": \"%s\", \"severity\": \"%s\", \"message\": \"%s\", ",
                    JsonEscape(f.pass).c_str(), daydream::ToString(f.severity),
                    JsonEscape(f.message).c_str());
    os << "\"tasks\": [";
    for (size_t t = 0; t < f.tasks.size(); ++t) {
      os << f.tasks[t] << (t + 1 < f.tasks.size() ? ", " : "");
    }
    os << StrFormat("], \"lane\": \"%s\"}%s\n", JsonEscape(f.lane).c_str(),
                    i + 1 < findings.size() ? "," : "");
  }
  os << "  ]\n}\n";
  return os.str();
}

// Collects findings and enforces the max_findings cap. Passes check full()
// at loop heads so a badly broken graph does not drown the report (or the
// runtime) in repeats of one defect.
struct GraphLint::Sink {
  explicit Sink(LintReport* report, const LintOptions& options)
      : report_(report), max_(options.max_findings) {}

  void BeginPass(const char* name) { report_->passes_run.push_back(name); }

  void Emit(LintFinding finding) {
    if (full()) {
      report_->truncated = true;
      return;
    }
    if (finding.severity == LintSeverity::kError) {
      ++report_->num_errors;
    } else {
      ++report_->num_warnings;
    }
    report_->findings.push_back(std::move(finding));
  }

  // A pass consulting full() is about to skip work when it returns true, so
  // reaching the cap marks the report truncated: findings past the cap are
  // never even computed, let alone recorded.
  bool full() const {
    if (static_cast<int>(report_->findings.size()) >= max_) {
      report_->truncated = true;
      return true;
    }
    return false;
  }

  LintReport* report_;
  int max_;
};

namespace {

// "task 12 ('vgg_conv3_fwd')" — the shape every finding names tasks in.
std::string TaskRef(const DependencyGraph& graph, TaskId id) {
  if (id < 0 || id >= static_cast<TaskId>(graph.capacity())) {
    return StrFormat("task %d (out of range)", id);
  }
  const Task& t = graph.task(id);
  if (t.name.empty()) {
    return StrFormat("task %d", id);
  }
  return StrFormat("task %d ('%s')", id, t.name.c_str());
}

LintFinding MakeFinding(const char* pass, LintSeverity severity, std::string message,
                        std::vector<TaskId> tasks = {}, std::string lane = {}) {
  LintFinding f;
  f.pass = pass;
  f.severity = severity;
  f.message = std::move(message);
  f.tasks = std::move(tasks);
  f.lane = std::move(lane);
  return f;
}

}  // namespace

void GraphLint::PassEdgeIntegrity(const DependencyGraph& graph, Sink* sink) {
  sink->BeginPass("edge-integrity");
  const TaskId capacity = static_cast<TaskId>(graph.capacity());
  std::vector<TaskId> scratch;
  for (const auto& n : graph.tasks_) {
    if (!n.alive || sink->full()) {
      continue;
    }
    const TaskId id = n.task.id;
    for (TaskId c : n.children) {
      if (c < 0 || c >= capacity || !graph.tasks_[static_cast<size_t>(c)].alive) {
        sink->Emit(MakeFinding("edge-integrity", LintSeverity::kError,
                               StrFormat("dangling edge %s -> %s: target is %s",
                                         TaskRef(graph, id).c_str(), TaskRef(graph, c).c_str(),
                                         (c < 0 || c >= capacity) ? "out of range" : "dead"),
                               {id, c}));
        continue;
      }
      if (c == id) {
        sink->Emit(MakeFinding("edge-integrity", LintSeverity::kError,
                               StrFormat("self edge on %s", TaskRef(graph, id).c_str()), {id}));
        continue;
      }
      // count == 0 means the back-link is missing; a count above 1 is a
      // duplicated-but-symmetric edge, which the duplicate check below
      // reports under its own name.
      const auto& back = graph.tasks_[static_cast<size_t>(c)].parents;
      if (std::count(back.begin(), back.end(), id) == 0) {
        sink->Emit(MakeFinding(
            "edge-integrity", LintSeverity::kError,
            StrFormat("asymmetric edge %s -> %s: child does not record the parent",
                      TaskRef(graph, id).c_str(), TaskRef(graph, c).c_str()),
            {id, c}));
      }
    }
    for (TaskId p : n.parents) {
      if (p < 0 || p >= capacity || !graph.tasks_[static_cast<size_t>(p)].alive) {
        sink->Emit(MakeFinding("edge-integrity", LintSeverity::kError,
                               StrFormat("dangling reverse edge %s <- %s: parent is %s",
                                         TaskRef(graph, id).c_str(), TaskRef(graph, p).c_str(),
                                         (p < 0 || p >= capacity) ? "out of range" : "dead"),
                               {id, p}));
        continue;
      }
      const auto& fwd = graph.tasks_[static_cast<size_t>(p)].children;
      if (std::count(fwd.begin(), fwd.end(), id) == 0) {
        sink->Emit(MakeFinding(
            "edge-integrity", LintSeverity::kError,
            StrFormat("asymmetric edge %s -> %s: parent does not record the child",
                      TaskRef(graph, p).c_str(), TaskRef(graph, id).c_str()),
            {p, id}));
      }
    }
    // Duplicate check over a sorted scratch copy: O(d log d), usable on
    // post-Remove high-fanout nodes.
    scratch.assign(n.children.begin(), n.children.end());
    std::sort(scratch.begin(), scratch.end());
    const auto dup = std::adjacent_find(scratch.begin(), scratch.end());
    if (dup != scratch.end()) {
      sink->Emit(MakeFinding("edge-integrity", LintSeverity::kError,
                             StrFormat("duplicate edge %s -> %s", TaskRef(graph, id).c_str(),
                                       TaskRef(graph, *dup).c_str()),
                             {id, *dup}));
    }
    scratch.assign(n.parents.begin(), n.parents.end());
    std::sort(scratch.begin(), scratch.end());
    const auto rdup = std::adjacent_find(scratch.begin(), scratch.end());
    if (rdup != scratch.end()) {
      sink->Emit(MakeFinding("edge-integrity", LintSeverity::kError,
                             StrFormat("duplicate reverse edge %s <- %s",
                                       TaskRef(graph, id).c_str(), TaskRef(graph, *rdup).c_str()),
                             {id, *rdup}));
    }
  }
}

void GraphLint::PassAcyclic(const DependencyGraph& graph, Sink* sink, int* starved) {
  sink->BeginPass("acyclic");
  *starved = 0;
  const size_t capacity = graph.tasks_.size();

  // Kahn count first: cheap, and the processed count sizes the starved set
  // for schedule-smell whether or not the DFS below finds a printable cycle.
  {
    std::vector<int32_t> refs(capacity, 0);
    std::queue<TaskId> ready;
    int processed = 0;
    for (const auto& n : graph.tasks_) {
      if (!n.alive) {
        continue;
      }
      refs[static_cast<size_t>(n.task.id)] = static_cast<int32_t>(n.parents.size());
      if (n.parents.empty()) {
        ready.push(n.task.id);
      }
    }
    while (!ready.empty()) {
      const TaskId id = ready.front();
      ready.pop();
      ++processed;
      for (TaskId c : graph.tasks_[static_cast<size_t>(id)].children) {
        if (c < 0 || c >= static_cast<TaskId>(capacity) ||
            !graph.tasks_[static_cast<size_t>(c)].alive) {
          continue;  // dangling edges are edge-integrity findings
        }
        if (--refs[static_cast<size_t>(c)] == 0) {
          ready.push(c);
        }
      }
    }
    *starved = graph.num_alive_ - processed;
    if (*starved == 0) {
      return;  // acyclic
    }
  }

  // There is a cycle: find one concrete path with an iterative DFS (explicit
  // stack; cluster graphs are far too deep for recursion).
  std::vector<uint8_t> color(capacity, 0);  // 0 white / 1 on stack / 2 done
  struct Frame {
    TaskId id;
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (const auto& root : graph.tasks_) {
    if (!root.alive || color[static_cast<size_t>(root.task.id)] != 0) {
      continue;
    }
    stack.clear();
    stack.push_back({root.task.id});
    color[static_cast<size_t>(root.task.id)] = 1;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& children = graph.tasks_[static_cast<size_t>(frame.id)].children;
      if (frame.next_child < children.size()) {
        const TaskId c = children[frame.next_child++];
        if (c < 0 || c >= static_cast<TaskId>(capacity) ||
            !graph.tasks_[static_cast<size_t>(c)].alive) {
          continue;
        }
        if (color[static_cast<size_t>(c)] == 0) {
          color[static_cast<size_t>(c)] = 1;
          stack.push_back({c});
          continue;
        }
        if (color[static_cast<size_t>(c)] != 1) {
          continue;  // finished subtree
        }
        // Found a back edge: the cycle is c .. top-of-stack, closed by c.
        std::vector<TaskId> cycle;
        size_t from = 0;
        while (from < stack.size() && stack[from].id != c) {
          ++from;
        }
        for (size_t i = from; i < stack.size(); ++i) {
          cycle.push_back(stack[i].id);
        }
        cycle.push_back(c);

        std::ostringstream path;
        const size_t kMaxShown = 12;
        for (size_t i = 0; i < cycle.size(); ++i) {
          if (cycle.size() > kMaxShown + 2 && i == kMaxShown) {
            path << " -> ... (" << cycle.size() - kMaxShown - 1 << " more)";
            i = cycle.size() - 2;  // resume at the closing task
            continue;
          }
          if (i > 0) {
            path << " -> ";
          }
          path << TaskRef(graph, cycle[i]);
        }
        // Message built before std::move(cycle): the two are arguments of the
        // same call, and argument evaluation order is unspecified.
        std::string message =
            StrFormat("dependency cycle of length %zu: %s", cycle.size() - 1,
                      path.str().c_str());
        sink->Emit(MakeFinding("acyclic", LintSeverity::kError, std::move(message),
                               std::move(cycle)));
        return;  // one concrete path explains the defect; Kahn sized the rest
      }
      color[static_cast<size_t>(frame.id)] = 2;
      stack.pop_back();
    }
  }
}

void GraphLint::PassThreadSequence(const DependencyGraph& graph, Sink* sink) {
  sink->BeginPass("thread-sequence");
  sink->BeginPass("orphan-lane");
  const TaskId capacity = static_cast<TaskId>(graph.tasks_.size());
  std::vector<uint8_t> on_chain(static_cast<size_t>(capacity), 0);

  for (size_t lane = 0; lane < graph.threads_.size(); ++lane) {
    const auto& seq = graph.threads_[lane];
    const std::string label = seq.thread.Label();
    int count = 0;
    TaskId prev = kInvalidTask;
    bool walk_ok = true;
    for (TaskId id = seq.head; id != kInvalidTask;) {
      if (id < 0 || id >= capacity) {
        sink->Emit(MakeFinding("thread-sequence", LintSeverity::kError,
                               StrFormat("sequence link on lane %s points at %s", label.c_str(),
                                         TaskRef(graph, id).c_str()),
                               {id}, label));
        walk_ok = false;
        break;
      }
      if (count > graph.num_alive_) {
        sink->Emit(MakeFinding(
            "thread-sequence", LintSeverity::kError,
            StrFormat("sequence cycle on lane %s (chain revisits %s)", label.c_str(),
                      TaskRef(graph, id).c_str()),
            {id}, label));
        walk_ok = false;
        break;
      }
      const auto& n = graph.tasks_[static_cast<size_t>(id)];
      if (!n.alive) {
        sink->Emit(MakeFinding("thread-sequence", LintSeverity::kError,
                               StrFormat("dead %s still linked on lane %s",
                                         TaskRef(graph, id).c_str(), label.c_str()),
                               {id}, label));
      } else if (on_chain[static_cast<size_t>(id)] != 0) {
        sink->Emit(MakeFinding("thread-sequence", LintSeverity::kError,
                               StrFormat("%s linked on more than one lane chain",
                                         TaskRef(graph, id).c_str()),
                               {id}, label));
      } else {
        on_chain[static_cast<size_t>(id)] = 1;
      }
      if (n.lane != static_cast<int32_t>(lane) || !(n.task.thread == seq.thread)) {
        sink->Emit(MakeFinding(
            "thread-sequence", LintSeverity::kError,
            StrFormat("%s filed under the wrong thread: chained on lane %s but records "
                      "lane %d / thread %s",
                      TaskRef(graph, id).c_str(), label.c_str(), n.lane,
                      n.task.thread.Label().c_str()),
            {id}, label));
      }
      if (n.seq_prev != prev) {
        sink->Emit(MakeFinding(
            "thread-sequence", LintSeverity::kError,
            StrFormat("asymmetric splice at %s on lane %s: prev link is %d, chain "
                      "predecessor is %d",
                      TaskRef(graph, id).c_str(), label.c_str(), n.seq_prev, prev),
            {id}, label));
      }
      prev = id;
      id = n.seq_next;
      ++count;
      if (sink->full()) {
        return;
      }
    }
    if (!walk_ok) {
      continue;
    }
    if (prev != seq.tail) {
      sink->Emit(MakeFinding("thread-sequence", LintSeverity::kError,
                             StrFormat("stale tail on lane %s: chain ends at %d, tail records %d",
                                       label.c_str(), prev, seq.tail),
                             {}, label));
    }
    if (count != seq.alive_count) {
      sink->Emit(MakeFinding(
          "thread-sequence", LintSeverity::kError,
          StrFormat("alive-count drift on lane %s: chain holds %d tasks, lane records %d",
                    label.c_str(), count, seq.alive_count),
          {}, label));
    }
    if (seq.alive_count > 0 && count == 0) {
      sink->Emit(MakeFinding(
          "orphan-lane", LintSeverity::kError,
          StrFormat("lane %s records %d alive tasks but its chain is empty", label.c_str(),
                    seq.alive_count),
          {}, label));
    }
  }

  for (const auto& n : graph.tasks_) {
    if (sink->full()) {
      return;
    }
    if (n.alive && on_chain[static_cast<size_t>(n.task.id)] == 0) {
      sink->Emit(MakeFinding(
          "orphan-lane", LintSeverity::kError,
          StrFormat("alive %s (thread %s) is not linked on any lane chain",
                    TaskRef(graph, n.task.id).c_str(), n.task.thread.Label().c_str()),
          {n.task.id}, n.task.thread.Label()));
    }
  }
}

void GraphLint::PassDurationSanity(const DependencyGraph& graph, Sink* sink) {
  sink->BeginPass("duration-sanity");
  for (const auto& n : graph.tasks_) {
    if (!n.alive) {
      continue;
    }
    if (sink->full()) {
      return;
    }
    if (n.task.duration < 0) {
      sink->Emit(MakeFinding("duration-sanity", LintSeverity::kError,
                             StrFormat("%s has negative duration %lld ns",
                                       TaskRef(graph, n.task.id).c_str(),
                                       static_cast<long long>(n.task.duration)),
                             {n.task.id}));
    }
    if (n.task.gap < 0) {
      sink->Emit(MakeFinding("duration-sanity", LintSeverity::kError,
                             StrFormat("%s has negative gap %lld ns",
                                       TaskRef(graph, n.task.id).c_str(),
                                       static_cast<long long>(n.task.gap)),
                             {n.task.id}));
    }
  }
}

void GraphLint::PassTimestampMonotone(const DependencyGraph& graph, Sink* sink) {
  sink->BeginPass("timestamp-monotone");
  const TaskId capacity = static_cast<TaskId>(graph.tasks_.size());
  for (size_t lane = 0; lane < graph.threads_.size(); ++lane) {
    const auto& seq = graph.threads_[lane];
    TaskId prev_id = kInvalidTask;
    TimeNs prev_start = 0;
    int count = 0;
    for (TaskId id = seq.head; id != kInvalidTask; id = graph.tasks_[static_cast<size_t>(id)].seq_next) {
      // Bounded, validity-guarded walk: broken splices are thread-sequence
      // findings, not a reason to loop or crash here.
      if (id < 0 || id >= capacity || ++count > graph.num_alive_ || sink->full()) {
        break;
      }
      const Task& t = graph.tasks_[static_cast<size_t>(id)].task;
      // start == 0 is the unmeasured shape (transform-inserted tasks); the
      // simulator assigns their placement, so only measured starts are held
      // to the profile's per-thread order.
      if (t.start == 0) {
        continue;
      }
      if (prev_id != kInvalidTask && t.start < prev_start) {
        sink->Emit(MakeFinding(
            "timestamp-monotone", LintSeverity::kWarning,
            StrFormat("measured start goes backward on lane %s: %s at %lld ns follows %s "
                      "at %lld ns",
                      seq.thread.Label().c_str(), TaskRef(graph, id).c_str(),
                      static_cast<long long>(t.start), TaskRef(graph, prev_id).c_str(),
                      static_cast<long long>(prev_start)),
            {prev_id, id}, seq.thread.Label()));
      }
      prev_id = id;
      prev_start = t.start;
    }
  }
}

void GraphLint::PassIterationAnchor(const DependencyGraph& graph, Sink* sink) {
  sink->BeginPass("iteration-anchor");
  const std::vector<TimeNs> starts = IterationStarts(graph);
  if (starts.size() <= 1) {
    return;  // single-iteration profile: no windows to violate
  }
  auto window_of = [&starts](TimeNs start) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), start);
    return static_cast<size_t>(it - starts.begin()) - 1;
  };
  const TaskId capacity = static_cast<TaskId>(graph.tasks_.size());
  for (const auto& n : graph.tasks_) {
    if (!n.alive || n.task.start == 0) {
      continue;
    }
    if (sink->full()) {
      return;
    }
    const size_t from_window = window_of(n.task.start);
    for (TaskId c : n.children) {
      if (c < 0 || c >= capacity || !graph.tasks_[static_cast<size_t>(c)].alive) {
        continue;  // edge-integrity territory
      }
      const Task& child = graph.tasks_[static_cast<size_t>(c)].task;
      if (child.start == 0) {
        continue;  // unmeasured (inserted) tasks have no window yet
      }
      const size_t to_window = window_of(child.start);
      if (from_window > to_window) {
        sink->Emit(MakeFinding(
            "iteration-anchor", LintSeverity::kError,
            StrFormat("edge %s -> %s points backward across iteration windows (%zu -> %zu): "
                      "anchors must be resolved per IterationStarts window",
                      TaskRef(graph, n.task.id).c_str(), TaskRef(graph, c).c_str(), from_window,
                      to_window),
            {n.task.id, c}));
      }
    }
  }
}

void GraphLint::PassScheduleSmell(const DependencyGraph& graph, int starved, Sink* sink) {
  sink->BeginPass("schedule-smell");
  if (starved > 0) {
    sink->Emit(MakeFinding(
        "schedule-smell", LintSeverity::kError,
        StrFormat("%d task%s can never become ready (blocked behind a cycle); simulation "
                  "would stall",
                  starved, starved == 1 ? "" : "s")));
  }
  for (const auto& n : graph.tasks_) {
    if (!n.alive) {
      continue;
    }
    if (sink->full()) {
      return;
    }
    if (n.task.is_comm() && n.task.bytes > 0 && n.task.duration == 0) {
      sink->Emit(MakeFinding(
          "schedule-smell", LintSeverity::kWarning,
          StrFormat("zero-duration communication %s carries %lld priced bytes on lane %s "
                    "(mispriced link?)",
                    TaskRef(graph, n.task.id).c_str(), static_cast<long long>(n.task.bytes),
                    n.task.thread.Label().c_str()),
          {n.task.id}, n.task.thread.Label()));
    }
  }
}

LintReport GraphLint::LintStructure(const DependencyGraph& graph, const LintOptions& options) {
  LintReport report;
  Sink sink(&report, options);
  PassEdgeIntegrity(graph, &sink);
  PassThreadSequence(graph, &sink);
  int starved = 0;
  PassAcyclic(graph, &sink, &starved);
  return report;
}

LintReport GraphLint::LintGraph(const DependencyGraph& graph, const LintOptions& options) {
  LintReport report;
  Sink sink(&report, options);
  PassEdgeIntegrity(graph, &sink);
  PassThreadSequence(graph, &sink);
  int starved = 0;
  PassAcyclic(graph, &sink, &starved);
  PassDurationSanity(graph, &sink);
  PassTimestampMonotone(graph, &sink);
  PassIterationAnchor(graph, &sink);
  PassScheduleSmell(graph, starved, &sink);
  return report;
}

void GraphLint::PassPlanStamp(const SimPlan& plan, const DependencyGraph& graph, Sink* sink,
                              bool* stale) {
  sink->BeginPass("plan-stamp");
  *stale = true;
  if (plan.empty()) {
    sink->Emit(MakeFinding("plan-stamp", LintSeverity::kError,
                           "plan is empty (never compiled)"));
    return;
  }
  const auto& s = *plan.structure_;
  if (s.graph_stamp != graph.structure_stamp()) {
    sink->Emit(MakeFinding(
        "plan-stamp", LintSeverity::kError,
        StrFormat("stale structure stamp: plan compiled at stamp %llu, graph is at %llu — "
                  "the graph mutated structurally after Compile (Retime cannot cover this)",
                  static_cast<unsigned long long>(s.graph_stamp),
                  static_cast<unsigned long long>(graph.structure_stamp()))));
    return;
  }
  if (s.capacity != graph.capacity()) {
    sink->Emit(MakeFinding("plan-stamp", LintSeverity::kError,
                           StrFormat("capacity mismatch: plan froze %d task slots, graph has %d",
                                     s.capacity, graph.capacity())));
    return;
  }
  if (static_cast<int>(s.task_ids.size()) != graph.num_alive()) {
    sink->Emit(MakeFinding(
        "plan-stamp", LintSeverity::kError,
        StrFormat("task-set mismatch: plan holds %zu tasks, graph has %d alive",
                  s.task_ids.size(), graph.num_alive())));
    return;
  }
  bool ids_ok = true;
  for (size_t i = 0; i < s.task_ids.size(); ++i) {
    if (!graph.alive(s.task_ids[i]) || (i > 0 && s.task_ids[i] <= s.task_ids[i - 1])) {
      sink->Emit(MakeFinding(
          "plan-stamp", LintSeverity::kError,
          StrFormat("plan index %zu maps to %s, which is %s", i,
                    TaskRef(graph, s.task_ids[i]).c_str(),
                    graph.alive(s.task_ids[i]) ? "out of ascending id order" : "not alive"),
          {s.task_ids[i]}));
      ids_ok = false;
      break;
    }
  }
  *stale = !ids_ok;
}

void GraphLint::PassPlanCsr(const SimPlan& plan, const DependencyGraph& graph, bool stale,
                            Sink* sink) {
  sink->BeginPass("plan-csr");
  if (plan.empty()) {
    return;  // plan-stamp already said so
  }
  const auto& s = *plan.structure_;
  const size_t n = s.task_ids.size();
  if (s.succ_offset.size() != n + 1 || s.pred_count.size() != n || plan.duration_.size() != n ||
      plan.gap_.size() != n || plan.order_key_.size() != n) {
    sink->Emit(MakeFinding(
        "plan-csr", LintSeverity::kError,
        StrFormat("array sizes disagree: %zu tasks but succ_offset %zu, pred_count %zu, "
                  "duration %zu, gap %zu, order_key %zu",
                  n, s.succ_offset.size(), s.pred_count.size(), plan.duration_.size(),
                  plan.gap_.size(), plan.order_key_.size())));
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (s.succ_offset[i] > s.succ_offset[i + 1]) {
      sink->Emit(MakeFinding("plan-csr", LintSeverity::kError,
                             StrFormat("succ_offset not monotone at plan index %zu (%d > %d)", i,
                                       s.succ_offset[i], s.succ_offset[i + 1])));
      return;
    }
  }
  if (s.succ_offset[0] != 0 || static_cast<size_t>(s.succ_offset[n]) != s.succ.size()) {
    sink->Emit(MakeFinding("plan-csr", LintSeverity::kError,
                           StrFormat("succ_offset does not cover succ: [%d, %d] vs %zu entries",
                                     s.succ_offset[0], s.succ_offset[n], s.succ.size())));
    return;
  }

  // Successor symmetry: the indegree implied by the successor lists must be
  // exactly pred_count, and the zero-indegree set must be initial_ready.
  std::vector<int32_t> indegree(n, 0);
  for (size_t i = 0; i < n && !sink->full(); ++i) {
    for (int32_t slot = s.succ_offset[i]; slot < s.succ_offset[i + 1]; ++slot) {
      const int32_t target = s.succ[static_cast<size_t>(slot)];
      if (target < 0 || target >= static_cast<int32_t>(n)) {
        sink->Emit(MakeFinding(
            "plan-csr", LintSeverity::kError,
            StrFormat("successor of plan index %zu (%s) is out of range: %d", i,
                      TaskRef(graph, s.task_ids[i]).c_str(), target),
            {s.task_ids[i]}));
        continue;
      }
      ++indegree[static_cast<size_t>(target)];
    }
  }
  for (size_t i = 0; i < n && !sink->full(); ++i) {
    if (indegree[i] != s.pred_count[i]) {
      sink->Emit(MakeFinding(
          "plan-csr", LintSeverity::kError,
          StrFormat("pred-count asymmetry at plan index %zu (%s): successor lists imply "
                    "indegree %d, pred_count records %d",
                    i, TaskRef(graph, s.task_ids[i]).c_str(), indegree[i], s.pred_count[i]),
          {s.task_ids[i]}));
    }
  }
  std::vector<int32_t> expected_ready;
  for (size_t i = 0; i < n; ++i) {
    if (s.pred_count[i] == 0) {
      expected_ready.push_back(static_cast<int32_t>(i));
    }
  }
  if (expected_ready != s.initial_ready) {
    sink->Emit(MakeFinding(
        "plan-csr", LintSeverity::kError,
        StrFormat("initial_ready (%zu entries) is not the zero-indegree set (%zu entries)",
                  s.initial_ready.size(), expected_ready.size())));
  }
  for (size_t i = 0; i < n && !sink->full(); ++i) {
    if (static_cast<uint32_t>(plan.order_key_[i]) != static_cast<uint32_t>(i)) {
      sink->Emit(MakeFinding(
          "plan-csr", LintSeverity::kError,
          StrFormat("order key at plan index %zu does not embed its own index (low bits %u)", i,
                    static_cast<uint32_t>(plan.order_key_[i]))));
    }
  }

  // Cross-check against the graph's adjacency (only meaningful when the plan
  // still describes this graph).
  if (stale) {
    return;
  }
  std::vector<int32_t> plan_of(static_cast<size_t>(graph.capacity()), -1);
  for (size_t i = 0; i < n; ++i) {
    plan_of[static_cast<size_t>(s.task_ids[i])] = static_cast<int32_t>(i);
  }
  std::vector<int32_t> expected;
  std::vector<int32_t> actual;
  for (size_t i = 0; i < n && !sink->full(); ++i) {
    expected.clear();
    for (TaskId c : graph.children(s.task_ids[i])) {
      expected.push_back(plan_of[static_cast<size_t>(c)]);
    }
    actual.assign(s.succ.begin() + s.succ_offset[i], s.succ.begin() + s.succ_offset[i + 1]);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      sink->Emit(MakeFinding(
          "plan-csr", LintSeverity::kError,
          StrFormat("successor list of plan index %zu (%s) disagrees with the graph's "
                    "children (%zu vs %zu edges)",
                    i, TaskRef(graph, s.task_ids[i]).c_str(), actual.size(), expected.size()),
          {s.task_ids[i]}));
    }
  }
}

void GraphLint::PassPlanLane(const SimPlan& plan, const DependencyGraph& graph, bool stale,
                             Sink* sink) {
  sink->BeginPass("plan-lane");
  if (plan.empty()) {
    return;
  }
  const auto& s = *plan.structure_;
  const size_t n = s.task_ids.size();
  const int32_t num_lanes = static_cast<int32_t>(s.lane_threads.size());
  if (s.lane.size() != n || s.lane_offset.size() != static_cast<size_t>(num_lanes) + 1 ||
      s.lane_tasks.size() != n) {
    sink->Emit(MakeFinding(
        "plan-lane", LintSeverity::kError,
        StrFormat("lane array sizes disagree: %zu tasks / %d lanes but lane %zu, "
                  "lane_offset %zu, lane_tasks %zu",
                  n, num_lanes, s.lane.size(), s.lane_offset.size(), s.lane_tasks.size())));
    return;
  }
  std::vector<uint8_t> seen(n, 0);
  for (int32_t lane = 0; lane < num_lanes && !sink->full(); ++lane) {
    if (s.lane_offset[static_cast<size_t>(lane)] > s.lane_offset[static_cast<size_t>(lane) + 1]) {
      sink->Emit(MakeFinding("plan-lane", LintSeverity::kError,
                             StrFormat("lane_offset not monotone at lane %d", lane), {},
                             s.lane_threads[static_cast<size_t>(lane)].Label()));
      return;
    }
    int32_t prev = -1;
    for (int32_t slot = s.lane_offset[static_cast<size_t>(lane)];
         slot < s.lane_offset[static_cast<size_t>(lane) + 1]; ++slot) {
      const int32_t index = s.lane_tasks[static_cast<size_t>(slot)];
      const std::string label = s.lane_threads[static_cast<size_t>(lane)].Label();
      if (index < 0 || index >= static_cast<int32_t>(n)) {
        sink->Emit(MakeFinding("plan-lane", LintSeverity::kError,
                               StrFormat("lane %s sequence entry out of range: %d",
                                         label.c_str(), index),
                               {}, label));
        continue;
      }
      if (seen[static_cast<size_t>(index)]++ != 0) {
        sink->Emit(MakeFinding(
            "plan-lane", LintSeverity::kError,
            StrFormat("plan index %d (%s) appears in more than one lane sequence", index,
                      TaskRef(graph, s.task_ids[static_cast<size_t>(index)]).c_str()),
            {s.task_ids[static_cast<size_t>(index)]}, label));
      }
      if (s.lane[static_cast<size_t>(index)] != lane) {
        sink->Emit(MakeFinding(
            "plan-lane", LintSeverity::kError,
            StrFormat("plan index %d is sequenced on lane %s but records lane %d", index,
                      label.c_str(), s.lane[static_cast<size_t>(index)]),
            {s.task_ids[static_cast<size_t>(index)]}, label));
      }
      if (prev >= index) {
        sink->Emit(MakeFinding(
            "plan-lane", LintSeverity::kError,
            StrFormat("lane %s sequence is not ascending at plan index %d", label.c_str(),
                      index),
            {}, label));
      }
      prev = index;
    }
  }
  if (static_cast<size_t>(s.lane_offset[static_cast<size_t>(num_lanes)]) != n) {
    sink->Emit(MakeFinding(
        "plan-lane", LintSeverity::kError,
        StrFormat("lane sequences cover %d tasks, plan holds %zu",
                  s.lane_offset[static_cast<size_t>(num_lanes)], n)));
  }
  if (stale) {
    return;
  }
  for (size_t i = 0; i < n && !sink->full(); ++i) {
    if (graph.lane_of(s.task_ids[i]) != static_cast<int>(s.lane[i])) {
      sink->Emit(MakeFinding(
          "plan-lane", LintSeverity::kError,
          StrFormat("%s changed lanes since compile: plan records %d, graph says %d",
                    TaskRef(graph, s.task_ids[i]).c_str(), s.lane[i],
                    graph.lane_of(s.task_ids[i])),
          {s.task_ids[i]}));
    }
  }
}

void GraphLint::PassPlanTiming(const SimPlan& plan, const DependencyGraph& graph, bool stale,
                               Sink* sink) {
  sink->BeginPass("plan-timing");
  if (plan.empty() || stale) {
    return;
  }
  const auto& s = *plan.structure_;
  const size_t n = std::min(s.task_ids.size(), plan.duration_.size());
  for (size_t i = 0; i < n; ++i) {
    if (sink->full()) {
      return;
    }
    const Task& t = graph.task(s.task_ids[i]);
    if (plan.duration_[i] != t.duration || plan.gap_[i] != t.gap) {
      sink->Emit(MakeFinding(
          "plan-timing", LintSeverity::kError,
          StrFormat("stale timing for %s: plan holds duration %lld / gap %lld, graph says "
                    "%lld / %lld — Retime the plan after timing edits",
                    TaskRef(graph, s.task_ids[i]).c_str(),
                    static_cast<long long>(plan.duration_[i]),
                    static_cast<long long>(plan.gap_[i]), static_cast<long long>(t.duration),
                    static_cast<long long>(t.gap)),
          {s.task_ids[i]}));
    }
  }
}

LintReport GraphLint::LintPlan(const SimPlan& plan, const DependencyGraph& graph,
                               const LintOptions& options) {
  LintReport report;
  Sink sink(&report, options);
  bool stale = false;
  PassPlanStamp(plan, graph, &sink, &stale);
  PassPlanCsr(plan, graph, stale, &sink);
  PassPlanLane(plan, graph, stale, &sink);
  PassPlanTiming(plan, graph, stale, &sink);
  return report;
}

void GraphLint::PassShardPartition(const ShardPlan& shards, Sink* sink, bool* broken) {
  sink->BeginPass("shard-partition");
  *broken = true;
  if (shards.empty()) {
    sink->Emit(MakeFinding("shard-partition", LintSeverity::kError,
                           "shard plan is empty (never compiled)"));
    return;
  }
  const SimPlan::Structure& s = *shards.plan_->structure_;
  const size_t num_lanes = s.lane_threads.size();
  const int num_shards = shards.num_shards_;
  if (num_shards < 1) {
    sink->Emit(MakeFinding("shard-partition", LintSeverity::kError,
                           StrFormat("invalid shard count %d", num_shards)));
    return;
  }
  if (shards.shard_of_lane_.size() != num_lanes ||
      shards.shard_lane_offset_.size() != static_cast<size_t>(num_shards) + 1 ||
      shards.shard_lanes_.size() != num_lanes ||
      shards.shard_task_count_.size() != static_cast<size_t>(num_shards)) {
    sink->Emit(MakeFinding(
        "shard-partition", LintSeverity::kError,
        StrFormat("partition arrays disagree with the plan: %zu lane assignments, %zu grouped "
                  "lanes, %zu offsets, %zu task counts for %zu lanes / %d shards",
                  shards.shard_of_lane_.size(), shards.shard_lanes_.size(),
                  shards.shard_lane_offset_.size(), shards.shard_task_count_.size(), num_lanes,
                  num_shards)));
    return;
  }
  if (shards.shard_lane_offset_.front() != 0 ||
      shards.shard_lane_offset_.back() != static_cast<int32_t>(num_lanes)) {
    sink->Emit(MakeFinding("shard-partition", LintSeverity::kError,
                           StrFormat("shard lane offsets span [%d, %d), expected [0, %zu)",
                                     shards.shard_lane_offset_.front(),
                                     shards.shard_lane_offset_.back(), num_lanes)));
    return;
  }
  bool ok = true;
  std::vector<uint8_t> seen(num_lanes, 0);
  for (int b = 0; b < num_shards && ok; ++b) {
    const int32_t begin = shards.shard_lane_offset_[static_cast<size_t>(b)];
    const int32_t end = shards.shard_lane_offset_[static_cast<size_t>(b) + 1];
    if (end < begin) {
      sink->Emit(MakeFinding("shard-partition", LintSeverity::kError,
                             StrFormat("shard %d has a decreasing lane range [%d, %d)", b,
                                       begin, end)));
      ok = false;
      break;
    }
    int64_t tasks = 0;
    for (int32_t j = begin; j < end; ++j) {
      const int32_t lane = shards.shard_lanes_[static_cast<size_t>(j)];
      if (lane < 0 || static_cast<size_t>(lane) >= num_lanes ||
          seen[static_cast<size_t>(lane)] != 0 ||
          shards.shard_of_lane_[static_cast<size_t>(lane)] != b) {
        sink->Emit(MakeFinding(
            "shard-partition", LintSeverity::kError,
            StrFormat("lane %d in shard %d's group is %s — the lane partition is not a "
                      "disjoint cover",
                      lane, b,
                      (lane < 0 || static_cast<size_t>(lane) >= num_lanes) ? "out of range"
                      : seen[static_cast<size_t>(lane)] != 0              ? "listed twice"
                                                  : "assigned to a different shard"),
            {}, lane >= 0 && static_cast<size_t>(lane) < num_lanes
                    ? s.lane_threads[static_cast<size_t>(lane)].Label()
                    : std::string()));
        ok = false;
        break;
      }
      seen[static_cast<size_t>(lane)] = 1;
      tasks += s.lane_offset[static_cast<size_t>(lane) + 1] -
               s.lane_offset[static_cast<size_t>(lane)];
    }
    if (ok && tasks != shards.shard_task_count_[static_cast<size_t>(b)]) {
      sink->Emit(MakeFinding(
          "shard-partition", LintSeverity::kError,
          StrFormat("shard %d claims %d tasks but its lanes hold %lld", b,
                    shards.shard_task_count_[static_cast<size_t>(b)],
                    static_cast<long long>(tasks))));
      ok = false;
    }
  }
  // A disjoint cover of equal size covers everything; no second scan needed.
  *broken = !ok;
}

void GraphLint::PassShardEdges(const ShardPlan& shards, bool broken, Sink* sink) {
  sink->BeginPass("shard-edges");
  if (broken) {
    return;  // partition unusable: every cross-check below would misfire
  }
  const SimPlan::Structure& s = *shards.plan_->structure_;
  const size_t n = s.task_ids.size();
  if (shards.edge_window_pos_.size() != s.succ.size() ||
      shards.window_end_.size() != shards.window_source_.size() ||
      shards.window_offset_.size() != static_cast<size_t>(shards.num_shards_) + 1 ||
      shards.window_offset_.back() != static_cast<int32_t>(shards.window_end_.size())) {
    sink->Emit(MakeFinding(
        "shard-edges", LintSeverity::kError,
        StrFormat("window arrays disagree: %zu edge positions for %zu CSR slots, %zu bounds, "
                  "%zu sources, offsets end at %d",
                  shards.edge_window_pos_.size(), s.succ.size(), shards.window_end_.size(),
                  shards.window_source_.size(),
                  shards.window_offset_.empty() ? -1 : shards.window_offset_.back())));
    return;
  }
  std::vector<uint8_t> used(shards.window_end_.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    if (sink->full()) {
      return;
    }
    const int32_t si = shards.shard_of_lane_[static_cast<size_t>(s.lane[i])];
    for (int32_t k = s.succ_offset[i]; k < s.succ_offset[i + 1]; ++k) {
      const size_t ci = static_cast<size_t>(s.succ[static_cast<size_t>(k)]);
      const int32_t sc = shards.shard_of_lane_[static_cast<size_t>(s.lane[ci])];
      const int32_t pos = shards.edge_window_pos_[static_cast<size_t>(k)];
      if (sc == si) {
        if (pos != -1) {
          sink->Emit(MakeFinding(
              "shard-edges", LintSeverity::kError,
              StrFormat("intra-shard edge task %d -> task %d carries window entry %d — "
                        "cross-shard edge lists do not match the CSR",
                        s.task_ids[i], s.task_ids[ci], pos),
              {s.task_ids[i], s.task_ids[ci]}));
        }
        continue;
      }
      const int32_t wbegin = shards.window_offset_[static_cast<size_t>(sc)];
      const int32_t wend = shards.window_offset_[static_cast<size_t>(sc) + 1];
      if (pos < wbegin || pos >= wend) {
        sink->Emit(MakeFinding(
            "shard-edges", LintSeverity::kError,
            StrFormat("cross-shard edge (plan %zu -> %zu, shard %d -> %d) has window entry %d "
                      "outside the target's range [%d, %d)",
                      i, ci, si, sc, pos, wbegin, wend)));
        continue;
      }
      if (used[static_cast<size_t>(pos)] != 0) {
        sink->Emit(MakeFinding("shard-edges", LintSeverity::kError,
                               StrFormat("window entry %d is shared by two cross-shard edges",
                                         pos)));
        continue;
      }
      used[static_cast<size_t>(pos)] = 1;
      if (shards.window_source_[static_cast<size_t>(pos)] != static_cast<int32_t>(i)) {
        sink->Emit(MakeFinding(
            "shard-edges", LintSeverity::kError,
            StrFormat("window entry %d records source plan index %d but the CSR edge "
                      "originates at %zu",
                      pos, shards.window_source_[static_cast<size_t>(pos)], i)));
      }
    }
  }
  for (size_t pos = 0; pos < used.size(); ++pos) {
    if (sink->full()) {
      return;
    }
    if (used[pos] == 0) {
      sink->Emit(MakeFinding(
          "shard-edges", LintSeverity::kError,
          StrFormat("window entry %zu corresponds to no cross-shard CSR edge", pos)));
    }
  }
}

void GraphLint::PassShardHorizon(const ShardPlan& shards, bool broken, Sink* sink) {
  sink->BeginPass("shard-horizon");
  if (broken) {
    return;
  }
  const SimPlan::Structure& s = *shards.plan_->structure_;
  const std::vector<TimeNs>& duration = shards.plan_->duration_;
  const size_t n = s.task_ids.size();
  if (shards.static_start_lb_.size() != n) {
    sink->Emit(MakeFinding(
        "shard-horizon", LintSeverity::kError,
        StrFormat("static bound array holds %zu entries for %zu tasks",
                  shards.static_start_lb_.size(), n)));
    return;
  }
  // Recompute the longest-path bounds from scratch (fresh Kahn order — the
  // stored topo order is itself under test) and require exact equality.
  std::vector<TimeNs> expected(n, 0);
  std::vector<int32_t> degree = s.pred_count;
  std::vector<int32_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (degree[i] == 0) {
      order.push_back(static_cast<int32_t>(i));
    }
  }
  for (size_t cursor = 0; cursor < order.size(); ++cursor) {
    const size_t i = static_cast<size_t>(order[cursor]);
    const TimeNs end_lb = expected[i] + duration[i];
    for (int32_t k = s.succ_offset[i]; k < s.succ_offset[i + 1]; ++k) {
      const size_t ci = static_cast<size_t>(s.succ[static_cast<size_t>(k)]);
      expected[ci] = std::max(expected[ci], end_lb);
      if (--degree[ci] == 0) {
        order.push_back(static_cast<int32_t>(ci));
      }
    }
  }
  if (order.size() != n) {
    sink->Emit(MakeFinding("shard-horizon", LintSeverity::kError,
                           "plan CSR is cyclic; static bounds are undefined"));
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (sink->full()) {
      return;
    }
    if (shards.static_start_lb_[i] != expected[i]) {
      sink->Emit(MakeFinding(
          "shard-horizon", LintSeverity::kError,
          StrFormat("static bound of plan index %zu is %lld, longest-path recurrence gives "
                    "%lld",
                    i, static_cast<long long>(shards.static_start_lb_[i]),
                    static_cast<long long>(expected[i])),
          {s.task_ids[i]}));
    }
  }
  for (int b = 0; b < shards.num_shards_; ++b) {
    const int32_t wbegin = shards.window_offset_[static_cast<size_t>(b)];
    const int32_t wend = shards.window_offset_[static_cast<size_t>(b) + 1];
    for (int32_t pos = wbegin; pos < wend; ++pos) {
      if (sink->full()) {
        return;
      }
      const size_t src = static_cast<size_t>(shards.window_source_[static_cast<size_t>(pos)]);
      if (src < n) {
        const TimeNs bound = shards.static_start_lb_[src] + duration[src];
        if (shards.window_end_[static_cast<size_t>(pos)] != bound) {
          sink->Emit(MakeFinding(
              "shard-horizon", LintSeverity::kError,
              StrFormat("window entry %d holds bound %lld but its source (plan %zu) completes "
                        "no earlier than %lld",
                        pos, static_cast<long long>(shards.window_end_[static_cast<size_t>(pos)]),
                        src, static_cast<long long>(bound))));
        }
      }
      if (pos > wbegin && shards.window_end_[static_cast<size_t>(pos)] <
                              shards.window_end_[static_cast<size_t>(pos) - 1]) {
        sink->Emit(MakeFinding(
            "shard-horizon", LintSeverity::kError,
            StrFormat("shard %d's window bounds are not monotone: entry %d (%lld) < entry %d "
                      "(%lld) — the horizon would move backward",
                      b, pos, static_cast<long long>(shards.window_end_[static_cast<size_t>(pos)]),
                      pos - 1,
                      static_cast<long long>(shards.window_end_[static_cast<size_t>(pos) - 1]))));
      }
    }
  }
}

LintReport GraphLint::LintShards(const ShardPlan& shards, const LintOptions& options) {
  LintReport report;
  Sink sink(&report, options);
  bool broken = false;
  PassShardPartition(shards, &sink, &broken);
  PassShardEdges(shards, broken, &sink);
  PassShardHorizon(shards, broken, &sink);
  return report;
}

}  // namespace daydream
