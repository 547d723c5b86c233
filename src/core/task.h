// Task: one node of Daydream's kernel-granularity dependency graph (§4.2.1).
//
// A task is the smallest unit of execution: one GPU kernel, one CUDA memory
// copy, one CPU-side API call, one data-loading job or one communication
// primitive. Every task carries its execution thread (CPU thread / GPU stream
// / communication channel), measured duration, the trailing "gap" that models
// non-CUDA CPU time, and the DNN layer it maps back to.
#ifndef SRC_CORE_TASK_H_
#define SRC_CORE_TASK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/trace_event.h"
#include "src/util/time_units.h"

namespace daydream {

enum class TaskType {
  kCpu,       // CUDA API call or other CPU work
  kGpu,       // GPU kernel or memory copy
  kDataLoad,  // mini-batch loading
  kComm,      // communication primitive (allReduce / push / pull)
};

const char* ToString(TaskType type);

// Execution lane of a task (§4.2.1 "ExecutionThread").
struct ExecThread {
  enum class Kind { kCpuThread, kGpuStream, kCommChannel };
  Kind kind = Kind::kCpuThread;
  int id = 0;

  bool operator==(const ExecThread& other) const = default;
  // Total order so ExecThread can key maps.
  bool operator<(const ExecThread& other) const {
    if (kind != other.kind) {
      return static_cast<int>(kind) < static_cast<int>(other.kind);
    }
    return id < other.id;
  }
  std::string Label() const;

  static ExecThread Cpu(int id) { return {Kind::kCpuThread, id}; }
  static ExecThread Gpu(int id) { return {Kind::kGpuStream, id}; }
  static ExecThread Comm(int id) { return {Kind::kCommChannel, id}; }
};

using TaskId = int;
inline constexpr TaskId kInvalidTask = -1;

struct Task {
  TaskId id = kInvalidTask;
  TaskType type = TaskType::kCpu;
  std::string name;
  ExecThread thread;

  // Measured placement. `start` doubles as the earliest-start lower bound in
  // Algorithm 1 (initialized to 0 before simulation).
  TimeNs start = 0;
  TimeNs duration = 0;
  // Idle CPU time between this task and the next one on the same thread that
  // CUPTI cannot see (Python, framework dispatch) — §4.2.1 "Gap".
  TimeNs gap = 0;

  // Provenance / domain knowledge.
  ApiKind api = ApiKind::kNone;
  CommKind comm = CommKind::kNone;
  int64_t correlation_id = 0;
  int layer_id = -1;
  Phase phase = Phase::kUnknown;
  int64_t bytes = 0;

  // Priority the P3 schedule policy breaks comm-task ties by.
  int priority = 0;

  bool is_gpu() const { return type == TaskType::kGpu; }
  bool is_cpu() const { return type == TaskType::kCpu || type == TaskType::kDataLoad; }
  bool is_comm() const { return type == TaskType::kComm; }

  TimeNs end() const { return start + duration; }
  std::string DebugString() const;
};

using TaskPredicate = std::function<bool(const Task&)>;

// One bit per TaskType, for TaskQuery's type constraint.
inline constexpr uint8_t TaskTypeBit(TaskType type) {
  return static_cast<uint8_t>(uint8_t{1} << static_cast<int>(type));
}
inline constexpr uint8_t kAnyTaskType =
    TaskTypeBit(TaskType::kCpu) | TaskTypeBit(TaskType::kGpu) | TaskTypeBit(TaskType::kDataLoad) |
    TaskTypeBit(TaskType::kComm);

// A select query with its indexable structure exposed.
//
// The graph keeps secondary indexes keyed on phase and layer; a query that
// carries those fields as *data* (instead of burying them in an opaque
// closure) lets DependencyGraph::Select answer from a bucket in O(matches)
// rather than scanning every task. The predicate builders in
// src/core/transform.h produce TaskQuery values, and All() merges their
// structured keys; anything the indexes cannot serve (name substrings,
// arbitrary lambdas, Any/Not compositions) rides along in `residual`.
//
// A TaskQuery is itself a predicate (callable on a Task), so code and tests
// that apply selectors directly keep working.
struct TaskQuery {
  // Structured keys. Unset fields do not constrain the match.
  std::optional<Phase> phase;
  std::optional<int> layer_id;
  uint8_t type_mask = kAnyTaskType;
  // Contradictory keys (e.g. All of two different phases): matches nothing.
  bool impossible = false;
  // Unindexable constraints; every one must hold.
  std::vector<TaskPredicate> residual;

  TaskQuery() = default;
  // Generic fallback: an opaque predicate, evaluated by full scan.
  TaskQuery(TaskPredicate predicate) {  // NOLINT(google-explicit-constructor)
    residual.push_back(std::move(predicate));
  }

  bool Matches(const Task& t) const {
    if (impossible || (type_mask & TaskTypeBit(t.type)) == 0 ||
        (phase.has_value() && t.phase != *phase) ||
        (layer_id.has_value() && t.layer_id != *layer_id)) {
      return false;
    }
    for (const TaskPredicate& p : residual) {
      if (!p(t)) {
        return false;
      }
    }
    return true;
  }
  bool operator()(const Task& t) const { return Matches(t); }
};

}  // namespace daydream

#endif  // SRC_CORE_TASK_H_
