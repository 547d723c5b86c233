// Test oracle: the paper's Algorithm 1 transcribed literally.
//
// Every dispatch scans the whole frontier for the task with the earliest
// feasible time (max of its lane's progress and its parents' completions)
// and breaks ties per SchedulePolicy — effective priority descending (the
// P3 policy's Task::priority for communication tasks, 0 otherwise), then
// ascending task id. O(N·F), deliberately naive, and written independently
// of the compiled-plan engine: it compares priorities and ids itself and
// never calls the production key function, so the differential suites
// check the engine against the algorithm rather than against itself.
//
// Compiled into the test binaries and perf_core only (CMakeLists.txt
// target_sources); the shipped library has one engine.
#ifndef TESTS_REFERENCE_SCAN_H_
#define TESTS_REFERENCE_SCAN_H_

#include "src/core/dependency_graph.h"
#include "src/core/simulator.h"

namespace daydream {

SimResult ReferenceScan(const DependencyGraph& graph,
                        SchedulePolicy policy = SchedulePolicy::kEarliestStart);

}  // namespace daydream

#endif  // TESTS_REFERENCE_SCAN_H_
