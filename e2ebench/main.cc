// e2ebench: the end-to-end benchmark harness behind run.py.
//
//   e2ebench setup --workload W --seed N --dir D
//       generate the workload's inputs (traces, ground truth) into D
//   e2ebench run --workload W --seed N --dir D --seconds S --trace 0|1
//                [--daydream PATH] [--spans FILE]
//       run the workload against D's inputs; the last stdout line is a JSON
//       record of every metric, check and sample count
//   e2ebench import-rss --path FILE
//       import one Chrome trace and exit (run as a child so its peak RSS is
//       the importer's alone)
//
// Workloads: cold-predict, warm-serve, sweep (see README.md).
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "e2ebench/harness.h"
#include "src/trace/import_chrome.h"

namespace {

std::map<std::string, std::string> Flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      flags[key.substr(2)] = argv[i + 1];
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: e2ebench setup|run|import-rss [--flag value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags = Flags(argc, argv);

  if (command == "import-rss") {
    std::string error;
    const std::optional<daydream::Trace> trace =
        daydream::ImportChromeTraceFile(flags["path"], &error);
    if (!trace.has_value()) {
      std::cerr << error << "\n";
      return 1;
    }
    std::cout << trace->size() << "\n";
    return 0;
  }

  e2ebench::Options options;
  options.workload = flags["workload"];
  options.seed = std::stoull(flags.count("seed") ? flags["seed"] : "0");
  options.dir = flags["dir"];
  options.seconds = std::stod(flags.count("seconds") ? flags["seconds"] : "10");
  options.trace = flags["trace"] == "1";
  options.daydream = flags["daydream"];
  options.spans_out = flags.count("spans") ? flags["spans"] : options.dir + "/spans.jsonl";
  options.self = argv[0];
  if (options.dir.empty()) {
    std::cerr << "--dir is required\n";
    return 2;
  }

  if (command == "setup") {
    return e2ebench::Setup(options);
  }
  if (command != "run") {
    std::cerr << "unknown command " << command << "\n";
    return 2;
  }

  e2ebench::Result result;
  int rc = 2;
  if (options.workload == "cold-predict") {
    rc = e2ebench::RunColdPredict(options, &result);
  } else if (options.workload == "warm-serve") {
    rc = e2ebench::RunWarmServe(options, &result);
  } else if (options.workload == "sweep") {
    rc = e2ebench::RunSweep(options, &result);
  } else {
    std::cerr << "unknown workload " << options.workload << "\n";
  }
  if (rc != 0) {
    return rc;
  }
  if (options.trace) {
    // Coverage gate: the layers' self times must account for at least 90%
    // of the traced operations' time.
    const double coverage = result.layers["bench.coverage_pct"];
    if (coverage < 90.0) {
      result.Fail("traced stages cover only " + std::to_string(coverage) + "% of the operations");
    }
  }
  result.notes["hardware_concurrency"] = std::to_string(std::thread::hardware_concurrency());
  std::cout << result.ToJson() << std::endl;
  return 0;
}
