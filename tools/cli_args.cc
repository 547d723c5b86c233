#include "tools/cli_args.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/string_util.h"

namespace daydream {

namespace {

// Presence-only flags: no value token follows them. Boolean-ness is
// per-command: `version --json` asks for machine-readable output on stdout,
// while every other verb's --json FILE names an output file.
bool IsBooleanFlag(const std::string& command, const std::string& name) {
  if (name == "validate" || name == "strict") {
    return true;
  }
  return command == "version" && name == "json";
}

}  // namespace

Args ParseArgs(int argc, const char* const* argv) {
  Args args;
  if (argc > 1) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc;) {
    const std::string key = argv[i];
    if (!StartsWith(key, "--")) {
      args.error = "unexpected argument '" + key + "' (flags look like --name value)";
      return args;
    }
    const std::string name = key.substr(2);
    if (IsBooleanFlag(args.command, name)) {
      // insert_or_assign sidesteps GCC 12's -Wrestrict false positive on
      // assigning a literal into a fresh map slot (PR105651).
      args.flags.insert_or_assign(name, std::string("1"));
      i += 1;
      continue;
    }
    if (i + 1 >= argc) {
      args.error = "flag " + key + " requires a value";
      return args;
    }
    args.flags[name] = argv[i + 1];
    i += 2;
  }
  return args;
}

const std::vector<std::string>& KnownCommands() {
  static const std::vector<std::string> kCommands = {
      "models", "collect", "import", "report", "predict", "lint", "sweep", "serve", "version"};
  return kCommands;
}

std::string UnknownCommandMessage(const std::string& command) {
  std::string message = "unknown command '" + command + "' (commands:";
  for (const std::string& known : KnownCommands()) {
    message += " " + known;
  }
  message += ")";
  return message;
}

namespace {

// strtol/strtod are laxer than we want (leading whitespace, "inf", "nan",
// hex floats); restrict the alphabet up front so only plain decimal
// notation reaches them.
bool OnlyContains(const std::string& text, const char* allowed) {
  return text.find_first_not_of(allowed) == std::string::npos;
}

}  // namespace

std::optional<int> ParseInt(const std::string& text) {
  // The strict parser lives in src/util/string_util so trace ingest can use
  // the same full-field semantics without depending on the CLI layer.
  return ParseInt32(text);
}

std::optional<double> ParseDouble(const std::string& text) {
  if (text.empty() || !OnlyContains(text, "0123456789.eE+-")) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

namespace {

// "MxG" → (machines, gpus); *error + nullopt on anything else.
std::optional<std::pair<int, int>> ParseShape(const std::string& shape, std::string* error) {
  const std::vector<std::string> parts = StrSplit(shape, 'x');
  std::optional<int> machines;
  std::optional<int> gpus;
  if (parts.size() == 2) {
    machines = ParseInt(parts[0]);
    gpus = ParseInt(parts[1]);
  }
  if (!machines.has_value() || !gpus.has_value() || *machines < 1 || *gpus < 1) {
    *error = "bad --cluster '" + shape + "' (expected MxG, e.g. 4x2)";
    return std::nullopt;
  }
  return std::make_pair(*machines, *gpus);
}

std::optional<double> ParseBandwidth(const std::string& gbps, std::string* error) {
  const std::optional<double> bandwidth = ParseDouble(gbps);
  if (!bandwidth.has_value() || *bandwidth <= 0) {
    *error = "bad --gbps '" + gbps + "' (expected a positive number)";
    return std::nullopt;
  }
  return bandwidth;
}

}  // namespace

std::optional<ClusterConfig> ParseCluster(const Args& args, std::string* error) {
  const std::optional<std::pair<int, int>> shape = ParseShape(args.Get("cluster", "4x1"), error);
  if (!shape.has_value()) {
    return std::nullopt;
  }
  const std::optional<double> bandwidth = ParseBandwidth(args.Get("gbps", "10"), error);
  if (!bandwidth.has_value()) {
    return std::nullopt;
  }
  ClusterConfig cluster;
  cluster.machines = shape->first;
  cluster.gpus_per_machine = shape->second;
  cluster.network.bandwidth_gbps = *bandwidth;
  return cluster;
}

std::optional<std::vector<ClusterConfig>> ParseClusterList(const Args& args, std::string* error) {
  std::vector<ClusterConfig> clusters;
  for (const std::string& shape_text :
       StrSplit(args.Get("cluster", "2x1,2x2,4x1,4x2"), ',')) {
    const std::optional<std::pair<int, int>> shape = ParseShape(shape_text, error);
    if (!shape.has_value()) {
      return std::nullopt;
    }
    for (const std::string& gbps_text : StrSplit(args.Get("gbps", "10"), ',')) {
      const std::optional<double> bandwidth = ParseBandwidth(gbps_text, error);
      if (!bandwidth.has_value()) {
        return std::nullopt;
      }
      ClusterConfig cluster;
      cluster.machines = shape->first;
      cluster.gpus_per_machine = shape->second;
      cluster.network.bandwidth_gbps = *bandwidth;
      clusters.push_back(cluster);
    }
  }
  return clusters;
}

std::optional<PipelineFlags> ParsePipelineFlags(const Args& args, std::string* error) {
  PipelineFlags flags;
  const std::string stages_text = args.Get("pipeline-stages");
  if (stages_text.empty()) {
    if (!args.Get("microbatches").empty() || !args.Get("schedule").empty()) {
      *error = "--microbatches/--schedule require --pipeline-stages";
      return std::nullopt;
    }
    return flags;  // disabled
  }
  flags.enabled = true;
  for (const std::string& text : StrSplit(stages_text, ',')) {
    const std::optional<int> stages = ParseInt(text);
    if (!stages.has_value() || *stages < 1) {
      *error = "bad --pipeline-stages '" + stages_text +
               "' (expected a comma-separated list of positive stage counts)";
      return std::nullopt;
    }
    flags.stages.push_back(*stages);
  }
  const std::optional<int> microbatches = ParseInt(args.Get("microbatches", "4"));
  if (!microbatches.has_value() || *microbatches < 1) {
    *error = "bad --microbatches '" + args.Get("microbatches") +
             "' (expected a positive integer)";
    return std::nullopt;
  }
  flags.microbatches = *microbatches;
  const std::string schedule = args.Get("schedule", "both");
  if (schedule == "gpipe") {
    flags.schedules = {PipelineScheduleKind::kGPipe};
  } else if (schedule == "1f1b") {
    flags.schedules = {PipelineScheduleKind::k1F1B};
  } else if (schedule != "both") {
    *error = "bad --schedule '" + schedule + "' (expected gpipe, 1f1b or both)";
    return std::nullopt;
  }
  // Inter-stage links ride the first --gbps value so pipeline cases rank
  // under the same network assumption as the distributed matrix.
  const std::optional<double> bandwidth =
      ParseBandwidth(StrSplit(args.Get("gbps", "10"), ',').front(), error);
  if (!bandwidth.has_value()) {
    return std::nullopt;
  }
  flags.network.bandwidth_gbps = *bandwidth;
  return flags;
}

bool ParseWhatIfRequest(const Args& args, WhatIfRequest* request, std::string* error) {
  request->what_if = args.Get("what-if");
  request->validate = args.Has("validate");
  const std::optional<int> sim_jobs = ParseInt(args.Get("sim-jobs", "1"));
  if (!sim_jobs.has_value() || *sim_jobs < 1) {
    *error = "bad --sim-jobs '" + args.Get("sim-jobs") + "' (expected a positive integer)";
    return false;
  }
  request->sim_jobs = *sim_jobs;
  if (request->what_if == "distributed" || request->what_if == "p3") {
    const std::optional<ClusterConfig> cluster = ParseCluster(args, error);
    if (!cluster.has_value()) {
      return false;
    }
    request->cluster = *cluster;
  }
  if (request->what_if == "pipeline") {
    const std::optional<PipelineFlags> pipeline = ParsePipelineFlags(args, error);
    if (!pipeline.has_value()) {
      return false;
    }
    if (!pipeline->enabled || pipeline->stages.size() != 1) {
      *error = "predict --what-if pipeline needs --pipeline-stages with a single value";
      return false;
    }
    if (pipeline->schedules.empty() && !args.Get("schedule").empty()) {
      *error = "predict takes a single --schedule (gpipe or 1f1b)";
      return false;
    }
    request->pipeline.num_stages = pipeline->stages.front();
    request->pipeline.num_microbatches = pipeline->microbatches;
    request->pipeline.network = pipeline->network;
    // Default is 1F1B; `--schedule both` is a sweep-only matrix axis.
    if (!pipeline->schedules.empty()) {
      request->pipeline.schedule = pipeline->schedules.front();
    }
  }
  return true;
}

bool ParseSweepRequest(const Args& args, const Trace& trace, std::vector<SweepCase>* cases,
                       SweepOptions* options, std::string* error) {
  const std::optional<std::vector<ClusterConfig>> clusters = ParseClusterList(args, error);
  if (!clusters.has_value()) {
    return false;
  }
  const std::optional<int> jobs = ParseInt(args.Get("jobs", "0"));
  if (!jobs.has_value() || *jobs < 0) {
    *error = "bad --jobs '" + args.Get("jobs") + "' (expected a non-negative integer)";
    return false;
  }
  const std::optional<PipelineFlags> pipeline = ParsePipelineFlags(args, error);
  if (!pipeline.has_value()) {
    return false;
  }
  *cases = BuildStandardSweep(trace, *clusters);
  if (pipeline->enabled) {
    PipelineSweepSpec spec;
    spec.stages = pipeline->stages;
    spec.microbatches = pipeline->microbatches;
    spec.schedules = pipeline->schedules;
    spec.network = pipeline->network;
    if (!AppendPipelineSweep(cases, trace, spec)) {
      *error = "trace lacks a known model name (needed for --pipeline-stages)";
      return false;
    }
  }
  const std::optional<int> sim_jobs = ParseInt(args.Get("sim-jobs", "1"));
  if (!sim_jobs.has_value() || *sim_jobs < 1) {
    *error = "bad --sim-jobs '" + args.Get("sim-jobs") + "' (expected a positive integer)";
    return false;
  }
  options->num_threads = *jobs;
  options->validate = args.Has("validate");
  options->sim_jobs = *sim_jobs;
  return true;
}

}  // namespace daydream
