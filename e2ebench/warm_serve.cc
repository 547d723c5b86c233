// warm-serve: the shipped `daydream serve --port 0 --jobs 2` over loopback
// TCP, driven in a closed loop by two client connections from this process.
// Daemon workers plus clients stay within four cores.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <list>
#include <set>
#include <thread>
#include <unordered_map>

#include "e2ebench/harness.h"
#include "src/service/request_executor.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

namespace e2ebench {

using daydream::ModelId;
using daydream::StrFormat;
using daydream::TimeNs;
using daydream::TraceFormat;

namespace {

constexpr int kClients = 2;
constexpr int kDaemonWorkers = 2;
constexpr int kSetupRepeats = 5;
// Requests before the timed window fill every session's plan cache, so the
// window sees its steady hit/miss mix; they are answer-checked, not timed.
constexpr double kWarmupS = 3.0;
constexpr double kRotateS = 0.25;

// A blocking line-oriented client connection.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string banner;
    if (!ReadLine(&banner)) {
      Close();
    }
  }
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  // One request line out, one response line back ("" on a broken stream).
  std::string Call(const std::string& line) {
    const std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return "";
      }
      sent += static_cast<size_t>(n);
    }
    std::string response;
    return ReadLine(&response) ? response : "";
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

// The daemon process: spawned with its stdout on a pipe to learn the port.
class Daemon {
 public:
  explicit Daemon(const std::string& binary) {
    int fds[2];
    if (::pipe(fds) != 0) {
      return;
    }
    const std::string jobs = std::to_string(kDaemonWorkers);
    const char* argv[] = {binary.c_str(), "serve", "--port", "0", "--jobs", jobs.c_str(), nullptr};
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon must not outlive a harness that is killed mid-run.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) {
        ::_exit(1);
      }
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(binary.c_str(), const_cast<char**>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    // "daydream serve listening on 127.0.0.1:<port>"
    std::string line;
    char c = 0;
    while (pid_ > 0 && ::read(fds[0], &c, 1) == 1 && c != '\n') {
      line.push_back(c);
    }
    ::close(fds[0]);
    const size_t colon = line.rfind(':');
    if (colon != std::string::npos) {
      port_ = std::atoi(line.c_str() + colon + 1);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      Wait();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  // Reaps the daemon after a shutdown verb; returns its peak RSS in MiB
  // (negative when it did not exit cleanly).
  double Wait() {
    if (pid_ <= 0) {
      return -1;
    }
    int status = 0;
    rusage usage{};
    const pid_t reaped = wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    if (reaped <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return -1;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

struct Served {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> clients;
  std::vector<std::string> handles;  // session per WarmModels() entry
};

// Starts the daemon, connects the clients and opens one session per model.
bool StartServing(const Options& options, Served* served, std::string* error) {
  served->daemon = std::make_unique<Daemon>(options.daydream);
  if (served->daemon->port() <= 0) {
    *error = "daemon did not announce a port";
    return false;
  }
  for (int c = 0; c < kClients; ++c) {
    served->clients.push_back(std::make_unique<Connection>(served->daemon->port()));
    if (!served->clients.back()->ok()) {
      *error = "cannot connect to the daemon";
      return false;
    }
  }
  for (ModelId model : WarmModels()) {
    const std::string response = served->clients[0]->Call(
        StrFormat("{\"verb\": \"open\", \"trace\": %s}",
                  JsonString(TracePath(options.dir, model, TraceFormat::kDdtrace)).c_str()));
    const std::optional<daydream::JsonObject> parsed = daydream::ParseJsonObject(response);
    if (!parsed || !parsed->GetBool("ok")) {
      *error = "open failed: " + response;
      return false;
    }
    served->handles.push_back(parsed->GetString("session"));
  }
  return true;
}

double StopServing(Served* served) {
  served->clients[0]->Call("{\"verb\": \"shutdown\"}");
  served->clients.clear();
  return served->daemon->Wait();
}

std::string RequestLine(const Request& request, const std::vector<std::string>& handles,
                        uint64_t id) {
  static const char* const kVerbs[] = {"predict", "stats", "report", "lint"};
  std::string line = StrFormat("{\"id\": %llu, \"verb\": \"%s\", \"session\": \"%s\"",
                               static_cast<unsigned long long>(id),
                               kVerbs[static_cast<int>(request.kind)],
                               handles[static_cast<size_t>(request.session)].c_str());
  if (request.kind == RequestKind::kPredict) {
    for (const auto& [flag, value] : request.what_if.flags) {
      std::string field = flag;
      for (char& c : field) {
        c = c == '-' ? '_' : c;
      }
      line += ", " + JsonString(field) + ": " + JsonString(value);
    }
  }
  return line + "}";
}

struct Exchange {
  uint64_t id = 0;
  double sent_s = 0;  // since the loop started
  double latency_ms = 0;
  std::string response;
};

// The closed loop: each client sends its next request as soon as the
// previous answer arrives; both draw request indices from one counter. Each
// client moves to the next CPU every kRotateS, so the daemon's threads and
// the clients do not keep one placement for a whole run.
std::vector<Exchange> DriveClients(const Options& options, Served* served, double budget,
                                   double* elapsed) {
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Exchange>> per_client(kClients);
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Connection& connection = *served->clients[static_cast<size_t>(c)];
      CpuRotation rotation(static_cast<size_t>(c), kClients);
      int64_t turn = -1;
      while (ElapsedS(start) < budget) {
        if (const auto now = static_cast<int64_t>(ElapsedS(start) / kRotateS); now != turn) {
          turn = now;
          rotation.Next();
        }
        const uint64_t id = next.fetch_add(1);
        const std::string line =
            RequestLine(WarmServeRequest(options.seed, id), served->handles, id);
        const int64_t t0 = NowNs();
        std::string response = connection.Call(line);
        per_client[static_cast<size_t>(c)].push_back(
            Exchange{id, static_cast<double>(t0 - start) / 1e9,
                     static_cast<double>(NowNs() - t0) / 1e6, std::move(response)});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  *elapsed = ElapsedS(start);
  std::vector<Exchange> all;
  for (std::vector<Exchange>& exchanges : per_client) {
    all.insert(all.end(), std::make_move_iterator(exchanges.begin()),
               std::make_move_iterator(exchanges.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const Exchange& a, const Exchange& b) { return a.id < b.id; });
  return all;
}

// Per-session daemon counters from the `stats` verb.
struct DaemonStats {
  double hits = 0;
  double misses = 0;
  double evictions = 0;
  double queue_high_water = 0;
  double shed = 0;
  double deadline_exceeded = 0;
};

DaemonStats ReadStats(Served* served) {
  DaemonStats stats;
  for (const std::string& handle : served->handles) {
    const std::optional<daydream::JsonObject> parsed = daydream::ParseJsonObject(
        served->clients[0]->Call("{\"verb\": \"stats\", \"session\": \"" + handle + "\"}"));
    if (!parsed) {
      continue;
    }
    stats.hits += parsed->GetNumber("plan_cache_hits");
    stats.misses += parsed->GetNumber("plan_cache_misses");
    stats.evictions += parsed->GetNumber("plan_cache_evictions");
    // Daemon-wide counters: the same on every session's stats.
    stats.queue_high_water = parsed->GetNumber("queue_high_water");
    stats.shed = parsed->GetNumber("shed");
    stats.deadline_exceeded = parsed->GetNumber("deadline_exceeded");
  }
  return stats;
}

using AnswerKey = std::pair<int, std::string>;  // session index, WhatIf::Key()

// Checks every response and returns the predicted_ms text per question.
std::map<AnswerKey, std::string> CheckResponses(const Options& options,
                                                const std::vector<Exchange>& exchanges,
                                                Result* result, double* hit_share,
                                                double* remiss_ratio) {
  std::map<AnswerKey, std::string> answers;
  int64_t predicts = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t remisses = 0;
  for (const Exchange& exchange : exchanges) {
    ++result->attempted;
    const Request request = WarmServeRequest(options.seed, exchange.id);
    const std::optional<daydream::JsonObject> parsed = daydream::ParseJsonObject(exchange.response);
    if (!parsed || !parsed->GetBool("ok") ||
        parsed->GetInt64("id", -1) != static_cast<int64_t>(exchange.id)) {
      result->Fail(StrFormat("request %llu: %s", static_cast<unsigned long long>(exchange.id),
                             exchange.response.substr(0, 200).c_str()));
      continue;
    }
    if (request.kind != RequestKind::kPredict) {
      continue;
    }
    ++predicts;
    const AnswerKey key{request.session, request.what_if.Key()};
    const daydream::JsonValue* predicted = parsed->Find("predicted_ms");
    const std::string answer = predicted != nullptr ? predicted->raw : "";
    const auto [it, first] = answers.emplace(key, answer);
    if (answer.empty() || it->second != answer) {
      result->Fail(StrFormat("request %llu: %s answered %s ms, earlier %s ms",
                             static_cast<unsigned long long>(exchange.id), key.second.c_str(),
                             answer.c_str(), it->second.c_str()));
    }
    if (parsed->GetBool("cache_hit")) {
      ++hits;
    } else {
      ++misses;
      remisses += first ? 0 : 1;
    }
  }
  *hit_share = predicts > 0 ? static_cast<double>(hits) / static_cast<double>(predicts) : 0;
  *remiss_ratio = misses > 0 ? static_cast<double>(remisses) / static_cast<double>(misses) : 0;
  return answers;
}

// Cold answers (read + open + predict, as `daydream predict` does) for every
// hot question and the first few tail questions of each session must equal
// the daemon's.
void CheckAgainstCold(const Options& options, const std::map<AnswerKey, std::string>& answers,
                      Result* result) {
  std::set<std::string> hot;
  for (const WhatIf& what_if : WarmHotWhatIfs()) {
    hot.insert(what_if.Key());
  }
  std::map<int, int> tail_checked;
  const std::vector<WhatIf> tail = WarmTailWhatIfs();
  for (const auto& [key, answer] : answers) {
    const bool is_hot = hot.count(key.second) != 0;
    if (!is_hot && tail_checked[key.first]++ >= 4) {
      continue;
    }
    WhatIf what_if;
    for (const std::vector<WhatIf>& pool : {WarmHotWhatIfs(), tail}) {
      for (const WhatIf& candidate : pool) {
        if (candidate.Key() == key.second) {
          what_if = candidate;
        }
      }
    }
    const ModelId model = WarmModels()[static_cast<size_t>(key.first)];
    std::string error;
    const std::optional<TimeNs> cold = ColdPredict(
        TracePath(options.dir, model, TraceFormat::kDdtrace), TraceFormat::kDdtrace, what_if,
        &error);
    if (!cold.has_value() || FormatMs(*cold) != answer) {
      result->Fail(StrFormat("%s %s: warm %s ms, cold %s ms", daydream::ModelName(model),
                             key.second.c_str(), answer.c_str(),
                             cold ? FormatMs(*cold).c_str() : error.c_str()));
    }
  }
}

// The benchmark's stand-in for the session's plan cache in the decomposed
// pass: signature -> plan, LRU at the session default capacity.
class PlanLru {
 public:
  std::shared_ptr<const daydream::SimPlan> Get(const std::string& signature) {
    const auto it = index_.find(signature);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }
  void Put(const std::string& signature, std::shared_ptr<const daydream::SimPlan> plan) {
    order_.emplace_front(signature, std::move(plan));
    index_[signature] = order_.begin();
    if (order_.size() > daydream::SessionOptions{}.plan_cache_capacity) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const daydream::SimPlan>>;
  std::list<Entry> order_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

// Traced passes: RequestExecutor::Handle and TraceSession::Predict in
// process on the same request sequence, and the predicts decomposed into
// layer calls.
void TracedPasses(const Options& options, const std::vector<Exchange>& exchanges,
                  double budget, Result* result) {
  SpanLog handle_log;  // service.handle roots
  SpanLog ref_log;     // service.session_open, service.predict_{hit,miss}
  SpanLog stage_log;   // warm.request roots with their layer calls

  // Pass A: the protocol layer without the transport.
  daydream::RequestExecutor executor(daydream::SessionOptions{}, kDaemonWorkers);
  std::vector<std::string> handles;
  for (ModelId model : WarmModels()) {
    const daydream::RequestExecutor::Response opened = executor.Handle(StrFormat(
        "{\"verb\": \"open\", \"trace\": %s}",
        JsonString(TracePath(options.dir, model, TraceFormat::kDdtrace)).c_str()));
    const std::optional<daydream::JsonObject> parsed = daydream::ParseJsonObject(opened.line);
    handles.push_back(parsed ? parsed->GetString("session") : "");
  }
  std::map<uint64_t, std::string> served;
  for (const Exchange& exchange : exchanges) {
    const std::optional<daydream::JsonObject> parsed = daydream::ParseJsonObject(exchange.response);
    if (parsed && parsed->Has("predicted_ms")) {
      served[exchange.id] = parsed->Find("predicted_ms")->raw;
    }
  }
  int64_t start = NowNs();
  for (uint64_t id = 0; ElapsedS(start) < budget; ++id) {
    const Request request = WarmServeRequest(options.seed, id);
    daydream::RequestExecutor::Response response;
    {
      ScopedSpan span(&handle_log, "service.handle", static_cast<int64_t>(id));
      response = executor.Handle(RequestLine(request, handles, id));
    }
    ++result->attempted;
    const std::optional<daydream::JsonObject> parsed = daydream::ParseJsonObject(response.line);
    const auto it = served.find(id);
    const daydream::JsonValue* predicted = parsed ? parsed->Find("predicted_ms") : nullptr;
    if (!parsed || !parsed->GetBool("ok") ||
        (it != served.end() && (predicted == nullptr || predicted->raw != it->second))) {
      result->Fail(StrFormat("in-process request %llu: %s", static_cast<unsigned long long>(id),
                             response.line.substr(0, 200).c_str()));
    }
  }

  // Pass B: TraceSession::Predict (real cache) beside the decomposed calls,
  // after each session open is also rebuilt from its layer calls (the
  // daemon's set-up work).
  std::vector<std::shared_ptr<daydream::TraceSession>> sessions;
  std::vector<PlanLru> caches(WarmModels().size());
  for (ModelId model : WarmModels()) {
    const std::string path = TracePath(options.dir, model, TraceFormat::kDdtrace);
    std::string error;
    std::optional<daydream::Trace> trace;
    {
      ScopedSpan root(&stage_log, "warm.open", -1);
      {
        ScopedSpan span(&stage_log, "trace.read.ddtrace", -1);
        trace = daydream::ReadTraceFileAs(path, TraceFormat::kDdtrace, &error);
        span.set_work(trace ? static_cast<int64_t>(trace->size()) : 0);
      }
      OpenedTrace opened;
      if (!trace || !DecomposedOpen(*trace, &stage_log, -1, &opened, &error)) {
        result->Fail("decomposed open failed: " + error);
        return;
      }
    }
    const int64_t t0 = NowNs();
    sessions.push_back(
        daydream::TraceSession::Create(std::move(*trace), daydream::SessionOptions{}, &error));
    ref_log.Record("service.session_open", t0, NowNs(), -1);
    if (sessions.back() == nullptr) {
      result->Fail("in-process session open failed: " + error);
      return;
    }
  }
  double decomposed_ms = 0;
  double predict_ms = 0;
  start = NowNs();
  for (uint64_t id = 0; ElapsedS(start) < budget; ++id) {
    const Request request = WarmServeRequest(options.seed, id);
    if (request.kind != RequestKind::kPredict) {
      continue;
    }
    ++result->attempted;
    daydream::TraceSession& session = *sessions[static_cast<size_t>(request.session)];
    daydream::WhatIfRequest what_if;
    std::string error;
    MakeRequest(request.what_if, &what_if, &error);

    const int64_t t0 = NowNs();
    daydream::PredictOutcome outcome;
    const daydream::SessionStatus status = session.Predict(what_if, &outcome, &error);
    const int64_t t1 = NowNs();
    ref_log.Record(outcome.plan_cache_hit ? "service.predict_hit" : "service.predict_miss", t0, t1,
                   static_cast<int64_t>(id));
    predict_ms += static_cast<double>(t1 - t0) / 1e6;

    std::optional<TimeNs> decomposed;
    PlanLru& cache = caches[static_cast<size_t>(request.session)];
    const std::string signature = what_if.Signature();
    {
      ScopedSpan root(&stage_log, "warm.request", static_cast<int64_t>(id));
      std::shared_ptr<const daydream::SimPlan> plan = cache.Get(signature);
      if (plan == nullptr) {
        plan = DecomposedPlan(session, what_if, &stage_log, static_cast<int64_t>(id), &error);
        if (plan != nullptr) {
          cache.Put(signature, plan);
        }
      }
      if (plan != nullptr) {
        decomposed = DecomposedDispatch(*plan, &stage_log, static_cast<int64_t>(id));
      }
    }
    if (status != daydream::SessionStatus::kOk || decomposed != outcome.prediction.predicted) {
      result->Fail(StrFormat("request %llu %s: decomposed answer differs from "
                             "TraceSession::Predict %s",
                             static_cast<unsigned long long>(id), request.what_if.Key().c_str(),
                             error.c_str()));
    }
  }
  for (const Span& span : stage_log.spans()) {
    if (span.parent < 0) {
      decomposed_ms += static_cast<double>(span.duration_ns()) / 1e6;
    }
  }

  const std::vector<const SpanLog*> logs = {&handle_log, &ref_log, &stage_log};
  ReportSpans(logs, result);
  result->layers["bench.coverage_pct"] = Coverage({&stage_log}) * 100.0;
  result->layers["bench.tracing_overhead_pct"] =
      predict_ms > 0 ? (decomposed_ms / predict_ms - 1.0) * 100.0 : 0;
  WriteSpans(logs, options.spans_out);
}

}  // namespace

int RunWarmServe(const Options& options, Result* result) {
  const std::vector<GroundTruth> truth = ReadGroundTruth(options.dir);
  // Set-up is repeated and its median reported: start the daemon, connect,
  // open every session; all but the last are torn down again.
  Served served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    served = Served{};
    std::string error;
    if (!StartServing(options, &served, &error)) {
      std::cerr << "warm-serve set-up failed: " << error << "\n";
      return 1;
    }
    result->prep_s.push_back(ElapsedS(t0));
    if (rep + 1 < kSetupRepeats) {
      StopServing(&served);
    }
  }

  // The traced run splits its time over the TCP pass and two in-process
  // passes.
  const double budget = options.trace ? options.seconds / 3 : options.seconds;
  double elapsed = 0;
  const std::vector<Exchange> exchanges =
      DriveClients(options, &served, kWarmupS + budget, &elapsed);
  const DaemonStats stats = ReadStats(&served);
  const double daemon_rss_mb = StopServing(&served);
  if (daemon_rss_mb < 0) {
    result->Fail("daemon did not drain cleanly");
  }

  std::vector<double> latency_ms;
  for (const Exchange& exchange : exchanges) {
    if (exchange.sent_s >= kWarmupS) {
      latency_ms.push_back(exchange.latency_ms);
    }
  }
  ReportLatency(latency_ms, elapsed - kWarmupS, static_cast<int64_t>(latency_ms.size()), result);
  result->e2e["peak_rss_mb"] = daemon_rss_mb;

  double hit_share = 0;
  double remiss_ratio = 0;
  const std::map<AnswerKey, std::string> answers =
      CheckResponses(options, exchanges, result, &hit_share, &remiss_ratio);
  CheckAgainstCold(options, answers, result);
  result->notes["client_hit_share"] = StrFormat("%.4f", hit_share);
  result->notes["stats_plan_cache_evictions"] = StrFormat("%.0f", stats.evictions);

  std::map<std::pair<std::string, std::string>, double> predicted_ms;
  for (const auto& [key, answer] : answers) {
    predicted_ms[{daydream::ModelName(WarmModels()[static_cast<size_t>(key.first)]), key.second}] =
        std::stod(answer.empty() ? "0" : answer);
  }
  ReportAccuracy(truth, predicted_ms, result);

  if (!options.trace) {
    return 0;
  }
  result->layers["service.plan_cache_hit_ratio"] =
      stats.hits + stats.misses > 0 ? stats.hits / (stats.hits + stats.misses) : 0;
  result->layers["service.plan_cache_remiss_ratio"] = remiss_ratio;
  result->layers["service.queue_high_water"] = stats.queue_high_water;
  result->layers["service.shed"] = stats.shed;
  result->layers["service.deadline_exceeded"] = stats.deadline_exceeded;
  TracedPasses(options, exchanges, budget, result);
  result->layers["service.transport_ms"] =
      Median(latency_ms) - result->layers["service.handle_ms"];
  return 0;
}

}  // namespace e2ebench
