// Self-test of the seeded workload plans: one seed always yields the same
// question and request sequence, another seed a different one, and the
// sequences have the shape README.md promises.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "e2ebench/plan.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

using QuestionId = std::tuple<int, std::string, int>;

std::vector<QuestionId> Ids(const std::vector<e2ebench::Question>& questions) {
  std::vector<QuestionId> ids;
  for (const e2ebench::Question& q : questions) {
    ids.emplace_back(static_cast<int>(q.model), q.what_if.Key(), static_cast<int>(q.format));
  }
  return ids;
}

std::string RequestId(const e2ebench::Request& r) {
  return std::to_string(static_cast<int>(r.kind)) + "/" + std::to_string(r.session) + "/" +
         (r.kind == e2ebench::RequestKind::kPredict ? r.what_if.Key() : "");
}

}  // namespace

int main() {
  using e2ebench::ColdPredictQuestions;
  using e2ebench::WarmServeRequest;

  // cold-predict: same seed, same sequence; other seed, other order.
  const size_t pass = e2ebench::ColdPassSize();
  const std::vector<QuestionId> a = Ids(ColdPredictQuestions(1, 3 * pass));
  Check(a == Ids(ColdPredictQuestions(1, 3 * pass)), "cold-predict: same seed, same questions");
  const std::vector<QuestionId> b = Ids(ColdPredictQuestions(2, 3 * pass));
  Check(a != b, "cold-predict: different seed, different questions");
  Check(Ids(ColdPredictQuestions(e2ebench::kHeldOutSeed, pass)) !=
            Ids(ColdPredictQuestions(1, pass)),
        "cold-predict: the held-out seed has its own sequence");
  // Every whole pass asks the full matrix once, whatever the seed.
  for (size_t p = 0; p < 3; ++p) {
    std::multiset<QuestionId> pa(a.begin() + p * pass, a.begin() + (p + 1) * pass);
    std::multiset<QuestionId> pb(b.begin() + p * pass, b.begin() + (p + 1) * pass);
    Check(pa == pb, "cold-predict: each pass holds the same questions");
    Check(std::set<QuestionId>(pa.begin(), pa.end()).size() == pass,
          "cold-predict: a pass asks each question once");
  }

  // warm-serve: the counter-based stream is a pure function of (seed, index).
  constexpr uint64_t kRequests = 20000;
  int differing = 0;
  std::map<e2ebench::RequestKind, int> kinds;
  int hot = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const e2ebench::Request r = WarmServeRequest(1, i);
    if (RequestId(r) != RequestId(WarmServeRequest(1, i))) {
      Check(false, "warm-serve: same seed, same request");
      break;
    }
    differing += RequestId(r) != RequestId(WarmServeRequest(2, i)) ? 1 : 0;
    ++kinds[r.kind];
    hot += r.hot ? 1 : 0;
  }
  Check(differing > static_cast<int>(kRequests / 2),
        "warm-serve: different seed, different requests");
  const double hot_share = static_cast<double>(hot) / kRequests;
  const double admin_share =
      static_cast<double>(kRequests - kinds[e2ebench::RequestKind::kPredict]) / kRequests;
  Check(hot_share > 0.88 && hot_share < 0.92, "warm-serve: about 90% hot predicts");
  Check(admin_share > 0.002 && admin_share < 0.01, "warm-serve: a small share of admin verbs");
  Check(e2ebench::WarmHotWhatIfs().size() + e2ebench::WarmTailWhatIfs().size() > 64,
        "warm-serve: distinct signatures per session exceed the 64-entry cache");

  // sweep: the matrix and its case list agree (27 cases).
  Check(e2ebench::SweepWhatIfs(e2ebench::StandardSweepMatrix()).size() == 27,
        "sweep: 27 cases");

  std::printf("%s\n", failures == 0 ? "plan self-test passed" : "plan self-test FAILED");
  return failures == 0 ? 0 : 1;
}
