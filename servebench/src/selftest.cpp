// Self-test of the benchmark's own statistics: percentile selection and
// its ten-samples-beyond rule, due-time TTFT, SLO and failure counting,
// and seeded trace generation.  Plain checks that stay on in every build.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace servebench;

constexpr long long kMs = 1'000'000;

RequestTiming request(long long start_ms, std::vector<long long> token_ms,
                      Outcome outcome = Outcome::kCompleted) {
  RequestTiming r;
  r.start_ns = start_ms * kMs;
  for (long long t : token_ms) r.token_ns.push_back(t * kMs);
  r.outcome = outcome;
  return r;
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(percentile(v, 0.5) == 50);
  CHECK(percentile(v, 0.9) == 90);
  CHECK(percentile(v, 0.99) == 99);
  CHECK(percentile(v, 1.0) == 100);
  CHECK(percentile(v, 0.0) == 1);
  CHECK(percentile({}, 0.9) == 0);
  CHECK(percentile({7}, 0.99) == 7);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2);  // nearest rank: lower middle

  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(percentile_supported(100, 0.9));
  CHECK(!percentile_supported(99, 0.9));
  CHECK(percentile_supported(1000, 0.99));
  CHECK(!percentile_supported(999, 0.99));
  CHECK(!percentile_supported(0, 0.5));
  CHECK(percentile_supported(20, 0.5));
}

void due_time_ttft() {
  // Open loop: due at 100 ms, the generator stalled and sent at 400 ms,
  // first token at 450 ms.  The stall is charged: TTFT is 350 ms.
  const long long due = 100 * kMs, sent = 400 * kMs;
  RequestTiming open = request(0, {450});
  open.start_ns = latency_start_ns(true, due, sent);
  CHECK(ttft_ms(open) == 350.0);
  // Closed loop: charged from the actual send.
  RequestTiming closed = request(0, {450});
  closed.start_ns = latency_start_ns(false, due, sent);
  CHECK(ttft_ms(closed) == 50.0);
  CHECK(ttft_ms(request(0, {})) < 0.0);

  std::vector<double> gaps;
  append_itl_ms(request(0, {10, 30, 70}), gaps);
  CHECK(gaps.size() == 2 && gaps[0] == 20.0 && gaps[1] == 40.0);
  CHECK(mean_itl_ms(request(0, {10, 30, 70})) == 30.0);
  CHECK(mean_itl_ms(request(0, {10})) == 0.0);
}

void slo_counting() {
  const SloLimits limits{200.0, 50.0};
  std::vector<RequestTiming> rs;
  rs.push_back(request(0, {150, 190, 230}));              // ok
  rs.push_back(request(0, {250, 260}));                   // TTFT miss
  rs.push_back(request(0, {100, 200, 300}));              // mean ITL miss
  rs.push_back(request(0, {}, Outcome::kFailed));         // shed
  rs.push_back(request(0, {120, 130}, Outcome::kFailed)); // errored mid-way
  rs.push_back(request(0, {}));                           // no token: miss
  rs.push_back(request(0, {200, 250}));                   // on both limits: ok
  const SloCounts c = count_slo(rs, limits);
  CHECK(c.sent == 7);
  CHECK(c.ok == 2);
  CHECK(c.failed == 2);
  CHECK(c.ok_frac() == 2.0 / 7.0);
  CHECK(c.failed_frac() == 2.0 / 7.0);
  CHECK(count_slo({}, limits).ok_frac() == 0.0);
}

void traces() {
  WorkloadSpec w;
  CHECK(!find_workload("nope", w));
  for (const char* name : {"chat", "shared_prompt"}) {
    CHECK(find_workload(name, w));
    const auto a = make_trace(w, 7, 10.0);
    const auto b = make_trace(w, 7, 10.0);
    const auto c = make_trace(w, 8, 10.0);
    CHECK(!a.empty());
    CHECK(a.size() == b.size());
    bool same = true, differs = a.size() != c.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
      same = same && a[i].src == b[i].src && a[i].budget == b[i].budget &&
             a[i].due_s == b[i].due_s;
      if (i < c.size()) differs = differs || a[i].src != c[i].src;
      CHECK(a[i].budget >= w.budget_min && a[i].budget <= w.budget_max);
      CHECK(static_cast<int>(a[i].src.size()) >= w.src_min &&
            static_cast<int>(a[i].src.size()) <= w.src_max);
      for (long long t : a[i].src) CHECK(t >= kFirstToken && t < kVocab);
      if (i > 0) CHECK(a[i].due_s >= a[i - 1].due_s);
      CHECK(a[i].due_s < 10.0);
    }
    CHECK(same);
    CHECK(differs);
  }
}

void balanced_mix() {
  TraceRng a(1), b(2);
  std::vector<int> x = balanced(a, 40, 4, 16), y = balanced(b, 40, 4, 16);
  CHECK(x != y);  // the order follows the seed
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  CHECK(x == y);  // the mix does not
  CHECK(x.front() == 4 && x.back() == 16);
  const std::vector<int> one = balanced(a, 1, 32, 64);
  CHECK(one.size() == 1 && one[0] >= 32 && one[0] <= 64);
}

}  // namespace

int main() {
  percentiles();
  due_time_ttft();
  slo_counting();
  traces();
  balanced_mix();
  if (failures == 0) std::printf("servebench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
