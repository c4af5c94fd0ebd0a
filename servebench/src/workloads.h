// Seeded synthetic traffic for the three workloads.  The trace is built
// entirely from the seed before any request is sent; the server only
// ever sees the generated requests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace servebench {

// splitmix64: a tiny, portable generator, so a seed names the same trace
// under every standard library.
class TraceRng {
 public:
  explicit TraceRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  long long range(long long lo, long long hi) {  // inclusive
    return lo + static_cast<long long>(next() %
                                       static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

enum class Loop { kOpen, kClosed };

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kOpen;
  double rate_per_s = 0.0;  // open loop: Poisson arrivals per wall second
  int clients = 0;          // closed loop: concurrent clients
  int src_min = 0, src_max = 0;
  int budget_min = 0, budget_max = 0;
  int shared_prompts = 0;   // > 0: sources drawn from this many prompts
  long long pool_pages = 0; // 0 = the dense bound
  SloLimits slo;
};

// The served vocabulary; ids 0..2 are pad / bos / eos and never appear in
// a source.
inline constexpr long long kVocab = 8000;
inline constexpr long long kFirstToken = 3;

inline bool find_workload(const std::string& name, WorkloadSpec& out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "chat") {
    w.loop = Loop::kOpen;
    w.rate_per_s = 3.0;
    w.src_min = 4, w.src_max = 16;
    w.budget_min = 32, w.budget_max = 64;
    w.slo = {500.0, 60.0};
  } else if (name == "shared_prompt") {
    w.loop = Loop::kClosed;
    w.clients = 24;
    w.src_min = 64, w.src_max = 64;
    w.budget_min = 16, w.budget_max = 48;
    w.shared_prompts = 4;
    w.pool_pages = 40;
    w.slo = {2000.0, 150.0};
  } else {
    return false;
  }
  out = w;
  return true;
}

// One request of the trace.  `due_s` is the scheduled send offset from
// the start of the window (open loop only).
struct TraceRequest {
  double due_s = 0.0;
  std::vector<long long> src;
  int budget = 0;
};

inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

inline std::vector<long long> random_tokens(TraceRng& rng, int len) {
  std::vector<long long> t(static_cast<std::size_t>(len));
  for (long long& x : t) x = rng.range(kFirstToken, kVocab - 1);
  return t;
}

// n values spread evenly over [lo, hi], in an order shuffled by `rng`:
// every run of a given size offers the same mix of lengths, so seeds
// differ in order, content and arrival times, not in how much work they
// bring.
inline std::vector<int> balanced(TraceRng& rng, std::size_t n, int lo, int hi) {
  std::vector<int> v(n);
  const double width = static_cast<double>(hi - lo + 1);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = lo + static_cast<int>((static_cast<double>(i) + 0.5) * width /
                                 static_cast<double>(n));
  for (std::size_t i = n; i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.range(0, static_cast<long long>(i) - 1))]);
  return v;
}

// Open loop: round(rate × seconds) arrivals of a Poisson process over
// [0, seconds) — given its count, a Poisson process places its arrivals
// as sorted uniform draws, so every seed offers the same load with its
// own bursts.  Closed loop: a sequence long enough that the clients never
// run dry (each client sends the next request of the sequence when its
// reply comes back), balanced block by block.
inline std::vector<TraceRequest> make_trace(const WorkloadSpec& w,
                                            std::uint64_t seed,
                                            double seconds) {
  TraceRng rng(seed * 0x100000001B3ull ^ fnv1a(w.name));
  std::vector<TraceRequest> trace;
  if (w.loop == Loop::kOpen) {
    const auto n = static_cast<std::size_t>(std::llround(w.rate_per_s * seconds));
    std::vector<double> due(n);
    for (double& t : due) t = rng.uniform() * seconds;
    std::sort(due.begin(), due.end());
    const std::vector<int> lens = balanced(rng, n, w.src_min, w.src_max);
    const std::vector<int> budgets = balanced(rng, n, w.budget_min, w.budget_max);
    for (std::size_t i = 0; i < n; ++i) {
      TraceRequest r;
      r.due_s = due[i];
      r.src = random_tokens(rng, lens[i]);
      r.budget = budgets[i];
      trace.push_back(std::move(r));
    }
    return trace;
  }
  std::vector<std::vector<long long>> prompts;
  for (int i = 0; i < w.shared_prompts; ++i)
    prompts.push_back(random_tokens(rng, w.src_max));
  // Generous upper bound: a reply never comes back faster than one
  // decode step per token, and steps take milliseconds.
  constexpr std::size_t kBlock = 64;
  const std::size_t blocks = (static_cast<std::size_t>(seconds * 400.0) + kBlock) / kBlock;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::vector<int> which = balanced(rng, kBlock, 0, w.shared_prompts - 1);
    const std::vector<int> budgets = balanced(rng, kBlock, w.budget_min, w.budget_max);
    for (std::size_t i = 0; i < kBlock; ++i) {
      TraceRequest r;
      r.src = prompts[static_cast<std::size_t>(which[i])];
      r.budget = budgets[i];
      trace.push_back(std::move(r));
    }
  }
  return trace;
}

}  // namespace servebench
