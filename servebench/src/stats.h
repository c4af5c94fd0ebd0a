// The benchmark's own statistics: percentile selection, due-time TTFT,
// inter-token gaps and SLO / failure counting.  Pure functions over plain
// data, so the self-test (selftest.cpp) can pin every rule down without a
// model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace servebench {

// Nearest-rank percentile of `samples` (any order): the smallest sample
// with at least a fraction `p` of the samples at or below it.  0 for an
// empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return n - rank;
}

// A percentile is reported as measured only when at least ten samples
// lie beyond it (p90 needs 100 samples, p99 needs 1000).
inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// How a request resolved, as far as the metrics care.
enum class Outcome { kCompleted, kFailed };

// One request as the generator and the stream saw it.  Times are
// steady-clock nanoseconds.  `start_ns` is the instant latency is charged
// from: the scheduled send time in an open loop (so a generator that
// stalls is charged for the stall) and the actual send time in a closed
// loop.
struct RequestTiming {
  long long start_ns = 0;
  std::vector<long long> token_ns;  // one per streamed token, in order
  Outcome outcome = Outcome::kCompleted;
};

// The instant a request's latency is charged from: when it was due in an
// open loop, when it was actually sent in a closed loop.
inline long long latency_start_ns(bool open_loop, long long due_ns,
                                  long long send_ns) {
  return open_loop ? due_ns : send_ns;
}

// Time to first token in ms, or a negative value when no token arrived.
inline double ttft_ms(const RequestTiming& r) {
  if (r.token_ns.empty()) return -1.0;
  return static_cast<double>(r.token_ns.front() - r.start_ns) / 1e6;
}

// Gaps between consecutive streamed tokens of one request, in ms.
inline void append_itl_ms(const RequestTiming& r, std::vector<double>& out) {
  for (std::size_t i = 1; i < r.token_ns.size(); ++i)
    out.push_back(static_cast<double>(r.token_ns[i] - r.token_ns[i - 1]) /
                  1e6);
}

// Mean inter-token gap of one request in ms (0 with fewer than 2 tokens).
inline double mean_itl_ms(const RequestTiming& r) {
  if (r.token_ns.size() < 2) return 0.0;
  return static_cast<double>(r.token_ns.back() - r.token_ns.front()) / 1e6 /
         static_cast<double>(r.token_ns.size() - 1);
}

// Fixed per-workload service-level limits.
struct SloLimits {
  double ttft_ms = 0.0;      // TTFT must be within this
  double mean_itl_ms = 0.0;  // and the request's mean gap within this
};

struct SloCounts {
  std::size_t sent = 0;
  std::size_t ok = 0;      // completed within both limits
  std::size_t failed = 0;  // resolved shed / error / cancelled / deadline

  double ok_frac() const {
    return sent == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(sent);
  }
  double failed_frac() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(failed) / static_cast<double>(sent);
  }
};

// A failed request counts as a miss; a completed one must have streamed a
// first token within the TTFT limit and kept its mean gap within the ITL
// limit.
inline SloCounts count_slo(const std::vector<RequestTiming>& requests,
                           const SloLimits& limits) {
  SloCounts c;
  c.sent = requests.size();
  for (const RequestTiming& r : requests) {
    if (r.outcome == Outcome::kFailed) {
      ++c.failed;
      continue;
    }
    const double ttft = ttft_ms(r);
    if (ttft < 0.0 || ttft > limits.ttft_ms) continue;
    if (mean_itl_ms(r) > limits.mean_itl_ms) continue;
    ++c.ok;
  }
  return c;
}

}  // namespace servebench
