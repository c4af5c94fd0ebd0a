// Shared declarations of the serving benchmark: the served configuration,
// the metric report, and the serving and layer passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/transformer/transformer.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {

using qdnn::index_t;

// --- served configuration (every workload) --------------------------------
inline constexpr index_t kBos = 1;
inline constexpr index_t kEos = 2;
inline constexpr index_t kShards = 2;
inline constexpr index_t kMaxBatch = 8;
inline constexpr index_t kMaxSteps = 64;
inline constexpr index_t kMaxSrc = 64;
inline constexpr index_t kPrefillWorkers = 1;
// One staging slot computing while one finished prefill waits for a row.
inline constexpr index_t kPrefillSlots = 2;
inline constexpr index_t kServingThreads = kShards * (1 + kPrefillWorkers);
inline constexpr std::uint64_t kModelSeed = 20240917;

// The paper's quadratic Transformer at d_model 512 (proposed neuron in
// every attention projection), or its linear twin.  rank = 0 selects the
// linear twin (proj_dim 512).
qdnn::models::TransformerConfig model_config(index_t rank);

qdnn::serve::ServerConfig server_config(const WorkloadSpec& w);

inline long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(long long t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

qdnn::Tensor source_tensor(const std::vector<long long>& src);

// --- report ----------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// --- the serving pass --------------------------------------------------------

// One request as the benchmark saw it.  Token times are written by the
// Server's worker thread (on_token) and read only after the request's
// result came back through take_results, which synchronizes on the shard
// lock the worker held.
struct RequestRecord {
  std::size_t trace_index = 0;
  index_t id = -1;
  long long due_ns = 0;   // scheduled send time (open loop)
  long long send_ns = 0;  // actual send time
  long long submit_end_ns = 0;
  long long span_id = 0;
  std::vector<long long> token_ns;
  std::vector<index_t> streamed;
  bool stream_in_order = true;
  int resolutions = 0;
  qdnn::serve::RequestResult result;
};

struct ServeOutcome {
  std::vector<std::unique_ptr<RequestRecord>> records;
  long long first_send_ns = 0;
  long long last_retire_ns = 0;
  double worst_lateness_ms = 0.0;
  std::vector<double> submit_us;
  std::vector<double> pages_used_frac;  // sampled while tracing
  std::size_t unknown_results = 0;      // ids the generator never sent
  qdnn::serve::ServerStats stats;
};

// Sends the workload's trace through `server` (open loop: on the
// schedule; closed loop: w.clients clients for `seconds`), then waits for
// every request to resolve.  With `spans`, records submit / token /
// retirement spans and samples page use.
ServeOutcome serve_trace(qdnn::serve::Server& server, const WorkloadSpec& w,
                         const std::vector<TraceRequest>& trace,
                         double seconds, SpanLog* spans);

// Every id resolved exactly once, streams agree with results.  Returns an
// empty string when consistent, else the first problem found.
std::string check_resolutions(const ServeOutcome& out);

bool is_failure(qdnn::serve::FinishReason r);

// Compares a fixed sample of completed requests with
// Transformer::greedy_decode_reference, the O(T²) oracle: the first
// `prefix` tokens of each sampled result must equal the oracle's decode
// of the same source with that step budget (greedy decoding is
// prefix-closed).  The sample is split across the identical `models`, one
// thread each.  Returns the ids that mismatched.
std::vector<index_t> oracle_check(qdnn::models::Transformer* const* models,
                                  std::size_t n_models,
                                  const ServeOutcome& out,
                                  const std::vector<TraceRequest>& trace,
                                  std::size_t samples, index_t prefix);

// --- the traced layer pass ---------------------------------------------------

// Pumps one BatchScheduler on `model` from the calling thread with the
// trace's share of one shard, timing every step; then the per-module
// layer pass, gemm peaks and the linear-vs-quadratic table.  Adds the
// per-layer metrics to `report`.
void layer_pass(qdnn::models::Transformer& model, const WorkloadSpec& w,
                const std::vector<TraceRequest>& trace, double seconds,
                SpanLog& spans, Report& report);

}  // namespace servebench
