// servebench: the serving benchmark of the quadratic Transformer.
//
//   servebench --workload chat|shared_prompt --seed N
//              --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up
// (replicas + Server, repeated, median), then the seeded trace through
// serve::Server, then correctness checks.  --trace 1 runs the same seeded
// trace with tracing on, recording spans from this program around its
// calls into the library, then the per-layer pass; the spans are written
// as Chrome trace-event JSON into DIR.  Every metric is printed by name
// with its unit; the last stdout line is one JSON object with the
// verdict and the metrics.  The environment record and all metrics are
// also stored in DIR.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "bench.h"
#include "linalg/gemm_backend.h"
#include "obs/trace.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using namespace qdnn;

constexpr int kSetupRepeats = 2;
// Two evenly spaced requests per run, their first 20 tokens: the oracle
// re-decodes the whole prefix at every step, so its cost grows with the
// square of the length.
constexpr std::size_t kOracleSamples = 2;
constexpr index_t kOraclePrefix = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--out") a.out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

struct Env {
  long nproc = 0;
  std::string backend;
  int gemm_threads = 0;
  bool trace_env = false;  // QDNN_TRACE at start
  bool trace_run = false;  // tracing during the measured pass
  double worst_lateness_ms = 0.0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Replicas {
  std::vector<std::unique_ptr<models::Transformer>> models;
  std::vector<models::Transformer*> raw;
  std::vector<double> build_s;
};

Replicas build_replicas() {
  Replicas r;
  for (index_t i = 0; i < kShards; ++i) {
    const long long t0 = now_ns();
    r.models.push_back(std::make_unique<models::Transformer>(model_config(7)));
    r.models.back()->set_training(false);
    r.build_s.push_back(seconds_since(t0));
    r.raw.push_back(r.models.back().get());
  }
  return r;
}

void print_metric(const Metric& m) {
  std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string metrics_json(const Report& report) {
  std::string s = "{";
  char buf[128];
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    // Names and units are fixed identifiers: nothing to escape.
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

std::string env_json(const Env& e) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"gemm_backend\": \"%s\", \"gemm_threads\": %d, "
                "\"serving_threads\": %lld, \"qdnn_trace_env\": %s, "
                "\"tracing_in_run\": %s, \"build_type\": \"%s\", "
                "\"worst_lateness_ms\": %.6f}",
                e.nproc, e.backend.c_str(), e.gemm_threads,
                static_cast<long long>(kServingThreads),
                e.trace_env ? "true" : "false", e.trace_run ? "true" : "false",
                SERVEBENCH_BUILD_TYPE, e.worst_lateness_ms);
  return buf;
}

// The end-to-end metrics of one serving pass.
void end_to_end_metrics(const WorkloadSpec& w, const ServeOutcome& out,
                        Report& report) {
  std::vector<RequestTiming> timings;
  std::vector<double> ttft, itl;
  long long tokens = 0;
  for (const auto& r : out.records) {
    RequestTiming t;
    t.start_ns = latency_start_ns(w.loop == Loop::kOpen, r->due_ns, r->send_ns);
    t.token_ns = r->token_ns;
    t.outcome = is_failure(r->result.reason) ? Outcome::kFailed : Outcome::kCompleted;
    tokens += static_cast<long long>(r->token_ns.size());
    if (t.outcome == Outcome::kCompleted && !t.token_ns.empty())
      ttft.push_back(ttft_ms(t));
    append_itl_ms(t, itl);
    timings.push_back(std::move(t));
  }
  const SloCounts slo = count_slo(timings, w.slo);
  const double window_s =
      static_cast<double>(out.last_retire_ns - out.first_send_ns) / 1e9;
  report.add("ttft_p50_ms", percentile(ttft, 0.5), "ms");
  report.add("ttft_p90_ms", percentile(ttft, 0.9), "ms");
  report.add("itl_p50_ms", percentile(itl, 0.5), "ms");
  report.add("itl_p99_ms", percentile(itl, 0.99), "ms");
  report.add("output_tok_per_s", window_s > 0 ? tokens / window_s : 0.0, "tok/s");
  report.add("slo_ok_frac", slo.ok_frac(), "fraction");
  std::printf("samples: %zu requests sent, %zu TTFT, %zu ITL gaps, %lld tokens in %.3f s\n",
              out.records.size(), ttft.size(), itl.size(), tokens, window_s);
  if (!percentile_supported(ttft.size(), 0.9))
    std::printf("note: fewer than 10 TTFT samples beyond p90\n");
  if (!percentile_supported(itl.size(), 0.99))
    std::printf("note: fewer than 10 ITL samples beyond p99\n");
  std::printf("slo limits: ttft <= %.0f ms, mean itl <= %.0f ms; failed_frac %.6g\n",
              w.slo.ttft_ms, w.slo.mean_itl_ms, slo.failed_frac());
  const serve::SchedulerStats& t = out.stats.totals;
  std::printf("server: mean occupancy %.3f rows, %lld prefix hits / %lld misses, "
              "%lld preemptions\n",
              t.mean_occupancy, t.prefix_hits, t.prefix_misses,
              static_cast<long long>(t.preemptions));
}

// Per-layer metrics of serve/server, serve/scheduler, runtime/kv_pages
// and linalg read from outside the traced serving pass: submit timings,
// stats snapshots, results and the heap-pack counter delta.
void serving_layer_metrics(const ServeOutcome& out, long long heap_packs,
                           Report& report) {
  const serve::ServerStats& st = out.stats;
  double lo = 1e300, hi = -1e300;
  for (const serve::SchedulerStats& s : st.per_shard) {
    lo = std::min(lo, s.mean_occupancy);
    hi = std::max(hi, s.mean_occupancy);
  }
  std::vector<double> queue_wait;
  for (const auto& r : out.records)
    if (r->result.admit_tick >= 0)
      queue_wait.push_back(
          static_cast<double>(r->result.admit_tick - r->result.submit_tick));
  const long long lookups = st.totals.prefix_hits + st.totals.prefix_misses;
  const double requests = static_cast<double>(std::max<std::size_t>(1, out.records.size()));
  report.add("server.submit_us_p99", percentile(out.submit_us, 0.99), "us");
  report.add("server.shard_occupancy_spread", hi - lo, "rows");
  report.add("scheduler.rows_per_step", st.totals.mean_occupancy, "rows");
  report.add("scheduler.queue_wait_p90_ticks", percentile(queue_wait, 0.9), "ticks");
  report.add("scheduler.preemptions", static_cast<double>(st.totals.preemptions),
             "count");
  report.add("kv.prefix_hit_rate",
             lookups > 0 ? static_cast<double>(st.totals.prefix_hits) / lookups : 0.0,
             "fraction");
  report.add("kv.prefix_evictions", static_cast<double>(st.totals.prefix_evictions),
             "count");
  report.add("kv.pages_used_frac",
             out.pages_used_frac.empty()
                 ? 0.0
                 : std::accumulate(out.pages_used_frac.begin(),
                                   out.pages_used_frac.end(), 0.0) /
                       static_cast<double>(out.pages_used_frac.size()),
             "fraction");
  report.add("gemm.heap_pack_calls_per_request",
             static_cast<double>(heap_packs) / requests, "count");
}

int run(const Args& args) {
  WorkloadSpec w;
  if (!find_workload(args.workload, w)) {
    std::fprintf(stderr, "unknown workload '%s' (chat | shared_prompt)\n",
                 args.workload.c_str());
    return 2;
  }

  Env env;
  env.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  env.backend = linalg::gemm_backend_name(linalg::active_gemm_backend());
  env.gemm_threads = linalg::gemm_threads();
  env.trace_env = obs::trace_enabled();
  env.trace_run = args.trace == 1;
  // gemm_threads() == 1 runs every gemm inline on its caller; more adds
  // pool workers beside the serving threads.
  const long busy = kServingThreads + (env.gemm_threads - 1);
  std::printf("env: nproc %ld, gemm backend %s, gemm threads %d, serving threads %lld, "
              "QDNN_TRACE %s, tracing in this run %s, build %s\n",
              env.nproc, env.backend.c_str(), env.gemm_threads,
              static_cast<long long>(kServingThreads), env.trace_env ? "on" : "off",
              env.trace_run ? "on" : "off", SERVEBENCH_BUILD_TYPE);
  if (busy > env.nproc) {
    std::fprintf(stderr,
                 "refusing to run: %lld serving threads + %d gemm pool threads "
                 "exceed nproc %ld\n",
                 static_cast<long long>(kServingThreads), env.gemm_threads - 1,
                 env.nproc);
    return 2;
  }
  obs::set_trace_enabled(env.trace_run);
  if (env.trace_run) obs::set_trace_sample(1);

  const std::vector<TraceRequest> trace = make_trace(w, args.seed, args.seconds);
  std::printf("workload %s, seed %llu, %.0f s, %zu trace requests\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, trace.size());

  // Set-up: replicas + Server (bind, freeze, warm-up, staging warm-up).
  Report report;
  std::vector<double> setup_s;
  Replicas replicas;
  std::unique_ptr<serve::Server> server;
  const int setups = env.trace_run ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    replicas = Replicas();
    const long long t0 = now_ns();
    replicas = build_replicas();
    server = std::make_unique<serve::Server>(replicas.raw, server_config(w));
    setup_s.push_back(seconds_since(t0));
  }

  SpanLog spans(env.trace_run ? 1 << 17 : 0);
  const long long packs0 = linalg::gemm_heap_pack_calls();
  ServeOutcome out =
      serve_trace(*server, w, trace, args.seconds, env.trace_run ? &spans : nullptr);
  const long long packs = linalg::gemm_heap_pack_calls() - packs0;
  server.reset();  // stops the workers; the replicas are free again
  env.worst_lateness_ms = out.worst_lateness_ms;
  std::printf("generator worst lateness %.3f ms\n", env.worst_lateness_ms);

  // Correctness: every id once, streams match results, oracle sample.
  bool correct = true;
  const std::string problem = check_resolutions(out);
  if (!problem.empty()) {
    std::printf("correctness: %s\n", problem.c_str());
    correct = false;
  }
  const long long oracle0 = now_ns();
  const std::vector<index_t> bad =
      oracle_check(replicas.raw.data(), replicas.raw.size(), out, trace,
                   kOracleSamples, kOraclePrefix);
  std::printf("oracle check: %.3f s\n", seconds_since(oracle0));
  for (index_t id : bad)
    std::printf("correctness: request id %lld differs from greedy_decode_reference\n",
                static_cast<long long>(id));
  if (!bad.empty()) correct = false;

  std::size_t failed = 0;
  for (const auto& r : out.records)
    if (is_failure(r->result.reason)) ++failed;

  if (!env.trace_run) {
    end_to_end_metrics(w, out, report);
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    serving_layer_metrics(out, packs, report);
    report.add("setup.model_build_s", median(replicas.build_s), "s");
    layer_pass(*replicas.models[0], w, trace, args.seconds, spans, report);
    const std::string path = args.out + "/trace-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (spans.write_chrome_trace(path))
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.snapshot().size());
    else
      std::printf("warning: could not write %s\n", path.c_str());
  }
  obs::set_trace_enabled(env.trace_env);

  for (const Metric& m : report.metrics()) print_metric(m);
  for (const Metric& m : report.metrics())
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "servebench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  std::printf("verdict: %s, %zu attempted, %zu failed\n",
              correct ? "correct" : "INCORRECT", out.records.size(), failed);

  const std::string metrics = metrics_json(report);
  const std::string result_path = args.out + "/result-" + w.name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                    "\"env\": %s, \"correct\": %s, \"attempted\": %zu, "
                    "\"failed\": %zu, \"metrics\": %s}\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.seconds, env_json(env).c_str(), correct ? "true" : "false",
                 out.records.size(), failed, metrics.c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", out.records.size(), failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  try {
    return servebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
