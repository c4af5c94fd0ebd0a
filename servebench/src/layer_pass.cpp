// The traced per-layer pass.  Every figure is timed or read from outside
// the module it measures: spans wrap calls into the public API of
// serve/scheduler, serve/prefill, runtime/decode_session,
// runtime/kv_pages, models/transformer and linalg, and the modeled MACs
// come from quadratic/complexity.h (the paper's Table I cost model).
#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.h"
#include "linalg/gemm.h"
#include "linalg/gemm_backend.h"
#include "linalg/packed_weights.h"
#include "obs/trace.h"
#include "quadratic/complexity.h"
#include "runtime/decode_session.h"
#include "serve/prefill.h"
#include "serve/scheduler.h"

namespace servebench {

using namespace qdnn;

namespace {

// Runs f() reps times, one span each, and returns the median in ms.
template <class F>
double median_ms(SpanLog& spans, const char* name, int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const long long t0 = now_ns();
    f(i);
    const long long t1 = now_ns();
    spans.add(name, t0, t1, 0, -1, kTrackLayers);
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return median(ms);
}

// Modeled MACs of one attention projection (in → out features) applied
// to one token, from the Table I per-neuron cost.
long long proj_macs(const quadratic::NeuronSpec& spec, index_t in,
                    index_t out) {
  const quadratic::NeuronCost c = quadratic::neuron_cost(spec, in);
  return static_cast<long long>(out / c.outputs) *
         static_cast<long long>(c.macs);
}

// --- scheduler pass -----------------------------------------------------------

struct SchedulerPass {
  std::vector<double> step_ms;
  std::vector<obs::StageTiming> profile;
};

serve::Request make_request(const TraceRequest& tr) {
  serve::Request req;
  req.src_ids = source_tensor(tr.src);
  req.max_new_tokens = tr.budget;
  return req;
}

// One shard's share of the trace (every other open-loop arrival; half the
// closed-loop clients), pumped from this thread for a quarter of the
// window.
SchedulerPass scheduler_pass(models::Transformer& model, const WorkloadSpec& w,
                             const std::vector<TraceRequest>& trace,
                             double seconds, SpanLog& spans) {
  SchedulerPass pass;
  serve::BatchScheduler sched(model, server_config(w).shard);
  const double window = seconds / 4.0;
  const long long t0 = now_ns();
  const long long end = t0 + static_cast<long long>(window * 1e9);
  std::vector<std::size_t> share;
  if (w.loop == Loop::kOpen) {
    for (std::size_t i = 0; i < trace.size(); i += 2)
      if (trace[i].due_s < window) share.push_back(i);
  }
  std::size_t next = 0;
  if (w.loop == Loop::kClosed)
    for (int c = 0; c < w.clients / static_cast<int>(kShards); ++c)
      sched.submit(make_request(trace[next++]));
  for (;;) {
    if (w.loop == Loop::kOpen) {
      while (next < share.size() &&
             t0 + static_cast<long long>(trace[share[next]].due_s * 1e9) <=
                 now_ns())
        sched.submit(make_request(trace[share[next++]]));
      if (sched.idle()) {
        if (next >= share.size()) break;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(
                t0 + static_cast<long long>(trace[share[next]].due_s * 1e9))));
        continue;
      }
    } else if (sched.idle()) {
      break;
    }
    if (sched.wait_for_prefill()) continue;
    const long long a = now_ns();
    const index_t rows = sched.step();
    const long long b = now_ns();
    if (rows > 0) {
      pass.step_ms.push_back(static_cast<double>(b - a) / 1e6);
      spans.add("BatchScheduler::step", a, b, 0, -1, kTrackScheduler);
    }
    if (sched.results_ready() > 0) {
      const std::vector<serve::RequestResult> done = sched.take_results();
      if (w.loop == Loop::kClosed)
        for (std::size_t i = 0; i < done.size(); ++i)
          if (now_ns() < end && next < trace.size())
            sched.submit(make_request(trace[next++]));
    }
  }
  pass.profile = sched.session().stage_profile();
  return pass;
}

// --- decode stage categories --------------------------------------------------

const char* const kDecodeStages[] = {"self_step", "cross_step", "ffn_fc1",
                                     "ffn_fc2", "out_proj"};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string stage_category(const std::string& module) {
  if (ends_with(module, ".self_step")) return "self_step";
  if (ends_with(module, ".cross_step")) return "cross_step";
  if (ends_with(module, ".fc1")) return "ffn_fc1";
  if (ends_with(module, ".fc2")) return "ffn_fc2";
  if (module == "out_proj") return "out_proj";
  return "other";
}

std::map<std::string, double> profile_ns(const std::vector<obs::StageTiming>& p) {
  std::map<std::string, double> ns;
  for (const obs::StageTiming& t : p)
    ns[stage_category(t.name)] += static_cast<double>(t.total_ns);
  return ns;
}

// --- per-model stage measurements ---------------------------------------------

constexpr index_t kDecodeSrc = 16;   // source length of the decode passes
constexpr index_t kFirstTimedStep = 16;
constexpr index_t kTimedSteps = 32;  // steps 16..47: depth ~32 of 64

struct StageTimes {
  double step_ms_untraced = 0.0;  // b8
  double step_ms_traced = 0.0;    // b8
  std::map<std::string, double> ms_per_step;  // b8, by decode stage
  double mean_depth = 0.0;
  double encode_ms = 0.0;      // ts64, whole encoder
  double project_kv_ms = 0.0;  // ts64, every decoder layer
};

Tensor random_sources(TraceRng& rng, index_t n, index_t ts) {
  Tensor t{Shape{n, ts}};
  for (index_t i = 0; i < n * ts; ++i)
    t[i] = static_cast<float>(rng.range(kFirstToken, kVocab - 1));
  return t;
}

// Median ms of one DecodeSession::step at batch n over steps 16..47.
// With `traced`, tracing is on for the timed steps only and `ns` receives
// the stage-profile delta they produced.
double decode_step_ms(runtime::DecodeSession& session, TraceRng& rng,
                      index_t n, bool traced, SpanLog& spans,
                      std::map<std::string, double>* ns) {
  const bool was = obs::trace_enabled();
  obs::set_trace_enabled(false);
  session.prime(random_sources(rng, n, kDecodeSrc), {});
  std::vector<index_t> tokens(static_cast<std::size_t>(n), kBos);
  const std::map<std::string, double> before = profile_ns(session.stage_profile());
  std::vector<double> ms;
  for (index_t s = 0; s < kFirstTimedStep + kTimedSteps; ++s) {
    const bool timed = s >= kFirstTimedStep;
    if (timed && traced) obs::set_trace_enabled(true);
    const long long a = now_ns();
    tokens = session.step(tokens);
    const long long b = now_ns();
    obs::set_trace_enabled(false);
    if (timed) {
      ms.push_back(static_cast<double>(b - a) / 1e6);
      spans.add(n == 1 ? "DecodeSession::step b1" : "DecodeSession::step b8", a,
                b, 0, -1, kTrackLayers);
    }
  }
  if (ns != nullptr) {
    const std::map<std::string, double> after = profile_ns(session.stage_profile());
    for (const auto& kv : after) {
      auto it = before.find(kv.first);
      (*ns)[kv.first] = kv.second - (it == before.end() ? 0.0 : it->second);
    }
  }
  obs::set_trace_enabled(was);
  return median(ms);
}

StageTimes measure_stages(models::Transformer& model,
                          runtime::DecodeSession& session, TraceRng& rng,
                          int reps, SpanLog& spans) {
  StageTimes st;
  st.step_ms_untraced = decode_step_ms(session, rng, kMaxBatch, false, spans, nullptr);
  std::map<std::string, double> ns;
  st.step_ms_traced = decode_step_ms(session, rng, kMaxBatch, true, spans, &ns);
  for (const auto& kv : ns) st.ms_per_step[kv.first] = kv.second / 1e6 / kTimedSteps;
  st.mean_depth = kFirstTimedStep + (kTimedSteps + 1) / 2.0;

  const index_t d = model.config().d_model;
  const index_t p = model.config().proj_dim;
  const Tensor src = random_sources(rng, 1, kMaxSrc);
  const index_t len = kMaxSrc;
  models::TransformerEncoder encoder(model);
  Workspace ws;
  Tensor enc{Shape{1, kMaxSrc, d}};
  auto encode = [&](int) {
    ws.reset();
    encoder.encode_into(ConstTensorView(Shape{1, kMaxSrc}, src.data()),
                        TensorView(enc), &len, ws);
  };
  encode(0);  // warm the workspace
  st.encode_ms = median_ms(spans, "TransformerEncoder::encode_into ts64", reps, encode);

  Tensor k{Shape{1, kMaxSrc, p}}, v{Shape{1, kMaxSrc, p}};
  auto project = [&](int) {
    for (index_t l = 0; l < model.num_decoder_layers(); ++l) {
      ws.reset();
      model.decoder_layer(l).cross_attention().project_kv(
          ConstTensorView(Shape{kMaxSrc, d}, enc.data()), 1, kMaxSrc,
          TensorView(k), TensorView(v), ws);
    }
  };
  project(0);
  st.project_kv_ms = median_ms(spans, "MultiHeadAttention::project_kv ts64", reps, project);
  return st;
}

// --- modeled MACs per stage ---------------------------------------------------

std::map<std::string, long long> modeled_macs(const models::TransformerConfig& c,
                                              double depth) {
  const quadratic::NeuronSpec& s = c.spec;
  const long long d = c.d_model, p = c.proj_dim, f = c.d_ff, v = c.tgt_vocab;
  const long long layers = c.n_layers, rows = kMaxBatch, ts = kMaxSrc;
  const long long attn_proj = 3 * proj_macs(s, d, p) + proj_macs(s, p, d);
  std::map<std::string, long long> m;
  m["self_step"] = rows * layers *
                   (attn_proj + static_cast<long long>(2.0 * depth * p));
  m["cross_step"] = rows * layers *
                    (proj_macs(s, d, p) + proj_macs(s, p, d) + 2 * kDecodeSrc * p);
  m["ffn_fc1"] = rows * layers * d * f;
  m["ffn_fc2"] = rows * layers * f * d;
  m["out_proj"] = rows * d * v;
  m["encode"] = ts * layers * (attn_proj + 2 * ts * p + 2 * d * f);
  m["project_kv"] = ts * layers * 2 * proj_macs(s, d, p);
  return m;
}

// --- gemm peaks -----------------------------------------------------------------

double gemm_gflops(bool prepacked, index_t m, index_t n, index_t k,
                   SpanLog& spans, const char* name) {
  TraceRng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k));
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      w(static_cast<std::size_t>(n * k)), c(static_cast<std::size_t>(m * n));
  for (float& x : a) x = static_cast<float>(rng.uniform() - 0.5);
  for (float& x : w) x = static_cast<float>(rng.uniform() - 0.5);
  linalg::PackedWeights packed;
  packed.pack(true, k, n, w.data(), k);
  std::vector<float> scratch(
      static_cast<std::size_t>(linalg::gemm_scratch_floats(false, true, m, n, k)));
  auto once = [&] {
    if (prepacked)
      linalg::gemm_prepacked(false, m, n, k, 1.0f, a.data(), k, packed, 0.0f,
                             c.data(), n);
    else
      linalg::gemm(false, true, m, n, k, 1.0f, a.data(), k, w.data(), k, 0.0f,
                   c.data(), n, scratch.data());
  };
  once();
  // Calls per chunk sized to ~40 ms, median over five chunks.
  const long long t0 = now_ns();
  once();
  const double one_s = std::max(1e-7, seconds_since(t0));
  const int calls = std::max(1, static_cast<int>(0.04 / one_s));
  std::vector<double> gf;
  for (int chunk = 0; chunk < 5; ++chunk) {
    const long long a0 = now_ns();
    for (int i = 0; i < calls; ++i) once();
    const long long a1 = now_ns();
    spans.add(name, a0, a1, 0, -1, kTrackLayers);
    gf.push_back(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                 static_cast<double>(k) * calls /
                 (static_cast<double>(a1 - a0) / 1e9) / 1e9);
  }
  return median(gf);
}

struct Peaks {
  double decode = 0, prefill = 0, ffn = 0, logits = 0;
};

double stage_peak(const Peaks& pk, const std::string& stage) {
  if (stage == "ffn_fc1" || stage == "ffn_fc2") return pk.ffn;
  if (stage == "out_proj") return pk.logits;
  if (stage == "encode" || stage == "project_kv") return pk.prefill;
  return pk.decode;
}

// GF/s and fraction of the prepacked peak per stage, joined with the
// modeled MACs.  Prints one table row per stage; adds the metrics when
// `report` is given.
void layer_table(const char* label, const models::TransformerConfig& c,
                 const StageTimes& st, const Peaks& pk, Report* report) {
  const std::map<std::string, long long> macs = modeled_macs(c, st.mean_depth);
  std::printf("layer table [%s]: stage, ms, modeled MMACs, GF/s, peak frac\n", label);
  auto row = [&](const std::string& stage, double ms) {
    const double mmacs = static_cast<double>(macs.at(stage)) / 1e6;
    const double gflops = ms > 0 ? 2.0 * mmacs * 1e6 / (ms / 1e3) / 1e9 : 0.0;
    const double frac = gflops / stage_peak(pk, stage);
    std::printf("  %-11s %9.3f ms %10.2f %9.2f %7.3f\n", stage.c_str(), ms,
                mmacs, gflops, frac);
    if (report != nullptr) {
      report->add("layer." + stage + ".gflops", gflops, "GF/s");
      report->add("layer." + stage + ".peak_frac", frac, "fraction");
    }
  };
  for (const char* s : kDecodeStages) {
    auto it = st.ms_per_step.find(s);
    row(s, it == st.ms_per_step.end() ? 0.0 : it->second);
  }
  row("encode", st.encode_ms);
  row("project_kv", st.project_kv_ms);
}

runtime::DecodeSessionConfig layer_session_config() {
  runtime::DecodeSessionConfig c;
  c.max_batch = kMaxBatch;
  c.max_steps = kMaxSteps;
  c.max_src = kMaxSrc;
  return c;
}

}  // namespace

void layer_pass(models::Transformer& model, const WorkloadSpec& w,
                const std::vector<TraceRequest>& trace, double seconds,
                SpanLog& spans, Report& report) {
  // serve/scheduler: one shard's scheduler pumped from this thread.
  const SchedulerPass sp = scheduler_pass(model, w, trace, seconds, spans);
  report.add("scheduler.step_ms_p50", percentile(sp.step_ms, 0.5), "ms");
  report.add("scheduler.step_ms_p99", percentile(sp.step_ms, 0.99), "ms");
  std::printf("scheduler pass: %zu stepped ticks%s\n", sp.step_ms.size(),
              percentile_supported(sp.step_ms.size(), 0.99)
                  ? ""
                  : " (fewer than 10 beyond p99)");
  {
    const std::map<std::string, double> ns = profile_ns(sp.profile);
    double total = 0.0;
    for (const auto& kv : ns) total += kv.second;
    for (const char* s : kDecodeStages) {
      auto it = ns.find(s);
      report.add(std::string("decode.stage_frac.") + s,
                 total > 0 && it != ns.end() ? it->second / total : 0.0,
                 "fraction");
    }
  }

  // runtime/decode_session, runtime/kv_pages, models/transformer.
  TraceRng rng(0x5eedULL);
  long long t0 = now_ns();
  runtime::DecodeSession session(model, layer_session_config());
  report.add("setup.session_bind_s", seconds_since(t0), "s");
  runtime::PrefillStaging staging;
  t0 = now_ns();
  session.init_staging(staging);
  report.add("setup.init_staging_s", seconds_since(t0), "s");

  constexpr int kReps = 3;
  for (index_t ts : {index_t{16}, kMaxSrc}) {
    std::vector<Tensor> srcs;
    for (int i = 0; i < kReps; ++i) srcs.push_back(random_sources(rng, 1, ts));
    const double ms = median_ms(
        spans, ts == 16 ? "DecodeSession::prime_compute ts16"
                        : "DecodeSession::prime_compute ts64",
        kReps, [&](int i) { session.prime_compute(srcs[i], 0, staging); });
    report.add(ts == 16 ? "prefill.prime_compute_ms.ts16"
                        : "prefill.prime_compute_ms.ts64",
               ms, "ms");
  }

  // commit_row of a fresh prefill, then a prefix-cache hit on the same
  // source into another row.
  {
    std::vector<Tensor> srcs;
    for (int i = 0; i < kReps; ++i) srcs.push_back(random_sources(rng, 1, kMaxSrc));
    std::vector<double> commit_us, hit_us;
    bool all_hit = true;
    for (int i = 0; i < kReps; ++i) {
      session.prime_compute(srcs[i], 0, staging);
      long long a = now_ns();
      session.commit_row(0, staging);
      long long b = now_ns();
      spans.add("DecodeSession::commit_row", a, b, 0, -1, kTrackLayers);
      commit_us.push_back(static_cast<double>(b - a) / 1e3);
      session.reset_row(0);
      a = now_ns();
      const bool hit = session.try_commit_row_from_cache(1, srcs[i], 0);
      b = now_ns();
      spans.add("DecodeSession::try_commit_row_from_cache", a, b, 0, -1,
                kTrackLayers);
      all_hit = all_hit && hit;
      hit_us.push_back(static_cast<double>(b - a) / 1e3);
      session.reset_row(1);
    }
    if (!all_hit) std::printf("warning: a prefix-cache probe of a committed source missed\n");
    report.add("prefill.commit_row_us", median(commit_us), "us");
    report.add("prefill.cache_commit_us", median(hit_us), "us");
  }

  // serve/prefill: submit → try_take on a pool owned by this pass.
  {
    serve::PrefillPool pool(session, kPrefillWorkers, kPrefillSlots);
    std::vector<double> ms;
    for (int i = 0; i < kReps; ++i) {
      serve::PrefillJob job;
      job.id = i;
      job.budget = 1;
      job.request.src_ids = random_sources(rng, 1, kMaxSrc);
      const long long a = now_ns();
      pool.submit(std::move(job));
      serve::PrefillPool::Finished fin;
      while (!pool.try_take(fin)) pool.wait_ready();
      const long long b = now_ns();
      spans.add("PrefillPool submit->try_take", a, b, 0, -1, kTrackLayers);
      ms.push_back(static_cast<double>(b - a) / 1e6);
      if (fin.error) std::printf("warning: prefill pool job %d failed\n", i);
      pool.release(fin.slot);
    }
    report.add("prefill.pool_turnaround_ms_p50", median(ms), "ms");
  }

  // Decode steps, encoder and cross projections of the served model.
  report.add("decode.step_ms.b1",
             decode_step_ms(session, rng, 1, false, spans, nullptr), "ms");
  const StageTimes quad = measure_stages(model, session, rng, kReps, spans);
  report.add("decode.step_ms.b8", quad.step_ms_untraced, "ms");
  report.add("prefill.encode_ms.ts64", quad.encode_ms, "ms");
  report.add("prefill.project_kv_ms.ts64", quad.project_kv_ms, "ms");
  report.add("obs.tracing_overhead_frac",
             quad.step_ms_traced / quad.step_ms_untraced - 1.0, "fraction");

  // linalg: gemm at the served model's shapes.
  const index_t d = model.config().d_model, p = model.config().proj_dim;
  Peaks pk;
  pk.decode = gemm_gflops(true, kMaxBatch, p, d, spans, "gemm_prepacked 8x400x512");
  pk.prefill = gemm_gflops(true, kMaxSrc, p, d, spans, "gemm_prepacked 64x400x512");
  pk.ffn = gemm_gflops(true, kMaxBatch, model.config().d_ff, d, spans,
                       "gemm_prepacked 8x2048x512");
  pk.logits = gemm_gflops(true, kMaxBatch, model.config().tgt_vocab, d, spans,
                          "gemm_prepacked 8x8000x512");
  report.add("gemm.prepacked_gflops.decode", pk.decode, "GF/s");
  report.add("gemm.prepacked_gflops.prefill", pk.prefill, "GF/s");
  report.add("gemm.prepacked_gflops.ffn", pk.ffn, "GF/s");
  report.add("gemm.prepacked_gflops.logits", pk.logits, "GF/s");
  report.add("gemm.unpacked_gflops.prefill",
             gemm_gflops(false, kMaxSrc, p, d, spans, "gemm 64x400x512"), "GF/s");
  report.add("gemm.unpacked_gflops.ffn",
             gemm_gflops(false, kMaxSrc, model.config().d_ff, d, spans,
                         "gemm 64x2048x512"),
             "GF/s");

  // quadratic + models/transformer: the layer table for the served
  // model, its linear twin, and the paper's own k=9 setting.
  layer_table("quadratic k=7, proj_dim 400", model.config(), quad, pk, &report);
  const quadratic::NeuronSpec& qs = model.config().spec;
  report.add("layer.attn_proj.macs_per_token.quadratic",
             2.0 * static_cast<double>(proj_macs(qs, d, p)), "MACs");
  report.add("layer.attn_proj.us_per_token.quadratic",
             quad.project_kv_ms * 1e3 /
                 static_cast<double>(model.num_decoder_layers() * kMaxSrc),
             "us");
  {
    const models::TransformerConfig lc = model_config(0);
    models::Transformer linear(lc);
    linear.set_training(false);
    runtime::DecodeSession ls(linear, layer_session_config());
    const StageTimes lin = measure_stages(linear, ls, rng, 3, spans);
    layer_table("linear twin, proj_dim 512", lc, lin, pk, nullptr);
    report.add("layer.attn_proj.macs_per_token.linear",
               2.0 * static_cast<double>(proj_macs(lc.spec, lc.d_model, lc.proj_dim)),
               "MACs");
    report.add("layer.attn_proj.us_per_token.linear",
               lin.project_kv_ms * 1e3 /
                   static_cast<double>(linear.num_decoder_layers() * kMaxSrc),
               "us");
  }
  try {
    models::Transformer paper(model_config(9));
    std::printf("layer table [quadratic k=9]: constructed\n");
  } catch (const std::exception& e) {
    std::printf("layer table [quadratic k=9, the paper's setting]: not built: %s\n",
                e.what());
  }
  std::printf("attention projection cost is K+V per source token per decoder layer\n");
}

}  // namespace servebench
