// The serving pass: sends a workload's trace through serve::Server and
// records what a client sees — send times, streamed token times and
// retirements — plus the correctness checks on the results.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace servebench {

using namespace qdnn;

models::TransformerConfig model_config(index_t rank) {
  models::TransformerConfig c;
  c.src_vocab = kVocab;
  c.tgt_vocab = kVocab;
  c.d_model = 512;
  c.n_heads = 8;
  c.n_layers = 6;
  c.d_ff = 2048;
  c.proj_dim = rank > 0 ? 400 : 512;
  c.max_len = std::max(kMaxSrc, kMaxSteps);
  c.dropout = 0.0f;
  c.spec = rank > 0 ? quadratic::NeuronSpec::proposed(rank)
                    : quadratic::NeuronSpec::linear();
  c.seed = kModelSeed;
  return c;
}

serve::ServerConfig server_config(const WorkloadSpec& w) {
  serve::ServerConfig c;
  c.shards = kShards;
  c.shard.session.max_batch = kMaxBatch;
  c.shard.session.max_steps = kMaxSteps;
  c.shard.session.max_src = kMaxSrc;
  c.shard.session.pool_pages = static_cast<index_t>(w.pool_pages);
  c.shard.bos = kBos;
  c.shard.eos = kEos;
  c.shard.prefill_workers = kPrefillWorkers;
  c.shard.prefill_slots = kPrefillSlots;
  return c;
}

Tensor source_tensor(const std::vector<long long>& src) {
  Tensor t{Shape{1, static_cast<index_t>(src.size())}};
  for (std::size_t i = 0; i < src.size(); ++i)
    t[static_cast<index_t>(i)] = static_cast<float>(src[i]);
  return t;
}

bool is_failure(serve::FinishReason r) {
  return r != serve::FinishReason::kEos && r != serve::FinishReason::kLength;
}

namespace {

// Shared between the generator (which learns ids from submit) and the
// collector (which learns them from take_results).
class Inflight {
 public:
  void put(index_t id, RequestRecord* rec) {
    std::lock_guard<std::mutex> lk(mu_);
    by_id_[id] = rec;
  }
  RequestRecord* find(index_t id) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<index_t, RequestRecord*> by_id_;
};

class Client {
 public:
  Client(serve::Server& server, SpanLog* spans, ServeOutcome& out)
      : server_(server), spans_(spans), out_(out) {}

  // Builds and submits one request.  `due_ns` is the scheduled send time
  // (equal to the actual send time in a closed loop).
  void send(const TraceRequest& tr, std::size_t index, long long due_ns) {
    auto rec = std::make_unique<RequestRecord>();
    RequestRecord* r = rec.get();
    r->trace_index = index;
    r->token_ns.reserve(static_cast<std::size_t>(tr.budget));
    r->streamed.reserve(static_cast<std::size_t>(tr.budget));
    if (spans_ != nullptr) r->span_id = spans_->next_id();

    serve::Request req;
    req.src_ids = source_tensor(tr.src);
    req.max_new_tokens = tr.budget;
    SpanLog* spans = spans_;
    req.on_token = [r, spans](const serve::StreamEvent& ev) {
      const long long t = now_ns();
      if (ev.index != static_cast<index_t>(r->streamed.size()))
        r->stream_in_order = false;
      r->token_ns.push_back(t);
      r->streamed.push_back(ev.token);
      if (spans != nullptr)
        spans->add("on_token", t, now_ns(), r->span_id, ev.id, kTrackStream);
    };

    r->due_ns = due_ns;
    r->send_ns = now_ns();
    out_.worst_lateness_ms =
        std::max(out_.worst_lateness_ms,
                 static_cast<double>(r->send_ns - due_ns) / 1e6);
    if (out_.first_send_ns == 0) out_.first_send_ns = r->send_ns;
    out_.records.push_back(std::move(rec));
    r->id = server_.submit(std::move(req));
    r->submit_end_ns = now_ns();
    out_.submit_us.push_back(static_cast<double>(r->submit_end_ns - r->send_ns) /
                             1e3);
    if (spans_ != nullptr)
      spans_->add("Server::submit", r->send_ns, r->submit_end_ns, r->span_id,
                  r->id, kTrackGenerator);
    inflight_.put(r->id, r);
    sent_.fetch_add(1);
  }

  // Drains take_results once.  Returns the records resolved by this call.
  std::vector<RequestRecord*> collect() {
    std::vector<RequestRecord*> done;
    std::vector<serve::RequestResult> results = server_.take_results();
    const long long t = now_ns();
    for (serve::RequestResult& res : results) orphans_.push_back(std::move(res));
    std::vector<serve::RequestResult> still;
    for (serve::RequestResult& res : orphans_) {
      RequestRecord* r = inflight_.find(res.id);
      if (r == nullptr) {  // submit has not returned its id yet
        still.push_back(std::move(res));
        continue;
      }
      ++r->resolutions;
      r->result = std::move(res);
      out_.last_retire_ns = std::max(out_.last_retire_ns, t);
      if (spans_ != nullptr) {
        spans_->add("take_results", t, t, r->span_id, r->id, kTrackCollector);
        Span whole;
        whole.name = "request";
        whole.start_ns = r->due_ns;
        whole.end_ns = t;
        whole.id = r->span_id;
        whole.request = r->id;
        whole.track = kTrackGenerator;
        spans_->add_with_id(whole);
      }
      done.push_back(r);
      resolved_.fetch_add(1);
    }
    orphans_ = std::move(still);
    return done;
  }

  void sample_pages() {
    for (index_t s = 0; s < server_.shards(); ++s) {
      const serve::SchedulerStats st = server_.shard_stats(s);
      if (st.total_pages > 0)
        out_.pages_used_frac.push_back(
            static_cast<double>(st.total_pages - st.free_pages) /
            static_cast<double>(st.total_pages));
    }
  }

  std::size_t sent() const { return sent_.load(); }
  std::size_t resolved() const { return resolved_.load(); }
  std::size_t orphans() const { return orphans_.size(); }

 private:
  serve::Server& server_;
  SpanLog* spans_;
  ServeOutcome& out_;
  Inflight inflight_;
  std::vector<serve::RequestResult> orphans_;  // collector-side only
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> resolved_{0};
};

// How often results are drained.  Each take_results call makes a busy
// shard hand its lock over at the next tick boundary, so the open-loop
// collector, whose only deadline is the last retirement, polls rarely;
// closed-loop clients react to replies within a few ms.
constexpr auto kOpenLoopPoll = std::chrono::milliseconds(50);
constexpr auto kClosedLoopPoll = std::chrono::milliseconds(5);
constexpr long long kPageSampleNs = 100'000'000;

void run_open_loop(Client& client, const std::vector<TraceRequest>& trace,
                   bool sample_pages) {
  std::atomic<bool> generator_done{false};
  std::thread collector([&] {
    long long next_sample = 0;
    for (;;) {
      client.collect();
      if (generator_done.load() && client.resolved() == client.sent()) break;
      if (sample_pages && now_ns() >= next_sample) {
        client.sample_pages();
        next_sample = now_ns() + kPageSampleNs;
      }
      std::this_thread::sleep_for(kOpenLoopPoll);
    }
  });
  const long long t0 = now_ns() + 20'000'000;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const long long due = t0 + static_cast<long long>(trace[i].due_s * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    client.send(trace[i], i, due);
  }
  generator_done.store(true);
  collector.join();
}

void run_closed_loop(Client& client, const WorkloadSpec& w,
                     const std::vector<TraceRequest>& trace, double seconds,
                     bool sample_pages) {
  const long long end = now_ns() + static_cast<long long>(seconds * 1e9);
  std::size_t next = 0;
  auto send_next = [&] {
    const long long t = now_ns();
    client.send(trace[next], next, t);
    ++next;
  };
  for (int c = 0; c < w.clients && next < trace.size(); ++c) send_next();
  long long next_sample = 0;
  for (;;) {
    const std::vector<RequestRecord*> done = client.collect();
    for (std::size_t i = 0; i < done.size(); ++i)
      if (now_ns() < end && next < trace.size()) send_next();
    if (client.resolved() == client.sent() && (now_ns() >= end || next >= trace.size()))
      break;
    if (sample_pages && now_ns() >= next_sample) {
      client.sample_pages();
      next_sample = now_ns() + kPageSampleNs;
    }
    if (done.empty()) std::this_thread::sleep_for(kClosedLoopPoll);
  }
}

}  // namespace

ServeOutcome serve_trace(serve::Server& server, const WorkloadSpec& w,
                         const std::vector<TraceRequest>& trace,
                         double seconds, SpanLog* spans) {
  ServeOutcome out;
  out.records.reserve(trace.size());
  Client client(server, spans, out);
  if (w.loop == Loop::kOpen)
    run_open_loop(client, trace, spans != nullptr);
  else
    run_closed_loop(client, w, trace, seconds, spans != nullptr);
  server.wait_idle();
  client.collect();
  out.unknown_results = client.orphans();
  out.stats = server.stats();
  return out;
}

std::string check_resolutions(const ServeOutcome& out) {
  if (out.unknown_results != 0)
    return std::to_string(out.unknown_results) +
           " result(s) carry ids that were never submitted";
  for (const auto& r : out.records) {
    if (r->resolutions != 1)
      return "request id " + std::to_string(r->id) + " resolved " +
             std::to_string(r->resolutions) + " times";
    if (r->result.id != r->id)
      return "request id " + std::to_string(r->id) + " got result id " +
             std::to_string(r->result.id);
    if (!r->stream_in_order)
      return "request id " + std::to_string(r->id) +
             " streamed tokens out of order";
    if (!is_failure(r->result.reason) && r->result.tokens != r->streamed)
      return "request id " + std::to_string(r->id) +
             " streamed tokens differ from its result";
  }
  return "";
}

std::vector<index_t> oracle_check(models::Transformer* const* models,
                                  std::size_t n_models,
                                  const ServeOutcome& out,
                                  const std::vector<TraceRequest>& trace,
                                  std::size_t samples, index_t prefix) {
  std::vector<const RequestRecord*> completed;
  for (const auto& r : out.records)
    if (!is_failure(r->result.reason)) completed.push_back(r.get());
  std::vector<const RequestRecord*> picked;
  // A fixed sample: evenly spaced positions in send order.
  for (std::size_t s = 0; s < samples && s < completed.size(); ++s)
    picked.push_back(completed[s * completed.size() / samples]);
  // The replicas are identical and independent, so each checks its share
  // of the sample on its own thread.
  std::vector<char> ok(picked.size(), 1);
  std::vector<std::thread> threads;
  for (std::size_t m = 0; m < n_models; ++m)
    threads.emplace_back([&, m] {
      for (std::size_t i = m; i < picked.size(); i += n_models) {
        const RequestRecord* r = picked[i];
        const TraceRequest& tr = trace[r->trace_index];
        const index_t steps = std::min<index_t>(tr.budget, prefix);
        const auto ref = models[m]->greedy_decode_reference(
            source_tensor(tr.src), {static_cast<index_t>(tr.src.size())}, kBos,
            kEos, steps);
        const std::vector<index_t>& got = r->result.tokens;
        const std::size_t head = std::min(got.size(), static_cast<std::size_t>(steps));
        ok[i] = ref.size() == 1 &&
                ref[0] == std::vector<index_t>(got.begin(), got.begin() + head);
      }
    });
  for (std::thread& t : threads) t.join();
  std::vector<index_t> bad;
  for (std::size_t i = 0; i < picked.size(); ++i)
    if (!ok[i]) bad.push_back(picked[i]->id);
  return bad;
}

}  // namespace servebench
