// Cancellation and deadline lifecycle edges for serve::BatchScheduler.
//
// The contract under test: cancel(id) and deadline_tick resolve a
// request with EXACTLY one RequestResult wherever it is — waiting in the
// admission queue, mid-prefill on the PrefillPool, or live in a batch
// row — and a second cancel of the same id is always a no-op returning
// false.  The edge cases are the interesting ones: cancel on the very
// tick a row would have retired on eos, cancel racing a prefill worker,
// a deadline already due when the pool hands the job back.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "decode_test_util.h"
#include "serve/scheduler.h"

namespace qdnn::serve {
namespace {

using models::Transformer;
using qdnn::testing::random_src_ids;
using qdnn::testing::tiny_transformer_config;

constexpr index_t kBos = 1, kEos = 2;

BatchSchedulerConfig scheduler_config(index_t max_batch,
                                      index_t max_steps) {
  BatchSchedulerConfig config;
  config.session.max_batch = max_batch;
  config.session.max_steps = max_steps;
  config.bos = kBos;
  config.eos = kEos;
  return config;
}

Request make_request(std::uint64_t seed, index_t budget) {
  Request req;
  req.src_ids = random_src_ids(1, 4, 20, seed);
  req.max_new_tokens = budget;
  return req;
}

TEST(Cancel, WhileQueuedResolvesImmediatelyWithEmptyTokens) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(1, 8));

  const index_t filler_id =
      scheduler.submit(make_request(401, 6));
  scheduler.step();  // filler occupies the only row
  const index_t victim_id = scheduler.submit(make_request(402, 4));

  EXPECT_TRUE(scheduler.cancel(victim_id));
  ASSERT_EQ(scheduler.results_ready(), 1);
  auto cancelled = scheduler.take_results();
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0].id, victim_id);
  EXPECT_EQ(cancelled[0].reason, FinishReason::kCancelled);
  EXPECT_TRUE(cancelled[0].tokens.empty());
  EXPECT_EQ(cancelled[0].admit_tick, -1)
      << "never-admitted results keep the admit_tick sentinel";

  EXPECT_FALSE(scheduler.cancel(victim_id)) << "double-cancel is a no-op";
  scheduler.run();
  auto rest = scheduler.take_results();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, filler_id);
  EXPECT_EQ(rest[0].reason, FinishReason::kLength);
  EXPECT_FALSE(scheduler.cancel(filler_id)) << "already resolved";
  EXPECT_FALSE(scheduler.cancel(999)) << "never submitted";
}

TEST(Cancel, MidFlightReturnsDecodedPrefixAndFreesTheRow) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const Tensor src = random_src_ids(1, 5, 20, 411);
  const auto reference =
      model.greedy_decode_reference(src, {}, kBos, kEos, 8)[0];
  ASSERT_GE(reference.size(), 4u) << "pick a longer-running seed";

  BatchScheduler scheduler(model, scheduler_config(1, 8));
  Request req;
  req.src_ids = src;
  req.max_new_tokens = 8;
  const index_t id = scheduler.submit(std::move(req));
  for (int i = 0; i < 3; ++i) scheduler.step();

  EXPECT_TRUE(scheduler.cancel(id));
  EXPECT_EQ(scheduler.live_rows(), 0) << "the KV row is freed on cancel";
  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reason, FinishReason::kCancelled);
  ASSERT_EQ(results[0].tokens.size(), 3u);
  EXPECT_TRUE(std::equal(results[0].tokens.begin(),
                         results[0].tokens.end(), reference.begin()))
      << "a cancelled stream is a bit-exact prefix of the solo decode";
  EXPECT_EQ(results[0].decode_steps, 3);
  EXPECT_GE(results[0].admit_tick, 0) << "it held a row, so it admitted";
  EXPECT_FALSE(scheduler.cancel(id));

  // The freed row serves the next request normally.
  const index_t next_id = scheduler.submit(make_request(412, 2));
  scheduler.run();
  auto next = scheduler.take_results();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id, next_id);
  EXPECT_EQ(next[0].tokens.size(), 2u);
}

TEST(Cancel, OnTheTickARowWouldRetireOnEos) {
  // eos is redefined to the SECOND greedy token of the probe source, so
  // after one step the next step would retire the row on eos.  A cancel
  // issued between those ticks wins: kCancelled with the one decoded
  // token, and the eos retirement never happens.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  Tensor src;
  std::vector<index_t> ref;
  for (std::uint64_t seed = 421;; ++seed) {
    src = random_src_ids(1, 5, 20, seed);
    ref = model.greedy_decode_reference(src, {}, kBos, kEos, 12)[0];
    if (ref.size() >= 2 && ref[1] != ref[0]) break;
  }
  BatchSchedulerConfig config = scheduler_config(1, 12);
  config.eos = ref[1];

  {
    BatchScheduler scheduler(model, config);
    Request req;
    req.src_ids = src;
    const index_t id = scheduler.submit(std::move(req));
    scheduler.step();  // decodes ref[0]; next step would sample eos
    EXPECT_TRUE(scheduler.cancel(id));
    scheduler.run();
    auto results = scheduler.take_results();
    ASSERT_EQ(results.size(), 1u) << "exactly one result, not two";
    EXPECT_EQ(results[0].reason, FinishReason::kCancelled);
    ASSERT_EQ(results[0].tokens.size(), 1u);
    EXPECT_EQ(results[0].tokens[0], ref[0]);
  }

  // Without the cancel the row retires on eos at the second step — and a
  // cancel AFTER retirement finds nothing.
  BatchScheduler scheduler(model, config);
  Request req;
  req.src_ids = src;
  const index_t id = scheduler.submit(std::move(req));
  scheduler.step();
  scheduler.step();
  EXPECT_FALSE(scheduler.cancel(id)) << "already retired on eos";
  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reason, FinishReason::kEos);
}

TEST(Cancel, WhilePrefillInFlightOnThePool) {
  // Async mode feeds the pool at submit, so by the time cancel() runs
  // the job is inside the PrefillPool (computing or finished) — the
  // cancel flags it and the next drain resolves it without ever
  // committing a batch row.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(2, 8);
  config.prefill_workers = 1;
  BatchScheduler scheduler(model, config);

  const index_t id = scheduler.submit(make_request(431, 4));
  EXPECT_EQ(scheduler.queued(), 1) << "the job is in the prefill pipeline";
  EXPECT_TRUE(scheduler.cancel(id));
  EXPECT_FALSE(scheduler.cancel(id)) << "double-cancel while pooled";
  scheduler.run();

  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
  EXPECT_EQ(results[0].reason, FinishReason::kCancelled);
  EXPECT_TRUE(results[0].tokens.empty());
  EXPECT_EQ(scheduler.live_rows(), 0) << "no row was ever committed";
  EXPECT_TRUE(scheduler.idle());
  EXPECT_FALSE(scheduler.cancel(id)) << "resolved";

  // The pool (and its staging slot) is healthy afterwards.
  const index_t next_id = scheduler.submit(make_request(432, 3));
  scheduler.run();
  auto next = scheduler.take_results();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id, next_id);
  EXPECT_EQ(next[0].tokens.size(), 3u);
}

TEST(Deadline, ShedsAQueuedRequestAtItsTick) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchScheduler scheduler(model, scheduler_config(1, 8));

  scheduler.submit(make_request(441, 6));  // holds the row past tick 3
  scheduler.step();
  Request victim = make_request(442, 4);
  victim.deadline_tick = 3;
  const index_t victim_id = scheduler.submit(std::move(victim));
  scheduler.run();

  std::map<index_t, RequestResult> by_id;
  for (RequestResult& r : scheduler.take_results())
    by_id[r.id] = std::move(r);
  ASSERT_EQ(by_id.size(), 2u);
  const RequestResult& expired = by_id.at(victim_id);
  EXPECT_EQ(expired.reason, FinishReason::kDeadline);
  EXPECT_TRUE(expired.tokens.empty());
  EXPECT_EQ(expired.finish_tick, 3) << "expired at the deadline tick";
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.per_class[static_cast<std::size_t>(Priority::kNormal)]
                .expired,
            1);
}

TEST(Deadline, RetiresALiveRowMidFlightWithThePrefix) {
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  Tensor src;
  std::vector<index_t> reference;
  for (std::uint64_t seed = 451;; ++seed) {
    src = random_src_ids(1, 5, 20, seed);
    reference = model.greedy_decode_reference(src, {}, kBos, kEos, 10)[0];
    if (reference.size() >= 5) break;
  }

  BatchScheduler scheduler(model, scheduler_config(1, 10));
  Request req;
  req.src_ids = src;
  req.max_new_tokens = 10;
  req.deadline_tick = 4;
  scheduler.submit(std::move(req));
  scheduler.run();

  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reason, FinishReason::kDeadline);
  ASSERT_EQ(results[0].tokens.size(), 4u)
      << "admitted at tick 0, expired at the start of tick 4";
  EXPECT_TRUE(std::equal(results[0].tokens.begin(),
                         results[0].tokens.end(), reference.begin()));
  EXPECT_TRUE(scheduler.idle());
}

TEST(Deadline, DueInsideThePoolResolvesAtDrainWithoutARow) {
  // Idle ticks advance the clock past the deadline BEFORE the submit, so
  // the job enters the prefill pool already doomed: the drain must
  // resolve it kDeadline without committing a row (and without the
  // free-row gate holding its staging slot hostage).
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  BatchSchedulerConfig config = scheduler_config(1, 8);
  config.prefill_workers = 1;
  BatchScheduler scheduler(model, config);
  for (int i = 0; i < 3; ++i) scheduler.step();  // ticks -> 3

  Request late = make_request(461, 4);
  late.deadline_tick = 2;  // already past
  const index_t id = scheduler.submit(std::move(late));
  scheduler.run();

  auto results = scheduler.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, id);
  EXPECT_EQ(results[0].reason, FinishReason::kDeadline);
  EXPECT_TRUE(results[0].tokens.empty());
  EXPECT_EQ(scheduler.live_rows(), 0);

  // Slot sanity: the pool still admits the next request.
  const index_t next_id = scheduler.submit(make_request(462, 2));
  scheduler.run();
  auto next = scheduler.take_results();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id, next_id);
  EXPECT_EQ(next[0].reason, FinishReason::kLength);
}

TEST(Cancel, StormFuzzEveryIdResolvesExactlyOnce) {
  // Mixed priorities, a few deadlines, async admission, and a cancel
  // storm at random ticks: every id resolves exactly once, completed
  // greedy streams are bit-exact, cancelled/expired streams are
  // bit-exact PREFIXES of their solo decode.
  Transformer model(tiny_transformer_config());
  model.set_training(false);
  const index_t max_steps = 10;
  constexpr index_t kCount = 12;

  struct Case {
    Tensor src;
    std::vector<index_t> reference;
  };
  std::vector<Case> cases;
  for (index_t i = 0; i < kCount; ++i) {
    Case c;
    c.src = random_src_ids(1, 4, 20, 470 + static_cast<std::uint64_t>(i));
    c.reference =
        model.greedy_decode_reference(c.src, {}, kBos, kEos, max_steps)[0];
    cases.push_back(std::move(c));
  }

  for (const std::uint64_t fuzz_seed : {11u, 22u, 33u}) {
    Rng rng(fuzz_seed);
    BatchSchedulerConfig config = scheduler_config(2, max_steps);
    config.prefill_workers = 1;
    config.age_ticks = 2;
    BatchScheduler scheduler(model, config);

    std::map<index_t, index_t> id_to_case;
    std::vector<index_t> ids;
    std::map<index_t, RequestResult> results;
    std::set<index_t> cancelled_true;
    index_t next = 0;
    while (next < kCount || !scheduler.idle()) {
      while (next < kCount && rng.uniform_int(3) != 0) {
        Request req;
        // Copy-construct, then move (see scheduler_test.cpp drive()).
        req.src_ids = Tensor(cases[static_cast<std::size_t>(next)].src);
        req.max_new_tokens = max_steps;
        req.priority = static_cast<Priority>(rng.uniform_int(3));
        if (rng.uniform_int(4) == 0)
          req.deadline_tick = scheduler.ticks() + 2 + rng.uniform_int(6);
        const index_t id = scheduler.submit(std::move(req));
        id_to_case[id] = next;
        ids.push_back(id);
        ++next;
      }
      // Cancel a random earlier id — possibly already resolved, possibly
      // already cancelled; both must be safe no-ops returning false.
      if (!ids.empty() && rng.uniform_int(2) == 0) {
        const index_t id = ids[static_cast<std::size_t>(
            rng.uniform_int(static_cast<index_t>(ids.size())))];
        const bool first_hit = cancelled_true.count(id) == 0 &&
                               results.count(id) == 0;
        const bool hit = scheduler.cancel(id);
        if (hit) {
          EXPECT_TRUE(first_hit) << "cancel must hit at most once";
          cancelled_true.insert(id);
        }
      }
      if (scheduler.wait_for_prefill()) continue;
      scheduler.step();
      for (RequestResult& r : scheduler.take_results()) {
        EXPECT_EQ(results.count(r.id), 0u)
            << "id " << r.id << " resolved twice (fuzz " << fuzz_seed
            << ")";
        results[r.id] = std::move(r);
      }
    }

    ASSERT_EQ(results.size(), static_cast<std::size_t>(kCount))
        << "fuzz " << fuzz_seed;
    for (const auto& [id, r] : results) {
      const auto& reference =
          cases[static_cast<std::size_t>(id_to_case.at(id))].reference;
      if (r.reason == FinishReason::kEos ||
          r.reason == FinishReason::kLength) {
        EXPECT_EQ(r.tokens, reference) << "id " << id;
      } else {
        ASSERT_TRUE(r.reason == FinishReason::kCancelled ||
                    r.reason == FinishReason::kDeadline)
            << "id " << id;
        ASSERT_LE(r.tokens.size(), reference.size()) << "id " << id;
        EXPECT_TRUE(std::equal(r.tokens.begin(), r.tokens.end(),
                               reference.begin()))
            << "id " << id << ": not a prefix of the solo decode";
      }
    }
  }
}

}  // namespace
}  // namespace qdnn::serve
