// Concurrent query sessions over versioned catalog snapshots: the
// thread-local governor contract (each session's QueryContext is
// private to its thread, morsel workers inherit the submitter's),
// snapshot pinning (a republish never invalidates an in-flight or
// prepared query — the regression for the old GetRelation
// pointer-lifetime bug), and the SessionManager's admission pool,
// reaper and shared plan cache. The concurrency tests are the TSan
// targets wired into tools/run_sanitizers.sh; the snapshot-pinning
// tests are the ASan UAF regressions.
#include "server/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/domain.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "core/query_context.h"
#include "query/engine.h"
#include "reference_algebra.h"
#include "storage/catalog.h"

namespace evident {
namespace {

using std::chrono::milliseconds;

/// Restores the thread-count toggle a test permutes.
class ThreadGuard {
 public:
  ~ThreadGuard() { SetParallelMaxThreads(0); }
};

/// All-or-nothing rendezvous: every participant blocks in Arrive() until
/// the last one arrives, then all proceed (reusable across rounds).
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t round = round_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++round_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return round_ != round; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  uint64_t round_ = 0;
};

/// Runs `round` `rounds` times on each of two threads released together
/// and counts the rounds that returned false.
int CountFailuresOnTwoThreads(int rounds, const std::function<bool()>& round) {
  std::atomic<int> failures{0};
  Rendezvous start(2);
  auto run = [&] {
    start.Arrive();
    for (int i = 0; i < rounds; ++i) failures += round() ? 0 : 1;
  };
  std::thread a(run), b(run);
  a.join();
  b.join();
  return failures.load();
}

/// L: 96 rows (key lk, definite ld, packed uncertain lu); `salt` varies
/// the definite payload so a replaced L is distinguishable from the
/// original. R: 48 rows (rk = 2*i) — the equi join matches half of L.
ExtendedRelation MakeL(int64_t salt) {
  DomainPtr dom =
      Domain::MakeSymbolic("sess_dom", {"a0", "a1", "a2", "a3", "a4", "a5"})
          .value();
  SchemaPtr schema =
      RelationSchema::Make({AttributeDef::Key("lk"),
                            AttributeDef::Definite("ld"),
                            AttributeDef::Uncertain("lu", dom)})
          .value();
  ExtendedRelation l("L", schema);
  for (int64_t i = 0; i < 96; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value((i + salt) % 8),
               EvidenceSet::MakeTrusted(
                   dom, MassFunction::Definite(dom->size(),
                                               static_cast<size_t>(i % 6)))};
    t.membership =
        i % 5 == 0 ? SupportPair{0.5, 0.8} : SupportPair::Certain();
    EXPECT_TRUE(l.Insert(std::move(t)).ok());
  }
  return l;
}

ExtendedRelation MakeR() {
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("rk"),
                                           AttributeDef::Definite("rd")})
                         .value();
  ExtendedRelation r("R", schema);
  for (int64_t i = 0; i < 48; ++i) {
    ExtendedTuple t;
    t.cells = {Value(2 * i), Value(i % 16)};
    t.membership = SupportPair::Certain();
    EXPECT_TRUE(r.Insert(std::move(t)).ok());
  }
  return r;
}

constexpr char kJoinQuery[] =
    "SELECT lk, ld, rd FROM L, R WHERE lk = rk AND ld < 6 WITH sn > 0";

/// One catalog "generation": 25 rows whose `gen` column carries the
/// generation number, so any query result identifies the exact catalog
/// version it ran against.
ExtendedRelation MakeGeneration(int64_t gen) {
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("gk"),
                                           AttributeDef::Definite("gen"),
                                           AttributeDef::Definite("gv")})
                         .value();
  ExtendedRelation g("G", schema);
  for (int64_t i = 0; i < 25; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(gen), Value((3 * i + gen) % 7)};
    t.membership = SupportPair::Certain();
    EXPECT_TRUE(g.Insert(std::move(t)).ok());
  }
  return g;
}

// No ORDER BY needed: operator output order is deterministic (the
// repo-wide contract), so bit-identical inputs give bit-identical rows.
constexpr char kGenerationQuery[] =
    "SELECT gk, gen, gv FROM G WHERE gv < 5 WITH sn > 0";

// --- Thread-local governor slot -------------------------------------------

// The regression for the process-global CurrentQueryContext(): installing
// a context on one thread must be invisible on another. Under the old
// global slot the main thread observes &b after the helper installs it.
TEST(QueryContextTlsTest, ContextSlotIsPerThread) {
  QueryContext a;
  QueryContext b;
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  ScopedQueryContext install_a(&a);
  ASSERT_EQ(CurrentQueryContext(), &a);

  std::thread other([&] {
    // A fresh thread starts with an empty slot, not this test's &a.
    EXPECT_EQ(CurrentQueryContext(), nullptr);
    ScopedQueryContext install_b(&b);
    EXPECT_EQ(CurrentQueryContext(), &b);
    {
      std::lock_guard<std::mutex> lock(mu);
      stage = 1;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return stage == 2; });
    }
    // Still &b even after the main thread re-checked its own slot.
    EXPECT_EQ(CurrentQueryContext(), &b);
  });

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage == 1; });
  }
  // The helper's install must not leak into this thread.
  EXPECT_EQ(CurrentQueryContext(), &a);
  {
    std::lock_guard<std::mutex> lock(mu);
    stage = 2;
  }
  cv.notify_all();
  other.join();
  EXPECT_EQ(CurrentQueryContext(), &a);
}

// With the slot thread-local, the morsel pool's workers only see the
// submitting thread's governor if the job carries it explicitly — every
// morsel, on whatever thread it runs, must resolve CurrentQueryContext()
// to the submitter's context.
TEST(QueryContextTlsTest, MorselWorkersInheritSubmitterContext) {
  ThreadGuard guard;
  SetParallelMaxThreads(7);
  QueryContext ctx;
  ctx.BeginQuery();
  ScopedQueryContext install(&ctx);

  constexpr size_t kN = 4096;
  constexpr size_t kGrain = 64;
  const size_t morsels = ParallelMorselCount(kN, kGrain);
  std::vector<QueryContext*> seen(morsels, nullptr);
  ParallelForMorsels(kN, kGrain, [&](size_t m, size_t, size_t) {
    seen[m] = CurrentQueryContext();
  });

  for (size_t m = 0; m < morsels; ++m) {
    ASSERT_EQ(seen[m], &ctx) << "morsel " << m << " ran under the wrong "
                             << "(or no) governor";
  }
  EXPECT_EQ(ctx.morsels_completed(), morsels);
}

// Two engines on two threads, each with its own governor: the capped
// session trips with its own deterministic message every round, the
// uncapped one never trips and returns bit-identical results every
// round. Under the process-global slot the overlapping installs stomp
// each other: the uncapped thread inherits the row cap (spurious trips)
// and vice versa.
TEST(SessionTest, TwoEnginesTwoThreadsKeepIndependentGovernors) {
  ThreadGuard guard;
  SetParallelMaxThreads(7);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(MakeL(0)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(MakeR()).ok());

  // The uncapped thread's expected result, computed serially.
  ExtendedRelation expected = [&] {
    QueryEngine engine(&catalog);
    return engine.Execute(kJoinQuery).value();
  }();

  constexpr int kRounds = 50;
  Rendezvous round_start(2);
  std::atomic<int> failures{0};

  std::thread uncapped([&] {
    QueryEngine engine(&catalog);
    QueryContext ctx;
    ctx.set_memory_budget(1ull << 30);
    ctx.set_row_cap(1000000);
    engine.set_query_context(&ctx);
    for (int round = 0; round < kRounds; ++round) {
      round_start.Arrive();
      auto result = engine.Execute(kJoinQuery);
      if (!result.ok() || !result->ApproxEquals(expected, 0.0)) {
        failures.fetch_add(1);
      }
    }
  });
  std::thread capped([&] {
    QueryEngine engine(&catalog);
    QueryContext ctx;
    ctx.set_row_cap(10);
    engine.set_query_context(&ctx);
    for (int round = 0; round < kRounds; ++round) {
      round_start.Arrive();
      auto result = engine.Execute(kJoinQuery);
      if (result.ok() ||
          result.status().message() !=
              "row cap exceeded: query materialized more than 10 rows") {
        failures.fetch_add(1);
      }
    }
  });
  uncapped.join();
  capped.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Snapshot pinning (the GetRelation pointer-lifetime regression) -------

// RegisterRelation(replace=true) used to destroy the relation object out
// from under any caller holding GetRelation's raw pointer. A pinned
// snapshot must keep the old bytes alive and readable (ASan verifies the
// "alive" part), while the catalog's current version serves the new ones.
TEST(CatalogSnapshotTest, ReplaceKeepsPinnedSnapshotReadable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(MakeL(0)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(MakeR()).ok());

  std::shared_ptr<const CatalogSnapshot> pinned = catalog.Snapshot();
  const ExtendedRelation* old_l = pinned->GetRelation("L").value();
  const uint64_t pinned_version = pinned->version();

  // Mid-"query": replace L with a shifted payload (ld column moves by 3).
  ASSERT_TRUE(catalog.RegisterRelation(MakeL(3), /*replace=*/true).ok());
  ASSERT_GT(catalog.version(), pinned_version);

  // The pinned pointer still reads the *old* bytes — row 0's ld is 0.
  ASSERT_EQ(old_l->size(), 96u);
  EXPECT_TRUE(old_l->ApproxEquals(MakeL(0), 0.0));

  // The current version serves the new bytes — row 0's ld is 3.
  const ExtendedRelation* new_l = catalog.GetRelation("L").value();
  EXPECT_TRUE(new_l->ApproxEquals(MakeL(3), 0.0));
  EXPECT_FALSE(new_l->ApproxEquals(*old_l, 0.0));

  // Dropping the pin releases the old version (ASan would flag any
  // further access, so don't touch old_l past this point).
  pinned.reset();
  EXPECT_TRUE(catalog.GetRelation("L").value()->ApproxEquals(MakeL(3), 0.0));
}

// A prepared plan pins the snapshot it was built on: executing it after
// a replace reads the planned-against version, not the current one.
TEST(CatalogSnapshotTest, PreparedPlanExecutesAgainstItsPinnedVersion) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(MakeGeneration(0)).ok());
  QueryEngine engine(&catalog);

  ExtendedRelation before = engine.Execute(kGenerationQuery).value();
  auto plan = engine.Prepare(kGenerationQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->snapshot->version(), catalog.version());

  ASSERT_TRUE(
      catalog.RegisterRelation(MakeGeneration(1), /*replace=*/true).ok());

  // The prepared plan replays the old version bit-identically...
  ExtendedRelation pinned_result = engine.ExecutePrepared(**plan).value();
  EXPECT_TRUE(pinned_result.ApproxEquals(before, 0.0));
  // ...while a fresh plan sees the republished data.
  ExtendedRelation current = engine.Execute(kGenerationQuery).value();
  EXPECT_FALSE(current.ApproxEquals(before, 0.0));
}

// --- The session layer ----------------------------------------------------

// The acceptance-criteria test: >= 4 concurrent governed sessions query
// a catalog whose G relation is republished mid-flight. Every result
// must be bit-identical to the serial run against one of the published
// generations — never a torn mix — and a capped session trips with the
// same message single-threaded execution produces. ASan covers the
// lifetime side, TSan the races (tools/run_sanitizers.sh runs both).
TEST(SessionTest, ConcurrentGovernedQueriesOverRepublishAreBitIdentical) {
  ThreadGuard guard;
  SetParallelMaxThreads(7);
  constexpr int kGenerations = 8;
  constexpr int kSessions = 4;

  // Serial ground truth: each generation's result on a private catalog.
  std::vector<ExtendedRelation> expected;
  for (int gen = 0; gen < kGenerations; ++gen) {
    Catalog serial;
    ASSERT_TRUE(serial.RegisterRelation(MakeGeneration(gen)).ok());
    QueryEngine engine(&serial);
    QueryContext ctx;
    ctx.set_row_cap(100000);
    ctx.set_memory_budget(1ull << 26);
    engine.set_query_context(&ctx);
    auto result = engine.Execute(kGenerationQuery);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).value());
  }
  // The capped session's expected message is count-free, hence constant
  // across generations — exactly what single-threaded execution yields.
  const std::string cap_message = [&] {
    Catalog serial;
    EXPECT_TRUE(serial.RegisterRelation(MakeGeneration(0)).ok());
    QueryEngine engine(&serial);
    QueryContext ctx;
    ctx.set_row_cap(3);
    engine.set_query_context(&ctx);
    return engine.Execute(kGenerationQuery).status().message();
  }();
  ASSERT_EQ(cap_message,
            "row cap exceeded: query materialized more than 3 rows");

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(MakeGeneration(0)).ok());
  server::SessionManagerOptions options;
  options.default_row_cap = 100000;
  options.default_query_budget = 1ull << 26;
  server::SessionManager manager(&catalog, options);

  std::atomic<bool> publishing{true};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries_ok{0};

  std::vector<std::thread> sessions;
  sessions.reserve(kSessions + 1);
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&] {
      std::unique_ptr<server::Session> session = manager.OpenSession();
      while (publishing.load(std::memory_order_acquire)) {
        auto result = session->Execute(kGenerationQuery);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Bit-identical to exactly one published generation: a torn
        // read (rows from two versions) matches none of them.
        bool matched = false;
        for (const ExtendedRelation& e : expected) {
          if (result->ApproxEquals(e, 0.0)) {
            matched = true;
            break;
          }
        }
        if (!matched) failures.fetch_add(1);
        queries_ok.fetch_add(1);
      }
    });
  }
  // A fifth concurrent session with a tiny row cap: every attempt trips
  // with the single-threaded message, never with a neighbor's limits.
  sessions.emplace_back([&] {
    std::unique_ptr<server::Session> session = manager.OpenSession();
    session->set_row_cap(3);
    while (publishing.load(std::memory_order_acquire)) {
      auto result = session->Execute(kGenerationQuery);
      if (result.ok() || result.status().message() != cap_message) {
        failures.fetch_add(1);
      }
    }
  });

  for (int gen = 1; gen < kGenerations; ++gen) {
    std::this_thread::sleep_for(milliseconds(5));
    ASSERT_TRUE(
        catalog.RegisterRelation(MakeGeneration(gen), /*replace=*/true).ok());
  }
  std::this_thread::sleep_for(milliseconds(5));
  publishing.store(false, std::memory_order_release);
  for (std::thread& t : sessions) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries_ok.load(), 0u);
  EXPECT_EQ(manager.active_queries(), 0u);
  // 1 initial registration + (kGenerations - 1) replaces.
  EXPECT_EQ(catalog.version(), static_cast<uint64_t>(kGenerations));
}

// The repro for lazy caches on shared const relations: two engines on
// two threads select from one catalog relation whose 96-value frame
// does not bind to inline masks, so the predicate is interpreted per
// decoded row. Nothing may be built on the shared relation unguarded.
TEST(SessionTest, ConcurrentWideFrameSelectsOverOneSharedRelation) {
  ThreadGuard guard;
  SetParallelMaxThreads(2);
  std::vector<std::string> symbols;
  for (int i = 0; i < 96; ++i) symbols.push_back("w" + std::to_string(i));
  DomainPtr dom = Domain::MakeSymbolic("wide_dom", symbols).value();
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("wk"),
                                           AttributeDef::Uncertain("wu", dom)})
                         .value();
  ExtendedRelation w("W", schema);
  for (int64_t i = 0; i < 576; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), EvidenceSet::MakeTrusted(
                             dom, MassFunction::Definite(96, i % 96))};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(w.Insert(std::move(t)).ok());
  }
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterRelation(ExtendedRelation::AdoptColumns(w.columns()))
          .ok());
  const std::string stmt = "SELECT * FROM W WHERE wu IS {w1, w2, w90}";
  QueryEngine planner(&catalog);
  planner.set_optimizer_enabled(false);
  auto plan = planner.Prepare(stmt);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto expected = reference::ExecutePlan(**plan);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(expected->size(), 3u * 576 / 96);

  EXPECT_EQ(CountFailuresOnTwoThreads(20, [&] {
              QueryEngine engine(&catalog);
              auto got = engine.Execute(stmt);
              return got.ok() && got->ApproxEquals(*expected, 0.0);
            }),
            0);
}

// Two threads union against one shared operator output whose key index
// and encoded keys are not built yet (nor are the insert-built left
// operand's encoded keys): the first probes build them concurrently.
TEST(SessionTest, ConcurrentUnionsBuildSharedKeyIndexOnce) {
  ThreadGuard guard;
  SetParallelMaxThreads(2);
  const ExtendedRelation left = MakeL(1);
  auto selected = Select(MakeL(0), IsSym("lu", {"a0", "a1", "a2"}));
  ASSERT_TRUE(selected.ok()) << selected.status();
  const ExtendedRelation& shared = *selected;
  UnionOptions options;  // the salted ld cells conflict: take the right's
  options.on_definite_conflict = DefiniteConflictPolicy::kPreferRight;
  auto expected = reference::Union(left, shared, options);
  ASSERT_TRUE(expected.ok()) << expected.status();

  EXPECT_EQ(CountFailuresOnTwoThreads(1, [&] {
              auto got = Union(left, shared, options);
              return got.ok() && got->ApproxEquals(*expected, 0.0);
            }),
            0);
}

// Plan-cache contract: same statement on the same catalog version hits
// (across sessions — plans are immutable and shared); a version bump
// invalidates (forces a re-plan keyed on the new version).
TEST(SessionTest, PlanCacheHitsAndInvalidatesOnVersionBump) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(MakeL(0)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(MakeR()).ok());
  server::SessionManager manager(&catalog);
  std::unique_ptr<server::Session> first = manager.OpenSession();
  std::unique_ptr<server::Session> second = manager.OpenSession();

  ExtendedRelation expected = first->Execute(kJoinQuery).value();
  EXPECT_EQ(manager.plan_cache_misses(), 1u);
  EXPECT_EQ(manager.plan_cache_hits(), 0u);
  EXPECT_EQ(manager.plan_cache_size(), 1u);

  // Same version, same text: hits — from either session.
  EXPECT_TRUE(first->Execute(kJoinQuery).value().ApproxEquals(expected, 0.0));
  EXPECT_TRUE(
      second->Execute(kJoinQuery).value().ApproxEquals(expected, 0.0));
  EXPECT_EQ(manager.plan_cache_hits(), 2u);
  EXPECT_EQ(manager.plan_cache_misses(), 1u);
  EXPECT_EQ(first->plan_cache_hits(), 1u);
  EXPECT_EQ(second->plan_cache_hits(), 1u);

  // Republish L (identical content): the version bump invalidates the
  // cached plan even though the bytes would have been equivalent.
  const uint64_t before = catalog.version();
  ASSERT_TRUE(catalog.RegisterRelation(MakeL(0), /*replace=*/true).ok());
  EXPECT_GT(catalog.version(), before);
  EXPECT_TRUE(first->Execute(kJoinQuery).value().ApproxEquals(expected, 0.0));
  EXPECT_EQ(manager.plan_cache_misses(), 2u);
  EXPECT_EQ(manager.plan_cache_size(), 2u);
  EXPECT_TRUE(
      second->Execute(kJoinQuery).value().ApproxEquals(expected, 0.0));
  EXPECT_EQ(manager.plan_cache_hits(), 3u);
}

// Admission pool: 4 sessions × budgeted queries against a pool that only
// holds one grant at a time — every query is admitted (eventually), every
// trip carries the exact single-threaded budget message, and the pool is
// whole again after the storm.
TEST(SessionTest, AdmissionPoolSerializesAndTripMessagesMatchSerial) {
  ThreadGuard guard;
  SetParallelMaxThreads(7);
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(MakeL(0)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(MakeR()).ok());

  // Single-threaded ground truth for a 512-byte budget trip.
  const std::string budget_message = [&] {
    QueryEngine engine(&catalog);
    QueryContext ctx;
    ctx.set_memory_budget(512);
    engine.set_query_context(&ctx);
    auto result = engine.Execute(kJoinQuery);
    EXPECT_FALSE(result.ok());
    return result.status().message();
  }();
  ASSERT_EQ(budget_message.find("memory budget exceeded: "), 0u)
      << budget_message;

  server::SessionManagerOptions options;
  options.memory_pool_bytes = 512;  // one 512-byte grant at a time
  options.default_query_budget = 512;
  server::SessionManager manager(&catalog, options);
  ASSERT_EQ(manager.pool_available(), 512u);

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      std::unique_ptr<server::Session> session = manager.OpenSession();
      for (int round = 0; round < kRounds; ++round) {
        auto result = session->Execute(kJoinQuery);
        if (result.ok() || result.status().message() != budget_message) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.pool_available(), 512u);
  EXPECT_EQ(manager.active_queries(), 0u);
}

// The reaper's hard wall: a query with no deadline of its own gets
// canceled once it overruns hard_query_wall — and the session stays
// fully usable afterwards.
TEST(SessionTest, ReaperCancelsOverrunningQuery) {
  ThreadGuard guard;
  SetParallelMaxThreads(2);
  Catalog catalog;
  // The hostile star from the governor suite: FROM-ordered so the naive
  // (optimizer-off) enumeration crosses both dimensions first — far more
  // work than the wall allows, only stoppable from inside the loops.
  const int64_t n = 16384;
  const int64_t dim = n / 4;
  DomainPtr domain =
      Domain::MakeSymbolic("sess_mw", {"v0", "v1", "v2", "v3"}).value();
  ExtendedRelation d1("D1", RelationSchema::Make({AttributeDef::Key("d1k"),
                                                  AttributeDef::Definite("w1")})
                                .value());
  ExtendedRelation d2("D2",
                      RelationSchema::Make({AttributeDef::Key("d2k"),
                                            AttributeDef::Definite("sel")})
                          .value());
  for (int64_t i = 0; i < dim; ++i) {
    ExtendedTuple t1;
    t1.cells = {Value(i), Value(i % 16)};
    t1.membership = SupportPair::Certain();
    ASSERT_TRUE(d1.InsertTrusted(std::move(t1)).ok());
    ExtendedTuple t2;
    t2.cells = {Value(i), Value(i % 8)};
    t2.membership = SupportPair::Certain();
    ASSERT_TRUE(d2.InsertTrusted(std::move(t2)).ok());
  }
  ExtendedRelation fact(
      "F", RelationSchema::Make({AttributeDef::Key("fk"),
                                 AttributeDef::Definite("d1key"),
                                 AttributeDef::Definite("d2key"),
                                 AttributeDef::Uncertain("fu", domain)})
               .value());
  for (int64_t i = 0; i < n; ++i) {
    ExtendedTuple t;
    t.cells = {Value(i), Value(i % dim), Value((i * 7 + 3) % dim),
               EvidenceSet::MakeTrusted(
                   domain, MassFunction::Definite(domain->size(),
                                                  static_cast<size_t>(i) % 4))};
    t.membership = SupportPair::Certain();
    ASSERT_TRUE(fact.InsertTrusted(std::move(t)).ok());
  }
  ASSERT_TRUE(catalog.RegisterRelation(std::move(d1)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(std::move(d2)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(std::move(fact)).ok());

  server::SessionManagerOptions options;
  options.hard_query_wall = milliseconds(10);
  options.reaper_period = milliseconds(1);
  server::SessionManager manager(&catalog, options);
  std::unique_ptr<server::Session> session = manager.OpenSession();
  session->engine().set_optimizer_enabled(false);

  auto tripped = session->Execute(
      "SELECT * FROM D1, D2, F WHERE d1key = d1k AND d2key = d2k AND "
      "sel = 7");
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().message(),
            "query canceled: cancellation requested");

  // The session (engine, pool, catalog) is intact for the next query.
  Catalog small;
  ASSERT_TRUE(small.RegisterRelation(MakeL(0)).ok());
  ASSERT_TRUE(small.RegisterRelation(MakeR()).ok());
  QueryEngine fresh(&small);
  ExtendedRelation expected = fresh.Execute(kJoinQuery).value();
  server::SessionManager small_manager(&small, options);
  std::unique_ptr<server::Session> next = small_manager.OpenSession();
  auto again = next->Execute(kJoinQuery);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->ApproxEquals(expected, 0.0));
}

// Catalog versioning basics: registrations bump, reads don't, and a
// snapshot taken between bumps is a stable identity.
TEST(CatalogSnapshotTest, VersionsAreMonotonicAndReadsDontBump) {
  Catalog catalog;
  EXPECT_EQ(catalog.version(), 0u);
  ASSERT_TRUE(catalog.RegisterRelation(MakeR()).ok());
  const uint64_t v1 = catalog.version();
  EXPECT_GT(v1, 0u);

  std::shared_ptr<const CatalogSnapshot> snap = catalog.Snapshot();
  EXPECT_EQ(snap->version(), v1);
  (void)catalog.GetRelation("R");
  (void)catalog.RelationNames();
  (void)catalog.HasRelation("nope");
  EXPECT_EQ(catalog.version(), v1);
  EXPECT_EQ(catalog.Snapshot(), snap);  // same immutable object

  // Re-registering an identical domain is a no-op: no version bump.
  DomainPtr dom = Domain::MakeSymbolic("vtest", {"x", "y"}).value();
  ASSERT_TRUE(catalog.RegisterDomain(dom).ok());
  const uint64_t v2 = catalog.version();
  EXPECT_GT(v2, v1);
  ASSERT_TRUE(catalog.RegisterDomain(dom).ok());
  EXPECT_EQ(catalog.version(), v2);

  // Unchanged relations are shared, not copied, across versions.
  EXPECT_EQ(snap->GetRelation("R").value(),
            catalog.Snapshot()->GetRelation("R").value());
}

}  // namespace
}  // namespace evident
