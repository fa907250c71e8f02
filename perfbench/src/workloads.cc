#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/operations.h"
#include "core/parallel.h"
#include "core/predicate.h"
#include "core/query_context.h"
#include "core/scan_stats.h"
#include "core/threshold.h"
#include "datagen.h"
#include "digest.h"
#include "ds/combination.h"
#include "query/engine.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"
#include "server/session.h"
#include "storage/erel_format.h"
#include "storage/mmap_file.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace ev = evident;
using ev::server::Session;
using ev::server::SessionManager;

constexpr char kFlushPolicy[] =
    "every save is SaveErelFile's crash-safe commit: write <image>.tmp, "
    "fsync, rename over <image>";

/// The governor is on for every session, with limits no statement of
/// these workloads reaches: a trip would be a failure, not a measurement.
ev::server::SessionManagerOptions GovernedOptions() {
  ev::server::SessionManagerOptions o;
  o.memory_pool_bytes = uint64_t{1} << 44;
  o.default_query_budget = uint64_t{1} << 36;
  o.default_deadline = std::chrono::seconds(120);
  return o;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --------------------------------------------------------------- model

struct Stmt {
  std::string text;
  int cls = 0;
  int64_t a = 0, b = 0;  // class parameters: key window or literal
  uint64_t digest = 0;   // the reference engine's result digest
};

struct ClassDef {
  std::string name;
  double weight = 1.0;
  /// Relations the statement scans. Partition pruning only ever applies
  /// to the first (the only one with a selective zone-mapped predicate).
  std::vector<std::string> scanned;
};

using CoreReplay = std::function<void(const Stmt&, const ev::CatalogSnapshot&,
                                      SpanLog*, int64_t parent, uint64_t id)>;

/// One session workload: its catalog, statements and how to replay each
/// statement's operator and kernel calls.
struct Workload {
  std::string name;
  size_t clients = 1;
  size_t threads = 1;  // morsel pool cap
  int setup_reps = 3;
  int probes = 20;
  ev::PartitionSpec partitioning;
  ev::UnionOptions union_options;
  std::vector<ClassDef> classes;
  std::vector<Stmt> pool;  // every distinct statement
  size_t probe_stmt = 0;   // the statement the re-open probes run first
  std::function<ev::Catalog()> build;
  /// Runs once on the reference (copied) catalog, after the digests.
  std::function<void(const ev::Catalog&)> prepare;
  CoreReplay replay_core;
  /// Extra per-layer metrics the workload computes (ds counts).
  std::function<void(std::vector<Metric>*)> ds_counts;
};

const ev::ExtendedRelation& Rel(const ev::CatalogSnapshot& snap,
                                const char* name) {
  auto rel = snap.GetRelation(name);
  Check(rel.status(), std::string("relation ") + name);
  return **rel;
}

ev::PredicatePtr Cmp(const std::string& attr, ev::ThetaOp op, int64_t v) {
  return ev::Theta(ev::ThetaOperand::Attr(attr), op,
                   ev::ThetaOperand::LitValue(ev::Value(v)));
}

ev::PredicatePtr AttrEq(const std::string& a, const std::string& b) {
  return ev::Theta(ev::ThetaOperand::Attr(a), ev::ThetaOp::kEq,
                   ev::ThetaOperand::Attr(b));
}

/// Times one operator call as a span; a failing replay is a benchmark
/// bug (the same statement just succeeded through the session).
template <typename Fn>
ev::ExtendedRelation Op(SpanLog* log, const char* name, int64_t parent,
                        const Stmt& s, uint64_t id, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  log->Add(name, start, Clock::now(), parent, id, s.cls);
  Check(result.status(), std::string(name) + " replay of '" + s.text + "'");
  return std::move(result).value();
}

using EvidencePairs = std::vector<std::pair<ev::EvidenceSet, ev::EvidenceSet>>;

/// The uncertain-attribute evidence pairs extended union combines: one
/// per uncertain attribute of every key present in both relations.
EvidencePairs MatchedPairs(const ev::ExtendedRelation& left,
                           const ev::ExtendedRelation& right) {
  EvidencePairs pairs;
  const ev::RelationSchema& schema = *left.schema();
  for (size_t i = 0; i < left.size(); ++i) {
    const ev::ExtendedTuple& t = left.row(i);
    auto j = right.FindByKey(left.KeyOf(t));
    if (!j.ok()) continue;
    const ev::ExtendedTuple& u = right.row(*j);
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema.attribute(c).kind != ev::AttributeKind::kUncertain) continue;
      pairs.emplace_back(std::get<ev::EvidenceSet>(t.cells[c]),
                         std::get<ev::EvidenceSet>(u.cells[c]));
    }
  }
  return pairs;
}

/// Dempster-combines every pair; returns how many hit total conflict.
size_t CombinePairs(const EvidencePairs& pairs) {
  size_t conflicts = 0;
  for (const auto& [a, b] : pairs) {
    auto r = ev::CombineEvidence(a, b);
    if (r.ok()) continue;
    if (r.status().code() != ev::StatusCode::kTotalConflict) {
      Check(r.status(), "kernel replay");
    }
    ++conflicts;
  }
  return conflicts;
}

// ---------------------------------------------------------- workloads

Workload MakeServe(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "serve";
  w.clients = 3;
  w.threads = 1;
  w.setup_reps = tiny ? 2 : 3;
  w.probes = tiny ? 4 : 20;
  const ServeShape shape{tiny ? size_t{4096} : size_t{250000},
                         tiny ? size_t{256} : size_t{4096}};
  w.partitioning = {ev::PartitionSpec::Scheme::kKeyRange, tiny ? 8u : 32u};
  w.build = [seed, shape] { return BuildServeCatalog(seed, shape); };
  w.classes = {{"range_select", 0.2, {"F"}},
               {"range_join", 0.2, {"F", "D"}},
               {"star", 0.2, {"F", "D", "D2"}},
               {"point", 0.4, {"F"}}};

  ev::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101);
  const int64_t n = static_cast<int64_t>(shape.fact_rows);
  const auto window = [&](int64_t width) {
    const int64_t lo =
        static_cast<int64_t>(rng.Below(static_cast<uint64_t>(n - width)));
    return std::make_pair(lo, lo + width);
  };
  const auto range = [](int64_t lo, int64_t hi) {
    return "fkey >= " + std::to_string(lo) + " AND fkey < " +
           std::to_string(hi);
  };
  // 16 key windows per range class: repeated texts, so the plan cache can
  // hit them until the point lookups push them out.
  for (int i = 0; i < 16; ++i) {
    auto [lo, hi] = window(n / 250);
    w.pool.push_back({"SELECT * FROM F WHERE " + range(lo, hi) +
                          " AND fu0 IS {s1, s3, s5} WITH sn > 0.2",
                      0, lo, hi});
  }
  for (int i = 0; i < 16; ++i) {
    auto [lo, hi] = window(n / 500);
    w.pool.push_back(
        {"SELECT * FROM F JOIN D WHERE fk = dk AND " + range(lo, hi), 1, lo,
         hi});
  }
  for (int i = 0; i < 16; ++i) {
    auto [lo, hi] = window(n / 2000);
    w.pool.push_back(
        {"SELECT * FROM F, D, D2 WHERE fk = dk AND fk2 = d2k AND " +
             range(lo, hi),
         2, lo, hi});
  }
  // Point lookups: three times as many distinct texts as the plan cache
  // holds, so most miss it and the cache keeps overflowing.
  std::vector<int64_t> literals(shape.dim_rows);
  for (size_t i = 0; i < literals.size(); ++i) {
    literals[i] = static_cast<int64_t>(i);
  }
  for (size_t i = literals.size(); i > 1; --i) {
    std::swap(literals[i - 1], literals[rng.Below(i)]);
  }
  literals.resize(std::min<size_t>(literals.size(), 768));
  for (int64_t lit : literals) {
    w.pool.push_back(
        {"SELECT * FROM F WHERE fk = " + std::to_string(lit), 3, lit, 0});
  }
  w.probe_stmt = 0;

  w.replay_core = [](const Stmt& s, const ev::CatalogSnapshot& snap,
                     SpanLog* log, int64_t parent, uint64_t id) {
    const ev::ExtendedRelation& f = Rel(snap, "F");
    const ev::PredicatePtr ge = Cmp("fkey", ev::ThetaOp::kGe, s.a);
    const ev::PredicatePtr lt = Cmp("fkey", ev::ThetaOp::kLt, s.b);
    switch (s.cls) {
      case 0:
        Op(log, "core.select", parent, s, id, [&] {
          return ev::Select(
              f, ev::And({ge, lt, ev::IsSym("fu0", {"s1", "s3", "s5"})}),
              ev::MembershipThreshold::SnGreater(0.2));
        });
        break;
      case 1: {
        const ev::ExtendedRelation filtered =
            Op(log, "core.select", parent, s, id,
               [&] { return ev::FilterPositiveSupport(f, {ge, lt}); });
        const ev::ExtendedRelation& d = Rel(snap, "D");
        Op(log, "core.join", parent, s, id, [&] {
          return ev::Join(filtered, d, ev::And({AttrEq("fk", "dk"), ge, lt}));
        });
        break;
      }
      case 2: {
        const ev::ExtendedRelation filtered =
            Op(log, "core.select", parent, s, id,
               [&] { return ev::FilterPositiveSupport(f, {ge, lt}); });
        const std::vector<const ev::ExtendedRelation*> operands = {
            &filtered, &Rel(snap, "D"), &Rel(snap, "D2")};
        Op(log, "core.multijoin", parent, s, id,
           [&]() -> ev::Result<ev::ExtendedRelation> {
             auto schema = ev::MakeMultiwayProductSchema(operands);
             if (!schema.ok()) return schema.status();
             return ev::MultiwayJoinProduct(
                 operands, *schema,
                 ev::And({AttrEq("fk", "dk"), AttrEq("fk2", "d2k"), ge, lt}),
                 ev::MembershipThreshold());
           });
        break;
      }
      default:
        Op(log, "core.select", parent, s, id, [&] {
          return ev::Select(f, Cmp("fk", ev::ThetaOp::kEq, s.a));
        });
    }
  };
  return w;
}

Workload MakeIntegrate(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "integrate";
  w.clients = 1;
  w.threads = 3;
  w.setup_reps = tiny ? 2 : 5;
  w.probes = tiny ? 4 : 20;
  const IntegrateShape shape{tiny ? size_t{500} : size_t{20000},
                             tiny ? size_t{200} : size_t{5000}, 0.6, 0.1};
  w.partitioning = {ev::PartitionSpec::Scheme::kNone, 1};
  w.union_options.on_total_conflict = ev::TotalConflictPolicy::kVacuous;
  w.build = [seed, shape] { return BuildIntegrateCatalog(seed, shape); };
  w.classes = {{"union", 1.0, {"A", "B"}},
               {"union_where", 1.0, {"A", "B"}},
               {"intersect", 1.0, {"A", "B"}},
               {"wide_union", 1.0, {"W1", "W2"}}};
  w.pool = {{"SELECT * FROM A UNION B", 0},
            {"SELECT * FROM A UNION B WHERE unc0 IS {v0, v1} WITH sn > 0.3", 1},
            {"SELECT * FROM A INTERSECT B", 2},
            {"SELECT * FROM W1 UNION W2 WHERE wu IS {w3, w17, w40, w77}", 3}};
  w.probe_stmt = 0;

  struct Kernel {
    EvidencePairs ab, wide;
    size_t ab_conflicts = 0, wide_conflicts = 0;
  };
  auto kernel = std::make_shared<Kernel>();
  w.prepare = [kernel](const ev::Catalog& reference) {
    const auto snap = reference.Snapshot();
    kernel->ab = MatchedPairs(Rel(*snap, "A"), Rel(*snap, "B"));
    kernel->wide = MatchedPairs(Rel(*snap, "W1"), Rel(*snap, "W2"));
    kernel->ab_conflicts = CombinePairs(kernel->ab);
    kernel->wide_conflicts = CombinePairs(kernel->wide);
  };
  const ev::UnionOptions options = w.union_options;
  w.replay_core = [kernel, options](const Stmt& s,
                                    const ev::CatalogSnapshot& snap,
                                    SpanLog* log, int64_t parent,
                                    uint64_t id) {
    const bool wide = s.cls == 3;
    const ev::ExtendedRelation& l = Rel(snap, wide ? "W1" : "A");
    const ev::ExtendedRelation& r = Rel(snap, wide ? "W2" : "B");
    const ev::ExtendedRelation merged =
        s.cls == 2 ? Op(log, "core.intersect", parent, s, id,
                        [&] { return ev::Intersect(l, r, options); })
                   : Op(log, "core.union", parent, s, id,
                        [&] { return ev::Union(l, r, options); });
    if (s.cls == 1 || s.cls == 3) {
      Op(log, "core.select", parent, s, id, [&] {
        return s.cls == 1
                   ? ev::Select(merged, ev::IsSym("unc0", {"v0", "v1"}),
                                ev::MembershipThreshold::SnGreater(0.3))
                   : ev::Select(merged,
                                ev::IsSym("wu", {"w3", "w17", "w40", "w77"}));
      });
    }
    // The kernel replay runs on its own: the operator combines through the
    // column batch kernel, so these spans are not children of the operator
    // span and are not subtracted from it.
    log->Time(wide ? "ds.combine_wide" : "ds.combine", -1, id, s.cls,
              [&] { CombinePairs(wide ? kernel->wide : kernel->ab); });
  };
  w.ds_counts = [kernel](std::vector<Metric>* m) {
    m->push_back(
        {"ds.pairs_combined", "count",
         static_cast<double>(kernel->ab.size() + kernel->wide.size())});
    m->push_back({"ds.total_conflicts", "count",
                  static_cast<double>(kernel->ab_conflicts +
                                      kernel->wide_conflicts)});
  };
  return w;
}

// ------------------------------------------------------- client loops

/// What one client (or a merge of clients) measured in one phase.
struct PhaseStats {
  std::vector<double> latency_ms;  // Session::Execute, every statement
  std::vector<int> latency_class;  // the statement class of each latency
  // Per client: statements and time spent inside Session::Execute.
  std::vector<uint64_t> client_statements;
  std::vector<double> client_busy_s;
  uint64_t attempted = 0, failed = 0;
  uint64_t bytes_charged = 0, morsels = 0;
  uint64_t considered = 0, pruned = 0;
  double rows_examined = 0.0, rows_returned = 0.0;
  uint64_t cache_hits = 0;
  SpanLog log;
  std::string error;  // a benchmark failure inside the client thread

  void Merge(const PhaseStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    latency_class.insert(latency_class.end(), o.latency_class.begin(),
                         o.latency_class.end());
    client_statements.resize(
        std::max(client_statements.size(), o.client_statements.size()));
    client_busy_s.resize(client_statements.size());
    for (size_t c = 0; c < o.client_statements.size(); ++c) {
      client_statements[c] += o.client_statements[c];
      client_busy_s[c] += o.client_busy_s[c];
    }
    attempted += o.attempted;
    failed += o.failed;
    bytes_charged += o.bytes_charged;
    morsels += o.morsels;
    considered += o.considered;
    pruned += o.pruned;
    rows_examined += o.rows_examined;
    rows_returned += o.rows_returned;
    cache_hits += o.cache_hits;
    log.Absorb(o.log);
    if (error.empty()) error = o.error;
  }

  /// Statements per second of Session::Execute time, summed over clients.
  /// Result checking between statements is client think time.
  double Qps() const {
    double qps = 0.0;
    for (size_t c = 0; c < client_statements.size(); ++c) {
      if (client_busy_s[c] > 0) {
        qps += static_cast<double>(client_statements[c]) / client_busy_s[c];
      }
    }
    return qps;
  }
};

/// Picks statements by class weight, then uniformly within the class.
class StatementPicker {
 public:
  StatementPicker(const Workload& w, uint64_t seed) : rng_(seed) {
    by_class_.resize(w.classes.size());
    for (size_t i = 0; i < w.pool.size(); ++i) {
      by_class_[w.pool[i].cls].push_back(i);
    }
    double total = 0.0;
    for (const ClassDef& c : w.classes) total += c.weight;
    double acc = 0.0;
    for (const ClassDef& c : w.classes) {
      acc += c.weight / total;
      cumulative_.push_back(acc);
    }
  }

  size_t Next() {
    const double u = rng_.NextDouble();
    size_t cls = 0;
    while (cls + 1 < cumulative_.size() && u >= cumulative_[cls]) ++cls;
    const std::vector<size_t>& members = by_class_[cls];
    return members[rng_.Below(members.size())];
  }

 private:
  ev::Rng rng_;
  std::vector<double> cumulative_;
  std::vector<std::vector<size_t>> by_class_;
};

/// The query-layer spans one statement's replay recorded.
struct ReplaySpans {
  int64_t parse = -1, plan = -1, optimize = -1, execute = -1;
};

/// Replays one statement through the query layer's public entry points
/// (ParseQuery, BuildPlan, OptimizePlan + LowerToFusedPipelines,
/// ExecutePrepared) and then its operator and kernel calls.
ReplaySpans ReplayStatement(const Workload& w, const Stmt& s,
                            const ev::Catalog* catalog,
                            const ev::CatalogSnapshot& snap,
                            const ev::QueryEngine& engine, SpanLog* log,
                            uint64_t id) {
  ReplaySpans spans;
  ev::Result<ev::eql::ParsedQuery> parsed = ev::Status::Internal("unset");
  spans.parse = log->Time("query.parse", -1, id, s.cls,
                          [&] { parsed = ev::ParseQuery(s.text); });
  Check(parsed.status(), "parse replay");
  ev::Result<ev::eql::LogicalPlan> plan = ev::Status::Internal("unset");
  spans.plan = log->Time("query.plan", -1, id, s.cls, [&] {
    plan = ev::eql::BuildPlan(*parsed, catalog, w.union_options);
  });
  Check(plan.status(), "plan replay");
  spans.optimize = log->Time("query.optimize", -1, id, s.cls, [&] {
    ev::eql::OptimizePlan(&*plan);
    ev::eql::LowerToFusedPipelines(&*plan);
  });
  ev::Result<ev::ExtendedRelation> result = ev::Status::Internal("unset");
  spans.execute = log->Time("query.execute", -1, id, s.cls,
                            [&] { result = engine.ExecutePrepared(*plan); });
  Check(result.status(), "execute replay");
  w.replay_core(s, snap, log, spans.execute, id);
  return spans;
}

/// Per statement class: rows of every relation it scans, and rows per
/// partition of the first (pruning is credited to that one).
struct ScanSize {
  double rows = 0;
  double first_partition_rows = 0;
};

std::vector<ScanSize> ScanSizes(const Workload& w,
                                const ev::CatalogSnapshot& snap) {
  std::vector<ScanSize> out;
  const double partitions = std::max<uint32_t>(w.partitioning.partitions, 1);
  for (const ClassDef& c : w.classes) {
    ScanSize s;
    for (const std::string& name : c.scanned) {
      s.rows += static_cast<double>(Rel(snap, name.c_str()).size());
    }
    s.first_partition_rows =
        static_cast<double>(Rel(snap, c.scanned.front().c_str()).size()) /
        partitions;
    out.push_back(s);
  }
  return out;
}

void ClientLoop(const Workload& w, SessionManager* manager, int client,
                uint64_t seed, Clock::time_point until, bool traced,
                PhaseStats* out) {
  try {
    std::unique_ptr<Session> session = manager->OpenSession();
    session->engine().set_union_options(w.union_options);
    const ev::Catalog* catalog = manager->catalog();
    const auto snap = catalog->Snapshot();
    const std::vector<ScanSize> sizes = ScanSizes(w, *snap);
    // The replay engine runs governed like the session, with its own
    // context.
    ev::QueryContext replay_context;
    replay_context.set_memory_budget(GovernedOptions().default_query_budget);
    ev::QueryEngine replay(catalog);
    replay.set_union_options(w.union_options);
    replay.set_query_context(&replay_context);

    StatementPicker picker(w, seed * 0x9e3779b97f4a7c15ULL + 7919 * client);
    Clock::duration busy{0};
    uint64_t seq = 0;
    while (Clock::now() < until) {
      const Stmt& s = w.pool[picker.Next()];
      const uint64_t id = (static_cast<uint64_t>(client) << 40) | seq;
      // Alternate replay-before and replay-after, so neither the real
      // call nor the replay always runs on caches the other warmed.
      const bool replay_first = traced && seq % 2 == 1;
      ++seq;
      ReplaySpans spans;
      if (replay_first) {
        spans = ReplayStatement(w, s, catalog, *snap, replay, &out->log, id);
      }
      ev::ResetScanStats();
      const uint64_t hits_before = session->plan_cache_hits();
      const Clock::time_point start = Clock::now();
      ev::Result<ev::ExtendedRelation> result = session->Execute(s.text);
      const Clock::time_point end = Clock::now();
      const bool hit = session->plan_cache_hits() > hits_before;
      const ev::PartitionScanStats scan = ev::CurrentScanStats();
      if (traced && !replay_first) {
        spans = ReplayStatement(w, s, catalog, *snap, replay, &out->log, id);
      }

      busy += end - start;
      out->latency_ms.push_back(Ms(start, end));
      out->latency_class.push_back(s.cls);
      ++out->attempted;
      out->cache_hits += hit ? 1 : 0;
      out->bytes_charged += session->context().bytes_charged();
      out->morsels += session->context().morsels_completed();
      out->considered += scan.partitions_considered;
      out->pruned += scan.partitions_pruned;
      const ScanSize& size = sizes[s.cls];
      out->rows_examined += size.rows -
                            static_cast<double>(scan.partitions_pruned) *
                                size.first_partition_rows;
      if (traced) {
        const int64_t root =
            out->log.Add("server.execute", start, end, -1, id, s.cls);
        out->log.SetParent(spans.parse, root);
        out->log.SetParent(spans.execute, root);
        if (!hit) {  // the session planned too: its plan spans count
          out->log.SetParent(spans.plan, root);
          out->log.SetParent(spans.optimize, root);
        }
      }
      if (!result.ok()) {
        ++out->failed;
        continue;
      }
      out->rows_returned += static_cast<double>(result->size());
      if (ResultDigest(*result) != s.digest) ++out->failed;
    }
    out->client_statements.assign(client + 1, 0);
    out->client_busy_s.assign(client + 1, 0.0);
    out->client_statements[client] = seq;
    out->client_busy_s[client] = std::chrono::duration<double>(busy).count();
  } catch (const std::exception& e) {
    out->error = e.what();
  }
}

PhaseStats RunPhase(const Workload& w, SessionManager* manager, uint64_t seed,
                    double seconds, bool traced) {
  std::vector<PhaseStats> per_client(w.clients);
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w.clients; ++c) {
      threads.emplace_back(ClientLoop, std::cref(w), manager,
                           static_cast<int>(c), seed, until, traced,
                           &per_client[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseStats merged;
  for (const PhaseStats& p : per_client) merged.Merge(p);
  if (!merged.error.empty()) throw std::runtime_error(merged.error);
  return merged;
}

// ------------------------------------------------------- shared pieces

/// A mapped catalog with its session manager (the served deployment).
struct Deployment {
  std::unique_ptr<ev::Catalog> catalog;
  std::unique_ptr<SessionManager> manager;

  void Close() {
    manager.reset();  // the manager must go before its catalog
    catalog.reset();
  }
};

ev::Catalog OpenMapped(const std::string& path) {
  auto loaded = ev::LoadErelFile(path, ev::LoadOptions{});
  Check(loaded.status(), "open " + path);
  return std::move(loaded).value();
}

/// Mapped open of a 16x-row image divided by that of the base image,
/// both built and opened in this process, alternating.
double OpenRatio16x(const std::string& dir, uint64_t seed, bool tiny) {
  const size_t base = tiny ? 256 : 4096;
  const std::string small = dir + "/open_1x.erel";
  const std::string big = dir + "/open_16x.erel";
  Check(ev::SaveErelFile(BuildReopenCatalog(seed, base), small,
                         ev::PartitionSpec{}),
        "save " + small);
  Check(ev::SaveErelFile(BuildReopenCatalog(seed, 16 * base), big,
                         ev::PartitionSpec{}),
        "save " + big);
  std::vector<double> small_ms, big_ms;
  for (int i = 0; i < 9; ++i) {
    for (const std::string* path : {&small, &big}) {
      const Clock::time_point start = Clock::now();
      ev::Catalog catalog = OpenMapped(*path);
      (path == &small ? small_ms : big_ms).push_back(MillisSince(start));
    }
  }
  return Median(big_ms) / Median(small_ms);
}

/// Per-class trace coverage: the query-layer spans a Session::Execute
/// covers, over that call's own time. Returns the class farthest from 1
/// and prints all of them.
double Coverage(const TraceSummary& summary,
                const std::vector<std::string>& class_names) {
  double worst = 1.0;
  for (const auto& [cls, root] : summary.root_ms) {
    const double cov = root > 0 ? summary.covered_ms.at(cls) / root : 0.0;
    std::fprintf(stderr, "perfbench: trace.coverage[%s] = %.4f\n",
                 cls >= 0 ? class_names[cls].c_str() : "?", cov);
    if (std::fabs(cov - 1.0) > std::fabs(worst - 1.0)) worst = cov;
  }
  return worst;
}

double MedianOf(const TraceSummary& summary, const char* name, double scale) {
  auto it = summary.durations.find(name);
  return it == summary.durations.end() ? 0.0 : Median(it->second) * scale;
}

/// Per-class statement counts and latency quantiles, for the reader.
void PrintClassLatencies(const Workload& w, const PhaseStats& phase) {
  for (size_t c = 0; c < w.classes.size(); ++c) {
    std::vector<double> lat;
    for (size_t i = 0; i < phase.latency_ms.size(); ++i) {
      if (phase.latency_class[i] == static_cast<int>(c)) {
        lat.push_back(phase.latency_ms[i]);
      }
    }
    std::fprintf(stderr,
                 "perfbench: class %-13s n=%-6zu p50=%.3f ms p99=%.3f ms\n",
                 w.classes[c].name.c_str(), lat.size(), Quantile(lat, 0.5),
                 Quantile(lat, 0.99));
  }
}

// ------------------------------------------------------------ metrics

/// Everything a run measured, whichever workload produced it.
struct Measurements {
  std::vector<double> setup_s, save_ms, open_ms, first_result_ms,
      first_touch_ms;
  PhaseStats plain;   // untraced statements
  PhaseStats traced;  // traced statements (traced runs only)
  // Per untraced slice of a sliced workload: qps, p50 and p95.
  std::vector<double> slice_qps, slice_p50, slice_p95;
  double image_bytes = 0;
  double rows = 0;
  double open_ratio_16x = 0;  // traced runs only
  std::vector<std::string> class_names;
  std::function<void(std::vector<Metric>*)> ds_counts;
};

void AssembleMetrics(const RunOptions& opt, const Measurements& x,
                     const Fingerprint& fp, RunResult* out) {
  out->attempted += x.plain.attempted + x.traced.attempted;
  out->failed += x.plain.failed + x.traced.failed;
  std::vector<Metric>& m = out->metrics;
  if (!opt.trace) {
    // Sliced workloads report the median over slices, so that a burst of
    // machine noise in a few slices does not move the run's figure.
    const bool sliced = !x.slice_qps.empty();
    m.push_back({"setup_s", "s", Median(x.setup_s)});
    m.push_back({"qps", "1/s", sliced ? Median(x.slice_qps) : x.plain.Qps()});
    m.push_back({"query_p50_ms", "ms",
                 sliced ? Median(x.slice_p50)
                        : Quantile(x.plain.latency_ms, 0.5)});
    m.push_back({"query_p95_ms", "ms",
                 sliced ? Median(x.slice_p95)
                        : Quantile(x.plain.latency_ms, 0.95)});
    m.push_back({"save_p50_ms", "ms", Median(x.save_ms)});
    m.push_back({"first_result_p50_ms", "ms", Median(x.first_result_ms)});
    m.push_back(
        {"first_result_p90_ms", "ms", Quantile(x.first_result_ms, 0.9)});
    m.push_back({"image_bytes_per_row", "B", x.image_bytes / x.rows});
    return;
  }

  // Counters over every timed statement, untraced and traced.
  const auto total = [&x](auto PhaseStats::*field) {
    return static_cast<double>(x.plain.*field + x.traced.*field);
  };
  const double statements = static_cast<double>(
      x.plain.latency_ms.size() + x.traced.latency_ms.size());
  const TraceSummary summary = Summarize(x.traced.log, "server.execute");
  const auto self = summary.self.find("server.execute");
  m.push_back({"server.execute_p50_us", "us",
               MedianOf(summary, "server.execute", 1e3)});
  m.push_back({"server.self_p50_us", "us",
               self == summary.self.end() ? 0.0 : Median(self->second) * 1e3});
  m.push_back({"server.plan_cache_hit_ratio", "ratio",
               total(&PhaseStats::cache_hits) / statements});
  m.push_back({"query.parse_us", "us", MedianOf(summary, "query.parse", 1e3)});
  m.push_back({"query.plan_us", "us", MedianOf(summary, "query.plan", 1e3)});
  m.push_back({"query.optimize_us", "us",
               MedianOf(summary, "query.optimize", 1e3)});
  m.push_back({"query.execute_ms", "ms",
               MedianOf(summary, "query.execute", 1.0)});
  m.push_back({"query.rows_examined_per_result", "ratio",
               total(&PhaseStats::rows_examined) /
                   std::max(total(&PhaseStats::rows_returned), 1.0)});
  for (const char* op : {"core.select", "core.join", "core.multijoin",
                         "core.union", "core.intersect"}) {
    m.push_back({std::string(op) + "_ms", "ms", MedianOf(summary, op, 1.0)});
  }
  m.push_back({"core.bytes_charged_per_stmt", "B",
               total(&PhaseStats::bytes_charged) / statements});
  m.push_back({"core.morsels_per_stmt", "count",
               total(&PhaseStats::morsels) / statements});
  m.push_back({"ds.combine_ms", "ms", MedianOf(summary, "ds.combine", 1.0)});
  m.push_back({"ds.combine_wide_ms", "ms",
               MedianOf(summary, "ds.combine_wide", 1.0)});
  if (x.ds_counts) {
    x.ds_counts(&m);
  } else {
    m.push_back({"ds.pairs_combined", "count", 0.0});
    m.push_back({"ds.total_conflicts", "count", 0.0});
  }
  m.push_back({"ds.simd_active", "bool", ev::BatchSimdActive() ? 1.0 : 0.0});
  m.push_back({"storage.save_ms", "ms", Median(x.save_ms)});
  m.push_back({"storage.open_ms", "ms", Median(x.open_ms)});
  m.push_back({"storage.first_touch_ms", "ms", Median(x.first_touch_ms)});
  m.push_back({"storage.open_ratio_16x", "ratio", x.open_ratio_16x});
  m.push_back({"storage.image_bytes", "B", x.image_bytes});
  m.push_back({"storage.partitions_pruned_ratio", "ratio",
               total(&PhaseStats::pruned) /
                   std::max(total(&PhaseStats::considered), 1.0)});
  m.push_back({"storage.live_mappings_after_close", "count",
               static_cast<double>(ev::MappedFile::live_mappings())});
  m.push_back({"trace.coverage", "ratio", Coverage(summary, x.class_names)});
  m.push_back({"trace.overhead_frac", "ratio",
               x.traced.Qps() > 0 ? x.plain.Qps() / x.traced.Qps() - 1.0
                                  : 0.0});
  if (!opt.trace_path.empty()) {
    const SpanLog& log = x.traced.log;
    if (!WriteTrace(opt.trace_path, fp.ToJson(), x.class_names, log,
                    log.spans().empty() ? Clock::now()
                                        : log.spans().front().start)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   opt.trace_path.c_str());
    }
  }
}

// ------------------------------------------------- serve and integrate

void RunSessions(const RunOptions& opt, Workload w, Measurements* x,
                 RunResult* out) {
  ev::SetParallelMaxThreads(w.threads);
  const std::string image = opt.work_dir + "/" + w.name + ".erel";
  for (const ClassDef& c : w.classes) x->class_names.push_back(c.name);
  x->ds_counts = w.ds_counts;

  // Set-up, several times: generate, save, mapped open, warm every
  // statement once. The last deployment stays up for the timed phases.
  Deployment live;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    live.Close();
    const Clock::time_point start = Clock::now();
    {
      const ev::Catalog generated = w.build();
      x->rows = static_cast<double>(TotalRows(generated));
      const Clock::time_point save_start = Clock::now();
      Check(ev::SaveErelFile(generated, image, w.partitioning), "save");
      x->save_ms.push_back(MillisSince(save_start));
    }
    live.catalog = std::make_unique<ev::Catalog>(OpenMapped(image));
    live.manager =
        std::make_unique<SessionManager>(live.catalog.get(), GovernedOptions());
    {
      std::unique_ptr<Session> session = live.manager->OpenSession();
      session->engine().set_union_options(w.union_options);
      for (const Stmt& s : w.pool) {
        ++out->attempted;
        if (!session->Execute(s.text).ok()) ++out->failed;
      }
    }
    x->setup_s.push_back(SecondsSince(start));
  }
  x->image_bytes = static_cast<double>(FileBytes(image));

  // Reference digests: a plain engine over a copied open of the image.
  {
    ev::LoadOptions copied;
    copied.map = ev::LoadOptions::Map::kNever;
    auto reference = ev::LoadErelFile(image, copied);
    Check(reference.status(), "reference open");
    ev::QueryEngine engine(&*reference);
    engine.set_union_options(w.union_options);
    for (Stmt& s : w.pool) {
      auto r = engine.Execute(s.text);
      Check(r.status(), "reference '" + s.text + "'");
      s.digest = ResultDigest(*r);
    }
    if (w.prepare) w.prepare(*reference);
  }
  if (opt.tamper_digest) w.pool[w.probe_stmt].digest ^= 1;

  // The timed statements run in slices, with one re-open probe after each:
  // save the served catalog (every other probe), open the copy mapped,
  // run the probe statement. Spreading probes over the run keeps a
  // transient slowdown of the machine from landing on all of them. A
  // traced run alternates untraced and traced slices.
  const Stmt& probe = w.pool[w.probe_stmt];
  const std::string probe_image = image + ".probe";
  for (int k = 0; k < w.probes; ++k) {
    const bool traced = opt.trace && k % 2 == 1;
    PhaseStats slice =
        RunPhase(w, live.manager.get(), opt.seed * 1000 + k,
                 opt.seconds / w.probes, traced);
    if (!traced) {
      x->slice_qps.push_back(slice.Qps());
      x->slice_p50.push_back(Quantile(slice.latency_ms, 0.5));
      x->slice_p95.push_back(Quantile(slice.latency_ms, 0.95));
    }
    (traced ? x->traced : x->plain).Merge(slice);

    if (k % 2 == 0) {  // every other probe saves first
      const Clock::time_point save_start = Clock::now();
      Check(ev::SaveErelFile(*live.catalog, probe_image, w.partitioning),
            "probe save");
      x->save_ms.push_back(MillisSince(save_start));
    }
    const Clock::time_point start = Clock::now();
    ev::Catalog catalog = OpenMapped(probe_image);
    x->open_ms.push_back(MillisSince(start));
    SessionManager manager(&catalog, GovernedOptions());
    std::unique_ptr<Session> session = manager.OpenSession();
    session->engine().set_union_options(w.union_options);
    const Clock::time_point exec_start = Clock::now();
    auto first = session->Execute(probe.text);
    const Clock::time_point end = Clock::now();
    x->first_result_ms.push_back(Ms(start, end));
    ++out->attempted;
    if (!first.ok() || ResultDigest(*first) != probe.digest) ++out->failed;
    if (opt.trace) {
      const Clock::time_point warm_start = Clock::now();
      auto warm = session->Execute(probe.text);
      x->first_touch_ms.push_back(Ms(exec_start, end) -
                                  MillisSince(warm_start));
      ++out->attempted;
      if (!warm.ok() || ResultDigest(*warm) != probe.digest) ++out->failed;
    }
  }
  live.Close();
  std::fprintf(stderr, "perfbench: %zu timed statements\n",
               x->plain.latency_ms.size() + x->traced.latency_ms.size());
  PrintClassLatencies(w, x->plain);
}

// -------------------------------------------------------------- reopen

/// reopen: each cycle republishes S, saves the whole catalog (16 hash
/// partitions, crash-safe commit), opens it mapped, runs one statement
/// that reads every partition of R, and drops the catalog.
void RunReopen(const RunOptions& opt, Measurements* x, RunResult* out) {
  ev::SetParallelMaxThreads(3);
  const size_t rows = opt.tiny ? 2000 : 50000;
  const ev::PartitionSpec spec{ev::PartitionSpec::Scheme::kHash,
                               opt.tiny ? 4u : 16u};
  const std::string image = opt.work_dir + "/reopen.erel";
  Workload w;  // the statement, its class and its replay
  w.name = "reopen";
  w.partitioning = spec;
  w.classes = {{"touch_all", 1.0, {"R", "S"}}};
  w.pool = {{"SELECT * FROM R JOIN S WHERE rgrp = sk AND ru0 IS {s1, s4, s7}",
             0}};
  w.replay_core = [](const Stmt& s, const ev::CatalogSnapshot& snap,
                     SpanLog* log, int64_t parent, uint64_t id) {
    const ev::PredicatePtr is = ev::IsSym("ru0", {"s1", "s4", "s7"});
    const ev::ExtendedRelation filtered =
        Op(log, "core.select", parent, s, id, [&] {
          return ev::FilterPositiveSupport(Rel(snap, "R"), {is});
        });
    Op(log, "core.join", parent, s, id, [&] {
      return ev::Join(filtered, Rel(snap, "S"),
                      ev::And(AttrEq("rgrp", "sk"), is));
    });
  };
  const Stmt& stmt = w.pool[0];
  x->class_names = {"touch_all"};
  const ev::ExtendedRelation variants[2] = {SmallRelation(opt.seed, 0),
                                            SmallRelation(opt.seed, 1)};

  // Set-up: generate, save, mapped open, run the statement once.
  std::unique_ptr<ev::Catalog> working;
  for (int rep = 0; rep < (opt.tiny ? 2 : 5); ++rep) {
    working.reset();
    const Clock::time_point start = Clock::now();
    working = std::make_unique<ev::Catalog>(BuildReopenCatalog(opt.seed, rows));
    Check(ev::SaveErelFile(*working, image, spec), "save");
    ev::Catalog catalog = OpenMapped(image);
    SessionManager manager(&catalog, GovernedOptions());
    ++out->attempted;
    if (!manager.OpenSession()->Execute(stmt.text).ok()) ++out->failed;
    x->setup_s.push_back(SecondsSince(start));
  }
  x->rows = static_cast<double>(TotalRows(*working));

  // Reference digest of the statement under each variant of S.
  uint64_t digests[2];
  for (int v = 0; v < 2; ++v) {
    Check(working->RegisterRelation(variants[v], /*replace=*/true),
          "republish");
    const std::string path = opt.work_dir + "/reference.erel";
    Check(ev::SaveErelFile(*working, path, spec), "reference save");
    ev::LoadOptions copied;
    copied.map = ev::LoadOptions::Map::kNever;
    auto reference = ev::LoadErelFile(path, copied);
    Check(reference.status(), "reference open");
    auto r = ev::QueryEngine(&*reference).Execute(stmt.text);
    Check(r.status(), "reference '" + stmt.text + "'");
    digests[v] = ResultDigest(*r);
  }
  if (opt.tamper_digest) digests[0] ^= 1;
  const std::vector<ScanSize> sizes = [&] {
    const ev::Catalog catalog = OpenMapped(image);
    return ScanSizes(w, *catalog.Snapshot());
  }();

  // A traced run alternates untraced and traced cycles.
  uint64_t cycle = 0;
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  while (Clock::now() < until) {
    const int v = static_cast<int>(cycle % 2);
    const uint64_t id = cycle++;
    const bool traced = opt.trace && v == 1;
    PhaseStats* ps = traced ? &x->traced : &x->plain;
    const Clock::time_point publish = Clock::now();
    Check(working->RegisterRelation(variants[v], /*replace=*/true),
          "republish");
    const Clock::time_point save = Clock::now();
    Check(ev::SaveErelFile(*working, image, spec), "save");
    const Clock::time_point open = Clock::now();
    x->save_ms.push_back(Ms(save, open));
    ev::Catalog catalog = OpenMapped(image);
    const Clock::time_point opened = Clock::now();
    x->open_ms.push_back(Ms(open, opened));
    SessionManager manager(&catalog, GovernedOptions());
    std::unique_ptr<Session> session = manager.OpenSession();
    ev::ResetScanStats();
    const Clock::time_point start = Clock::now();
    auto result = session->Execute(stmt.text);
    const Clock::time_point end = Clock::now();
    const ev::PartitionScanStats scan = ev::CurrentScanStats();
    x->first_result_ms.push_back(Ms(open, end));
    ps->client_statements.resize(1);
    ps->client_busy_s.resize(1);
    ++ps->client_statements[0];
    ps->client_busy_s[0] += std::chrono::duration<double>(end - start).count();
    ps->latency_ms.push_back(Ms(start, end));
    ps->latency_class.push_back(0);
    ++ps->attempted;
    ps->bytes_charged += session->context().bytes_charged();
    ps->morsels += session->context().morsels_completed();
    ps->considered += scan.partitions_considered;
    ps->pruned += scan.partitions_pruned;
    ps->rows_examined += sizes[0].rows;
    if (!result.ok() || ResultDigest(*result) != digests[v]) {
      ++ps->failed;
    } else {
      ps->rows_returned += static_cast<double>(result->size());
    }
    if (!traced) continue;

    SpanLog& log = ps->log;
    log.Add("storage.republish", publish, save, -1, id, 0);
    log.Add("storage.save", save, open, -1, id, 0);
    log.Add("storage.open", open, opened, -1, id, 0);
    const int64_t root = log.Add("server.execute", start, end, -1, id, 0);
    // The first run pays deferred verification and cache builds; the
    // same statement again is the warm cost. Their difference is the
    // storage layer's first-touch span inside this call.
    const Clock::time_point warm_start = Clock::now();
    auto warm = session->Execute(stmt.text);
    const Clock::duration warm_time = Clock::now() - warm_start;
    ++ps->attempted;
    if (!warm.ok() || ResultDigest(*warm) != digests[v]) ++ps->failed;
    const Clock::duration touch =
        std::max(Clock::duration{0}, (end - start) - warm_time);
    x->first_touch_ms.push_back(
        std::chrono::duration<double, std::milli>(touch).count());
    log.Add("storage.first_touch", start, start + touch, root, id, 0);
    const auto snap = catalog.Snapshot();
    ev::QueryEngine replay(&catalog);
    const ReplaySpans spans =
        ReplayStatement(w, stmt, &catalog, *snap, replay, &log, id);
    for (int64_t span :
         {spans.parse, spans.plan, spans.optimize, spans.execute}) {
      log.SetParent(span, root);  // a fresh manager always plans
    }
  }
  x->image_bytes = static_cast<double>(FileBytes(image));
  std::fprintf(stderr, "perfbench: %llu cycles\n",
               static_cast<unsigned long long>(cycle));
}

}  // namespace

RunResult RunWorkload(const RunOptions& options, Fingerprint* fingerprint) {
  std::filesystem::create_directories(options.work_dir);
  fingerprint->save_dir = options.work_dir;
  fingerprint->flush_policy = kFlushPolicy;
  RunResult result;
  Measurements x;
  if (options.workload == "serve") {
    RunSessions(options, MakeServe(options.seed, options.tiny), &x, &result);
  } else if (options.workload == "integrate") {
    RunSessions(options, MakeIntegrate(options.seed, options.tiny), &x,
                &result);
  } else if (options.workload == "reopen") {
    RunReopen(options, &x, &result);
  } else {
    throw std::runtime_error("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    x.open_ratio_16x =
        OpenRatio16x(options.work_dir, options.seed, options.tiny);
  }
  AssembleMetrics(options, x, *fingerprint, &result);
  std::filesystem::remove_all(options.work_dir);
  return result;
}

}  // namespace perfbench
