// P3: extended selection and join throughput — scaling in relation size
// and in the number of conjuncts (the multiplicative-rule cost), plus
// EQL end-to-end overhead (parse + bind + execute).
#include <benchmark/benchmark.h>

#include "perf_bench_main.h"
#include "core/operations.h"
#include "query/engine.h"
#include "workload/generator.h"

namespace evident {
namespace {

ExtendedRelation MakeRelation(size_t tuples) {
  WorkloadGenerator gen(77 + tuples);
  GeneratorOptions options;
  options.num_tuples = tuples;
  options.num_uncertain = 3;
  options.domain_size = 12;
  auto schema = gen.MakeSchema(options).value();
  return gen.MakeRelation("R", schema, options).value();
}

void BM_SelectByTuples(benchmark::State& state) {
  ExtendedRelation r = MakeRelation(static_cast<size_t>(state.range(0)));
  PredicatePtr pred = IsSym("unc0", {"v0", "v1", "v2"});
  for (auto _ : state) {
    auto result = Select(r, pred);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SelectByTuples)->RangeMultiplier(10)->Range(100, 100000)
    ->Unit(benchmark::kMillisecond);

void BM_SelectByConjuncts(benchmark::State& state) {
  ExtendedRelation r = MakeRelation(10000);
  std::vector<PredicatePtr> conjuncts;
  const char* attrs[] = {"unc0", "unc1", "unc2"};
  for (int64_t i = 0; i < state.range(0); ++i) {
    conjuncts.push_back(
        IsSym(attrs[i % 3], {"v0", "v1", "v2", "v3"}));
  }
  PredicatePtr pred =
      conjuncts.size() == 1 ? conjuncts[0] : And(conjuncts);
  for (auto _ : state) {
    auto result = Select(r, pred);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectByConjuncts)->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

void BM_JoinByTuples(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExtendedRelation left = MakeRelation(n);
  ExtendedRelation right = MakeRelation(n);
  left.set_name("L");
  right.set_name("R");
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.key"));
  for (auto _ : state) {
    auto result = Join(left, right, pred);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
// Hash partitioning turned the quadratic Select-over-Product join linear;
// the range extends to 8192 (the old implementation took minutes there).
BENCHMARK(BM_JoinByTuples)->RangeMultiplier(2)->Range(32, 8192)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Probe-side sensitivity to the match rate: the fraction of keys present
// on both sides ranges from 0% (probes all miss) to 100% (every probe
// materializes a tuple). Output cardinality, not table size, dominates.
void BM_JoinByMatchRate(benchmark::State& state) {
  const size_t n = 4096;
  WorkloadGenerator gen(901);
  GeneratorOptions options;
  options.num_tuples = n;
  options.num_uncertain = 3;
  options.domain_size = 12;
  auto schema = gen.MakeSchema(options).value();
  ExtendedRelation left =
      gen.MakeRelation("L", schema, options, /*key_start=*/0).value();
  const size_t match = n * static_cast<size_t>(state.range(0)) / 100;
  ExtendedRelation right =
      gen.MakeRelation("R", schema, options, /*key_start=*/n - match).value();
  PredicatePtr pred = Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                            ThetaOperand::Attr("R.key"));
  for (auto _ : state) {
    auto result = Join(left, right, pred);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel("match=" + std::to_string(state.range(0)) + "%");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_JoinByMatchRate)->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// A predicate over a frame wider than 64 values does not bind to bit
// masks, so it is interpreted over rows decoded from the column image.
// The operands are column images, as catalog relations are.
ExtendedRelation MakeWideFrameRelation(const std::string& name,
                                       size_t tuples) {
  WorkloadGenerator gen(4242 + tuples + name.size());
  GeneratorOptions options;
  options.num_tuples = tuples;
  options.num_uncertain = 2;
  options.domain_size = 96;
  auto schema = gen.MakeSchema(options).value();
  ExtendedRelation rows = gen.MakeRelation(name, schema, options).value();
  return ExtendedRelation::AdoptColumns(rows.columns());
}

void BM_SelectWideFrame(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ExtendedRelation r = MakeWideFrameRelation("W", n);
  PredicatePtr pred = IsSym("unc0", {"v0", "v1", "v2"});
  for (auto _ : state) {
    auto result = Select(r, pred);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel("domain=96");
}
BENCHMARK(BM_SelectWideFrame)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Hash join on the key with a residual over the 96-value frame: the
// residual is interpreted on every key-matching pair.
void BM_JoinWideFrameResidual(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ExtendedRelation left = MakeWideFrameRelation("L", n);
  const ExtendedRelation right = MakeWideFrameRelation("R", n);
  PredicatePtr pred = And({Theta(ThetaOperand::Attr("L.key"), ThetaOp::kEq,
                                 ThetaOperand::Attr("R.key")),
                           IsSym("L.unc0", {"v0", "v1", "v2"})});
  for (auto _ : state) {
    auto result = Join(left, right, pred);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel("domain=96");
}
BENCHMARK(BM_JoinWideFrameResidual)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_EqlEndToEnd(benchmark::State& state) {
  Catalog catalog;
  (void)catalog.RegisterRelation(MakeRelation(10000));
  QueryEngine engine(&catalog);
  const std::string query =
      "SELECT key, unc0 FROM R WHERE unc0 IS {v0, v1} WITH sn > 0.2";
  for (auto _ : state) {
    auto result = engine.Execute(query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EqlEndToEnd)->Unit(benchmark::kMillisecond);

void BM_EqlParseOnly(benchmark::State& state) {
  Catalog catalog;
  QueryEngine engine(&catalog);
  const std::string query =
      "SELECT key, unc0 FROM R WHERE unc0 IS {v0, v1} AND unc1 = "
      "[v0^0.5, v1^0.5] WITH sn > 0.2 AND sp >= 0.5";
  for (auto _ : state) {
    auto plan = engine.Explain(query);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_EqlParseOnly);

}  // namespace
}  // namespace evident

EVIDENT_PERF_BENCH_MAIN(
    "bench_perf_select_join",
    "(BM_SelectByTuples/100|BM_SelectByConjuncts/1|BM_JoinByTuples/32|"
    "BM_JoinByTuples/2048|BM_JoinByMatchRate/50|BM_SelectWideFrame/1000|"
    "BM_JoinWideFrameResidual/1000|BM_EqlParseOnly)$")
