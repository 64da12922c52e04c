// A5 — microbenchmarks of the temporal substrate (google-benchmark):
// Allen relation checks, relation-set composition and path-consistency
// propagation.

#include <benchmark/benchmark.h>

#include <vector>

#include "temporal/allen.h"
#include "temporal/allen_network.h"
#include "util/random.h"

namespace {

using namespace tecore::temporal;  // NOLINT
using tecore::Rng;

std::vector<Interval> RandomIntervals(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Interval> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t b = rng.UniformRange(0, 100000);
    out.emplace_back(b, b + rng.UniformRange(0, 500));
  }
  return out;
}

void BM_RelationBetween(benchmark::State& state) {
  auto ivs = RandomIntervals(1024, 1);
  size_t i = 0;
  for (auto _ : state) {
    const Interval& a = ivs[i & 1023];
    const Interval& b = ivs[(i * 7 + 3) & 1023];
    benchmark::DoNotOptimize(RelationBetween(a, b));
    ++i;
  }
}
BENCHMARK(BM_RelationBetween);

void BM_AllenSetHolds(benchmark::State& state) {
  auto ivs = RandomIntervals(1024, 2);
  AllenSet disjoint = AllenSet::Disjoint();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        disjoint.Holds(ivs[i & 1023], ivs[(i * 13 + 5) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_AllenSetHolds);

void BM_ComposeBasic(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    auto r1 = static_cast<AllenRelation>(i % kNumAllenRelations);
    auto r2 = static_cast<AllenRelation>((i / kNumAllenRelations) %
                                         kNumAllenRelations);
    benchmark::DoNotOptimize(ComposeBasic(r1, r2));
    ++i;
  }
}
BENCHMARK(BM_ComposeBasic);

void BM_ComposeSets(benchmark::State& state) {
  AllenSet a = AllenSet::Disjoint();
  AllenSet b = AllenSet::Intersecting();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Compose(b));
  }
}
BENCHMARK(BM_ComposeSets);

void BM_PathConsistency(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    AllenNetwork net(n);
    // A before-chain with one during edge: propagation does real work.
    for (int i = 0; i + 1 < n; ++i) {
      benchmark::DoNotOptimize(
          net.Constrain(i, i + 1, AllenSet(AllenRelation::kBefore)));
    }
    benchmark::DoNotOptimize(net.Propagate());
  }
}
BENCHMARK(BM_PathConsistency)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
