/**
 * @file
 * google-benchmark microbenchmarks of the hot hardware-model
 * structures: result-hash folding, FIFO history matching (the paper's
 * comparator-power concern, Section IV-B2), distance predictor
 * lookup/update, ISRB operations, cache construction and tag access
 * at the Table I geometries, and TAGE lookup.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <optional>
#include <string_view>

#include "bench_util.hh"
#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "pred/tage.hh"
#include "rsep/distance_pred.hh"
#include "rsep/fifo_history.hh"
#include "rsep/hash.hh"
#include "rsep/isrb.hh"

namespace
{

using namespace rsep;

void
BM_FoldHash(benchmark::State &state)
{
    Rng rng(1);
    u64 v = rng.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(equality::foldHash(v));
        v += 0x9e3779b9;
    }
}
BENCHMARK(BM_FoldHash);

/**
 * History match over a full FIFO of random hashes. Without a predicted
 * distance the walk stops at the nearest match; with one that almost
 * never matches (a random distance in range) it walks the whole chain.
 */
void
BM_FifoHistoryMatch(benchmark::State &state, bool predicted_miss)
{
    const unsigned depth = static_cast<unsigned>(state.range(0));
    equality::FifoHistory fifo(depth);
    Rng rng(2);
    for (unsigned i = 0; i < depth; ++i)
        fifo.push(static_cast<u16>(rng.below(1 << 14)), i, i);
    u32 csn = depth;
    for (auto _ : state) {
        std::optional<u32> pdist;
        if (predicted_miss)
            pdist = 1 + static_cast<u32>(rng.below(equality::csnMask / 2));
        benchmark::DoNotOptimize(
            fifo.match(static_cast<u16>(rng.below(1 << 14)), csn, pdist));
        ++csn;
    }
}
BENCHMARK_CAPTURE(BM_FifoHistoryMatch, no_pdist, false)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_FifoHistoryMatch, pdist_miss, true)
    ->Arg(128)->Arg(1024);

void
BM_FifoHistoryPush(benchmark::State &state)
{
    equality::FifoHistory fifo(128);
    Rng rng(3);
    u32 csn = 0;
    for (auto _ : state) {
        fifo.push(static_cast<u16>(rng.below(1 << 14)), csn, csn);
        ++csn;
    }
}
BENCHMARK(BM_FifoHistoryPush);

void
BM_DistancePredictorLookup(benchmark::State &state)
{
    equality::DistancePredictor dp;
    pred::GlobalHist h;
    Rng rng(4);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(256) << 2);
        benchmark::DoNotOptimize(dp.lookup(pc, h));
    }
}
BENCHMARK(BM_DistancePredictorLookup);

void
BM_DistancePredictorTrain(benchmark::State &state)
{
    equality::DistancePredictor dp;
    pred::GlobalHist h;
    Rng rng(5);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(256) << 2);
        equality::DistLookup lk = dp.lookup(pc, h);
        dp.train(lk, static_cast<u32>(rng.below(128)));
    }
}
BENCHMARK(BM_DistancePredictorTrain);

void
BM_IsrbShareRelease(benchmark::State &state)
{
    equality::Isrb isrb(24);
    Rng rng(6);
    for (auto _ : state) {
        PhysReg p = static_cast<PhysReg>(1 + rng.below(64));
        if (isrb.share(p)) {
            isrb.release(p);
            isrb.release(p);
        }
    }
}
BENCHMARK(BM_IsrbShareRelease);

/** Building one cache level: paid by every Pipeline, so every cell. */
void
BM_CacheLevelConstruct(benchmark::State &state, mem::CacheParams params)
{
    for (auto _ : state) {
        mem::CacheLevel level(params);
        benchmark::DoNotOptimize(&level);
    }
}
BENCHMARK_CAPTURE(BM_CacheLevelConstruct, l1d, mem::HierarchyParams{}.l1d);
BENCHMARK_CAPTURE(BM_CacheLevelConstruct, l2, mem::HierarchyParams{}.l2);
BENCHMARK_CAPTURE(BM_CacheLevelConstruct, l3, mem::HierarchyParams{}.l3);

/** Tag access over an 8 MiB footprint: mostly misses in L1, mixed in L3. */
void
BM_CacheAccess(benchmark::State &state, mem::CacheParams params)
{
    mem::CacheLevel level(params);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            level.accessTags(rng.below(1 << 20) << 3, false));
}
BENCHMARK_CAPTURE(BM_CacheAccess, l1d, mem::HierarchyParams{}.l1d);
BENCHMARK_CAPTURE(BM_CacheAccess, l3, mem::HierarchyParams{}.l3);

void
BM_TagePredict(benchmark::State &state)
{
    pred::Tage tage;
    pred::GlobalHist h;
    Rng rng(8);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(1024) << 2);
        pred::TageLookup lk = tage.predict(pc, h);
        benchmark::DoNotOptimize(lk);
        bool taken = rng.chance(1, 2);
        tage.update(lk, pc, taken);
        h.insert(taken, pc);
    }
}
BENCHMARK(BM_TagePredict);

void
BM_TagePredictFolded(benchmark::State &state)
{
    pred::Tage tage;
    pred::GeoFoldSpec spec;
    tage.registerFolds(spec);
    pred::GeoFolds folds;
    folds.bind(&spec);
    pred::GlobalHist h;
    Rng rng(8);
    for (auto _ : state) {
        Addr pc = 0x400000 + (rng.below(1024) << 2);
        pred::TageLookup lk = tage.predict(pc, h, folds);
        benchmark::DoNotOptimize(lk);
        bool taken = rng.chance(1, 2);
        tage.update(lk, pc, taken);
        folds.insertDir(taken, h.dir);
        h.insert(taken, pc);
    }
}
BENCHMARK(BM_TagePredictFolded);

} // namespace

// Google Benchmark owns the flag grammar here; the shared harness
// flags that make sense without a simulation matrix are honoured
// before gbench sees argv.
int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--list-scenarios") {
            rsep::bench::printScenarioList(std::cout);
            return 0;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
