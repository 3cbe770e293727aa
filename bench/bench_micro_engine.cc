// google-benchmark microbenchmarks for the pipeline engine: per-Next
// overhead, stats accounting cost, operator throughput, element copies.
#include <benchmark/benchmark.h>

#include "src/pipeline/graph_builder.h"
#include "src/pipeline/pipeline.h"
#include "src/util/busy_work.h"

namespace plumber {
namespace {

struct EngineFixture {
  SimFilesystem fs;
  UdfRegistry udfs;

  EngineFixture() {
    for (int f = 0; f < 4; ++f) {
      std::vector<uint64_t> sizes(5000, 128);
      (void)fs.CreateRecordFile("data/f" + std::to_string(f), f + 1,
                                std::move(sizes));
    }
    UdfSpec noop;
    noop.name = "noop";
    (void)udfs.Register(noop);
  }

  PipelineOptions Options(bool tracing, int max_claim = 1) {
    PipelineOptions options;
    options.fs = &fs;
    options.udfs = &udfs;
    options.tracing_enabled = tracing;
    options.max_claim = max_claim;
    return options;
  }
};

GraphDef SimpleChain(int parallelism) {
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 2, 1);
  n = b.Map("m", n, "noop", parallelism);
  n = b.Repeat("r", n, -1);
  return std::move(b.Build(n)).value();
}

void BM_NextCallTraced(benchmark::State& state) {
  EngineFixture fx;
  auto pipeline = std::move(
                      Pipeline::Create(SimpleChain(1), fx.Options(true)))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iterator->GetNext(&e, &end));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextCallTraced);

void BM_NextCallUntraced(benchmark::State& state) {
  EngineFixture fx;
  auto pipeline = std::move(
                      Pipeline::Create(SimpleChain(1), fx.Options(false)))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iterator->GetNext(&e, &end));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextCallUntraced);

void BM_ParallelMapThroughput(benchmark::State& state) {
  EngineFixture fx;
  auto pipeline =
      std::move(Pipeline::Create(SimpleChain(static_cast<int>(state.range(0))),
                                 fx.Options(true)))
          .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iterator->GetNext(&e, &end));
  }
  state.SetItemsProcessed(state.iterations());
  pipeline->Cancel();
}
BENCHMARK(BM_ParallelMapThroughput)->Arg(1)->Arg(4)->Arg(8);

// The case multi-element claims target: a cheap (noop) UDF behind a
// high-parallelism map, where per-element queue handoffs and input-lock
// traffic dominate modeled work. Arg0 = parallelism, Arg1 = max_claim;
// 1 pins every claim to one element, and at 16 or 64 the pool's claims
// grow to the cap. The CI regression gate keys off the items/sec of
// these cases (and their ratios to the max_claim=1 case).
void BM_EngineBatchCheapUdf(benchmark::State& state) {
  EngineFixture fx;
  const int parallelism = static_cast<int>(state.range(0));
  const int max_claim = static_cast<int>(state.range(1));
  GraphBuilder b;
  auto n = b.Range("src", -1);
  n = b.Map("m", n, "noop", parallelism);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             fx.Options(true, max_claim)))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iterator->GetNext(&e, &end));
  }
  state.SetItemsProcessed(state.iterations());
  pipeline->Cancel();
}
BENCHMARK(BM_EngineBatchCheapUdf)
    ->Args({8, 1})
    ->Args({8, 16})
    ->Args({8, 64})
    ->UseRealTime();

// The zero-synchronization reference bound for the cheap-UDF case: the
// same logical work (range source -> noop map) on ONE thread with NO
// channels — parallelism 1 instantiates the sequential map, so every
// element moves by plain function return. The ratio of
// BM_EngineBatchCheapUdf/8/64 to this bound is the data plane's
// remaining synchronization gap; check_bench_regression.py derives it
// as micro_engine.sync_gap_rel and gates it per-PR (ratios are
// portable across host shapes).
void BM_EngineNoSyncBound(benchmark::State& state) {
  EngineFixture fx;
  const int max_claim = static_cast<int>(state.range(0));
  GraphBuilder b;
  auto n = b.Range("src", -1);
  n = b.Map("m", n, "noop", /*parallelism=*/1);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             fx.Options(true, max_claim)))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iterator->GetNext(&e, &end));
  }
  state.SetItemsProcessed(state.iterations());
  pipeline->Cancel();
}
BENCHMARK(BM_EngineNoSyncBound)->Arg(64)->UseRealTime();

// Same sweep through a full read->map->batch chain (records off the
// simulated filesystem, batch assembly in one claim per batch).
void BM_EngineBatchReadChain(benchmark::State& state) {
  EngineFixture fx;
  const int max_claim = static_cast<int>(state.range(0));
  GraphBuilder b;
  auto n = b.Interleave("il", b.FileList("files", "data/"), 4, 2);
  n = b.Map("m", n, "noop", 8);
  n = b.Repeat("r", n, -1);
  n = b.Batch("bt", n, 16);
  auto pipeline = std::move(Pipeline::Create(std::move(b.Build(n)).value(),
                                             fx.Options(true, max_claim)))
                      .value();
  auto iterator = std::move(pipeline->MakeIterator()).value();
  Element e;
  bool end;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iterator->GetNext(&e, &end));
  }
  state.SetItemsProcessed(state.iterations() * 16);
  pipeline->Cancel();
}
BENCHMARK(BM_EngineBatchReadChain)->Arg(1)->Arg(16)->Arg(64)->UseRealTime();

void BM_GraphSerializeParse(benchmark::State& state) {
  const GraphDef g = SimpleChain(4);
  for (auto _ : state) {
    auto parsed = GraphDef::Parse(g.Serialize());
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_GraphSerializeParse);

void BM_BurnCalibration(benchmark::State& state) {
  const int64_t ns = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BurnCpuNanos(ns));
  }
  // Host speed signal: the calibrated spin rate is proportional to
  // single-core throughput, so the CI regression gate divides absolute
  // items/s by it to compare baselines across dev- and CI-class hosts
  // (see scripts/check_bench_regression.py).
  state.counters["spin_rounds_per_ns"] = SpinRoundsPerNano();
}
BENCHMARK(BM_BurnCalibration)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ElementClone(benchmark::State& state) {
  Element e = Element::FromBuffer(Buffer(state.range(0), 7));
  for (auto _ : state) {
    Element copy = e.Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ElementClone)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace plumber

BENCHMARK_MAIN();
