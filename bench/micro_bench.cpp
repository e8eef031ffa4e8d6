// Google-benchmark micro-benchmarks of the substrates: real wall-clock
// performance of the pieces the simulation executes (histogram updates,
// split selection, generator throughput, classification, collectives).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <numeric>
#include <string>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/partition.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/histogram.hpp"
#include "dtree/metrics.hpp"
#include "dtree/prune.hpp"
#include "dtree/sha256.hpp"

using namespace pdt;

namespace {

const data::Dataset& quest_raw() {
  static const data::Dataset ds =
      data::quest_generate(50000, {.function = 2, .seed = 1});
  return ds;
}

const data::Dataset& quest_binned() {
  static const data::Dataset ds =
      data::discretize_uniform(quest_raw(), data::quest_paper_bins());
  return ds;
}

void BM_QuestGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::quest_generate(n, {.seed = 3}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuestGenerate)->Arg(1000)->Arg(10000);

void BM_HistogramAccumulate(benchmark::State& state) {
  // The fig6 shape: pre-binned Quest (nine categorical byte columns),
  // rows in the random order the formulations hold them. Items are
  // row x attribute cells.
  const data::Dataset& ds = quest_binned();
  const dtree::SlotMapper mapper(ds, 32);
  const dtree::AttrLayout layout(ds.schema(), 32);
  std::vector<data::RowId> rows =
      data::partition_random(ds.num_rows(), 1, 1)[0];
  rows.resize(static_cast<std::size_t>(state.range(0)));
  dtree::Hist h(static_cast<std::size_t>(layout.total()));
  for (auto _ : state) {
    std::fill(h.begin(), h.end(), 0);
    dtree::accumulate(h, layout, mapper, rows);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 9);
}
BENCHMARK(BM_HistogramAccumulate)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_HistogramAccumulateContinuous(benchmark::State& state) {
  // The fig8 shape: raw Quest (six continuous attributes read through
  // 32-micro-bin slot codes), rows in the random order the formulations
  // hold them. Items are row x attribute cells, so the rate reads in
  // ns/(row*attr).
  const data::Dataset& ds = quest_raw();
  const dtree::SlotMapper mapper(ds, 32);
  const dtree::AttrLayout layout(ds.schema(), 32);
  std::vector<data::RowId> rows =
      data::partition_random(ds.num_rows(), 1, 1)[0];
  rows.resize(static_cast<std::size_t>(state.range(0)));
  dtree::Hist h(static_cast<std::size_t>(layout.total()));
  for (auto _ : state) {
    std::fill(h.begin(), h.end(), 0);
    dtree::accumulate(h, layout, mapper, rows);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * layout.num_attributes());
}
BENCHMARK(BM_HistogramAccumulateContinuous)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000);

void BM_HistogramDerive(benchmark::State& state) {
  // Histogram subtraction's own step: the larger child's histogram as
  // parent minus sibling, over one node's flat buffer of the fig8 layout
  // (raw Quest, 32 micro-bins). Items are histogram entries.
  const data::Dataset& ds = quest_raw();
  const dtree::SlotMapper mapper(ds, 32);
  const dtree::AttrLayout layout(ds.schema(), 32);
  std::vector<data::RowId> rows =
      data::partition_random(ds.num_rows(), 1, 1)[0];
  dtree::Hist parent(static_cast<std::size_t>(layout.total()));
  dtree::Hist sibling(parent.size());
  dtree::accumulate(parent, layout, mapper, rows);
  rows.resize(rows.size() / 3);
  dtree::accumulate(sibling, layout, mapper, rows);
  dtree::Hist h(parent.size());
  for (auto _ : state) {
    std::copy(parent.begin(), parent.end(), h.begin());
    dtree::subtract(h, sibling);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          layout.total());
}
BENCHMARK(BM_HistogramDerive);

void BM_SlotMapperBuild(benchmark::State& state) {
  // Filling the slot-code columns, once per build: 160k raw Quest records
  // (the fig8 benchmark's size), 32 micro-bins. Items are the continuous
  // cells coded.
  static const data::Dataset ds =
      data::quest_generate(160000, {.function = 2, .seed = 1});
  for (auto _ : state) {
    const dtree::SlotMapper mapper(ds, 32);
    benchmark::DoNotOptimize(mapper.slot_column(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.num_rows()) *
                          ds.schema().num_continuous());
}
BENCHMARK(BM_SlotMapperBuild)->Unit(benchmark::kMillisecond);

void BM_ChooseSplit(benchmark::State& state) {
  const data::Dataset& ds = quest_binned();
  const dtree::SlotMapper mapper(ds, 32);
  const dtree::AttrLayout layout(ds.schema(), 32);
  std::vector<data::RowId> rows(ds.num_rows());
  std::iota(rows.begin(), rows.end(), data::RowId{0});
  dtree::Hist h(static_cast<std::size_t>(layout.total()), 0);
  dtree::accumulate(h, layout, mapper, rows);
  const dtree::GrowOptions opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dtree::choose_split(h, layout, ds.schema(), mapper, opt));
  }
}
BENCHMARK(BM_ChooseSplit);

void BM_Sha256(benchmark::State& state) {
  // The digest every checkpoint section and model document carries;
  // bytes/s. The label names the compression path this CPU runs.
  const std::string data(std::size_t{1} << 20, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtree::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(dtree::sha256_uses_sha_ni() ? "sha_ni" : "portable");
}
BENCHMARK(BM_Sha256);

/// A mid-run checkpoint of the fig6 data: the middle durable epoch of a
/// hybrid P=8 build over the 50k binned Quest records.
const core::RunSnapshot& mid_run_snapshot() {
  static const core::RunSnapshot snap = [] {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("pdt_micro_bench_ckpt." + std::to_string(::getpid()));
    fs::create_directories(dir);
    core::ParOptions opt;
    opt.num_procs = 8;
    opt.ckpt_dir = dir.string();
    opt.ckpt_keep = 1 << 20;
    const core::ParResult r = core::build_hybrid(quest_binned(), opt);
    core::RunSnapshot s;
    int skipped = 0;
    std::string err;
    (void)core::CheckpointStore(opt.ckpt_dir, opt.ckpt_keep)
        .load_latest(&s, r.recovery.durable_checkpoints / 2, &skipped, &err);
    fs::remove_all(dir);
    return s;
  }();
  return snap;
}

void BM_CkptTextParse(benchmark::State& state) {
  // One checkpoint epoch's host work besides the I/O: render the file
  // bytes, then parse and validate them back; bytes/s of file.
  const core::RunSnapshot& snap = mid_run_snapshot();
  if (snap.epoch < 0) {
    state.SkipWithError("no checkpoint epoch was committed");
    return;
  }
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string text = core::ckpt_text(snap);
    core::RunSnapshot back;
    benchmark::DoNotOptimize(core::parse_ckpt(text, &back));
    bytes += static_cast<std::int64_t>(text.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_CkptTextParse)->Unit(benchmark::kMillisecond);

void BM_SerialGrowBfs(benchmark::State& state) {
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(static_cast<std::size_t>(state.range(0)),
                           {.seed = 5}),
      data::quest_paper_bins());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtree::grow_bfs(ds, dtree::GrowOptions{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SerialGrowBfs)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_GrowVsPrune(benchmark::State& state) {
  // Supports the paper's "pruning is <1% of construction" remark.
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(20000, {.seed = 6}), data::quest_paper_bins());
  const dtree::Tree grown = dtree::grow_bfs(ds, dtree::GrowOptions{});
  for (auto _ : state) {
    dtree::Tree t = grown;
    benchmark::DoNotOptimize(dtree::prune(t));
  }
}
BENCHMARK(BM_GrowVsPrune);

void BM_Classify(benchmark::State& state) {
  const data::Dataset& ds = quest_binned();
  const dtree::Tree tree = dtree::grow_bfs(ds, dtree::GrowOptions{});
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.classify(ds, row));
    row = (row + 1) % ds.num_rows();
  }
}
BENCHMARK(BM_Classify);

void BM_SimulatedHybrid(benchmark::State& state) {
  // Host cost of simulating one full hybrid run (the figure harnesses'
  // unit of work).
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(static_cast<std::size_t>(state.range(0)),
                           {.seed = 7}),
      data::quest_paper_bins());
  core::ParOptions opt;
  opt.num_procs = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_hybrid(ds, opt));
  }
}
BENCHMARK(BM_SimulatedHybrid)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_AllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  mpsim::Machine m(p);
  const mpsim::Group g = mpsim::Group::whole(m);
  std::vector<std::vector<std::int64_t>> bufs(
      static_cast<std::size_t>(p), std::vector<std::int64_t>(216, 1));
  std::vector<std::int64_t*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());
  for (auto _ : state) {
    g.all_reduce_sum(ptrs, 216);
    benchmark::DoNotOptimize(bufs[0].data());
  }
}
BENCHMARK(BM_AllReduce)->Arg(4)->Arg(16)->Arg(128);

void BM_KMeansBoundaries(benchmark::State& state) {
  std::vector<data::WeightedValue> vals;
  for (int i = 0; i < 64; ++i) {
    vals.push_back({static_cast<double>(i), 1.0 + (i * 7) % 5});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::kmeans_boundaries(vals, 8));
  }
}
BENCHMARK(BM_KMeansBoundaries);

}  // namespace

BENCHMARK_MAIN();
