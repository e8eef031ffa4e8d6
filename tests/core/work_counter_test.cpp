// The histogram kernel's work counter (ParResult::cells_accumulated) as
// the oracle of histogram subtraction. The counter must be a pure
// function of the grown tree: every histogrammed node's rows x
// attributes, less the largest child of every split whose children are
// histogrammed and whose largest child holds at least one histogram's
// worth of rows (derived as parent minus siblings). A formulation that
// drops a derived histogram while rebuilding its frontier grows the same
// tree, so a digest cannot see it; this counter can.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "mpsim/fault.hpp"
#include "tree_cells.hpp"

namespace pdt::core {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = 2, .seed = seed}),
      data::quest_paper_bins());
}

struct CounterCase {
  const char* name;
  bool prebinned;
  int max_depth;
};

void PrintTo(const CounterCase& c, std::ostream* os) { *os << c.name; }

ParOptions options_for(const CounterCase& c) {
  ParOptions opt;
  opt.grow.max_depth = c.max_depth;
  if (!c.prebinned) {
    // The fig8 harness's options on raw continuous Quest data.
    opt.grow.cont_split = dtree::ContSplit::KMeans;
    opt.grow.cont_bins = 32;
    opt.grow.per_node_bins = 8;
    opt.grow.min_records = 8;
  }
  return opt;
}

data::Dataset dataset_for(const CounterCase& c) {
  return c.prebinned ? quest_binned(3000, 31)
                     : data::quest_generate(4000, {.function = 2, .seed = 31});
}

class WorkCounter : public ::testing::TestWithParam<CounterCase> {};

TEST_P(WorkCounter, EqualAcrossFormulationsAndProcsAndTreeDerived) {
  const CounterCase c = GetParam();
  const data::Dataset ds = dataset_for(c);
  ParOptions opt = options_for(c);
  const dtree::AttrLayout layout(ds.schema(), opt.grow.cont_bins);
  const ParResult serial = build_serial(ds, opt);
  const TreeCells want = tree_cells(serial.tree, layout, c.max_depth);
  EXPECT_EQ(serial.cells_accumulated, want.derived);
  // Subtraction fires on these trees and saves at least a quarter.
  EXPECT_LT(want.derived * 4, want.full * 3)
      << want.derived << " of " << want.full;
  const std::string digest = dtree::model_digest(serial.tree);
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {1, 3, 5, 8}) {
      opt.num_procs = p;
      const ParResult res = build(f, ds, opt);
      EXPECT_EQ(res.cells_accumulated, want.derived)
          << to_string(f) << " P=" << p;
      EXPECT_EQ(dtree::model_digest(res.tree), digest)
          << to_string(f) << " P=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, WorkCounter,
    ::testing::Values(CounterCase{"PreBinned", true, 64},
                      CounterCase{"Fig8KMeans", false, 64},
                      CounterCase{"PreBinnedDepth4", true, 4}),
    [](const ::testing::TestParamInfo<CounterCase>& info) {
      return std::string(info.param.name);
    });

// A fail-stop rolls the counter back with the tree: the retried level
// redoes exactly the lost work, and the survivors' frontier keeps the
// derived histograms of the checkpoint.
TEST(WorkCounterFaults, SeededFailStopKeepsTheFaultFreeCount) {
  const data::Dataset ds = quest_binned(3000, 31);
  ParOptions opt;
  const dtree::AttrLayout layout(ds.schema(), opt.grow.cont_bins);
  const ParResult serial = build_serial(ds, opt);
  const std::int64_t want =
      tree_cells(serial.tree, layout, opt.grow.max_depth).derived;
  ASSERT_EQ(serial.cells_accumulated, want);
  const mpsim::FaultPlan plan = mpsim::FaultPlan::random(17, 8, 3);
  // Below the root, so the checkpointed frontier holds derived histograms.
  ASSERT_GE(plan.fail_stops().front().level, 1) << plan.describe();
  opt.num_procs = 8;
  opt.fault = &plan;
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    const ParResult res = build(f, ds, opt);
    EXPECT_TRUE(res.tree.same_as(serial.tree)) << to_string(f);
    EXPECT_EQ(res.cells_accumulated, want) << to_string(f);
    if (f == Formulation::Sync) {
      EXPECT_EQ(res.recovery.failures, 1);
    }
  }
}

}  // namespace
}  // namespace pdt::core
