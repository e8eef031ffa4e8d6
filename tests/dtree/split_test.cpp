#include "dtree/split.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "data/golf.hpp"
#include "data/quest.hpp"
#include "dtree/builder.hpp"
#include "dtree/histogram.hpp"
#include "dtree/tree.hpp"

namespace pdt::dtree {
namespace {

struct Fixture {
  data::Dataset ds;
  SlotMapper mapper;
  AttrLayout layout;
  Hist hist;

  explicit Fixture(data::Dataset d, int cont_bins = 8)
      : ds(std::move(d)),
        mapper(ds, cont_bins),
        layout(ds.schema(), cont_bins),
        hist(static_cast<std::size_t>(layout.total()), 0) {
    std::vector<data::RowId> rows(ds.num_rows());
    std::iota(rows.begin(), rows.end(), data::RowId{0});
    accumulate(hist, layout, mapper, rows);
  }
};

TEST(ChooseSplit, GolfRootPicksOutlookUnderMultiway) {
  Fixture f(data::golf_dataset());
  GrowOptions opt;
  opt.policy = SplitPolicy::Multiway;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.attr, data::golf_attr::kOutlook);
  EXPECT_EQ(d.test.kind, SplitTest::Kind::Multiway);
  EXPECT_EQ(d.test.num_children, 3);
  EXPECT_NEAR(d.gain, 0.24675, 1e-4);
  EXPECT_EQ(d.child_counts, (std::vector<std::int64_t>{2, 3, 4, 0, 3, 2}));
}

TEST(ChooseSplit, PureNodeBecomesLeaf) {
  Fixture f(data::golf_dataset());
  // Zero out the "Don't Play" class everywhere.
  for (int a = 0; a < f.layout.num_attributes(); ++a) {
    for (int s = 0; s < f.layout.slots(a); ++s) {
      f.hist[static_cast<std::size_t>(f.layout.index(a, s, 1))] = 0;
    }
  }
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  EXPECT_TRUE(d.test.is_leaf());
}

TEST(ChooseSplit, MinRecordsForcesLeaf) {
  Fixture f(data::golf_dataset());
  GrowOptions opt;
  opt.min_records = 100;  // more than the 14 golf records
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  EXPECT_TRUE(d.test.is_leaf());
}

TEST(ChooseSplit, EmptyHistogramIsLeaf) {
  Fixture f(data::golf_dataset());
  std::fill(f.hist.begin(), f.hist.end(), 0);
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  EXPECT_TRUE(d.test.is_leaf());
}

TEST(ChooseSplit, BinaryPolicyUsesSubsetForNominal) {
  Fixture f(data::golf_dataset());
  GrowOptions opt;
  opt.policy = SplitPolicy::Binary;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.num_children, 2);
  // The winning test may be a Subset (Outlook) or Threshold (Humidity);
  // on golf the overcast-vs-rest Outlook subset wins.
  EXPECT_EQ(d.test.kind, SplitTest::Kind::Subset);
  EXPECT_EQ(d.test.attr, data::golf_attr::kOutlook);
  // Child counts must partition the parent's 9/5.
  ASSERT_EQ(d.child_counts.size(), 4u);
  EXPECT_EQ(d.child_counts[0] + d.child_counts[2], 9);
  EXPECT_EQ(d.child_counts[1] + d.child_counts[3], 5);
}

TEST(ChooseSplit, ThresholdSplitOnOrderedSyntheticAttr) {
  // A dataset with one continuous attribute perfectly separating classes.
  data::Schema s({data::Attribute::continuous("x")}, 2);
  data::Dataset ds(s, 20);
  for (int i = 0; i < 20; ++i) {
    const std::size_t r = ds.add_row(i < 10 ? 0 : 1);
    ds.set_cont(0, r, static_cast<double>(i));
  }
  Fixture f(std::move(ds), 10);
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.kind, SplitTest::Kind::Threshold);
  EXPECT_EQ(d.test.attr, 0);
  EXPECT_NEAR(d.gain, 1.0, 1e-9) << "perfect separation: full bit of gain";
  EXPECT_EQ(d.child_counts, (std::vector<std::int64_t>{10, 0, 0, 10}));
  // Every value below the threshold is class 0.
  EXPECT_GT(d.test.threshold, 9.0);
  EXPECT_LT(d.test.threshold, 10.0 + 1e-9);
}

TEST(ChooseSplit, OrderedCategoricalUsesOrderedSlotKind) {
  data::Schema s({data::Attribute::categorical("bin", 6, /*ordered=*/true)},
                 2);
  data::Dataset ds(s, 24);
  for (int i = 0; i < 24; ++i) {
    const std::size_t r = ds.add_row(i % 6 < 3 ? 0 : 1);
    ds.set_cat(0, r, i % 6);
  }
  Fixture f(std::move(ds));
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.kind, SplitTest::Kind::OrderedSlot);
  EXPECT_EQ(d.test.slot_threshold, 2);
  EXPECT_NEAR(d.gain, 1.0, 1e-9);
}

TEST(ChooseSplit, GiniAndEntropyBothFindThePerfectSplit) {
  data::Schema s({data::Attribute::categorical("v", 4)}, 2);
  data::Dataset ds(s, 40);
  for (int i = 0; i < 40; ++i) {
    const std::size_t r = ds.add_row(i % 4 < 2 ? 0 : 1);
    ds.set_cat(0, r, i % 4);
  }
  Fixture f(std::move(ds));
  for (const Criterion crit : {Criterion::Entropy, Criterion::Gini}) {
    GrowOptions opt;
    opt.criterion = crit;
    const SplitDecision d =
        choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
    ASSERT_FALSE(d.test.is_leaf());
    EXPECT_EQ(d.test.kind, SplitTest::Kind::Subset);
    const std::int64_t left0 = d.child_counts[0];
    const std::int64_t left1 = d.child_counts[1];
    EXPECT_TRUE((left0 == 20 && left1 == 0) || (left0 == 0 && left1 == 20));
  }
}

TEST(ChooseSplit, ChildOfSlotRouting) {
  SplitTest t;
  t.kind = SplitTest::Kind::Threshold;
  t.slot_threshold = 3;
  EXPECT_EQ(t.child_of_slot(0), 0);
  EXPECT_EQ(t.child_of_slot(3), 0);
  EXPECT_EQ(t.child_of_slot(4), 1);

  t.kind = SplitTest::Kind::Subset;
  t.in_left = {1, 0, 1};
  EXPECT_EQ(t.child_of_slot(0), 0);
  EXPECT_EQ(t.child_of_slot(1), 1);
  EXPECT_EQ(t.child_of_slot(2), 0);

  t.kind = SplitTest::Kind::Multiway;
  EXPECT_EQ(t.child_of_slot(5), 5);
}

TEST(ChooseSplit, DeterministicTieBreakPrefersLowerAttr) {
  // Two identical attributes: the split must pick attr 0.
  data::Schema s({data::Attribute::categorical("a", 2),
                  data::Attribute::categorical("b", 2)},
                 2);
  data::Dataset ds(s, 20);
  for (int i = 0; i < 20; ++i) {
    const std::size_t r = ds.add_row(i % 2);
    ds.set_cat(0, r, i % 2);
    ds.set_cat(1, r, i % 2);
  }
  Fixture f(std::move(ds));
  GrowOptions opt;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_EQ(d.test.attr, 0);
}

TEST(ChooseSplit, PerNodeKMeansStillFindsGoodThreshold) {
  const data::Dataset raw = data::quest_generate(4000, {.seed = 21});
  Fixture f(raw, 32);
  GrowOptions opt;
  opt.cont_split = ContSplit::KMeans;
  opt.per_node_bins = 8;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  // Function 2 predicates on age and salary.
  EXPECT_TRUE(d.test.attr == data::quest_attr::kAge ||
              d.test.attr == data::quest_attr::kSalary);
  EXPECT_GT(d.gain, 0.0);
}

TEST(ChooseSplit, PerNodeQuantileStillFindsGoodThreshold) {
  const data::Dataset raw = data::quest_generate(4000, {.seed = 22});
  Fixture f(raw, 32);
  GrowOptions opt;
  opt.cont_split = ContSplit::Quantile;
  opt.per_node_bins = 8;
  const SplitDecision d =
      choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, opt);
  ASSERT_FALSE(d.test.is_leaf());
  EXPECT_GT(d.gain, 0.0);
}

TEST(ChooseSplit, PerNodeCandidatesNeverBeatFullScan) {
  const data::Dataset raw = data::quest_generate(2000, {.seed = 23});
  Fixture f(raw, 32);
  GrowOptions scan;
  scan.cont_split = ContSplit::ThresholdScan;
  GrowOptions km;
  km.cont_split = ContSplit::KMeans;
  km.per_node_bins = 6;
  const auto ds = choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, scan);
  const auto dk = choose_split(f.hist, f.layout, f.ds.schema(), f.mapper, km);
  EXPECT_GE(ds.gain, dk.gain - 1e-12)
      << "restricting candidates cannot increase the best gain";
}

TEST(ChooseSplit, CodeRoutingEqualsRawThresholdRouting) {
  // Every Threshold test a micro-bin grower picks cuts at a micro-bin
  // boundary, so routing a row by its slot code must agree with comparing
  // its raw value, for every row of the training set.
  for (const int function : {2, 7}) {
    const data::Dataset raw =
        data::quest_generate(3000, {.function = function, .seed = 31});
    const SlotMapper mapper(raw, 32);
    for (const ContSplit cs :
         {ContSplit::ThresholdScan, ContSplit::KMeans, ContSplit::Quantile}) {
      GrowOptions opt;
      opt.cont_split = cs;
      const Tree tree = grow_bfs(raw, opt);
      int thresholds = 0;
      for (int id = 0; id < tree.num_nodes(); ++id) {
        const SplitTest& t = tree.node(id).test;
        if (t.kind != SplitTest::Kind::Threshold) continue;
        ++thresholds;
        ASSERT_GE(t.slot_threshold, 0);
        for (std::size_t row = 0; row < raw.num_rows(); ++row) {
          const int by_value = raw.cont(t.attr, row) < t.threshold ? 0 : 1;
          ASSERT_EQ(t.child_of_slot(mapper.slot(t.attr, row)), by_value)
              << "function " << function << " node " << id << " row " << row;
        }
      }
      EXPECT_GT(thresholds, 0) << "function " << function;
    }
  }
}

}  // namespace
}  // namespace pdt::dtree
