#include "dtree/slots.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "data/discretize.hpp"
#include "data/golf.hpp"
#include "data/quest.hpp"

namespace pdt::dtree {
namespace {

TEST(AttrLayout, OffsetsAndTotals) {
  const data::Schema s = data::golf_schema();
  const AttrLayout layout(s, 8);
  // Outlook(3), Temp(8 bins), Humidity(8 bins), Windy(2); 2 classes.
  EXPECT_EQ(layout.num_attributes(), 4);
  EXPECT_EQ(layout.num_classes(), 2);
  EXPECT_EQ(layout.slots(0), 3);
  EXPECT_EQ(layout.slots(1), 8);
  EXPECT_EQ(layout.slots(3), 2);
  EXPECT_EQ(layout.offset(0), 0);
  EXPECT_EQ(layout.offset(1), 6);
  EXPECT_EQ(layout.offset(2), 22);
  EXPECT_EQ(layout.offset(3), 38);
  EXPECT_EQ(layout.total(), 42);
  EXPECT_EQ(layout.index(1, 2, 1), 6 + 2 * 2 + 1);
}

TEST(AttrLayout, HistWordsMatchPaperFormulaForAllCategorical) {
  // For all-categorical data, total = C * sum(M_a) = C * A_d * M.
  const data::Dataset raw = data::quest_generate(10, {});
  const AttrLayout layout(raw.schema(), 16);
  const data::Schema& s = raw.schema();
  int expected = 0;
  for (int a = 0; a < s.num_attributes(); ++a) {
    expected += (s.attr(a).is_categorical() ? s.attr(a).cardinality : 16) * 2;
  }
  EXPECT_EQ(layout.total(), expected);
}

TEST(SlotMapper, CategoricalPassThrough) {
  const data::Dataset golf = data::golf_dataset();
  const SlotMapper mapper(golf, 4);
  for (std::size_t i = 0; i < golf.num_rows(); ++i) {
    EXPECT_EQ(mapper.slot(data::golf_attr::kOutlook, i),
              golf.cat(data::golf_attr::kOutlook, i));
    EXPECT_EQ(mapper.slot(data::golf_attr::kWindy, i),
              golf.cat(data::golf_attr::kWindy, i));
  }
}

TEST(SlotMapper, ContinuousBinsCoverRange) {
  const data::Dataset golf = data::golf_dataset();
  const SlotMapper mapper(golf, 4);
  for (std::size_t i = 0; i < golf.num_rows(); ++i) {
    const int s = mapper.slot(data::golf_attr::kHumidity, i);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
  // Humidity range [65, 96]: min maps to slot 0, max to slot 3.
  EXPECT_EQ(mapper.slot_of_value(data::golf_attr::kHumidity, 65.0), 0);
  EXPECT_EQ(mapper.slot_of_value(data::golf_attr::kHumidity, 96.0), 3);
}

TEST(SlotMapper, BoundariesAreMonotoneAndConsistent) {
  const data::Dataset ds = data::quest_generate(500, {.seed = 6});
  const SlotMapper mapper(ds, 32);
  const int attr = data::quest_attr::kSalary;
  const auto& cuts = mapper.boundaries(attr);
  ASSERT_EQ(cuts.size(), 31u);
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
  }
  // slot_of_value is the inverse of the boundary relation: values strictly
  // below boundary(s) map to slots <= s.
  for (int s = 0; s < 31; ++s) {
    EXPECT_EQ(mapper.slot_of_value(attr, mapper.boundary(attr, s) - 1e-6), s);
    EXPECT_EQ(mapper.slot_of_value(attr, mapper.boundary(attr, s)), s + 1);
  }
}

TEST(SlotMapper, BinCentersBetweenBoundaries) {
  const data::Dataset ds = data::quest_generate(500, {.seed = 8});
  const SlotMapper mapper(ds, 8);
  const int attr = data::quest_attr::kAge;
  const auto [lo, hi] = ds.cont_range(attr);
  for (int s = 0; s < 8; ++s) {
    const double c = mapper.bin_center(attr, s);
    EXPECT_GE(c, lo);
    EXPECT_LE(c, hi);
    if (s > 0) {
      EXPECT_GE(c, mapper.boundary(attr, s - 1));
    }
    if (s < 7) {
      EXPECT_LE(c, mapper.boundary(attr, s));
    }
  }
}

/// Every cell: the code table of a continuous attribute holds exactly the
/// slot data::bin_of gives against the mapper's cuts, a categorical
/// attribute's slot column is the dataset's own byte column, and the slot
/// column agrees with slot().
void expect_codes_match_bin_of(const data::Dataset& ds,
                               const SlotMapper& mapper) {
  for (int a = 0; a < ds.num_attributes(); ++a) {
    const std::uint8_t* col = mapper.slot_column(a);
    const bool categorical = ds.schema().attr(a).is_categorical();
    if (categorical) {
      ASSERT_EQ(col, ds.cat_column(a).data()) << "attr " << a;
    }
    for (std::size_t row = 0; row < ds.num_rows(); ++row) {
      ASSERT_EQ(col[row], mapper.slot(a, row)) << "attr " << a;
      if (categorical) {
        ASSERT_EQ(mapper.slot(a, row), ds.cat(a, row)) << "attr " << a;
        continue;
      }
      const int want = data::bin_of(ds.cont(a, row), mapper.boundaries(a));
      ASSERT_EQ(mapper.slot(a, row), want)
          << "attr " << a << " row " << row << " value " << ds.cont(a, row)
          << " bins " << mapper.cont_bins();
    }
  }
}

/// A dataset of continuous columns, one row per index of `cols[0]`.
data::Dataset continuous_columns(
    const std::vector<std::vector<double>>& cols) {
  std::vector<data::Attribute> attrs;
  for (std::size_t a = 0; a < cols.size(); ++a) {
    attrs.push_back(data::Attribute::continuous("x" + std::to_string(a)));
  }
  data::Dataset ds(data::Schema(std::move(attrs), 2), cols[0].size());
  for (std::size_t row = 0; row < cols[0].size(); ++row) {
    ds.add_row(static_cast<std::int32_t>(row % 2));
    for (std::size_t a = 0; a < cols.size(); ++a) {
      ds.set_cont(static_cast<int>(a), row, cols[a][row]);
    }
  }
  return ds;
}

TEST(SlotMapperCodes, QuestCellsEqualBinOf) {
  // Raw Quest mixes continuous and categorical attributes.
  const data::Dataset ds = data::quest_generate(5000, {.function = 7, .seed = 9});
  for (const int bins : {2, 32, 256}) {
    expect_codes_match_bin_of(ds, SlotMapper(ds, bins));
  }
}

TEST(SlotMapperCodes, HandMadeColumnsOnCutsEndsAndConstants) {
  for (const int bins : {2, 32, 256}) {
    // Ranges whose widths do not divide evenly, so the O(1) guess lands
    // one bin off near the cuts.
    for (const auto& [lo, hi] : {std::pair{-3.7, 12.1}, std::pair{0.1, 0.3},
                                std::pair{20000.0, 150000.0}}) {
      std::vector<double> col{lo, hi, 0.5 * (lo + hi)};
      for (const double cut : data::uniform_boundaries(lo, hi, bins)) {
        col.push_back(cut);
        col.push_back(std::nextafter(cut, lo));
        col.push_back(std::nextafter(cut, hi));
      }
      col.push_back(std::nextafter(lo, hi));
      col.push_back(std::nextafter(hi, lo));
      // A constant column (lo == hi: every cut equals the value).
      const std::vector<double> constant(col.size(), lo);
      const data::Dataset ds = continuous_columns({col, constant});
      const SlotMapper mapper(ds, bins);
      ASSERT_EQ(mapper.boundaries(0).size(), static_cast<std::size_t>(bins - 1));
      expect_codes_match_bin_of(ds, mapper);
      EXPECT_EQ(mapper.slot(0, 0), 0);         // lo
      EXPECT_EQ(mapper.slot(0, 1), bins - 1);  // hi
      EXPECT_EQ(mapper.slot(1, 0), bins - 1);  // constant: on every cut
      // On-cut values go right.
      for (int t = 0; t < bins - 1; ++t) {
        EXPECT_EQ(mapper.slot(0, 3 + 3 * static_cast<std::size_t>(t)), t + 1);
      }
    }
  }
}

TEST(SlotMapperCodes, NonFiniteValuesFallBackToBinOf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const data::Dataset ds = continuous_columns(
      {{0.0, 1.0, nan, 0.5, 0.25}, {0.0, 1.0, 0.5, inf, -inf}});
  expect_codes_match_bin_of(ds, SlotMapper(ds, 32));
}

// The range the codes are cut from is std::minmax_element's pick, bit
// for bit, also where it depends on which NaN, infinity or signed zero
// the scan meets first (a faster cont_range must keep these picks); and
// every code still equals bin_of.
TEST(SlotMapperCodes, RangeIsMinmaxElementsPick) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cols = {
      {3.0, -1.0, 7.5, 2.0, 7.5, -1.0, 0.5},
      {nan, 1.0, 2.0, 3.0, 4.0},
      {1.0, nan, 2.0, 3.0, 4.0, 0.5},
      {1.0, 2.0, 3.0, nan},
      {1.0, 2.0, inf, nan, -2.0},
      {-inf, 1.0, 2.0, inf, 3.0},
      {0.0, -0.0, 1.0, 2.0, 0.0},
      {-0.0, 0.0, -1.0, -0.0, 0.0},
      {-0.0, 0.0, -0.0, 0.0, -0.0},
      {0.0, -0.0},
      {4.25, 4.25, 4.25, 4.25, 4.25},
      {-2.0}};
  for (const std::vector<double>& col : cols) {
    const data::Dataset ds = continuous_columns({col});
    const auto [lo, hi] = ds.cont_range(0);
    const auto [want_lo, want_hi] = std::minmax_element(col.begin(), col.end());
    const auto same = [](double a, double b) {
      return std::memcmp(&a, &b, sizeof a) == 0;
    };
    std::ostringstream name;
    for (const double v : col) name << v << ' ';
    EXPECT_TRUE(same(lo, *want_lo)) << name.str() << "lo " << lo;
    EXPECT_TRUE(same(hi, *want_hi)) << name.str() << "hi " << hi;
    for (const int bins : {2, 32}) {
      expect_codes_match_bin_of(ds, SlotMapper(ds, bins));
    }
  }
}

TEST(SlotMapperCodes, MoreThan256BinsIsRejected) {
  const data::Dataset ds = data::quest_generate(50, {.seed = 3});
  EXPECT_NO_THROW(SlotMapper(ds, data::kMaxSlots));
  EXPECT_THROW(SlotMapper(ds, 257), std::invalid_argument);
}

}  // namespace
}  // namespace pdt::dtree
