#include "dtree/split.hpp"

#include <algorithm>
#include <cassert>

#include "data/discretize.hpp"
#include "dtree/histogram.hpp"
#include "dtree/split_eval.hpp"

namespace pdt::dtree {

namespace {

/// Candidate slot boundaries for a continuous attribute under per-node
/// discretization: the micro-histogram is re-binned by KMeans/Quantile and
/// only the resulting coarse boundaries are evaluated.
std::vector<int> per_node_candidates(std::span<const std::int64_t> table,
                                     const SlotMapper& mapper, int attr,
                                     int slots, int num_classes,
                                     const GrowOptions& opt) {
  std::vector<data::WeightedValue> values;
  values.reserve(static_cast<std::size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    double mass = 0.0;
    for (int c = 0; c < num_classes; ++c) {
      mass += static_cast<double>(
          table[static_cast<std::size_t>(s * num_classes + c)]);
    }
    if (mass > 0.0) {
      values.push_back({mapper.bin_center(attr, s), mass});
    }
  }
  const std::vector<double> cuts =
      opt.cont_split == ContSplit::KMeans
          ? data::kmeans_boundaries(values, opt.per_node_bins)
          : data::quantile_boundaries(values, opt.per_node_bins);
  std::vector<int> out;
  for (double cut : cuts) {
    const int t = data::bin_of(cut, mapper.boundaries(attr)) - 1;
    if (t >= 0 && t <= slots - 2) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

SplitDecision choose_split(std::span<const std::int64_t> hist,
                           const AttrLayout& layout,
                           const data::Schema& schema,
                           const SlotMapper& mapper, const GrowOptions& opt) {
  const int c_num = layout.num_classes();
  const std::vector<std::int64_t> parent = class_counts(hist, layout);
  BestTracker tracker(parent, opt);
  if (tracker.forced_leaf()) return tracker.take();

  std::vector<std::int64_t> left(static_cast<std::size_t>(c_num));
  for (int a = 0; a < layout.num_attributes(); ++a) {
    const int slots = layout.slots(a);
    const auto table = hist.subspan(static_cast<std::size_t>(layout.offset(a)),
                                    static_cast<std::size_t>(slots * c_num));
    const data::Attribute& attr = schema.attr(a);

    if (attr.is_continuous() && opt.cont_split != ContSplit::ThresholdScan) {
      // Per-node discretization (Section 3.4): only the KMeans/Quantile
      // boundaries are candidates.
      const std::vector<int> candidates =
          per_node_candidates(table, mapper, a, slots, c_num, opt);
      std::fill(left.begin(), left.end(), 0);
      std::size_t cand_i = 0;
      for (int t = 0; t <= slots - 2; ++t) {
        for (int c = 0; c < c_num; ++c) {
          left[static_cast<std::size_t>(c)] +=
              table[static_cast<std::size_t>(t * c_num + c)];
        }
        if (cand_i >= candidates.size() || candidates[cand_i] != t) continue;
        ++cand_i;
        SplitTest test;
        test.kind = SplitTest::Kind::Threshold;
        test.attr = a;
        test.slot_threshold = t;
        test.threshold = mapper.boundary(a, t);
        tracker.offer_binary(left, std::move(test));
      }
      continue;
    }
    if (attr.is_continuous()) {
      tracker.offer_ordered_table(a, table, slots, SplitTest::Kind::Threshold,
                                  [&](int t) { return mapper.boundary(a, t); });
      continue;
    }
    if (attr.ordered) {
      tracker.offer_ordered_table(a, table, slots,
                                  SplitTest::Kind::OrderedSlot,
                                  [](int t) { return static_cast<double>(t); });
      continue;
    }
    tracker.offer_nominal(a, table, slots);
  }
  return tracker.take();
}

}  // namespace pdt::dtree
