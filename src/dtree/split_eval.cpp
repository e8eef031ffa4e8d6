#include "dtree/split_eval.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace pdt::dtree {

BestTracker::BestTracker(std::span<const std::int64_t> parent_counts,
                         const GrowOptions& opt)
    : parent_(parent_counts),
      opt_(&opt),
      num_classes_(static_cast<int>(parent_counts.size())),
      n_(total(parent_counts)),
      best_gain_(opt.min_gain),
      scratch_both_(static_cast<std::size_t>(2 * num_classes_)),
      top1_gain_(-std::numeric_limits<double>::infinity()),
      top2_gain_(-std::numeric_limits<double>::infinity()) {
  int nonzero = 0;
  for (const auto c : parent_) nonzero += c > 0 ? 1 : 0;
  forced_leaf_ = n_ < opt.min_records || nonzero <= 1;
}

std::optional<double> BestTracker::binary_gain(
    std::span<const std::int64_t> left) {
  const std::int64_t left_n = total(left);
  if (left_n == 0 || left_n == n_) return std::nullopt;
  for (int c = 0; c < num_classes_; ++c) {
    scratch_both_[static_cast<std::size_t>(c)] =
        left[static_cast<std::size_t>(c)];
    scratch_both_[static_cast<std::size_t>(num_classes_ + c)] =
        parent_[static_cast<std::size_t>(c)] -
        left[static_cast<std::size_t>(c)];
  }
  return gain(opt_->criterion, parent_, scratch_both_, num_classes_);
}

void BestTracker::adopt_binary(double g, SplitTest test) {
  best_gain_ = g;
  best_.gain = g;
  test.num_children = 2;
  best_.test = std::move(test);
  best_.child_counts = scratch_both_;
}

void BestTracker::offer_binary(std::span<const std::int64_t> left,
                               SplitTest test) {
  if (forced_leaf_) return;
  const std::optional<double> g = binary_gain(left);
  if (!g) return;
  note_candidate(test.attr, *g);
  if (*g > best_gain_) adopt_binary(*g, std::move(test));
}

void BestTracker::offer_multiway(int attr,
                                 std::span<const std::int64_t> table,
                                 int slots) {
  if (forced_leaf_) return;
  int nonempty = 0;
  for (int s = 0; s < slots; ++s) {
    std::int64_t ns = 0;
    for (int c = 0; c < num_classes_; ++c) {
      ns += table[static_cast<std::size_t>(s * num_classes_ + c)];
    }
    nonempty += ns > 0 ? 1 : 0;
  }
  if (nonempty < 2) return;
  const double g = gain(opt_->criterion, parent_, table, num_classes_);
  note_candidate(attr, g);
  if (g > best_gain_) {
    best_gain_ = g;
    best_.gain = g;
    best_.test = SplitTest{};
    best_.test.kind = SplitTest::Kind::Multiway;
    best_.test.attr = attr;
    best_.test.num_children = slots;
    best_.child_counts.assign(table.begin(), table.end());
  }
}

void BestTracker::offer_nominal(int attr, std::span<const std::int64_t> table,
                                int slots) {
  if (forced_leaf_) return;
  if (opt_->policy == SplitPolicy::Multiway) {
    offer_multiway(attr, table, slots);
    return;
  }
  // Binary subset split: order values by class-0 probability (optimal for
  // two classes with Gini [Breiman et al. 84]; a strong heuristic
  // otherwise) and scan prefixes.
  std::vector<int> order;
  for (int s = 0; s < slots; ++s) {
    std::int64_t ns = 0;
    for (int c = 0; c < num_classes_; ++c) {
      ns += table[static_cast<std::size_t>(s * num_classes_ + c)];
    }
    if (ns > 0) order.push_back(s);
  }
  if (order.size() < 2) return;
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    std::int64_t nx = 0, ny = 0;
    for (int c = 0; c < num_classes_; ++c) {
      nx += table[static_cast<std::size_t>(x * num_classes_ + c)];
      ny += table[static_cast<std::size_t>(y * num_classes_ + c)];
    }
    const double px =
        static_cast<double>(table[static_cast<std::size_t>(x * num_classes_)]) /
        static_cast<double>(nx);
    const double py =
        static_cast<double>(table[static_cast<std::size_t>(y * num_classes_)]) /
        static_cast<double>(ny);
    if (px != py) return px > py;
    return x < y;
  });

  std::vector<std::int64_t> left(static_cast<std::size_t>(num_classes_), 0);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(slots), 0);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    const int s = order[k];
    mask[static_cast<std::size_t>(s)] = 1;
    for (int c = 0; c < num_classes_; ++c) {
      left[static_cast<std::size_t>(c)] +=
          table[static_cast<std::size_t>(s * num_classes_ + c)];
    }
    const std::optional<double> g = binary_gain(left);
    if (!g) continue;
    note_candidate(attr, *g);
    // Only a new winner needs its routing table.
    if (!(*g > best_gain_)) continue;
    const std::int64_t left_n = total(left);
    // Values unseen at this node route to the heavier child.
    std::vector<std::uint8_t> full = mask;
    const bool empty_to_left = left_n >= n_ - left_n;
    for (int s2 = 0; s2 < slots; ++s2) {
      std::int64_t ns = 0;
      for (int c = 0; c < num_classes_; ++c) {
        ns += table[static_cast<std::size_t>(s2 * num_classes_ + c)];
      }
      if (ns == 0) {
        full[static_cast<std::size_t>(s2)] = empty_to_left ? 1 : 0;
      }
    }
    SplitTest test;
    test.kind = SplitTest::Kind::Subset;
    test.attr = attr;
    test.in_left = std::move(full);
    adopt_binary(*g, std::move(test));
  }
}

void BestTracker::note_candidate(int attr, double g) {
  if (g > top1_gain_) {
    if (attr != top1_attr_) {
      top2_gain_ = top1_gain_;
      top2_attr_ = top1_attr_;
    }
    top1_gain_ = g;
    top1_attr_ = attr;
  } else if (attr != top1_attr_ && g > top2_gain_) {
    top2_gain_ = g;
    top2_attr_ = attr;
  }
}

SplitDecision BestTracker::take() {
  // A winner (if any) is the overall max, i.e. top1 — so top2 is the
  // best candidate on a different attribute. Leaf decisions keep the
  // defaults (0.0 / -1): no decision was made, so no margin exists.
  if (!best_.test.is_leaf() && top2_attr_ >= 0) {
    best_.runner_up_gain = top2_gain_;
    best_.runner_up_attr = top2_attr_;
  }
  return std::move(best_);
}

}  // namespace pdt::dtree
