// Shared split-candidate evaluation.
//
// Every builder in this repository — the slot/histogram growers, the
// C4.5-style exact grower, and the SLIQ/SPRINT attribute-list growers —
// funnels its candidates through BestTracker, so the deterministic
// tie-breaking (higher gain, then lower attribute, then earlier candidate)
// is defined in exactly one place and "different algorithms grow the same
// tree" is a meaningful, testable statement.
#pragma once

#include <optional>
#include <span>

#include "dtree/split.hpp"

namespace pdt::dtree {

/// Accumulates the best split seen so far. Candidates must be offered in
/// deterministic order (attributes ascending, thresholds ascending);
/// strictly-greater gain wins, so the first-seen candidate prevails on
/// ties.
class BestTracker {
 public:
  BestTracker(std::span<const std::int64_t> parent_counts,
              const GrowOptions& opt);

  /// True when the node must stay a leaf regardless of candidates
  /// (too small or pure).
  [[nodiscard]] bool forced_leaf() const { return forced_leaf_; }

  /// Offer a binary split: `left` is the class-count vector of child 0;
  /// `test` carries the attr/kind/threshold/subset fields (num_children
  /// is set by the tracker). No-op if either side would be empty.
  void offer_binary(std::span<const std::int64_t> left, SplitTest test);

  /// Offer a multiway split over a full (slots x classes) table.
  /// No-op unless at least two children are non-empty.
  void offer_multiway(int attr, std::span<const std::int64_t> table,
                      int slots);

  /// Evaluate a nominal attribute's (slots x classes) table under the
  /// configured policy: a Subset prefix scan in class-0-probability order
  /// (Binary policy) or one Multiway candidate (Multiway policy).
  void offer_nominal(int attr, std::span<const std::int64_t> table,
                     int slots);

  /// Evaluate an ordered attribute's (slots x classes) table: every slot
  /// boundary is a binary candidate. `kind` is Threshold or OrderedSlot;
  /// for Threshold the real-valued cut for boundary t is
  /// `threshold_of(t)`.
  template <typename ThresholdFn>
  void offer_ordered_table(int attr, std::span<const std::int64_t> table,
                           int slots, SplitTest::Kind kind,
                           ThresholdFn threshold_of) {
    std::vector<std::int64_t> left(static_cast<std::size_t>(num_classes_), 0);
    for (int t = 0; t <= slots - 2; ++t) {
      for (int c = 0; c < num_classes_; ++c) {
        left[static_cast<std::size_t>(c)] +=
            table[static_cast<std::size_t>(t * num_classes_ + c)];
      }
      SplitTest test;
      test.kind = kind;
      test.attr = attr;
      test.slot_threshold = t;
      test.threshold = kind == SplitTest::Kind::Threshold
                           ? threshold_of(t)
                           : static_cast<double>(t);
      offer_binary(left, std::move(test));
    }
  }

  /// The winning decision (Leaf if nothing beat min_gain).
  [[nodiscard]] SplitDecision take();

  [[nodiscard]] std::span<const std::int64_t> parent() const {
    return parent_;
  }
  [[nodiscard]] std::int64_t parent_total() const { return n_; }

 private:
  /// Gain of the binary split whose child 0 has class counts `left`
  /// (left in scratch_both_ together with child 1's), or nullopt when
  /// either side would be empty.
  [[nodiscard]] std::optional<double> binary_gain(
      std::span<const std::int64_t> left);
  /// Make `test` (a binary split of gain `g` > best_gain_, child counts in
  /// scratch_both_) the current winner.
  void adopt_binary(double g, SplitTest test);

  /// Track the top-2 gains on *distinct* attributes over every valid
  /// candidate (no min_gain floor): when a winner exists it is always the
  /// overall best, so top2 is the best rival attribute — the runner-up
  /// reported in SplitDecision. Strictly-greater updates keep the
  /// first-seen-wins determinism of the main tracker.
  void note_candidate(int attr, double g);

  std::span<const std::int64_t> parent_;
  const GrowOptions* opt_;
  int num_classes_;
  std::int64_t n_;
  bool forced_leaf_ = false;
  double best_gain_;
  SplitDecision best_;
  std::vector<std::int64_t> scratch_both_;
  double top1_gain_;
  int top1_attr_ = -1;
  double top2_gain_;
  int top2_attr_ = -1;
};

}  // namespace pdt::dtree
