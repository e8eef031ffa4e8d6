// Split tests and the split chooser.
//
// choose_split() is a pure function of a node's *global* flat histogram.
// The serial builder evaluates it on the histogram of all rows; the
// parallel formulations evaluate it on the all-reduced sum of per-processor
// local histograms — identical input, identical decision, which is what
// guarantees the parallel algorithms grow exactly the serial tree (the
// paper's formulations have the same property; tests enforce it).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dtree/criteria.hpp"
#include "dtree/slots.hpp"

namespace pdt::dtree {

class SplitObserver;  // tree.hpp: passive expand/make_leaf hook

/// How categorical attributes are split.
enum class SplitPolicy {
  Binary,    ///< binary everywhere: thresholds on ordered attrs, value
             ///< subsets on nominal attrs (the paper's experiments)
  Multiway,  ///< one child per value for nominal attrs (C4.5 default)
};

/// How candidate thresholds for continuous attributes are derived from the
/// per-node micro-histogram (Section 3.4's discretization-at-every-node).
enum class ContSplit {
  ThresholdScan,  ///< every micro-bin boundary is a candidate
  KMeans,         ///< SPEC [23]: 1-D clustering picks <= per_node_bins bins
  Quantile,       ///< CLOUDS [3]: equi-depth quantiles pick the bins
};

struct GrowOptions {
  Criterion criterion = Criterion::Entropy;
  SplitPolicy policy = SplitPolicy::Binary;
  ContSplit cont_split = ContSplit::ThresholdScan;
  /// Micro-bins per continuous attribute (the M of continuous histograms).
  int cont_bins = 32;
  /// Target bin count for per-node KMeans / Quantile discretization.
  int per_node_bins = 8;
  int max_depth = 64;
  /// Nodes with fewer records become leaves.
  std::int64_t min_records = 2;
  /// Minimum impurity decrease for a split to be adopted.
  double min_gain = 1e-9;
  /// Passive split observer wired into the grown Tree (nullptr = off).
  /// Never influences the decision path; see obs::SplitAudit.
  SplitObserver* split_observer = nullptr;
};

struct SplitTest {
  enum class Kind {
    Leaf,         ///< no test: terminal node
    Threshold,    ///< continuous attr: value <= threshold -> child 0
    OrderedSlot,  ///< ordered categorical: slot <= slot_threshold -> child 0
    Subset,       ///< nominal: in_left[value] -> child 0
    Multiway,     ///< nominal: child = value
  };
  Kind kind = Kind::Leaf;
  int attr = -1;
  double threshold = 0.0;   ///< Threshold only: real-valued cut
  int slot_threshold = -1;  ///< Threshold/OrderedSlot: last slot going left
  std::vector<std::uint8_t> in_left;  ///< Subset only: one flag per value
  int num_children = 0;

  /// Which child a training row in slot `slot` routes to (inline: the
  /// row partitions call it once per row).
  [[nodiscard]] int child_of_slot(int slot) const {
    switch (kind) {
      case Kind::Threshold:
      case Kind::OrderedSlot:
        return slot <= slot_threshold ? 0 : 1;
      case Kind::Subset:
        return in_left[static_cast<std::size_t>(slot)] ? 0 : 1;
      case Kind::Multiway:
        return slot;
      case Kind::Leaf:
        return 0;
    }
    return 0;
  }
  [[nodiscard]] bool is_leaf() const { return kind == Kind::Leaf; }
};

struct SplitDecision {
  SplitTest test;  ///< Kind::Leaf when the node should not be split
  double gain = 0.0;
  /// num_children x num_classes counts implied by the chosen test.
  std::vector<std::int64_t> child_counts;
  /// Best gain offered on any attribute *other than* the winner — the
  /// decision margin (gain - runner_up_gain) a voting formulation would
  /// need to respect. -1 attr when no second attribute had a candidate.
  double runner_up_gain = 0.0;
  int runner_up_attr = -1;
};

/// Decide the best split for a node from its global histogram. Returns a
/// Leaf decision when the node is pure, too small, or no candidate clears
/// min_gain. Deterministic: ties break toward the lower attribute index,
/// then the lower threshold.
[[nodiscard]] SplitDecision choose_split(std::span<const std::int64_t> hist,
                                         const AttrLayout& layout,
                                         const data::Schema& schema,
                                         const SlotMapper& mapper,
                                         const GrowOptions& opt);

}  // namespace pdt::dtree
