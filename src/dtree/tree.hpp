// The classification decision tree.
//
// Nodes live in an arena indexed by node id; children of a node are
// contiguous. The arena is a deque, so growing it never relocates the
// existing nodes (no doubling transient at the peak). The tree is grown
// by repeatedly calling expand() with a SplitDecision — the serial
// builder and all three parallel formulations use this same expansion
// path, so structural equality between their outputs is meaningful (and
// tested).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "dtree/split.hpp"

namespace pdt::dtree {

struct Node {
  SplitTest test;            ///< Leaf kind for terminal nodes
  int parent = -1;
  int first_child = -1;      ///< children occupy [first_child, +num_children)
  int depth = 0;
  std::vector<std::int64_t> class_counts;
  int majority = 0;          ///< predicted class at this node

  [[nodiscard]] bool is_leaf() const { return test.is_leaf(); }
  [[nodiscard]] std::int64_t num_records() const;
};

class Tree;

/// Passive hook on the tree's two mutations. Observers must never alter
/// growth (no calls back into the tree's mutating API); attaching one is
/// guaranteed not to change the grown tree, the simulated clocks, or any
/// export — the same contract as mpsim::ChargeObserver. obs::SplitAudit
/// is the canonical implementation.
class SplitObserver {
 public:
  virtual ~SplitObserver() = default;
  /// Fired by Tree::expand() after the children were appended; `d` is the
  /// adopted decision (gain, runner-up margin, child counts).
  virtual void on_expand(const Tree& tree, int id, const SplitDecision& d) = 0;
  /// Fired by Tree::make_leaf(): the subtree under `id` was detached.
  virtual void on_make_leaf(int id) = 0;
  /// Record-count annotation: `records` rows of `rank`'s local store fed
  /// the expansion of node `id` (serial builders report rank 0). Fired by
  /// the builders, not the tree, since the tree never sees rows.
  virtual void on_feed(int id, int rank, std::int64_t records) = 0;
};

class Tree {
 public:
  Tree() = default;
  /// Start a tree whose root has the given class counts.
  explicit Tree(std::vector<std::int64_t> root_counts);

  [[nodiscard]] int root() const { return 0; }
  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const Node& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int num_leaves() const;
  [[nodiscard]] int depth() const;

  /// Apply a (non-Leaf) SplitDecision to node `id`: records the test and
  /// appends its children. Children that receive no records become leaves
  /// labeled with the parent's majority class (Hunt's method, Case 3).
  /// Returns the first child's id.
  int expand(int id, const SplitDecision& d);

  /// Replace the subtree under `id` by a leaf (used by pruning).
  /// Descendant nodes are detached, not reclaimed.
  void make_leaf(int id);

  /// Child index a record routes to at node `id`.
  [[nodiscard]] int route(int id, const data::Dataset& ds,
                          std::size_t row) const;
  /// Class prediction for a record.
  [[nodiscard]] int classify(const data::Dataset& ds, std::size_t row) const;

  /// Structural equality: same shape, same tests, same majorities, same
  /// class counts. (Detached pruned nodes are ignored.)
  [[nodiscard]] bool same_as(const Tree& other) const;

  /// Multi-line ASCII rendering (value names resolved via the schema).
  [[nodiscard]] std::string to_string(const data::Schema& schema,
                                      int max_depth = 1 << 20) const;

  /// Attach a passive split observer (nullptr detaches; the default).
  /// One branch per expand/make_leaf when detached.
  void set_split_observer(SplitObserver* observer) { observer_ = observer; }
  [[nodiscard]] SplitObserver* split_observer() const { return observer_; }

 private:
  [[nodiscard]] bool same_subtree(const Tree& other, int a, int b) const;
  void print_node(std::string& out, const data::Schema& schema, int id,
                  int indent, int max_depth) const;

  std::deque<Node> nodes_;
  SplitObserver* observer_ = nullptr;
};

/// Majority class of a count vector (ties -> lower class id); `fallback`
/// when all counts are zero.
[[nodiscard]] int majority_class(std::span<const std::int64_t> counts,
                                 int fallback = 0);

}  // namespace pdt::dtree
