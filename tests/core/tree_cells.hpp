// The histogram kernel's work counter (ParResult::cells_accumulated)
// computed from a grown tree alone, shared by the work-counter and the
// model-identity tests so the derivation rule is written out once.
#pragma once

#include <cstdint>
#include <set>

#include "dtree/slots.hpp"
#include "dtree/tree.hpp"

namespace pdt::core {

struct TreeCells {
  /// Kernel cells: every histogrammed node's rows x attributes, less the
  /// largest child of every split whose children are below max_depth and
  /// whose largest child holds >= layout.total() rows (derived as parent
  /// minus siblings).
  std::int64_t derived = 0;
  /// The same sum without subtraction: the cells the virtual machine is
  /// charged for.
  std::int64_t full = 0;
  /// Cells of frontier nodes in a derived family: a resume has no
  /// histogram for them and accumulates them again.
  std::int64_t lost = 0;
};

/// `frontier` names the nodes of a checkpoint cut not yet histogrammed.
/// A split that derives accumulates its smaller children right after its
/// partition, so those count even when they are still on the frontier.
inline TreeCells tree_cells(const dtree::Tree& tree,
                            const dtree::AttrLayout& layout, int max_depth,
                            const std::set<int>& frontier = {}) {
  const std::int64_t attrs = layout.num_attributes();
  TreeCells out;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const dtree::Node& n = tree.node(id);
    if (n.depth < max_depth && frontier.count(id) == 0) {
      out.full += n.num_records() * attrs;
      out.derived += n.num_records() * attrs;
    }
    if (n.is_leaf() || n.depth + 1 >= max_depth) continue;
    int big = n.first_child;
    for (int k = 1; k < n.test.num_children; ++k) {
      if (tree.node(n.first_child + k).num_records() >
          tree.node(big).num_records()) {
        big = n.first_child + k;
      }
    }
    if (tree.node(big).num_records() < layout.total()) continue;
    for (int k = 0; k < n.test.num_children; ++k) {
      const int child = n.first_child + k;
      const std::int64_t cells = tree.node(child).num_records() * attrs;
      const bool pending = frontier.count(child) != 0;
      if (pending) out.lost += cells;
      if (child == big && !pending) out.derived -= cells;
      if (child != big && pending) out.derived += cells;
    }
  }
  return out;
}

}  // namespace pdt::core
