#include "dtree/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <sstream>

#include "dtree/sha256.hpp"

namespace pdt::dtree {

namespace {

// Shortest decimal that round-trips to the same double — the same rule
// tools/common's json_double_exact uses, so the digest bytes match what
// any tools-side re-serialization would produce.
std::string double_exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return std::string(buf);
}

std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* kind_name(SplitTest::Kind k) {
  switch (k) {
    case SplitTest::Kind::Leaf: return "leaf";
    case SplitTest::Kind::Threshold: return "threshold";
    case SplitTest::Kind::OrderedSlot: return "ordered_slot";
    case SplitTest::Kind::Subset: return "subset";
    case SplitTest::Kind::Multiway: return "multiway";
  }
  return "?";
}

/// Append the decimal rendering of `v` (the same bytes std::to_string
/// gives) without a temporary string.
void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_counts(std::string& out, std::span<const std::int64_t> counts) {
  out += '[';
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (c != 0) out += ',';
    append_int(out, counts[c]);
  }
  out += ']';
}

/// Serialize one node under its canonical ids. `canon_of` maps arena id
/// -> canonical id (-1 for detached nodes, which never appear here).
void append_node(std::string& out, const Node& nd, int canon_id,
                 int canon_parent, int canon_first_child) {
  out += "{\"id\":";
  append_int(out, canon_id);
  out += ",\"parent\":";
  append_int(out, canon_parent);
  out += ",\"first_child\":";
  append_int(out, canon_first_child);
  out += ",\"depth\":";
  append_int(out, nd.depth);
  out += ",\"majority\":";
  append_int(out, nd.majority);
  out += ",\"counts\":";
  append_counts(out, nd.class_counts);
  out += ",\"kind\":\"";
  out += kind_name(nd.test.kind);
  out += '"';
  if (!nd.is_leaf()) {
    out += ",\"attr\":";
    append_int(out, nd.test.attr);
    out += ",\"children\":";
    append_int(out, nd.test.num_children);
    switch (nd.test.kind) {
      case SplitTest::Kind::Threshold:
        out += ",\"threshold\":";
        out += double_exact(nd.test.threshold);
        out += ",\"slot\":";
        append_int(out, nd.test.slot_threshold);
        break;
      case SplitTest::Kind::OrderedSlot:
        out += ",\"slot\":";
        append_int(out, nd.test.slot_threshold);
        break;
      case SplitTest::Kind::Subset: {
        out += ",\"in_left\":[";
        for (std::size_t v = 0; v < nd.test.in_left.size(); ++v) {
          if (v != 0) out += ',';
          out += nd.test.in_left[v] ? '1' : '0';
        }
        out += ']';
        break;
      }
      case SplitTest::Kind::Multiway:
      case SplitTest::Kind::Leaf:
        break;
    }
  }
  out += '}';
}

}  // namespace

std::vector<int> canonical_order(const Tree& tree) {
  std::vector<int> order;
  if (tree.num_nodes() == 0) return order;
  order.reserve(static_cast<std::size_t>(tree.num_nodes()));
  std::deque<int> queue{tree.root()};
  while (!queue.empty()) {
    const int id = queue.front();
    queue.pop_front();
    order.push_back(id);
    const Node& nd = tree.node(id);
    if (nd.is_leaf()) continue;
    for (int k = 0; k < nd.test.num_children; ++k) {
      queue.push_back(nd.first_child + k);
    }
  }
  return order;
}

std::string canonical_nodes_json(const Tree& tree) {
  return canonical_nodes_json(tree, canonical_order(tree));
}

std::string canonical_nodes_json(const Tree& tree,
                                 std::span<const int> order) {
  std::vector<int> canon_of(static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    canon_of[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  // Canonical first_child falls out of the level-order walk: children are
  // enqueued contiguously, so child canonical ids are consecutive and the
  // next unassigned id advances exactly like Tree::expand()'s arena.
  std::string out = "[";
  out.reserve(order.size() * 96);  // ~70 bytes for a two-class node
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k != 0) out += ',';
    const Node& nd = tree.node(order[k]);
    const int canon_parent =
        nd.parent < 0 ? -1 : canon_of[static_cast<std::size_t>(nd.parent)];
    const int canon_first =
        nd.is_leaf() ? -1
                     : canon_of[static_cast<std::size_t>(nd.first_child)];
    append_node(out, nd, static_cast<int>(k), canon_parent, canon_first);
  }
  out += ']';
  return out;
}

std::string model_digest(const Tree& tree) {
  return sha256_hex(canonical_nodes_json(tree));
}

std::string model_json(const Tree& tree, const ModelMeta& meta,
                       std::span<const SplitAuditEntry> audit,
                       double accuracy) {
  const std::vector<int> order = canonical_order(tree);
  const std::string nodes = canonical_nodes_json(tree, order);
  std::string out = "{\"schema\":\"pdt-model-v1\"";
  out += ",\"meta\":{";
  out += "\"harness\":\"" + escaped(meta.harness) + "\"";
  out += ",\"tag\":\"" + escaped(meta.tag) + "\"";
  out += ",\"formulation\":\"" + escaped(meta.formulation) + "\"";
  out += ",\"procs\":" + std::to_string(meta.procs);
  out += ",\"workload\":{\"generator\":\"quest\"";
  out += ",\"function\":" + std::to_string(meta.quest_function);
  out += ",\"seed\":" + std::to_string(meta.train_seed);
  out += ",\"rows\":" + std::to_string(meta.train_rows);
  out += ",\"paper_bins\":";
  out += meta.paper_bins ? "true" : "false";
  out += "}";
  if (meta.eval_seed != 0) {
    out += ",\"eval\":{\"seed\":" + std::to_string(meta.eval_seed);
    out += ",\"rows\":" + std::to_string(meta.eval_rows);
    if (accuracy >= 0.0) out += ",\"accuracy\":" + double_exact(accuracy);
    out += "}";
  }
  out += "}";
  out += ",\"digest\":\"" + sha256_hex(nodes) + "\"";
  out += ",\"num_nodes\":" + std::to_string(static_cast<int>(order.size()));
  out += ",\"num_leaves\":" + std::to_string(tree.num_leaves());
  out += ",\"depth\":" + std::to_string(tree.depth());
  out += ",\"nodes\":" + nodes;

  // Pairing rule: audit entries survive iff their node is a reachable
  // internal node of the *final* tree (a leaf-ified or detached node's
  // decision was revoked), remapped to canonical ids and sorted by them.
  std::vector<int> canon_of(static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    canon_of[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  std::vector<std::pair<int, const SplitAuditEntry*>> paired;
  for (const SplitAuditEntry& e : audit) {
    if (e.node_id < 0 || e.node_id >= tree.num_nodes()) continue;
    if (tree.node(e.node_id).is_leaf()) continue;
    const int canon = canon_of[static_cast<std::size_t>(e.node_id)];
    if (canon < 0) continue;
    paired.emplace_back(canon, &e);
  }
  std::sort(paired.begin(), paired.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!paired.empty()) {
    out += ",\"audit\":[";
    for (std::size_t i = 0; i < paired.size(); ++i) {
      if (i != 0) out += ",";
      const SplitAuditEntry& e = *paired[i].second;
      out += "{\"node\":" + std::to_string(paired[i].first);
      out += ",\"gain\":" + double_exact(e.gain);
      out += ",\"runner_up_gain\":" + double_exact(e.runner_up_gain);
      out += ",\"runner_up_attr\":" + std::to_string(e.runner_up_attr);
      out += ",\"phase\":\"" + escaped(e.phase) + "\"";
      out += ",\"level\":" + std::to_string(e.level);
      out += ",\"per_rank_records\":";
      append_counts(out, e.per_rank_records);
      out += "}";
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

namespace {

/// Cursor over the canonical byte grammar. Every helper either consumes
/// exactly what the writer emitted or records the position of the first
/// mismatch.
class CanonCursor {
 public:
  explicit CanonCursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail();
    pos_ += lit.size();
    return true;
  }

  /// literal() without recording a failure — for probing alternatives.
  [[nodiscard]] bool try_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  [[nodiscard]] bool integer(int* out) {
    std::int64_t wide = 0;
    if (!integer64(&wide)) return false;
    if (wide < INT32_MIN || wide > INT32_MAX) return fail();
    *out = static_cast<int>(wide);
    return true;
  }

  [[nodiscard]] bool integer64(std::int64_t* out) {
    const std::size_t start = pos_;
    bool neg = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      neg = true;
      ++pos_;
    }
    std::uint64_t mag = 0;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      mag = mag * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      if (mag > (std::uint64_t{1} << 63)) {
        pos_ = start;
        return fail();
      }
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return fail();
    }
    *out = neg ? -static_cast<std::int64_t>(mag)
               : static_cast<std::int64_t>(mag);
    return true;
  }

  [[nodiscard]] bool number(double* out) {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return fail();
    *out = v;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  [[nodiscard]] bool counts(std::vector<std::int64_t>* out) {
    out->clear();
    if (!literal("[")) return false;
    if (peek() == ']') return literal("]");
    while (true) {
      std::int64_t v = 0;
      if (!integer64(&v)) return false;
      out->push_back(v);
      if (peek() == ',') {
        if (!literal(",")) return false;
        continue;
      }
      return literal("]");
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  [[nodiscard]] bool done() const { return pos_ == text_.size(); }
  [[nodiscard]] std::size_t pos() const { return pos_; }

  [[nodiscard]] bool fail() {
    if (!failed_) {
      failed_ = true;
      fail_pos_ = pos_;
    }
    return false;
  }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t fail_pos() const { return fail_pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::size_t fail_pos_ = 0;
};

bool parse_one_node(CanonCursor& c, NodeSpec* spec, int* id) {
  spec->test = SplitTest{};
  spec->counts.clear();
  if (!c.literal("{\"id\":") || !c.integer(id)) return false;
  if (!c.literal(",\"parent\":") || !c.integer(&spec->parent)) return false;
  if (!c.literal(",\"first_child\":") || !c.integer(&spec->first_child)) {
    return false;
  }
  if (!c.literal(",\"depth\":") || !c.integer(&spec->depth)) return false;
  if (!c.literal(",\"majority\":") || !c.integer(&spec->majority)) {
    return false;
  }
  if (!c.literal(",\"counts\":") || !c.counts(&spec->counts)) return false;
  if (!c.literal(",\"kind\":\"")) return false;
  static constexpr SplitTest::Kind kKinds[] = {
      SplitTest::Kind::Leaf, SplitTest::Kind::Threshold,
      SplitTest::Kind::OrderedSlot, SplitTest::Kind::Subset,
      SplitTest::Kind::Multiway};
  bool matched = false;
  for (const SplitTest::Kind k : kKinds) {
    if (c.try_literal(std::string(kind_name(k)) + "\"")) {
      spec->test.kind = k;
      matched = true;
      break;
    }
  }
  if (!matched) return c.fail();
  if (spec->test.kind == SplitTest::Kind::Leaf) return c.literal("}");
  if (!c.literal(",\"attr\":") || !c.integer(&spec->test.attr)) return false;
  if (!c.literal(",\"children\":") || !c.integer(&spec->test.num_children)) {
    return false;
  }
  switch (spec->test.kind) {
    case SplitTest::Kind::Threshold: {
      if (!c.literal(",\"threshold\":") || !c.number(&spec->test.threshold)) {
        return false;
      }
      if (!c.literal(",\"slot\":") ||
          !c.integer(&spec->test.slot_threshold)) {
        return false;
      }
      break;
    }
    case SplitTest::Kind::OrderedSlot:
      if (!c.literal(",\"slot\":") ||
          !c.integer(&spec->test.slot_threshold)) {
        return false;
      }
      break;
    case SplitTest::Kind::Subset: {
      if (!c.literal(",\"in_left\":[")) return false;
      spec->test.in_left.clear();
      if (c.peek() != ']') {
        while (true) {
          if (c.peek() != '0' && c.peek() != '1') return c.fail();
          spec->test.in_left.push_back(c.peek() == '1' ? 1 : 0);
          if (!c.literal(c.peek() == '1' ? "1" : "0")) return false;
          if (c.peek() == ',') {
            if (!c.literal(",")) return false;
            continue;
          }
          break;
        }
      }
      if (!c.literal("]")) return false;
      break;
    }
    case SplitTest::Kind::Multiway:
    case SplitTest::Kind::Leaf:
      break;
  }
  return c.literal("}");
}

}  // namespace

std::string parse_canonical_nodes(std::string_view json,
                                  std::vector<NodeSpec>* out) {
  out->clear();
  CanonCursor c(json);
  const auto error_at = [&c]() {
    return "canonical nodes: malformed at byte " +
           std::to_string(c.failed() ? c.fail_pos() : c.pos());
  };
  if (!c.literal("[")) return error_at();
  if (c.peek() != ']') {
    while (true) {
      NodeSpec spec;
      int id = -1;
      if (!parse_one_node(c, &spec, &id)) return error_at();
      if (id != static_cast<int>(out->size())) {
        return "canonical nodes: node " + std::to_string(out->size()) +
               " carries id " + std::to_string(id);
      }
      out->push_back(std::move(spec));
      if (c.peek() == ',') {
        if (!c.literal(",")) return error_at();
        continue;
      }
      break;
    }
  }
  if (!c.literal("]") || !c.done()) return error_at();
  return {};
}

std::string tree_from_nodes(std::span<const NodeSpec> nodes, Tree* out) {
  std::ostringstream err;
  if (nodes.empty()) {
    return "model has no nodes";
  }
  const NodeSpec& root = nodes[0];
  if (root.parent != -1 || root.depth != 0) {
    return "node 0 is not a root (parent/depth mismatch)";
  }
  Tree tree(std::vector<std::int64_t>(root.counts));
  if (tree.node(0).majority != root.majority) {
    err << "node 0: majority " << root.majority
        << " does not match its counts (derived "
        << tree.node(0).majority << ")";
    return err.str();
  }
  // Replay expand() in canonical id order: children were numbered in the
  // same pop order, so every recorded first_child must equal the arena
  // size at its expansion — any drift means a corrupted document.
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const NodeSpec& spec = nodes[id];
    if (spec.test.is_leaf()) {
      if (spec.first_child != -1) {
        err << "node " << id << ": leaf with first_child "
            << spec.first_child;
        return err.str();
      }
      continue;
    }
    if (static_cast<int>(id) >= tree.num_nodes()) {
      err << "node " << id << ": unreachable from the root";
      return err.str();
    }
    const int nc = spec.test.num_children;
    if (nc < 2 || spec.first_child != tree.num_nodes()) {
      err << "node " << id << ": first_child " << spec.first_child
          << " does not match the replayed arena (expected "
          << tree.num_nodes() << ")";
      return err.str();
    }
    if (spec.first_child + nc > static_cast<int>(nodes.size())) {
      err << "node " << id << ": children run past the node array";
      return err.str();
    }
    SplitDecision d;
    d.test = spec.test;
    const std::size_t c_num = spec.counts.size();
    d.child_counts.reserve(static_cast<std::size_t>(nc) * c_num);
    for (int k = 0; k < nc; ++k) {
      const NodeSpec& child = nodes[static_cast<std::size_t>(spec.first_child + k)];
      if (child.parent != static_cast<int>(id) ||
          child.depth != spec.depth + 1 || child.counts.size() != c_num) {
        err << "node " << spec.first_child + k
            << ": parent/depth/counts do not match its parent " << id;
        return err.str();
      }
      d.child_counts.insert(d.child_counts.end(), child.counts.begin(),
                            child.counts.end());
    }
    tree.expand(static_cast<int>(id), d);
    for (int k = 0; k < nc; ++k) {
      const int cid = spec.first_child + k;
      if (tree.node(cid).majority !=
          nodes[static_cast<std::size_t>(cid)].majority) {
        err << "node " << cid << ": majority "
            << nodes[static_cast<std::size_t>(cid)].majority
            << " does not match the Hunt rule (derived "
            << tree.node(cid).majority << ")";
        return err.str();
      }
    }
  }
  if (tree.num_nodes() != static_cast<int>(nodes.size())) {
    err << "replay produced " << tree.num_nodes() << " nodes for a "
        << nodes.size() << "-node document (dangling leaves?)";
    return err.str();
  }
  if (out != nullptr) *out = std::move(tree);
  return {};
}

}  // namespace pdt::dtree
