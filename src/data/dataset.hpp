// Columnar training set.
//
// Storage is column-major, one layout for every run: a byte column per
// categorical attribute and a byte class-label column (a value or label
// is its own slot, so the histogram kernel reads it as is), and a double
// column per continuous attribute (the per-node discretizers, the exact
// thresholds and Tree::route read the raw values). Column-major layout
// matches the access pattern of histogram construction (one attribute
// scanned at a time) and of the attribute-list style algorithms
// (SLIQ/SPRINT) the paper builds on. The layout is host memory of the
// simulator; the simulated record size is core::ParContext's.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "data/schema.hpp"

namespace pdt::data {

/// Most values a byte column holds: the largest categorical cardinality,
/// class count and continuous micro-bin count.
inline constexpr int kMaxSlots = 256;

class Dataset {
 public:
  Dataset() = default;
  /// Create an empty dataset with capacity reserved for `expected_rows`.
  /// Throws std::invalid_argument when a categorical cardinality or the
  /// class count exceeds kMaxSlots.
  explicit Dataset(Schema schema, std::size_t expected_rows = 0);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t num_rows() const { return labels_.size(); }
  [[nodiscard]] int num_attributes() const { return schema_.num_attributes(); }

  /// Begin a new row; follow with set_cat/set_cont for every attribute.
  /// Returns the new row index.
  std::size_t add_row(std::int32_t label);
  void set_cat(int attr, std::size_t row, std::int32_t value);
  void set_cont(int attr, std::size_t row, double value);

  [[nodiscard]] std::int32_t cat(int attr, std::size_t row) const {
    assert(schema_.attr(attr).is_categorical());
    return cat_[static_cast<std::size_t>(attr)][row];
  }
  [[nodiscard]] double cont(int attr, std::size_t row) const {
    assert(schema_.attr(attr).is_continuous());
    return cont_[static_cast<std::size_t>(attr)][row];
  }
  [[nodiscard]] std::int32_t label(std::size_t row) const {
    return labels_[row];
  }

  [[nodiscard]] const std::vector<std::uint8_t>& labels() const {
    return labels_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& cat_column(int attr) const {
    return cat_[static_cast<std::size_t>(attr)];
  }
  [[nodiscard]] const std::vector<double>& cont_column(int attr) const {
    return cont_[static_cast<std::size_t>(attr)];
  }

  /// Min / max of a continuous column (std::minmax_element's picks).
  /// Throws std::invalid_argument when the column is empty.
  [[nodiscard]] std::pair<double, double> cont_range(int attr) const;

 private:
  Schema schema_;
  std::vector<std::vector<std::uint8_t>> cat_;  // empty vec for continuous
  std::vector<std::vector<double>> cont_;       // empty vec for categorical
  std::vector<std::uint8_t> labels_;
};

}  // namespace pdt::data
