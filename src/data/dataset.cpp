#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pdt::data {

Dataset::Dataset(Schema schema, std::size_t expected_rows)
    : schema_(std::move(schema)) {
  if (schema_.num_classes() > kMaxSlots) {
    throw std::invalid_argument(
        "Dataset: " + std::to_string(schema_.num_classes()) +
        " classes exceed " + std::to_string(kMaxSlots));
  }
  const int n = schema_.num_attributes();
  cat_.resize(static_cast<std::size_t>(n));
  cont_.resize(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    const Attribute& attr = schema_.attr(a);
    if (attr.is_categorical()) {
      if (attr.cardinality > kMaxSlots) {
        throw std::invalid_argument(
            "Dataset: attribute " + attr.name + " has " +
            std::to_string(attr.cardinality) + " values, more than " +
            std::to_string(kMaxSlots));
      }
      cat_[static_cast<std::size_t>(a)].reserve(expected_rows);
    } else {
      cont_[static_cast<std::size_t>(a)].reserve(expected_rows);
    }
  }
  labels_.reserve(expected_rows);
}

std::size_t Dataset::add_row(std::int32_t label) {
  assert(label >= 0 && label < schema_.num_classes());
  const std::size_t row = labels_.size();
  labels_.push_back(static_cast<std::uint8_t>(label));
  for (int a = 0; a < num_attributes(); ++a) {
    if (schema_.attr(a).is_categorical()) {
      cat_[static_cast<std::size_t>(a)].push_back(0);
    } else {
      cont_[static_cast<std::size_t>(a)].push_back(0.0);
    }
  }
  return row;
}

void Dataset::set_cat(int attr, std::size_t row, std::int32_t value) {
  assert(schema_.attr(attr).is_categorical());
  assert(value >= 0 && value < schema_.attr(attr).cardinality);
  cat_[static_cast<std::size_t>(attr)][row] =
      static_cast<std::uint8_t>(value);
}

void Dataset::set_cont(int attr, std::size_t row, double value) {
  assert(schema_.attr(attr).is_continuous());
  cont_[static_cast<std::size_t>(attr)][row] = value;
}

std::pair<double, double> Dataset::cont_range(int attr) const {
  const auto& col = cont_column(attr);
  if (col.empty()) {
    throw std::invalid_argument("Dataset: continuous attribute " +
                                schema_.attr(attr).name +
                                " has no values to range over");
  }
  const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
  return {*lo, *hi};
}

}  // namespace pdt::data
