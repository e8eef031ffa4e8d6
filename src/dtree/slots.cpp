#include "dtree/slots.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "data/discretize.hpp"

namespace pdt::dtree {

AttrLayout::AttrLayout(const data::Schema& schema, int cont_bins)
    : num_classes_(schema.num_classes()) {
  const int n = schema.num_attributes();
  slots_.reserve(static_cast<std::size_t>(n));
  offsets_.reserve(static_cast<std::size_t>(n));
  int off = 0;
  for (int a = 0; a < n; ++a) {
    const auto& attr = schema.attr(a);
    const int s = attr.is_categorical() ? attr.cardinality : cont_bins;
    assert(s >= 1);
    slots_.push_back(s);
    offsets_.push_back(off);
    off += s * num_classes_;
  }
  total_ = off;
}

namespace {

/// Fill codes[row] = data::bin_of(col[row], cuts) for the equal-width cuts
/// of [lo, hi]: an O(1) guess from the bin width, then corrected against
/// the stored cuts so that cuts[b-1] <= v < cuts[b] — the upper_bound
/// position itself, also where rounding puts the guess one bin off or v
/// lies exactly on a cut. It runs once per cell, so the range checks are
/// made once per column and the division is a multiplication by the
/// column's precomputed bins-per-unit; a binary search per cell made
/// whole training runs measurably slower.
void fill_codes(const std::vector<double>& col, const std::vector<double>& cuts,
                double lo, double hi, std::uint8_t* codes) {
  if (!std::isfinite(hi - lo)) {
    // A non-finite range's cuts may be NaN, hence unsorted: bin_of itself.
    for (std::size_t row = 0; row < col.size(); ++row) {
      codes[row] = static_cast<std::uint8_t>(data::bin_of(col[row], cuts));
    }
    return;
  }
  const int last = static_cast<int>(cuts.size());
  // A constant column's cuts all equal lo, so every value is in the last
  // bin: an infinite scale sends lo (0 * inf is NaN) and everything else
  // there without a branch per cell.
  const double scale = hi > lo ? (last + 1) / (hi - lo)
                               : std::numeric_limits<double>::infinity();
  for (std::size_t row = 0; row < col.size(); ++row) {
    const double v = col[row];
    const double g = (v - lo) * scale;
    // NaN fails both tests and starts, like bin_of's upper_bound, at
    // `last`, where no comparison with it moves it.
    int b = g < 0.0 ? 0 : g < last ? static_cast<int>(g) : last;
    while (b < last && cuts[static_cast<std::size_t>(b)] <= v) ++b;
    while (b > 0 && cuts[static_cast<std::size_t>(b - 1)] > v) --b;
    codes[row] = static_cast<std::uint8_t>(b);
  }
}

}  // namespace

SlotMapper::SlotMapper(const data::Dataset& ds, int cont_bins)
    : ds_(&ds), cont_bins_(cont_bins) {
  if (cont_bins > data::kMaxSlots) {
    throw std::invalid_argument("SlotMapper: cont_bins " +
                                std::to_string(cont_bins) + " exceeds " +
                                std::to_string(data::kMaxSlots));
  }
  const int n = ds.num_attributes();
  cuts_.resize(static_cast<std::size_t>(n));
  lo_.resize(static_cast<std::size_t>(n), 0.0);
  hi_.resize(static_cast<std::size_t>(n), 0.0);
  codes_.resize(static_cast<std::size_t>(n));
  columns_.resize(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    if (ds.schema().attr(a).is_categorical()) {
      columns_[static_cast<std::size_t>(a)] = ds.cat_column(a).data();
      continue;
    }
    assert(cont_bins >= 2);
    const auto [lo, hi] = ds.cont_range(a);
    lo_[static_cast<std::size_t>(a)] = lo;
    hi_[static_cast<std::size_t>(a)] = hi;
    const auto& cuts = cuts_[static_cast<std::size_t>(a)] =
        data::uniform_boundaries(lo, hi, cont_bins);
    const std::vector<double>& col = ds.cont_column(a);
    auto& codes = codes_[static_cast<std::size_t>(a)];
    codes.resize(col.size());
    fill_codes(col, cuts, lo, hi, codes.data());
    columns_[static_cast<std::size_t>(a)] = codes.data();
  }
}

int SlotMapper::slot_of_value(int attr, double v) const {
  return data::bin_of(v, cuts_[static_cast<std::size_t>(attr)]);
}

double SlotMapper::bin_center(int attr, int s) const {
  const auto& cuts = cuts_[static_cast<std::size_t>(attr)];
  const double lo =
      s == 0 ? lo_[static_cast<std::size_t>(attr)] : cuts[static_cast<std::size_t>(s - 1)];
  const double hi = s == static_cast<int>(cuts.size())
                        ? hi_[static_cast<std::size_t>(attr)]
                        : cuts[static_cast<std::size_t>(s)];
  return 0.5 * (lo + hi);
}

}  // namespace pdt::dtree
