// Slot mapping: a uniform finite-domain view of every attribute.
//
// Histogram-based tree construction (SLIQ/SPRINT/ScalParC and this paper)
// reduces each attribute to a finite set of "slots" whose class
// distribution is what processors exchange:
//   * a categorical attribute's slots are its values (the paper's M
//     distinct values per discrete attribute);
//   * a continuous attribute's slots are micro-bins over its global range
//     (the histogram the per-node discretizers of Section 3.4 consume).
//
// Every slot is one byte (at most data::kMaxSlots per attribute), and
// SlotMapper hands out one byte column per attribute indexed by row: the
// dataset's own column of a categorical attribute, a code column it fills
// once per run for a continuous one. The histogram kernel and every row
// partition read these columns and nothing else.
//
// AttrLayout packs all per-attribute class-distribution tables for one
// tree node into a single flat buffer of int64 counts — this buffer is the
// unit of communication in all three parallel formulations (size
// C * A_d * M in the paper's notation).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace pdt::dtree {

/// Where each attribute's (slots x classes) table lives inside the flat
/// per-node histogram buffer.
class AttrLayout {
 public:
  AttrLayout() = default;
  /// `cont_bins` micro-bins per continuous attribute.
  AttrLayout(const data::Schema& schema, int cont_bins);

  [[nodiscard]] int num_attributes() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  [[nodiscard]] int slots(int attr) const {
    return slots_[static_cast<std::size_t>(attr)];
  }
  [[nodiscard]] int offset(int attr) const {
    return offsets_[static_cast<std::size_t>(attr)];
  }
  /// Total buffer length in int64 entries ("words" of the cost analysis
  /// are 4-byte; one entry = 2 words).
  [[nodiscard]] int total() const { return total_; }

  /// Resident bytes of the flat count buffer for `nodes` tree nodes —
  /// the O(attrs * bins * classes) histogram term of the Section-4
  /// memory analysis (counts are held as int64 entries).
  [[nodiscard]] std::int64_t table_bytes(std::int64_t nodes = 1) const {
    return nodes * static_cast<std::int64_t>(total_) *
           static_cast<std::int64_t>(sizeof(std::int64_t));
  }

  [[nodiscard]] int index(int attr, int slot, int cls) const {
    return offset(attr) + slot * num_classes_ + cls;
  }

 private:
  std::vector<int> slots_;
  std::vector<int> offsets_;
  int num_classes_ = 0;
  int total_ = 0;
};

/// Maps (attribute, row) -> slot id. For continuous attributes the slots
/// are `cont_bins` equal-width micro-bins over the attribute's global
/// [min, max]; boundaries are fixed once per training run so that every
/// processor maps rows identically.
///
/// A row's slot is a pure function of the row, so the mapper computes it
/// once: the constructor fills one byte-wide code column of N entries per
/// continuous attribute (equal to data::bin_of against the cuts for every
/// cell). A categorical attribute's slot column is the dataset's own byte
/// column, whose values already are slots. The code columns are host
/// memory of the simulator, not part of any simulated rank's record store.
///
/// The mapper points into its own code columns and into the dataset, so
/// it moves but does not copy, and the dataset must outlive it.
class SlotMapper {
 public:
  SlotMapper() = default;
  /// Throws std::invalid_argument when `cont_bins` > data::kMaxSlots.
  SlotMapper(const data::Dataset& ds, int cont_bins);
  SlotMapper(SlotMapper&&) = default;
  SlotMapper& operator=(SlotMapper&&) = default;

  [[nodiscard]] int cont_bins() const { return cont_bins_; }

  /// The attribute's slot column: entry `row` is the slot of that row.
  [[nodiscard]] const std::uint8_t* slot_column(int attr) const {
    return columns_[static_cast<std::size_t>(attr)];
  }

  [[nodiscard]] int slot(int attr, std::size_t row) const {
    return slot_column(attr)[row];
  }

  /// Slot of a raw continuous value.
  [[nodiscard]] int slot_of_value(int attr, double v) const;

  /// The real-valued boundary between slot `s` and slot `s+1` of a
  /// continuous attribute (used to record thresholds in the tree).
  [[nodiscard]] double boundary(int attr, int s) const {
    return cuts_[static_cast<std::size_t>(attr)][static_cast<std::size_t>(s)];
  }

  /// All interior boundaries of a continuous attribute.
  [[nodiscard]] const std::vector<double>& boundaries(int attr) const {
    return cuts_[static_cast<std::size_t>(attr)];
  }

  /// Center value of a micro-bin (used by the per-node discretizers).
  [[nodiscard]] double bin_center(int attr, int s) const;

  [[nodiscard]] const data::Dataset& dataset() const { return *ds_; }

 private:
  const data::Dataset* ds_ = nullptr;
  int cont_bins_ = 0;
  std::vector<std::vector<double>> cuts_;  // empty for categorical attrs
  std::vector<double> lo_, hi_;            // per-attr global range (cont)
  std::vector<std::vector<std::uint8_t>> codes_;  // empty for categorical
  std::vector<const std::uint8_t*> columns_;      // slot column per attr
};

}  // namespace pdt::dtree
