// A fixed host-speed yardstick for the end-to-end metrics.
//
// The shared host this benchmark runs on slows memory-heavy code by up to
// 2-3x in bursts that last from a fraction of a second to tens of
// seconds. The yardstick is the benchmark's own copy of the histogram
// kernel's shape (slot lookup, binary search over micro-bin cuts for
// continuous attributes, count increment; rows in random order) over a
// fixed synthetic table. It never calls the library, so a change to the
// program does not change it; sampled right before and after each build,
// it is slowed by the same bursts, and a build's time divided by it is
// far steadier than the build's time alone (see NOTES.md).
#pragma once

#include <cstdint>
#include <vector>

namespace hostbench {

class Yardstick {
 public:
  /// `continuous`: give 6 of the 9 attributes continuous values with 31
  /// cuts each (the fig8 shape); otherwise all 9 are categorical with the
  /// paper's bin counts (the pre-binned shape).
  explicit Yardstick(bool continuous);

  /// Run the kernel once and return the seconds it took.
  double run();
  /// Attribute cells one run() visits.
  [[nodiscard]] double cells() const;
  /// Seconds one run() takes on the reference host (NOTES.md), to turn a
  /// time relative to the yardstick back into seconds.
  [[nodiscard]] double reference_s() const { return reference_s_; }

 private:
  static constexpr std::size_t kRows = 160000;
  static constexpr int kAttrs = 9;
  int passes_;
  double reference_s_;
  std::vector<std::uint32_t> order_;
  std::vector<std::int32_t> labels_;
  std::vector<std::vector<double>> cont_;       // empty for categorical
  std::vector<std::vector<std::int32_t>> cat_;  // empty for continuous
  std::vector<std::vector<double>> cuts_;
  std::vector<int> offset_;
  std::vector<std::int64_t> hist_;
};

}  // namespace hostbench
