#include "yardstick.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "trace.hpp"

namespace hostbench {

namespace {
volatile std::int64_t g_yard_sink = 0;
}  // namespace

Yardstick::Yardstick(bool continuous)
    // 50-100 ms a run; the reference seconds are the median runs seen on
    // the reference host (NOTES.md).
    : passes_(continuous ? 1 : 6),
      reference_s_(continuous ? 0.100 : 0.070),
      order_(kRows),
      labels_(kRows),
      cont_(kAttrs),
      cat_(kAttrs),
      cuts_(kAttrs),
      offset_(kAttrs + 1, 0) {
  // Cardinalities of the pre-binned Quest schema, in attribute order.
  const int card[kAttrs] = {13, 14, 6, 5, 20, 9, 11, 10, 20};
  const bool is_cont[kAttrs] = {true, true, true, false, false,
                                false, true, true, true};
  std::mt19937_64 rng(20260417);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int a = 0; a < kAttrs; ++a) {
    int slots = card[a];
    if (continuous && is_cont[a]) {
      slots = 32;
      for (int c = 1; c < slots; ++c) cuts_[a].push_back(c / 32.0);
      cont_[a].resize(kRows);
      for (double& v : cont_[a]) v = unit(rng);
    } else {
      cat_[a].resize(kRows);
      for (std::int32_t& v : cat_[a]) {
        v = static_cast<std::int32_t>(rng() % static_cast<unsigned>(slots));
      }
    }
    offset_[a + 1] = offset_[a] + 2 * slots;
  }
  for (std::int32_t& l : labels_) l = static_cast<std::int32_t>(rng() & 1);
  std::iota(order_.begin(), order_.end(), 0U);
  std::shuffle(order_.begin(), order_.end(), rng);
  hist_.assign(static_cast<std::size_t>(offset_[kAttrs]), 0);
}

double Yardstick::run() {
  const std::int64_t t0 = now_ns();
  for (int p = 0; p < passes_; ++p) {
    std::fill(hist_.begin(), hist_.end(), 0);
    for (const std::uint32_t row : order_) {
      const int cls = labels_[row];
      for (int a = 0; a < kAttrs; ++a) {
        const std::vector<double>& cuts = cuts_[a];
        const int s =
            cuts.empty() ? cat_[a][row]
                         : static_cast<int>(std::upper_bound(cuts.begin(),
                                                             cuts.end(),
                                                             cont_[a][row]) -
                                            cuts.begin());
        ++hist_[static_cast<std::size_t>(offset_[a] + s * 2 + cls)];
      }
    }
  }
  g_yard_sink = g_yard_sink + hist_[0];
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double Yardstick::cells() const {
  return static_cast<double>(passes_) * static_cast<double>(kRows) * kAttrs;
}

}  // namespace hostbench
