// The benchmark's workloads and what one run of them measures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t records = 0;  ///< 0: the workload's paper-scale default
  /// Test hook: corrupt the digest of the first parallel build, so the
  /// correctness gate must count a failure.
  bool inject_mismatch = false;
  std::string work_dir = ".";  ///< checkpoints and the span file go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;  ///< builds run
  std::int64_t failed = 0;     ///< builds that threw or mismatched
  std::vector<Metric> metrics;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& opt);

}  // namespace hostbench
