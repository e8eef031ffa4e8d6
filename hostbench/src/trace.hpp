// Benchmark-side tracing, timing statistics and the paired A/B helper.
//
// Spans are recorded around the benchmark's own calls into the library's
// modules (data, dtree, mpsim, core, obs); the library itself is not
// instrumented. A span's layer is the prefix of its name before the first
// '.', so "core.build" belongs to core and "bench.rep" to the benchmark.
// Spans nest strictly (one thread), so a span's self time is its duration
// minus the summed durations of its direct children.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] double median(std::vector<double> v);

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    int build = -1;   ///< build id shared by every span of one build
  };

  /// Closes its span when it leaves scope; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer* t, int idx) : t_(t), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* t_;
    int idx_;
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] Scope span(const char* name);
  /// Pause or resume recording (only between root spans).
  void set_on(bool on) { on_ = on; }
  /// Start a new build id; spans opened until the next call share it.
  void next_build() { ++build_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer, summed over all spans of that layer.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Write every span plus the per-layer self times as JSON.
  [[nodiscard]] bool write_json(const std::string& path,
                                const std::string& workload,
                                std::uint64_t seed) const;

 private:
  bool on_;
  int build_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Paired, interleaved A/B timing: `pairs` rounds, each running both
/// sides once, with the side that runs first alternating from round to
/// round so both share the same host-noise regime. Each side returns the
/// seconds it measured, so it can leave its own set-up out of the timing.
struct PairedTimes {
  std::vector<double> a_s;
  std::vector<double> b_s;
  /// Median of the per-round ratios b/a.
  [[nodiscard]] double ratio() const;
  /// Median of the per-round differences b - a, in seconds.
  [[nodiscard]] double delta_s() const;
};
[[nodiscard]] PairedTimes paired_ab(int pairs,
                                    const std::function<double()>& a,
                                    const std::function<double()>& b);

}  // namespace hostbench
