// Wall-clock profiler paired cell-for-cell with the virtual PhaseProfiler.
//
// The simulator executes the algorithms' *data* work for real on the host
// CPU while charging *virtual* time to the simulated clocks. The virtual
// side answers "what would the SP-2 have spent here"; the HostProfiler
// answers "what did this host actually spend here". Both ride the same
// (phase, level) stamps: on every Machine charge the profiler samples a
// monotonic host clock and attributes the nanoseconds elapsed since the
// previous charge to the same (phase, level, rank) cell the virtual
// charge landed in. A virtual-cost segment and its host-nanosecond
// account therefore share a key, which is what lets pdt-report render
// simulated-vs-real side by side and rank where the cost model and the
// host diverge.
//
// The attribution is interval-based: the host work *leading up to* a
// charge (building the histogram that is about to be charged, moving the
// records, ...) lands on that charge's cell. Work after the last charge
// of a run is not attributed (it is teardown, not algorithm).
//
// Like every observer here the profiler is strictly passive — it reads a
// clock and writes its own cells, never the machine — so enabling it
// cannot change virtual clocks, trees, or any pre-existing export by a
// single bit (the parity suite enforces this). When disabled it costs
// exactly one null-pointer branch in the observer fanout.
//
// A clock step that would go backwards is clamped to zero *and counted*
// (clamped()), and the count is surfaced in pdt-host-v1.
#pragma once

#include <cstdint>
#include <vector>

#include "mpsim/observer.hpp"
#include "obs/host_clock.hpp"
#include "obs/phase.hpp"

namespace pdt::obs {

/// Host-nanosecond totals of one (phase, level, rank) cell, split by the
/// kind of the virtual charge each interval was paired with.
struct HostTotals {
  std::int64_t compute_ns = 0;
  std::int64_t comm_ns = 0;
  std::int64_t io_ns = 0;
  std::int64_t idle_ns = 0;
  std::uint64_t samples = 0;

  [[nodiscard]] std::int64_t total_ns() const {
    return compute_ns + comm_ns + io_ns + idle_ns;
  }

  HostTotals& operator+=(const HostTotals& o) {
    compute_ns += o.compute_ns;
    comm_ns += o.comm_ns;
    io_ns += o.io_ns;
    idle_ns += o.idle_ns;
    samples += o.samples;
    return *this;
  }
};

struct HostProfilerConfig {
  /// Also try to open perf_event_open cycle/instruction counters (Linux
  /// only; silently unavailable elsewhere or when the kernel refuses).
  bool counters = false;
};

class HostProfiler {
 public:
  /// `stamps` supplies the (phase, level) attribution for each sample —
  /// the same PhaseProfiler the virtual charges are attributed through,
  /// so host and virtual cells pair up. May be null (everything lands in
  /// phase 0 / kNoLevel). `clock` may be null: a private SteadyHostClock
  /// is used. A non-null clock is borrowed (tests inject fakes).
  explicit HostProfiler(const PhaseProfiler* stamps = nullptr,
                        HostClock* clock = nullptr,
                        HostProfilerConfig cfg = {});

  /// Observer hook, called (via ObserverFanout) after every Machine
  /// charge: attributes the host time since the previous sample to the
  /// currently open (phase, level) at rank r under the charge's kind.
  void on_charge(mpsim::Rank r, mpsim::ChargeKind kind);

  /// One (phase, level, rank) row of the host breakdown.
  struct Row {
    PhaseId phase = 0;
    int level = kNoLevel;
    mpsim::Rank rank = 0;
    HostTotals totals;
  };
  /// All nonzero rows ordered by (phase, level, rank) — deterministic,
  /// and keyed identically to PhaseProfiler::rows().
  [[nodiscard]] std::vector<Row> rows() const;

  /// Host totals of one phase at one level summed over ranks; pass
  /// any_level == true to sum over levels too (mirrors
  /// PhaseProfiler::phase_totals).
  [[nodiscard]] HostTotals phase_totals(PhaseId p, int level,
                                        bool any_level = false) const;

  /// Host nanoseconds attributed so far, over all cells.
  [[nodiscard]] std::int64_t total_ns() const { return s_.total_ns; }
  [[nodiscard]] std::uint64_t samples() const { return s_.samples; }
  [[nodiscard]] int num_ranks() const { return s_.num_ranks; }
  [[nodiscard]] int max_level() const { return s_.max_level; }
  /// Samples whose clock step would have been negative and was clamped
  /// to zero (a well-behaved monotonic clock never trips this).
  [[nodiscard]] std::uint64_t clamped() const { return s_.clamped; }

  [[nodiscard]] const char* clock_name() const { return clock_->name(); }
  [[nodiscard]] const PhaseProfiler* stamps() const { return stamps_; }

  /// Hardware counter snapshot (enabled == false when the platform or
  /// kernel does not provide perf_event_open counters, or when the
  /// config did not ask for them).
  [[nodiscard]] HostCounters counters() const;
  /// Whether the config asked for counters at all (so exports can tell
  /// "not requested" from "requested but unavailable").
  [[nodiscard]] bool counters_requested() const { return cfg_.counters; }

 private:
  // Same open-addressed (phase, level, rank)-packed cell store as the
  // virtual profiler — the pairing invariant is easiest to keep when the
  // two sides share key layout and iteration order.
  struct Cell {
    std::uint64_t key = ~0ull;
    HostTotals totals;
  };
  struct State {
    bool started = false;
    std::int64_t last_ns = 0;
    std::int64_t total_ns = 0;
    std::uint64_t samples = 0;
    std::uint64_t clamped = 0;
    int num_ranks = 0;
    int max_level = kNoLevel;
    std::vector<Cell> cells = std::vector<Cell>(64);
    std::size_t cells_used = 0;
    std::size_t last_hit = static_cast<std::size_t>(-1);
  };
  HostTotals& cell(PhaseId p, int level, mpsim::Rank r);
  void grow_cells();
  template <typename Fn>
  void for_each_cell(Fn&& fn) const {
    for (const Cell& c : s_.cells) {
      if (c.key != ~0ull) fn(c);
    }
  }

  HostProfilerConfig cfg_;
  const PhaseProfiler* stamps_;
  SteadyHostClock default_clock_;
  HostClock* clock_;
  HostCounterGroup counter_group_;

  State s_;
};

}  // namespace pdt::obs
