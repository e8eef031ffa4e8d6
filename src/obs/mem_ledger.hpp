// Per-rank virtual-memory ledger.
//
// The Machine's byte accounts answer "how many bytes is rank r holding,
// and what was its high-water mark, per data structure?" — always on,
// integer-exact, clock-free. The MemLedger adds *attribution*: every
// alloc/free event is stamped with the innermost open phase and the
// active tree level from the PhaseProfiler, producing the live/peak
// footprint per (tag, phase, level, rank) — the memory analogue of the
// phase profiler's time breakdown. Section 4's memory-scalability claim
// (each rank holds O(N/P) records plus bounded per-level scratch) then
// becomes a measurable, per-structure invariant instead of prose.
//
// Like every observer in this codebase the ledger is strictly passive:
// it is fed through the Machine's single observer slot (via
// ObserverFanout) and can never change simulated time or the byte
// accounts themselves.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "mpsim/observer.hpp"
#include "mpsim/stats.hpp"
#include "obs/phase.hpp"

namespace pdt::obs {

class MemLedger {
 public:
  /// The profiler supplies the (phase, level) stamp for each event; it
  /// may be null, in which case everything lands in phase 0 / kNoLevel.
  explicit MemLedger(const PhaseProfiler* profiler = nullptr)
      : profiler_(profiler) {}

  void on_alloc(mpsim::Rank r, mpsim::MemTag tag, std::int64_t bytes);
  void on_free(mpsim::Rank r, mpsim::MemTag tag, std::int64_t bytes);

  /// Number of ranks seen (== 1 + max rank that charged memory).
  [[nodiscard]] int num_ranks() const {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] std::int64_t live_bytes(mpsim::Rank r) const {
    return account(r).live;
  }
  [[nodiscard]] std::int64_t peak_bytes(mpsim::Rank r) const {
    return account(r).peak;
  }
  /// Total bytes ever charged / released by rank r. Equal at algorithm
  /// teardown: every structure the run allocates, it must release.
  [[nodiscard]] std::int64_t charged_bytes(mpsim::Rank r) const {
    return account(r).charged;
  }
  [[nodiscard]] std::int64_t released_bytes(mpsim::Rank r) const {
    return account(r).released;
  }
  [[nodiscard]] std::uint64_t events() const { return events_; }

  /// One (tag, phase, level, rank) attribution cell.
  struct Row {
    mpsim::MemTag tag = mpsim::MemTag::Records;
    PhaseId phase = 0;
    int level = kNoLevel;
    mpsim::Rank rank = 0;
    std::int64_t live = 0;  ///< bytes still attributed to this cell
    std::int64_t peak = 0;  ///< high-water mark of this cell's live bytes
  };
  /// All cells ever touched, ordered by (tag, phase, level, rank) —
  /// deterministic for export.
  [[nodiscard]] std::vector<Row> rows() const;

  /// Rank r's heaviest attribution cells by peak bytes (ties broken by
  /// key order), at most `k` of them.
  [[nodiscard]] std::vector<Row> top_segments(mpsim::Rank r,
                                              std::size_t k) const;

  /// Analytic Section-4 prediction for the run this ledger observed,
  /// recorded by the formulation at setup time (empty if none was set).
  void set_predicted(const mpsim::MemPredicted& p) { predicted_ = p; }
  [[nodiscard]] const mpsim::MemPredicted& predicted() const {
    return predicted_;
  }

  [[nodiscard]] const PhaseProfiler* profiler() const { return profiler_; }

 private:
  struct RankAccount {
    std::int64_t live = 0;
    std::int64_t peak = 0;
    std::int64_t charged = 0;
    std::int64_t released = 0;
  };
  struct Cell {
    std::int64_t live = 0;
    std::int64_t peak = 0;
  };

  [[nodiscard]] std::uint64_t key(mpsim::MemTag tag, mpsim::Rank r) const;
  /// Rank r's account, growing the table on first use.
  RankAccount& ensure_rank(mpsim::Rank r);
  /// Rank r's account (all zero for a rank that never charged memory).
  [[nodiscard]] RankAccount account(mpsim::Rank r) const {
    const auto i = static_cast<std::size_t>(r);
    return i < ranks_.size() ? ranks_[i] : RankAccount{};
  }

  const PhaseProfiler* profiler_;
  mpsim::MemPredicted predicted_;
  std::vector<RankAccount> ranks_;
  // Ordered map keyed (tag, phase, level+1, rank) packed MSB-first, so
  // iteration order == export order. Memory events are per level / per
  // chunk, not per record, so the tree lookup is off the hot path.
  std::map<std::uint64_t, Cell> cells_;
  std::uint64_t events_ = 0;
};

}  // namespace pdt::obs
