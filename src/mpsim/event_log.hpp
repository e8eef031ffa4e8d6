// Event-sourced execution log for the simulated machine.
//
// An EventRecorder attached to a Machine captures the complete causal
// history of a run: every clock charge (with its phase/level stamp and,
// for communication, the latency/bandwidth decomposition), every barrier
// with its member set, every fault-detection timeout, and every collective
// annotation. Event order in the log *is* the happens-before order — the
// simulator is sequential, so the recording sequence totally orders the
// partial order the algorithm induced.
//
// The recorder keeps its own shadow clocks, advanced with arithmetic
// identical to Machine's (+= for charges, max-assignment for barriers), so
// that (a) the final clocks survive the Machine's destruction into the
// serialized log, and (b) an offline replay of the log against the same
// cost model reproduces every per-rank clock bit-exactly. That identity is
// the contract `tools/pdt-replay --check` and the replay test suite
// enforce; what-if replays (different constants) rescale each charge by
// the ratio of the constants instead.
//
// Charges are recorded *post* fault-injector scaling: a straggler's 2x
// charges appear as their doubled durations, so a recorded faulty run
// replays to the faulty clocks without the replayer knowing about faults.
//
// Like ChargeObserver, the recorder is strictly passive and lives in
// mpsim so that Machine can call it without depending on obs; the obs
// layer owns one (obs::Observability::enable_event_log) and serializes it
// (obs::write_events, schema "pdt-events-v1").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mpsim/cost_model.hpp"
#include "mpsim/observer.hpp"
#include "mpsim/topology.hpp"

namespace pdt::mpsim {

/// One entry of the execution log. The index in EventRecorder::events()
/// is the event's sequence number (happens-before order).
struct ExecEvent {
  enum class Type : std::uint8_t {
    Charge,      ///< compute / comm / io clock advance on one rank
    Barrier,     ///< members synchronized at their common horizon
    Timeout,     ///< survivors waited out t_timeout for a dead member
    Wait,        ///< one rank advanced to an absolute time
    WaitFor,     ///< one rank advanced to another rank's current clock
    Collective,  ///< annotation: a Group collective is about to run
    Retry,       ///< a transient collective failure: members waited out a
                 ///< backed-off timeout window blamed on one faulty rank
  };

  Type type = Type::Charge;
  ChargeKind kind = ChargeKind::Compute;  ///< Charge only
  Rank rank = -1;   ///< Charge/Wait/WaitFor subject; Timeout: dead rank
  Rank peer = -1;   ///< WaitFor: the rank whose clock was waited on
  int phase = 0;    ///< interned phase id at record time (Charge only)
  int level = -1;   ///< tree level of the charged rank (Charge only)
  Time dt_us = 0.0;       ///< Charge: amount (post fault-injector scaling)
  Time latency_us = 0.0;  ///< Comm charge: the t_s-proportional part of dt
  Time until_us = 0.0;    ///< Wait: absolute target time
  double words_sent = 0.0;
  double words_received = 0.0;
  std::uint64_t messages = 0;
  int dim = 0;              ///< Collective: hypercube rounds
  double words = 0.0;       ///< Collective: total payload words
  double mult = 1.0;        ///< Retry: backoff multiplier on t_timeout
  const char* what = "";    ///< Barrier/Collective label (string literal)
  std::vector<Rank> members;  ///< Barrier/Timeout/Collective member set
};

class EventRecorder {
 public:
  /// (Re)bind to a machine of `nprocs` ranks using `cost`: clears the
  /// event log and shadow clocks. Called by Machine::set_event_recorder
  /// and Machine::reset; the interned phase names and the open phase
  /// stack survive, since phase scopes may already be open when the
  /// machine is created.
  void bind(int nprocs, const CostModel& cost);
  [[nodiscard]] bool bound() const { return bound_; }

  // -- Machine hooks (passive; called after the machine's own update) --
  void record_charge(Rank r, ChargeKind kind, Time dt, Time latency,
                     double words_sent, double words_received,
                     std::uint64_t messages, int level);
  void record_barrier(const char* what, const std::vector<Rank>& members);
  void record_timeout(Rank dead, const std::vector<Rank>& survivors);
  void record_retry(Rank faulty, const std::vector<Rank>& members,
                    double mult);
  void record_wait(Rank r, Time until);
  void record_wait_for(Rank r, Rank src);
  void record_collective(const char* kind, const std::vector<Rank>& members,
                         double words, int dim);

  // -- Phase sink (obs::PhaseProfiler forwards its scopes here) --
  void open_phase(std::string_view name);
  void close_phase();

  [[nodiscard]] const std::vector<ExecEvent>& events() const {
    return events_;
  }
  /// Interned phase names; index == ExecEvent::phase. names()[0] is
  /// "(unattributed)".
  [[nodiscard]] const std::vector<std::string>& phase_names() const {
    return names_;
  }
  [[nodiscard]] int nprocs() const { return static_cast<int>(clocks_.size()); }
  [[nodiscard]] const CostModel& cost() const { return cost_; }
  /// Shadow clocks — equal to the machine's per-rank clocks after every
  /// recorded event (bit-exactly; tests enforce it).
  [[nodiscard]] const std::vector<Time>& clocks() const { return clocks_; }
  [[nodiscard]] Time max_clock() const;

 private:
  [[nodiscard]] int intern(std::string_view name);
  /// Append + shadow-clock arithmetic (mirrors Machine's update).
  void apply(ExecEvent&& e);

  std::vector<ExecEvent> events_;
  std::vector<std::string> names_{"(unattributed)"};
  std::vector<int> stack_;
  std::vector<Time> clocks_;
  CostModel cost_{};
  bool bound_ = false;
};

}  // namespace pdt::mpsim
