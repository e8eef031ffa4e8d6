#include "obs/host_profiler.hpp"

#include <algorithm>

namespace pdt::obs {

namespace {

// splitmix64 finalizer, identical to the virtual profiler's cell hash.
std::uint64_t hash64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Key layout mirrors PhaseProfiler::pack so host rows sort and pair with
// virtual rows cell-for-cell.
std::uint64_t pack(PhaseId p, int level, mpsim::Rank r) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level + 1))
          << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(r));
}

}  // namespace

HostProfiler::HostProfiler(const PhaseProfiler* stamps, HostClock* clock,
                           HostProfilerConfig cfg)
    : cfg_(cfg),
      stamps_(stamps),
      clock_(clock != nullptr ? clock : &default_clock_) {
  if (cfg_.counters && counter_group_.open()) counter_group_.start();
}

void HostProfiler::grow_cells() {
  std::vector<Cell> bigger(s_.cells.size() * 2);
  for (const Cell& c : s_.cells) {
    if (c.key == ~0ull) continue;
    std::size_t i = hash64(c.key) & (bigger.size() - 1);
    while (bigger[i].key != ~0ull) i = (i + 1) & (bigger.size() - 1);
    bigger[i] = c;
  }
  s_.cells = std::move(bigger);
  s_.last_hit = static_cast<std::size_t>(-1);
}

HostTotals& HostProfiler::cell(PhaseId p, int level, mpsim::Rank r) {
  const std::uint64_t key = pack(p, level, r);
  if (s_.last_hit != static_cast<std::size_t>(-1) &&
      s_.cells[s_.last_hit].key == key) {
    return s_.cells[s_.last_hit].totals;
  }
  if (s_.cells_used * 2 >= s_.cells.size()) grow_cells();
  std::size_t i = hash64(key) & (s_.cells.size() - 1);
  while (s_.cells[i].key != ~0ull && s_.cells[i].key != key) {
    i = (i + 1) & (s_.cells.size() - 1);
  }
  if (s_.cells[i].key == ~0ull) {
    s_.cells[i].key = key;
    ++s_.cells_used;
  }
  s_.last_hit = i;
  return s_.cells[i].totals;
}

void HostProfiler::on_charge(mpsim::Rank r, mpsim::ChargeKind kind) {
  const std::int64_t now = clock_->now_ns();
  if (!s_.started) {
    // The first charge only anchors the interval chain: host work before
    // it belongs to setup (dataset generation, machine construction),
    // not to any simulated segment.
    s_.started = true;
    s_.last_ns = now;
    return;
  }
  std::int64_t dt = now - s_.last_ns;
  if (dt < 0) {
    // A monotonic clock should never step backwards; clamp to zero but
    // leave the evidence on the clamp counter rather than hiding it.
    dt = 0;
    ++s_.clamped;
  }
  s_.last_ns = now;

  s_.num_ranks = std::max(s_.num_ranks, r + 1);
  const PhaseId p = stamps_ != nullptr ? stamps_->current_phase() : 0;
  const int level = stamps_ != nullptr ? stamps_->current_level() : kNoLevel;
  s_.max_level = std::max(s_.max_level, level);

  HostTotals& t = cell(p, level, r);
  switch (kind) {
    case mpsim::ChargeKind::Compute: t.compute_ns += dt; break;
    case mpsim::ChargeKind::Comm: t.comm_ns += dt; break;
    case mpsim::ChargeKind::Io: t.io_ns += dt; break;
    case mpsim::ChargeKind::Idle: t.idle_ns += dt; break;
  }
  ++t.samples;
  s_.total_ns += dt;
  ++s_.samples;
}

std::vector<HostProfiler::Row> HostProfiler::rows() const {
  std::vector<Row> out;
  for_each_cell([&](const Cell& c) {
    Row row;
    row.phase = static_cast<PhaseId>(c.key >> 40);
    row.level = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    row.rank = static_cast<mpsim::Rank>(c.key & 0xFFFFFu);
    row.totals = c.totals;
    out.push_back(row);
  });
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.level != b.level) return a.level < b.level;
    return a.rank < b.rank;
  });
  return out;
}

HostTotals HostProfiler::phase_totals(PhaseId p, int level,
                                      bool any_level) const {
  HostTotals sum;
  for_each_cell([&](const Cell& c) {
    if (static_cast<PhaseId>(c.key >> 40) != p) return;
    const int l = static_cast<int>((c.key >> 20) & 0xFFFFFu) - 1;
    if (!any_level && l != level) return;
    sum += c.totals;
  });
  return sum;
}

HostCounters HostProfiler::counters() const { return counter_group_.read(); }

}  // namespace pdt::obs
