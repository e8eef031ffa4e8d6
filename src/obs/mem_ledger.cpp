#include "obs/mem_ledger.hpp"

#include <algorithm>
#include <cassert>

namespace pdt::obs {

namespace {

// Unpack helpers for the (tag, phase, level+1, rank) key layout below.
constexpr int kRankBits = 20;
constexpr int kLevelBits = 20;
constexpr int kPhaseBits = 16;

mpsim::MemTag key_tag(std::uint64_t k) {
  return static_cast<mpsim::MemTag>(k >> (kRankBits + kLevelBits + kPhaseBits));
}
PhaseId key_phase(std::uint64_t k) {
  return static_cast<PhaseId>((k >> (kRankBits + kLevelBits)) &
                              ((1u << kPhaseBits) - 1));
}
int key_level(std::uint64_t k) {
  return static_cast<int>((k >> kRankBits) & ((1u << kLevelBits) - 1)) - 1;
}
mpsim::Rank key_rank(std::uint64_t k) {
  return static_cast<mpsim::Rank>(k & ((1u << kRankBits) - 1));
}

}  // namespace

std::uint64_t MemLedger::key(mpsim::MemTag tag, mpsim::Rank r) const {
  const PhaseId phase = profiler_ != nullptr ? profiler_->current_phase() : 0;
  const int level = profiler_ != nullptr ? profiler_->current_level() : kNoLevel;
  return (static_cast<std::uint64_t>(tag)
          << (kRankBits + kLevelBits + kPhaseBits)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(phase))
          << (kRankBits + kLevelBits)) |
         // level >= -1; bias by 1 so it packs as unsigned.
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level + 1))
          << kRankBits) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(r));
}

MemLedger::RankAccount& MemLedger::ensure_rank(mpsim::Rank r) {
  if (static_cast<std::size_t>(r) >= ranks_.size()) {
    ranks_.resize(static_cast<std::size_t>(r) + 1);
  }
  return ranks_[static_cast<std::size_t>(r)];
}

void MemLedger::on_alloc(mpsim::Rank r, mpsim::MemTag tag,
                         std::int64_t bytes) {
  assert(bytes > 0);
  RankAccount& a = ensure_rank(r);
  a.live += bytes;
  a.charged += bytes;
  if (a.live > a.peak) a.peak = a.live;
  Cell& c = cells_[key(tag, r)];
  c.live += bytes;
  if (c.live > c.peak) c.peak = c.live;
  ++events_;
}

void MemLedger::on_free(mpsim::Rank r, mpsim::MemTag tag, std::int64_t bytes) {
  assert(bytes > 0);
  RankAccount& a = ensure_rank(r);
  a.live -= bytes;
  a.released += bytes;
  // A release is attributed to the cell of the *current* scope, which may
  // differ from where the bytes were charged (records charged at the
  // root, released when a leaf closes levels later), so a cell's live may
  // go negative. The per-rank account cannot: Machine::free_bytes asserts
  // that a rank never frees more than it holds.
  Cell& c = cells_[key(tag, r)];
  c.live -= bytes;
  ++events_;
}

std::vector<MemLedger::Row> MemLedger::rows() const {
  std::vector<Row> out;
  out.reserve(cells_.size());
  for (const auto& [k, c] : cells_) {
    Row row;
    row.tag = key_tag(k);
    row.phase = key_phase(k);
    row.level = key_level(k);
    row.rank = key_rank(k);
    row.live = c.live;
    row.peak = c.peak;
    out.push_back(row);
  }
  return out;
}

std::vector<MemLedger::Row> MemLedger::top_segments(mpsim::Rank r,
                                                    std::size_t k) const {
  std::vector<Row> mine;
  for (const Row& row : rows()) {
    if (row.rank == r && row.peak > 0) mine.push_back(row);
  }
  std::stable_sort(mine.begin(), mine.end(), [](const Row& a, const Row& b) {
    return a.peak > b.peak;
  });
  if (mine.size() > k) mine.resize(k);
  return mine;
}

}  // namespace pdt::obs
