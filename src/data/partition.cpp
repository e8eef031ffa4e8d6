#include "data/partition.hpp"

#include <cassert>
#include <numeric>

#include "data/rng.hpp"

namespace pdt::data {

RowPartition partition_block(std::size_t num_rows, int nprocs) {
  assert(nprocs >= 1);
  RowPartition part(static_cast<std::size_t>(nprocs));
  const std::size_t base = num_rows / static_cast<std::size_t>(nprocs);
  const std::size_t extra = num_rows % static_cast<std::size_t>(nprocs);
  std::size_t next = 0;
  for (int p = 0; p < nprocs; ++p) {
    const std::size_t count =
        base + (static_cast<std::size_t>(p) < extra ? 1 : 0);
    auto& rows = part[static_cast<std::size_t>(p)];
    rows.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      rows.push_back(static_cast<RowId>(next++));
    }
  }
  assert(next == num_rows);
  return part;
}

RowPartition partition_random(std::size_t num_rows, int nprocs,
                              std::uint64_t seed) {
  assert(nprocs >= 1);
  std::vector<RowId> perm(num_rows);
  std::iota(perm.begin(), perm.end(), RowId{0});
  Rng rng(seed);
  // Fisher-Yates with our deterministic generator.
  for (std::size_t i = num_rows; i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  RowPartition part(static_cast<std::size_t>(nprocs));
  if (nprocs == 1) {
    part[0] = std::move(perm);
    return part;
  }
  const auto procs = static_cast<std::size_t>(nprocs);
  for (std::size_t p = 0; p < procs; ++p) {
    part[p].reserve(num_rows / procs + (p < num_rows % procs ? 1 : 0));
  }
  for (std::size_t i = 0; i < num_rows; ++i) {
    part[i % procs].push_back(perm[i]);
  }
  return part;
}

std::size_t partition_size(const RowPartition& part) {
  std::size_t n = 0;
  for (const auto& rows : part) n += rows.size();
  return n;
}

}  // namespace pdt::data
