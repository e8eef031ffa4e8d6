// Unit tests for the wall-clock side of the observability layer: the
// HostProfiler's interval attribution against a deterministic fake
// clock, its pairing contract with the virtual PhaseProfiler, the
// monotonicity/overhead bound of the production clock, and the
// crash-safe AtomicFile writer every JSON exporter goes through.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/atomic_file.hpp"
#include "obs/host_clock.hpp"
#include "obs/host_profiler.hpp"
#include "obs/phase.hpp"

namespace pdt::obs {
namespace {

// Deterministic clock: hands out the scripted timestamps in order and
// repeats the last one when the script runs dry.
class FakeClock final : public HostClock {
 public:
  explicit FakeClock(std::vector<std::int64_t> times)
      : times_(std::move(times)) {}
  std::int64_t now_ns() override {
    const std::int64_t t = times_[next_];
    if (next_ + 1 < times_.size()) ++next_;
    return t;
  }
  const char* name() const override { return "fake"; }

 private:
  std::vector<std::int64_t> times_;
  std::size_t next_ = 0;
};

TEST(HostProfiler, FirstChargeAnchorsAndIntervalsAttributeToTheCharge) {
  FakeClock clock({100, 250, 400, 1000});
  HostProfiler h(nullptr, &clock);
  EXPECT_EQ(h.total_ns(), 0);
  EXPECT_EQ(h.samples(), 0u);

  h.on_charge(0, mpsim::ChargeKind::Compute);  // t=100: anchor only
  EXPECT_EQ(h.total_ns(), 0);
  EXPECT_EQ(h.samples(), 0u);

  h.on_charge(0, mpsim::ChargeKind::Compute);  // t=250: 150ns compute
  h.on_charge(1, mpsim::ChargeKind::Comm);     // t=400: 150ns comm
  h.on_charge(0, mpsim::ChargeKind::Io);       // t=1000: 600ns io
  EXPECT_EQ(h.total_ns(), 900);
  EXPECT_EQ(h.samples(), 3u);
  EXPECT_EQ(h.num_ranks(), 2);

  const HostTotals all = h.phase_totals(0, kNoLevel, /*any_level=*/true);
  EXPECT_EQ(all.compute_ns, 150);
  EXPECT_EQ(all.comm_ns, 150);
  EXPECT_EQ(all.io_ns, 600);
  EXPECT_EQ(all.idle_ns, 0);
  EXPECT_EQ(all.total_ns(), 900);
  EXPECT_EQ(all.samples, 3u);
}

TEST(HostProfiler, RowsPairWithVirtualProfilerCells) {
  PhaseProfiler stamps;
  FakeClock clock({0, 10, 30, 60, 100});
  HostProfiler h(&stamps, &clock);
  EXPECT_STREQ(h.clock_name(), "fake");
  EXPECT_EQ(h.stamps(), &stamps);

  // Drive the same (phase, level) stamps through both profilers, the
  // way ObserverFanout does on a real run.
  auto charge = [&](mpsim::Rank r, mpsim::ChargeKind k) {
    stamps.on_charge(r, k, 0.0, 1.0, 0.0, 0.0);
    h.on_charge(r, k);
  };
  charge(0, mpsim::ChargeKind::Compute);  // anchor, lands in (unattributed)
  {
    PhaseScope ph(&stamps, "histogram");
    LevelScope lv(&stamps, 2);
    charge(0, mpsim::ChargeKind::Compute);  // 10ns
    charge(1, mpsim::ChargeKind::Compute);  // 20ns
  }
  {
    PhaseScope ph(&stamps, "all-reduce");
    charge(0, mpsim::ChargeKind::Comm);  // 30ns
    charge(0, mpsim::ChargeKind::Comm);  // 40ns
  }

  const std::vector<HostProfiler::Row> rows = h.rows();
  ASSERT_EQ(rows.size(), 3u);
  // Ordered by (phase, level, rank), exactly like the virtual rows.
  const PhaseId hist = 1;  // interned first after phase 0
  const PhaseId allr = 2;
  EXPECT_EQ(rows[0].phase, hist);
  EXPECT_EQ(rows[0].level, 2);
  EXPECT_EQ(rows[0].rank, 0);
  EXPECT_EQ(rows[0].totals.compute_ns, 10);
  EXPECT_EQ(rows[1].phase, hist);
  EXPECT_EQ(rows[1].level, 2);
  EXPECT_EQ(rows[1].rank, 1);
  EXPECT_EQ(rows[1].totals.compute_ns, 20);
  EXPECT_EQ(rows[2].phase, allr);
  EXPECT_EQ(rows[2].level, kNoLevel);
  EXPECT_EQ(rows[2].totals.comm_ns, 70);
  EXPECT_EQ(h.max_level(), 2);

  // Every host row must have a virtual twin under the same key.
  for (const HostProfiler::Row& row : rows) {
    const PhaseTotals v = stamps.phase_totals(row.phase, row.level);
    EXPECT_GT(v.charges, 0u)
        << "host cell (" << row.phase << ", " << row.level
        << ") has no paired virtual cell";
  }
  EXPECT_EQ(h.phase_totals(hist, 2).total_ns(), 30);
  EXPECT_EQ(h.phase_totals(allr, kNoLevel).total_ns(), 70);
}

TEST(HostProfiler, BackwardsClockClampsToZeroInsteadOfGoingNegative) {
  FakeClock clock({1000, 400, 500});
  HostProfiler h(nullptr, &clock);
  EXPECT_EQ(h.clamped(), 0u);
  h.on_charge(0, mpsim::ChargeKind::Compute);  // anchor at 1000
  h.on_charge(0, mpsim::ChargeKind::Compute);  // clock "went back" to 400
  EXPECT_EQ(h.total_ns(), 0) << "negative intervals must clamp, not wrap";
  // The anomaly is observable, not silent: pdt-host-v1 surfaces this
  // count.
  EXPECT_EQ(h.clamped(), 1u);
  h.on_charge(0, mpsim::ChargeKind::Compute);  // 400 -> 500
  EXPECT_EQ(h.total_ns(), 100);
  EXPECT_EQ(h.clamped(), 1u) << "a forward step must not count as clamped";
}

TEST(HostProfiler, SteadyClockIsMonotonicAndCheap) {
  SteadyHostClock clock;
  std::int64_t prev = clock.now_ns();
  EXPECT_GT(prev, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t now = clock.now_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }

  // Overhead bound: attributing 100k charges must stay far below the
  // budget of a single bench run (generous 1ms/sample ceiling would be
  // absurd; require < 2us average, ~100x the typical clock_gettime cost,
  // so the test never flakes on a loaded CI box).
  HostProfiler h(nullptr, &clock);
  const std::int64_t t0 = clock.now_ns();
  constexpr int kCharges = 100000;
  for (int i = 0; i < kCharges; ++i) {
    h.on_charge(i & 7, mpsim::ChargeKind::Compute);
  }
  const std::int64_t elapsed = clock.now_ns() - t0;
  EXPECT_LT(elapsed / kCharges, 2000) << "per-charge overhead too high";
  // The profiler saw the whole interval chain: its own account of the
  // loop cannot exceed the wall time around it.
  EXPECT_LE(h.total_ns(), elapsed);
  EXPECT_EQ(h.samples(), static_cast<std::uint64_t>(kCharges - 1));
}

TEST(HostProfiler, CountersOffByDefaultAndReportedHonestly) {
  FakeClock clock({0, 1});
  HostProfiler h(nullptr, &clock);
  EXPECT_FALSE(h.counters_requested());
  EXPECT_FALSE(h.counters().enabled);

  HostProfiler asked(nullptr, &clock, HostProfilerConfig{.counters = true});
  EXPECT_TRUE(asked.counters_requested());
  // enabled may be true or false depending on the kernel; what must hold
  // is that a disabled group reads zeros.
  const HostCounters c = asked.counters();
  if (!c.enabled) {
    EXPECT_EQ(c.cycles, 0);
    EXPECT_EQ(c.instructions, 0);
  }
}

TEST(AtomicFile, CommitPublishesAndAbandonLeavesNothing) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/atomic_file_test.json";
  std::filesystem::remove(path);

  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "{\"a\": 1}\n";
    // Not committed yet: the target must not exist.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(f.commit());
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_TRUE(f.commit()) << "commit is idempotent";
  }
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"a\": 1}\n");
  }

  // Abandoned writer: destructor removes the temp, target is untouched.
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "partial garbage";
  }
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"a\": 1}\n") << "abandoning must not clobber";
  }
  // No stray temp files left behind.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(path + ".tmp"), std::string::npos)
        << "leftover temp file: " << e.path();
  }
  std::filesystem::remove(path);
}

TEST(AtomicFile, MissingTargetDirectoryFailsCleanly) {
  // AtomicFile does not create directories — that is the writer's job
  // (bench_util::json_dir() pre-creates PDT_JSON_DIR). A missing parent
  // must surface as ok()==false, not a crash or a stray file.
  const std::string missing =
      ::testing::TempDir() + "/no_such_dir_atomic/sub/x.json";
  AtomicFile f(missing);
  EXPECT_FALSE(f.ok());
  f.stream() << "into the void";  // null sink: must not throw
  EXPECT_FALSE(f.commit());
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(AtomicFile, OverwriteReplacesContentOnlyOnCommit) {
  const std::string path = ::testing::TempDir() + "/atomic_overwrite.json";
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "old";
    ASSERT_TRUE(f.commit());
  }
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "new and longer";
    // Until commit, readers still see the previous artifact whole.
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "old");
    ASSERT_TRUE(f.commit());
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "new and longer");
  std::filesystem::remove(path);
}

TEST(AtomicFile, AbandonAfterPartialWriteLeavesNoTrace) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/atomic_abandon_fresh.json";
  std::filesystem::remove(path);
  {
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << "{\"truncated\": ";
    // Scope exit without commit(): the destructor must clean up.
  }
  EXPECT_FALSE(std::filesystem::exists(path))
      << "abandon must not publish a torn artifact";
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(path + ".tmp"), std::string::npos)
        << "leftover temp file: " << e.path();
  }
}

}  // namespace
}  // namespace pdt::obs
