// Concurrent-writer tests for obs::AtomicFile, the one piece of the
// observability layer that several threads may drive at once: writers in
// one process share its per-process temp-file counter. Built as its own
// ctest suite (label "stress_concurrency") so the TSan CI job can run it
// under -fsanitize=thread; the assertions here are the functional half of
// the contract, TSan is the data-race half.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/atomic_file.hpp"

namespace pdt::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(StressConcurrency, AtomicFileConcurrentWritersOnDistinctPaths) {
  const std::string dir = ::testing::TempDir();
  constexpr int kWriters = 4;
  std::vector<std::string> paths;
  for (int i = 0; i < kWriters; ++i) {
    paths.push_back(dir + "/stress_distinct_" + std::to_string(i) + ".json");
    std::filesystem::remove(paths.back());
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  // NOT vector<bool>: adjacent elements must be distinct memory
  // locations so the concurrent per-writer stores don't race.
  std::array<bool, kWriters> ok{};
  for (int i = 0; i < kWriters; ++i) {
    pool.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      AtomicFile f(paths[static_cast<std::size_t>(i)]);
      if (!f.ok()) return;
      f.stream() << "{\"writer\": " << i << "}\n";
      ok[static_cast<std::size_t>(i)] = f.commit();
    });
  }
  go.store(true);
  for (std::thread& t : pool) t.join();
  for (int i = 0; i < kWriters; ++i) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(i)]) << paths[i];
    EXPECT_EQ(read_file(paths[static_cast<std::size_t>(i)]),
              "{\"writer\": " + std::to_string(i) + "}\n");
    std::filesystem::remove(paths[static_cast<std::size_t>(i)]);
  }
}

TEST(StressConcurrency, AtomicFileRacingSamePathLastRenameWinsNoTornFile) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/stress_same_path.json";
  std::filesystem::remove(path);

  // Two large, distinguishable payloads: any interleaving of the two
  // writers into one temp file would produce a mixed or truncated body.
  const std::string payload_a(1 << 20, 'a');
  const std::string payload_b(1 << 20, 'b');

  std::atomic<bool> go{false};
  const auto writer = [&](const std::string& payload, bool* committed) {
    while (!go.load()) std::this_thread::yield();
    AtomicFile f(path);
    ASSERT_TRUE(f.ok());
    f.stream() << payload;
    *committed = f.commit();
  };
  bool a_ok = false;
  bool b_ok = false;
  std::thread ta(writer, payload_a, &a_ok);
  std::thread tb(writer, payload_b, &b_ok);
  go.store(true);
  ta.join();
  tb.join();
  EXPECT_TRUE(a_ok);
  EXPECT_TRUE(b_ok);

  // Last rename wins with a COMPLETE file — all one writer's bytes.
  const std::string final = read_file(path);
  EXPECT_TRUE(final == payload_a || final == payload_b)
      << "torn file: " << final.size() << " bytes, first char '"
      << (final.empty() ? '?' : final[0]) << "'";

  // Neither writer leaked a temp file.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().string().find(path + ".tmp"), std::string::npos)
        << "leftover temp file: " << e.path();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pdt::obs
