// pdt-ckpt-v1 durability semantics: the on-disk format round-trips
// exactly, every torn/flipped/truncated byte is detected and rejected,
// the store skips back over invalid epochs instead of trusting them,
// the crash hook leaves only committed epochs behind, and AtomicFile's
// commit really is a commit (reopen sees the exact bytes, no temp
// droppings left).
#include "core/ckpt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"
#include "mpsim/fault.hpp"
#include "obs/atomic_file.hpp"

namespace pdt::core {
namespace {

namespace fs = std::filesystem;

data::Dataset workload() {
  return data::discretize_uniform(
      data::quest_generate(500, {.function = 1, .seed = 5}),
      data::quest_paper_bins());
}

/// A fresh scratch directory under the gtest temp root, unique per test.
fs::path scratch_dir(const char* tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A snapshot whose tree section holds a genuinely grown tree (so the
/// digest binding is the real model digest, not a toy string).
RunSnapshot sample_snapshot() {
  const data::Dataset ds = workload();
  ParOptions opt;
  const ParResult serial = build_serial(ds, opt);

  RunSnapshot snap;
  snap.formulation = "sync";
  snap.epoch = 0;
  snap.num_procs = 2;
  snap.seed = 7;
  snap.levels = 3;
  snap.partition_splits = 1;
  snap.rejoins = 2;
  snap.records_moved = 123;
  snap.histogram_words = 4567.375;
  snap.record_words = 9.0;
  snap.cost = mpsim::CostModel::sp2();
  snap.fingerprint = "g++ 13 | deadbeef+dirty | testhost";
  snap.tree_json = dtree::canonical_nodes_json(serial.tree);
  snap.tree_digest = dtree::sha256_hex(snap.tree_json);

  CkptPart part;
  part.ranks = {0, 1};
  part.acc_comm = 12.5;
  NodeWork nw;
  nw.node_id = 0;
  nw.local_rows = {{0, 2, 4}, {1, 3}};
  part.frontier.push_back(nw);
  snap.parts.push_back(part);
  snap.idle.push_back({1});
  snap.mem.resize(2);
  snap.mem[0].live_total = 640;
  snap.mem[0].peak_total = 1024;
  return snap;
}

TEST(Ckpt, TextRoundTripsExactly) {
  const RunSnapshot snap = sample_snapshot();
  const std::string text = ckpt_text(snap);

  RunSnapshot back;
  ASSERT_EQ(parse_ckpt(text, &back), "");
  EXPECT_EQ(back.formulation, snap.formulation);
  EXPECT_EQ(back.epoch, snap.epoch);
  EXPECT_EQ(back.num_procs, snap.num_procs);
  EXPECT_EQ(back.seed, snap.seed);
  EXPECT_EQ(back.levels, snap.levels);
  EXPECT_EQ(back.partition_splits, snap.partition_splits);
  EXPECT_EQ(back.rejoins, snap.rejoins);
  EXPECT_EQ(back.records_moved, snap.records_moved);
  // Exact, not approximate: hexfloat rendering must restore the bits.
  EXPECT_EQ(back.histogram_words, snap.histogram_words);
  EXPECT_EQ(back.record_words, snap.record_words);
  EXPECT_EQ(back.cost.t_s, snap.cost.t_s);
  EXPECT_EQ(back.cost.t_w, snap.cost.t_w);
  EXPECT_EQ(back.cost.t_c, snap.cost.t_c);
  EXPECT_EQ(back.cost.t_io, snap.cost.t_io);
  EXPECT_EQ(back.cost.t_timeout, snap.cost.t_timeout);
  EXPECT_EQ(back.fingerprint, snap.fingerprint);
  EXPECT_EQ(back.tree_digest, snap.tree_digest);
  EXPECT_EQ(back.tree_json, snap.tree_json);
  ASSERT_EQ(back.parts.size(), 1u);
  EXPECT_EQ(back.parts[0].ranks, snap.parts[0].ranks);
  EXPECT_EQ(back.parts[0].acc_comm, snap.parts[0].acc_comm);
  ASSERT_EQ(back.parts[0].frontier.size(), 1u);
  EXPECT_EQ(back.parts[0].frontier[0].node_id, 0);
  EXPECT_EQ(back.parts[0].frontier[0].local_rows,
            snap.parts[0].frontier[0].local_rows);
  EXPECT_EQ(back.idle, snap.idle);
  ASSERT_EQ(back.mem.size(), 2u);
  EXPECT_EQ(back.mem[0].live_total, 640);
  EXPECT_EQ(back.mem[0].peak_total, 1024);
}

TEST(Ckpt, HeaderTamperIsRejected) {
  const std::string text = ckpt_text(sample_snapshot());
  RunSnapshot out;
  EXPECT_NE(parse_ckpt("pdt-ckpt-v2\n" + text.substr(text.find('\n') + 1),
                       &out),
            "");
  EXPECT_NE(parse_ckpt("", &out), "");
  EXPECT_NE(parse_ckpt("pdt-ckpt-v1\n", &out), "");
  EXPECT_NE(parse_ckpt("pdt-ckpt-v1\nepoch -3\nsections 3\n", &out), "");
  // Trailing garbage after the last section is torn-write evidence too.
  EXPECT_NE(parse_ckpt(text + "x", &out), "");
}

TEST(Ckpt, EveryByteFlipIsDetected) {
  const std::string text = ckpt_text(sample_snapshot());
  // Sampled positions across the whole file: header lines, section
  // headers, every payload. A flip anywhere must fail the parse — the
  // per-section digests leave no unauthenticated byte.
  for (std::size_t pos = 0; pos < text.size(); pos += 7) {
    std::string bad = text;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    RunSnapshot out;
    EXPECT_NE(parse_ckpt(bad, &out), "") << "flip at byte " << pos;
  }
}

TEST(Ckpt, EveryTruncationIsDetected) {
  const std::string text = ckpt_text(sample_snapshot());
  for (std::size_t len = 0; len < text.size(); len += 13) {
    RunSnapshot out;
    EXPECT_NE(parse_ckpt(text.substr(0, len), &out), "")
        << "truncated to " << len << " bytes";
  }
}

TEST(Ckpt, TreeSectionMustMatchMetaDigest) {
  // A self-consistent tree section (its own sha is fine) that does not
  // match the digest the meta section names: the cross-section binding
  // must reject it — swapping tree bytes between epochs is corruption.
  RunSnapshot snap = sample_snapshot();
  snap.tree_digest = dtree::sha256_hex("some other tree");
  RunSnapshot out;
  EXPECT_EQ(parse_ckpt(ckpt_text(snap), &out),
            "tree section does not match meta tree_digest");
}

/// The payload of section `name` in checkpoint bytes `text`.
std::string section_payload(const std::string& text, const std::string& name) {
  const std::size_t h = text.find("section " + name + " ");
  const std::size_t nl = text.find('\n', h);
  std::istringstream hdr(text.substr(h, nl - h));
  std::string tag, got;
  std::size_t n = 0;
  hdr >> tag >> got >> n;
  return text.substr(nl + 1, n);
}

/// `text` with section `name`'s payload replaced and its header framed
/// for the new bytes (size and digest), so only the payload is wrong.
std::string with_section(const std::string& text, const std::string& name,
                         const std::string& payload) {
  const std::size_t h = text.find("section " + name + " ");
  const std::size_t nl = text.find('\n', h);
  const std::size_t old_size = section_payload(text, name).size();
  return text.substr(0, h) + "section " + name + " " +
         std::to_string(payload.size()) + " " + dtree::sha256_hex(payload) +
         "\n" + payload + text.substr(nl + 1 + old_size);
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// `text` with section `name`'s payload edited by replacing `from` with
/// `to`, re-framed so the section digest still holds.
std::string edit_section(const std::string& text, const std::string& name,
                         const std::string& from, const std::string& to) {
  return with_section(text, name,
                      replaced(section_payload(text, name), from, to));
}

TEST(Ckpt, EveryEpochOfAFaultedHybridBuildRoundTrips) {
  // The writer the checkpointer uses reuses the tree digest it has just
  // computed; the public ckpt_text hashes the tree itself. Re-rendering
  // every committed epoch (before and after a resume) through the public
  // path must give the file's exact bytes.
  const fs::path dir = scratch_dir("ckpt_hybrid_roundtrip");
  const data::Dataset ds = data::discretize_uniform(
      data::quest_generate(4000, {.function = 2, .seed = 1}),
      data::quest_paper_bins());
  const mpsim::FaultPlan fault = mpsim::FaultPlan::random(1, 8, 6);
  ASSERT_FALSE(fault.fail_stops().empty());
  ParOptions opt;
  opt.num_procs = 8;
  opt.fault = &fault;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(Formulation::Hybrid, ds, opt);
  const int epochs = full.recovery.durable_checkpoints;
  ASSERT_GE(epochs, 4);
  ASSERT_GE(full.recovery.failures, 1);

  ParOptions resume = opt;
  resume.fault = nullptr;
  resume.resume = true;
  resume.resume_epoch = epochs / 2;
  const ParResult resumed = build(Formulation::Hybrid, ds, resume);
  ASSERT_TRUE(resumed.recovery.resumed);
  EXPECT_EQ(dtree::model_digest(resumed.tree), dtree::model_digest(full.tree));

  const CheckpointStore store(dir.string(), 1000);
  const int last = store.latest_epoch();
  EXPECT_GT(last, epochs - 1);  // the resume extended the sequence
  for (int e = 0; e <= last; ++e) {
    const std::string bytes = slurp(store.epoch_path(e));
    RunSnapshot snap;
    ASSERT_EQ(parse_ckpt(bytes, &snap), "") << "epoch " << e;
    EXPECT_EQ(snap.tree_digest, dtree::sha256_hex(snap.tree_json));
    EXPECT_EQ(ckpt_text(snap), bytes) << "epoch " << e;
  }
}

TEST(Ckpt, StateEdgeValuesRoundTrip) {
  RunSnapshot snap = sample_snapshot();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  snap.mem[0].live.fill(kMin);
  snap.mem[0].peak.fill(kMax);
  snap.mem[1].live_total = kMax;
  snap.mem[1].peak_total = kMin;
  snap.histogram_words = std::numeric_limits<double>::denorm_min();
  snap.parts[0].acc_comm = -0.0;
  snap.parts[0].frontier[0].local_rows = {{}, {}};
  CkptPart second;
  second.ranks = {1};
  second.acc_comm = 4.9406564584124654e-320;  // subnormal
  NodeWork nw;
  nw.node_id = 1;
  nw.local_rows = {{std::numeric_limits<data::RowId>::max(), 0}};
  second.frontier.push_back(nw);
  snap.parts.push_back(second);
  CkptPart empty;  // a partition with nothing left to expand
  empty.ranks = {0, 1};
  snap.parts.push_back(empty);
  snap.idle.clear();

  const std::string text = ckpt_text(snap);
  RunSnapshot back;
  ASSERT_EQ(parse_ckpt(text, &back), "");
  EXPECT_EQ(ckpt_text(back), text);
  EXPECT_EQ(back.mem[0].live, snap.mem[0].live);
  EXPECT_EQ(back.mem[0].peak, snap.mem[0].peak);
  EXPECT_EQ(back.mem[1].live_total, kMax);
  EXPECT_EQ(back.mem[1].peak_total, kMin);
  EXPECT_EQ(back.histogram_words, snap.histogram_words);
  ASSERT_EQ(back.parts.size(), 3u);
  EXPECT_EQ(back.parts[0].acc_comm, 0.0);
  EXPECT_TRUE(std::signbit(back.parts[0].acc_comm));
  EXPECT_EQ(back.parts[0].frontier[0].local_rows,
            snap.parts[0].frontier[0].local_rows);
  EXPECT_EQ(back.parts[1].acc_comm, second.acc_comm);
  EXPECT_EQ(back.parts[1].frontier[0].local_rows, nw.local_rows);
  EXPECT_TRUE(back.parts[2].frontier.empty());
  EXPECT_TRUE(back.idle.empty());
}

TEST(Ckpt, ContentRejectionsKeepTheirMessages) {
  // Each edit keeps every section digest valid, so the parser's own
  // checks must catch it, with the message each check has always given.
  const std::string text = ckpt_text(sample_snapshot());
  const std::string meta = section_payload(text, "meta");
  const std::string state = section_payload(text, "state");
  const auto parse = [](const std::string& bytes) {
    RunSnapshot out;
    return parse_ckpt(bytes, &out);
  };
  EXPECT_EQ(parse(with_section(text, "state", state + "extra\n")),
            "state: trailing tokens");
  EXPECT_EQ(parse(edit_section(text, "state", "rows 3 0 2 4",
                               "rows 4 0 2 4")),
            "state: bad row id");
  EXPECT_EQ(parse(edit_section(text, "state", "rows 3 0 2 4",
                               "rows 3 0 2 x4")),
            "state: bad row id");
  EXPECT_EQ(parse(edit_section(text, "state", "ranks 2 0 1",
                               "ranks 2 0 2")),
            "state: bad part rank");
  EXPECT_EQ(parse(edit_section(text, "state", "ranks 2 0 1", "ranks 3 0 1")),
            "state: bad part header");  // more members than ranks
  EXPECT_EQ(parse(edit_section(text, "state", "node 0 2", "node 0 1")),
            "state: bad node header");
  EXPECT_EQ(parse(edit_section(text, "state", "igroup 1 1", "igroup 1 9")),
            "state: bad idle rank");
  EXPECT_EQ(parse(edit_section(text, "state", "mem 2", "mem 1")),
            "state: bad mem count");
  EXPECT_EQ(parse(edit_section(text, "meta", "num_procs 2", "num_procs 0")),
            "meta: bad num_procs");
  EXPECT_EQ(parse(edit_section(text, "meta", "histogram_words ",
                               "histogram_words x")),
            "meta: bad histogram_words");
  EXPECT_EQ(parse(edit_section(text, "meta", "levels 3", "levels -3")),
            "meta: bad levels");
  EXPECT_EQ(parse(edit_section(text, "meta", "fingerprint", "fingerprunt")),
            "meta: bad fingerprint");
  EXPECT_EQ(parse(edit_section(text, "meta", "tree_digest ",
                               "tree_digest 0")),
            "meta: bad tree_digest");
  EXPECT_EQ(parse(with_section(text, "meta", meta)), "");  // the helper
}

TEST(Ckpt, CorruptCountsAreErrorsNotCrashes) {
  // A count that is not a plain decimal, or that exceeds the bytes left,
  // must be a rejection: "-1" read as SIZE_MAX once wrapped the bounds
  // check of the section framing and sized vectors from garbage.
  const std::string text = ckpt_text(sample_snapshot());
  const auto parse = [](const std::string& bytes) {
    RunSnapshot out;
    return parse_ckpt(bytes, &out);
  };
  const std::string meta_size =
      "section meta " + std::to_string(section_payload(text, "meta").size());
  EXPECT_EQ(parse(replaced(text, meta_size, "section meta -1")),
            "bad section header for meta");
  EXPECT_EQ(parse(replaced(text, meta_size, "section meta +1")),
            "bad section header for meta");
  EXPECT_EQ(parse(replaced(text, meta_size,
                           "section meta 99999999999999999999999")),
            "bad section header for meta");
  EXPECT_EQ(parse(replaced(text, meta_size,
                           "section meta 18446744073709551615")),
            "section meta truncated");
  const std::size_t rest = text.size() - text.find('\n', text.find(meta_size));
  EXPECT_EQ(parse(replaced(text, meta_size,
                           "section meta " + std::to_string(rest - 1))),
            "section meta truncated");

  for (const char* bad : {"-1", "18446744073709551615", "100000000"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse(edit_section(text, "state", "rows 3 ",
                                 std::string("rows ") + bad + " ")),
              "state: bad row count");
    EXPECT_EQ(parse(edit_section(text, "state", "parts 1",
                                 std::string("parts ") + bad)),
              "state: bad parts");
    EXPECT_EQ(parse(edit_section(text, "state", "nodes 1",
                                 std::string("nodes ") + bad)),
              "state: bad node count");
    EXPECT_EQ(parse(edit_section(text, "state", "idle 1",
                                 std::string("idle ") + bad)),
              "state: bad idle");
    EXPECT_EQ(parse(edit_section(text, "state", "mem 2",
                                 std::string("mem ") + bad)),
              "state: bad mem count");
  }
}

TEST(CheckpointStore, CorruptCountsAreSkippedBack) {
  const fs::path dir = scratch_dir("ckpt_store_counts");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  for (int e = 0; e < 3; ++e) {
    snap.epoch = e;
    ASSERT_TRUE(store.save(snap));
  }
  const std::string two = slurp(store.epoch_path(2));
  spit(store.epoch_path(2),
       replaced(two,
                "section meta " +
                    std::to_string(section_payload(two, "meta").size()),
                "section meta -1"));
  spit(store.epoch_path(1), edit_section(slurp(store.epoch_path(1)), "state",
                                         "rows 3 ", "rows -1 "));
  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(skipped, 2);
  EXPECT_EQ(err, "ckpt-2.pdt: bad section header for meta");
}

TEST(CheckpointStore, SavePrunesToKeepAndLoadsNewest) {
  const fs::path dir = scratch_dir("ckpt_store_prune");
  CheckpointStore store(dir.string(), /*keep=*/2);
  RunSnapshot snap = sample_snapshot();
  for (int e = 0; e < 4; ++e) {
    snap.epoch = e;
    ASSERT_TRUE(store.save(snap));
  }
  EXPECT_FALSE(fs::exists(store.epoch_path(0)));
  EXPECT_FALSE(fs::exists(store.epoch_path(1)));
  EXPECT_TRUE(fs::exists(store.epoch_path(2)));
  EXPECT_TRUE(fs::exists(store.epoch_path(3)));
  EXPECT_EQ(store.latest_epoch(), 3);

  RunSnapshot out;
  int skipped = -1;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, /*max_epoch=*/-1, &skipped, &err), 3);
  EXPECT_EQ(out.epoch, 3);
  EXPECT_EQ(skipped, 0);
  // Bounded resume: a max_epoch cut makes later epochs invisible — the
  // exact on-disk state a process killed right after that commit leaves.
  EXPECT_EQ(store.load_latest(&out, /*max_epoch=*/2, &skipped, &err), 2);
  EXPECT_EQ(out.epoch, 2);
}

TEST(CheckpointStore, CorruptNewestEpochIsSkippedNotTrusted) {
  const fs::path dir = scratch_dir("ckpt_store_corrupt");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  for (int e = 0; e < 3; ++e) {
    snap.epoch = e;
    ASSERT_TRUE(store.save(snap));
  }
  // Flip one byte mid-file in the newest epoch, truncate the next one.
  std::string bytes = slurp(store.epoch_path(2));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit(store.epoch_path(2), bytes);
  spit(store.epoch_path(1), slurp(store.epoch_path(1)).substr(0, 100));

  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(out.epoch, 0);
  EXPECT_EQ(skipped, 2);
  EXPECT_NE(err.find("ckpt-2.pdt"), std::string::npos) << err;

  // Corrupt the last survivor too: nothing validates, nothing loads —
  // and no exception either, corruption is a skip, never a crash.
  spit(store.epoch_path(0), "pdt-ckpt-v1\ngarbage");
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), -1);
  EXPECT_EQ(skipped, 3);
}

TEST(CheckpointStore, EpochFieldMustAgreeWithFileName) {
  const fs::path dir = scratch_dir("ckpt_store_rename");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  snap.epoch = 0;
  ASSERT_TRUE(store.save(snap));
  // A valid epoch-0 file masquerading as epoch 5 (e.g. a bad manual
  // copy): internally consistent, but the store must not trust it.
  fs::copy_file(store.epoch_path(0), store.epoch_path(5));
  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(skipped, 1);
  EXPECT_NE(err.find("disagrees"), std::string::npos) << err;
}

TEST(CheckpointStore, ManifestIsAdvisoryOnly) {
  const fs::path dir = scratch_dir("ckpt_store_manifest");
  CheckpointStore store(dir.string(), /*keep=*/10);
  RunSnapshot snap = sample_snapshot();
  snap.epoch = 0;
  ASSERT_TRUE(store.save(snap));
  // A stale MANIFEST from an older build points at an epoch that does
  // not exist: the loader must glob the real files and ignore it.
  spit(dir / "MANIFEST",
       "pdt-ckpt-manifest-v1\nlatest 99\nfile ckpt-99.pdt\n");
  RunSnapshot out;
  int skipped = 0;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 0);
  EXPECT_EQ(skipped, 0);
}

// Satellite (a): AtomicFile's commit is durable — the committed path
// reopens with the exact bytes, and neither success nor abandonment
// leaves temp files behind.
TEST(AtomicFile, CommitThenReopenSeesExactBytes) {
  const fs::path dir = scratch_dir("atomic_commit");
  const fs::path target = dir / "out.bin";
  const std::string payload = "line one\nbinary \x01\x02\x03 tail\n";
  {
    obs::AtomicFile f(target.string());
    ASSERT_TRUE(f.ok());
    f.stream().write(payload.data(),
                     static_cast<std::streamsize>(payload.size()));
    EXPECT_TRUE(f.commit());
    EXPECT_TRUE(f.commit());  // idempotent
  }
  EXPECT_EQ(slurp(target), payload);
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // only the committed file, no temp droppings
}

TEST(AtomicFile, AbandonedWriteLeavesNothing) {
  const fs::path dir = scratch_dir("atomic_abandon");
  const fs::path target = dir / "out.bin";
  {
    obs::AtomicFile f(target.string());
    ASSERT_TRUE(f.ok());
    f.stream() << "never committed";
  }
  EXPECT_FALSE(fs::exists(target));
  EXPECT_TRUE(fs::is_empty(dir));
}

// The ckpt_crash_epoch hook _Exit(137)s right after the named epoch
// commits — a SIGKILL stand-in. The child shares our filesystem, so the
// parent can verify exactly what a killed process leaves behind: every
// committed epoch valid, nothing after the crash epoch.
TEST(CkptCrashDeathTest, CrashAfterCommitLeavesOnlyValidEpochs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const fs::path dir = scratch_dir("ckpt_crash");
  const data::Dataset ds = workload();
  ParOptions opt;
  opt.num_procs = 4;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  opt.ckpt_crash_epoch = 1;
  EXPECT_EXIT((void)build(Formulation::Sync, ds, opt),
              ::testing::ExitedWithCode(137), "");

  CheckpointStore store(dir.string(), 1000);
  EXPECT_EQ(store.latest_epoch(), 1);
  RunSnapshot out;
  int skipped = -1;
  std::string err;
  EXPECT_EQ(store.load_latest(&out, -1, &skipped, &err), 1);
  EXPECT_EQ(skipped, 0) << err;
  EXPECT_EQ(out.formulation, "sync");
  EXPECT_EQ(out.num_procs, 4);
}

}  // namespace
}  // namespace pdt::core
