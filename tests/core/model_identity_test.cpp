// Model identity as an artifact property: every formulation at every
// processor count yields the same pdt-model-v1 digest as the serial
// build, and the ParContext-wired SplitAudit pairs with the final tree.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/quest.hpp"
#include "dtree/serialize.hpp"
#include "mpsim/fault.hpp"
#include "obs/observability.hpp"
#include "tree_cells.hpp"

namespace pdt::core {
namespace {

data::Dataset quest_binned(std::size_t n, std::uint64_t seed,
                           int function = 2) {
  return data::discretize_uniform(
      data::quest_generate(n, {.function = function, .seed = seed}),
      data::quest_paper_bins());
}

// Pre-binned (all-categorical) data: every slot the kernel and the row
// partitions read is the dataset's own byte column.
TEST(ModelIdentity, DigestInvariantAcrossFormulationsAndProcs) {
  for (const int function : {2, 7}) {
    const data::Dataset ds = quest_binned(3000, 21, function);
    ParOptions opt;
    const dtree::Tree serial = build_serial(ds, opt).tree;
    ASSERT_GT(serial.num_nodes(), 1) << "F" << function;
    const std::string want = dtree::model_digest(serial);
    for (const Formulation f :
         {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
      for (const int p : {1, 3, 5, 8}) {
        opt.num_procs = p;
        const ParResult res = build(f, ds, opt);
        EXPECT_EQ(dtree::model_digest(res.tree), want)
            << "F" << function << " " << to_string(f) << " P=" << p;
      }
    }
  }
}

// A seeded fail-stop at every processor count: recovery rebuilds the
// frontier on the survivors, derived histograms included, and the
// recovered tree is still serial's.
TEST(ModelIdentity, SeededFailStopRegrowsSerialEverywhere) {
  const data::Dataset ds = quest_binned(3000, 21);
  ParOptions opt;
  const std::string want = dtree::model_digest(build_serial(ds, opt).tree);
  for (const int p : {3, 5, 8}) {
    const mpsim::FaultPlan plan =
        mpsim::FaultPlan::random(40 + static_cast<std::uint64_t>(p), p, 4);
    opt.num_procs = p;
    opt.fault = &plan;
    for (const Formulation f :
         {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
      const ParResult res = build(f, ds, opt);
      EXPECT_EQ(dtree::model_digest(res.tree), want)
          << to_string(f) << " P=" << p << " " << plan.describe();
      if (f == Formulation::Sync) {
        EXPECT_EQ(res.recovery.failures, 1) << "P=" << p;
      }
    }
  }
}

// A hybrid run killed after an intermediate epoch and resumed from it regrows
// serial's tree. Derived histograms are not checkpointed, so the resume
// accumulates its first frontier in full: the killed run's cells plus the
// resumed run's are at least the uninterrupted run's, by exactly the
// frontier nodes whose histograms the kill lost.
TEST(ModelIdentity, HybridResumeFromIntermediateEpochRegrowsSerial) {
  namespace fs = std::filesystem;
  const data::Dataset ds = quest_binned(3000, 21);
  ParOptions opt;
  const std::string want = dtree::model_digest(build_serial(ds, opt).tree);
  const fs::path dir = fs::path(::testing::TempDir()) / "identity_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  opt.num_procs = 8;
  opt.ckpt_dir = dir.string();
  opt.ckpt_keep = 1000;
  const ParResult full = build(Formulation::Hybrid, ds, opt);
  ASSERT_EQ(dtree::model_digest(full.tree), want);
  // A quarter of the way in: the hybrid's many late epochs expand nodes
  // smaller than one histogram, which derive nothing, while this cut's
  // frontier still carries derived histograms for the kill to lose.
  const int cut = (full.recovery.durable_checkpoints - 1) / 4;
  ASSERT_GT(cut, 0);

  ParOptions ropt = opt;
  ropt.resume = true;
  ropt.resume_epoch = cut;
  const ParResult resumed = build(Formulation::Hybrid, ds, ropt);
  EXPECT_EQ(resumed.recovery.resume_epoch, cut);
  EXPECT_EQ(dtree::model_digest(resumed.tree), want);

  RunSnapshot snap;
  int skipped = 0;
  std::string error;
  ASSERT_EQ(CheckpointStore(dir.string(), 1000)
                .load_latest(&snap, cut, &skipped, &error),
            cut)
      << error;
  std::vector<dtree::NodeSpec> specs;
  ASSERT_EQ(dtree::parse_canonical_nodes(snap.tree_json, &specs), "");
  dtree::Tree at_cut;
  ASSERT_EQ(dtree::tree_from_nodes(specs, &at_cut), "");
  std::set<int> frontier;
  for (const CkptPart& part : snap.parts) {
    for (const NodeWork& nw : part.frontier) frontier.insert(nw.node_id);
  }
  const TreeCells killed =
      tree_cells(at_cut, dtree::AttrLayout(ds.schema(), opt.grow.cont_bins),
                 opt.grow.max_depth, frontier);
  EXPECT_GT(killed.lost, 0);
  EXPECT_GE(killed.derived + resumed.cells_accumulated,
            full.cells_accumulated);
  EXPECT_EQ(killed.derived + resumed.cells_accumulated,
            full.cells_accumulated + killed.lost);
  fs::remove_all(dir);
}

// The fig8 options on raw continuous Quest data: per-node KMeans or
// Quantile discretization over 32 micro-bins, so every Threshold test is
// a micro-bin cut and the formulations route rows by their slot codes.
struct PerNodeCase {
  int function;
  dtree::ContSplit cont_split;
};

std::string case_name(const PerNodeCase& c) {
  return "F" + std::to_string(c.function) +
         (c.cont_split == dtree::ContSplit::KMeans ? "KMeans" : "Quantile");
}

void PrintTo(const PerNodeCase& c, std::ostream* os) { *os << case_name(c); }

class PerNodeModelIdentity : public ::testing::TestWithParam<PerNodeCase> {};

/// Routing every training row down `tree` by raw value (Tree::route)
/// reaches each node with exactly the class counts the build recorded
/// there from its code-routed rows.
void expect_raw_routing_reproduces_counts(const dtree::Tree& tree,
                                          const data::Dataset& ds) {
  std::vector<std::vector<std::int64_t>> counts(
      static_cast<std::size_t>(tree.num_nodes()),
      std::vector<std::int64_t>(
          static_cast<std::size_t>(ds.schema().num_classes()), 0));
  for (std::size_t row = 0; row < ds.num_rows(); ++row) {
    int id = tree.root();
    while (true) {
      ++counts[static_cast<std::size_t>(id)]
              [static_cast<std::size_t>(ds.label(row))];
      if (tree.node(id).is_leaf()) break;
      id = tree.node(id).first_child + tree.route(id, ds, row);
    }
  }
  for (int id = 0; id < tree.num_nodes(); ++id) {
    ASSERT_EQ(counts[static_cast<std::size_t>(id)],
              tree.node(id).class_counts)
        << "node " << id;
  }
}

TEST_P(PerNodeModelIdentity, EveryFormulationAndProcCountRegrowsSerial) {
  const PerNodeCase c = GetParam();
  const data::Dataset ds =
      data::quest_generate(4000, {.function = c.function, .seed = 25});
  ParOptions opt;
  opt.grow.cont_split = c.cont_split;
  opt.grow.cont_bins = 32;
  opt.grow.per_node_bins = 8;
  opt.grow.min_records = 8;
  const dtree::Tree serial = build_serial(ds, opt).tree;
  ASSERT_GT(serial.num_nodes(), 1);
  expect_raw_routing_reproduces_counts(serial, ds);
  const std::string want = dtree::model_digest(serial);
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    for (const int p : {1, 3, 5, 8}) {
      opt.num_procs = p;
      const ParResult res = build(f, ds, opt);
      EXPECT_EQ(dtree::model_digest(res.tree), want)
          << to_string(f) << " P=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig8Options, PerNodeModelIdentity,
    ::testing::Values(PerNodeCase{2, dtree::ContSplit::KMeans},
                      PerNodeCase{2, dtree::ContSplit::Quantile},
                      PerNodeCase{7, dtree::ContSplit::KMeans},
                      PerNodeCase{7, dtree::ContSplit::Quantile}),
    [](const ::testing::TestParamInfo<PerNodeCase>& info) {
      return case_name(info.param);
    });

TEST(ModelIdentity, AuditedBuildEntriesPairWithInternalNodes) {
  const data::Dataset ds = quest_binned(2000, 22);
  for (const Formulation f :
       {Formulation::Sync, Formulation::Partitioned, Formulation::Hybrid}) {
    obs::Observability obs;
    obs.enable_split_audit();
    ParOptions opt;
    opt.num_procs = 8;
    opt.obs = &obs;
    const ParResult res = build(f, ds, opt);

    int internal = 0;
    for (int id = 0; id < res.tree.num_nodes(); ++id) {
      if (!res.tree.node(id).is_leaf()) ++internal;
    }
    ASSERT_EQ(obs.split_audit()->size(), static_cast<std::size_t>(internal))
        << to_string(f);

    // The root's feeds come from all 8 ranks and account for every record.
    const dtree::SplitAuditEntry* root = nullptr;
    for (const dtree::SplitAuditEntry& e : obs.split_audit()->entries()) {
      if (e.node_id == 0) root = &e;
    }
    ASSERT_NE(root, nullptr) << to_string(f);
    const std::int64_t fed =
        std::accumulate(root->per_rank_records.begin(),
                        root->per_rank_records.end(), std::int64_t{0});
    EXPECT_EQ(fed, static_cast<std::int64_t>(ds.num_rows())) << to_string(f);
    int ranks_feeding = 0;
    for (const std::int64_t r : root->per_rank_records) {
      if (r > 0) ++ranks_feeding;
    }
    EXPECT_GT(ranks_feeding, 1) << to_string(f);
  }
}

TEST(ModelIdentity, AuditAgreesWithSerialDecisions) {
  const data::Dataset ds = quest_binned(2000, 23);
  // Arena ids differ across formulations (hybrid merges partition
  // subtrees), so the comparison key is the canonical id — the same
  // remap model_json applies at export time.
  auto audit_by_canon = [&](Formulation f, int procs) {
    obs::Observability obs;
    obs.enable_split_audit();
    ParOptions opt;
    opt.num_procs = procs;
    opt.obs = &obs;
    const ParResult res =
        procs == 1 ? build_serial(ds, opt) : build(f, ds, opt);
    const std::vector<int> order = dtree::canonical_order(res.tree);
    std::vector<int> canon_of(static_cast<std::size_t>(res.tree.num_nodes()),
                              -1);
    for (std::size_t k = 0; k < order.size(); ++k) {
      canon_of[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
    }
    std::map<int, dtree::SplitAuditEntry> out;
    for (const dtree::SplitAuditEntry& e : obs.split_audit()->entries()) {
      out[canon_of[static_cast<std::size_t>(e.node_id)]] = e;
    }
    return out;
  };
  const auto s = audit_by_canon(Formulation::Sync, 1);
  const auto p = audit_by_canon(Formulation::Hybrid, 8);
  ASSERT_EQ(s.size(), p.size());
  for (const auto& [canon, e] : s) {
    const auto it = p.find(canon);
    ASSERT_NE(it, p.end()) << "canonical node " << canon;
    EXPECT_DOUBLE_EQ(e.gain, it->second.gain);
    EXPECT_DOUBLE_EQ(e.runner_up_gain, it->second.runner_up_gain);
    EXPECT_EQ(e.runner_up_attr, it->second.runner_up_attr);
    EXPECT_EQ(e.level, it->second.level);
  }
}

TEST(ModelIdentity, AuditAttachmentKeepsClockAndTreeBitIdentical) {
  const data::Dataset ds = quest_binned(1500, 24);
  ParOptions plain_opt;
  plain_opt.num_procs = 8;
  const ParResult plain = build(Formulation::Partitioned, ds, plain_opt);

  obs::Observability obs;
  obs.enable_split_audit();
  ParOptions audited_opt;
  audited_opt.num_procs = 8;
  audited_opt.obs = &obs;
  const ParResult audited = build(Formulation::Partitioned, ds, audited_opt);

  EXPECT_TRUE(audited.tree.same_as(plain.tree));
  EXPECT_EQ(audited.parallel_time, plain.parallel_time);
  EXPECT_EQ(dtree::model_digest(audited.tree),
            dtree::model_digest(plain.tree));
}

}  // namespace
}  // namespace pdt::core
