#include "workloads.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/ckpt.hpp"
#include "core/runner.hpp"
#include "data/discretize.hpp"
#include "data/partition.hpp"
#include "data/quest.hpp"
#include "dtree/histogram.hpp"
#include "dtree/serialize.hpp"
#include "dtree/split.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/group.hpp"
#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "trace.hpp"
#include "yardstick.hpp"

namespace hostbench {
namespace {

namespace fs = std::filesystem;
using pdt::core::Formulation;
using pdt::core::ParOptions;
using pdt::core::ParResult;

enum class Kind { Fig8, Durable };

/// Records every workload generates unless --records overrides it.
constexpr std::int64_t kRecords = 160000;

struct Workload {
  const char* name;
  Kind kind;
  /// Serial model digest prefix for seed 1 at kRecords; checked in
  /// addition to the per-run serial digest.
  const char* seed1_digest;
};

const Workload kWorkloads[] = {
    {"fig8-kmeans", Kind::Fig8, "900297b07074"},
    {"durable-resume", Kind::Durable, "58ac53f6e700"},
};

/// A parallel build of a workload; `key` names it as "<formulation>.P<p>".
struct BuildSpec {
  const char* key;
  Formulation f;
  int procs;
};

constexpr int kKeepAllEpochs = 1 << 20;
/// durable-resume's fault plan is drawn from a fixed seed, so the injected
/// fail-stop (rank, level) is the same for every workload seed.
constexpr std::uint64_t kFaultSeed = 1;
constexpr int kFaultMaxLevel = 6;

/// The build kinds and layers the traced run reports on, in output order.
/// A workload that does not run a kind prints 0 for it (see NOTES.md).
const char* const kBuildKeys[] = {"serial.P1", "sync.P8", "partitioned.P8",
                                  "hybrid.P8", "hybrid.P64"};
const char* const kLayers[] = {"data", "dtree", "mpsim", "core", "obs"};

volatile std::int64_t g_sink = 0;  // keeps probe results observable

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// A "Vm...:" field of /proc/self/status in KiB, or -1 if unreadable.
double proc_status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  double kib = -1.0;
  while (in >> key) {
    if (key == field + ":") {
      in >> kib;
      break;
    }
    in.ignore(1 << 12, '\n');
  }
  return kib;
}

/// Hand freed heap back to the kernel, so resident size counts only live
/// allocations.
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Reset the process's resident high-water mark (VmHWM) to its current
/// resident size. Returns false where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Call `once` while one more call, lasting as long as the median of the
/// calls so far (`first_estimate_s` before any), still ends by `deadline`
/// (steady-clock ns). Returns the number of calls.
int repeat_until(std::int64_t deadline, double first_estimate_s,
                 const std::function<void()>& once) {
  std::vector<double> took;
  double estimate_s = first_estimate_s;
  while (now_ns() + static_cast<std::int64_t>(estimate_s * 1e9) <= deadline) {
    const std::int64_t t0 = now_ns();
    once();
    took.push_back(seconds_since(t0));
    estimate_s = median(took);
  }
  return static_cast<int>(took.size());
}

/// Histogram cells the tree's growth accumulates: every node's records
/// times the attribute count (computed from the node class counts).
double tree_cells(const pdt::dtree::Tree& tree, int attrs) {
  double cells = 0.0;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    cells += static_cast<double>(tree.node(id).num_records()) * attrs;
  }
  return cells;
}

class Runner {
 public:
  Runner(const RunOptions& opt, const Workload& w)
      : opt_(opt),
        w_(w),
        n_(opt.records > 0 ? opt.records : kRecords),
        tracer_(opt.trace),
        yard_(w.kind == Kind::Fig8),
        fault_(pdt::mpsim::FaultPlan::random(kFaultSeed, 8, kFaultMaxLevel)),
        inject_pending_(opt.inject_mismatch) {
    if (w.kind == Kind::Fig8) {
      // The fig8 harness's options: per-node SPEC-style KMeans over 32
      // global micro-bins.
      base_.grow.cont_split = pdt::dtree::ContSplit::KMeans;
      base_.grow.cont_bins = 32;
      base_.grow.per_node_bins = 8;
      base_.grow.min_records = 8;
    }
  }

  RunResult run() {
    deadline_ = now_ns() + static_cast<std::int64_t>(opt_.seconds * 1e9);
    trim_heap();
    base_rss_kib_ = proc_status_kib("VmRSS");
    setup();
    if (opt_.trace) {
      traced_run();
    } else {
      timed_run();
    }
    RunResult r;
    r.attempted = attempted_;
    r.failed = failed_;
    r.metrics = std::move(metrics_);
    return r;
  }

 private:
  struct Built {
    double host_s = 0.0;
    ParResult res;
  };

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// The plain P>1 builds of a repetition. durable-resume also runs its
  /// own observed, checkpointed hybrid P=8 build and the resume.
  [[nodiscard]] std::vector<BuildSpec> parallel_specs() const {
    if (w_.kind == Kind::Durable) {
      return {{"sync.P8", Formulation::Sync, 8},
              {"partitioned.P8", Formulation::Partitioned, 8}};
    }
    return {{"hybrid.P8", Formulation::Hybrid, 8},
            {"hybrid.P64", Formulation::Hybrid, 64}};
  }

  // ---- set-up -----------------------------------------------------------

  /// Generate (and for pre-binned workloads, bin) the data several times,
  /// each time between two yardstick runs; the last dataset is kept.
  /// setup_s is the median set-up time relative to the yardstick, in
  /// seconds of the yardstick's reference host, so the host's bursts drop
  /// out as they do for the build costs. Afterwards the resident
  /// high-water mark is reset for serial_peak_rss_mb.
  void setup() {
    std::vector<double> rel, total, gen, disc, yard;
    const std::int64_t t_all = now_ns();
    double y_before = yard_.run();
    yard.push_back(y_before);
    while (rel.size() < 5 ||
           (rel.size() < 100 && seconds_since(t_all) < kSetupSeconds)) {
      ds_ = pdt::data::Dataset();  // free the previous set-up's data first
      const auto s = tracer_.span("bench.setup");
      const std::int64_t t0 = now_ns();
      pdt::data::Dataset raw;
      {
        const auto g = tracer_.span("data.generate");
        raw = pdt::data::quest_generate(
            static_cast<std::size_t>(n_), {.function = 2, .seed = opt_.seed});
      }
      gen.push_back(seconds_since(t0));
      if (w_.kind == Kind::Fig8) {
        ds_ = std::move(raw);
        disc.push_back(0.0);
      } else {
        const std::int64_t t1 = now_ns();
        const auto d = tracer_.span("data.discretize");
        ds_ = pdt::data::discretize_uniform(raw,
                                            pdt::data::quest_paper_bins());
        disc.push_back(seconds_since(t1));
      }
      total.push_back(seconds_since(t0));
      const double y_after = yard_.run();
      yard.push_back(y_after);
      rel.push_back(total.back() / (0.5 * (y_before + y_after)));
      y_before = y_after;
    }
    setup_s_ = median(rel) * yard_.reference_s();
    generate_s_ = median(gen);
    discretize_s_ = median(disc);
    std::fprintf(stderr,
                 "%s: set-up %zu times, median %.4f s (fastest %.4f s), "
                 "yardstick median %.4f s, setup_s %.4f\n",
                 w_.name, total.size(), median(total),
                 *std::min_element(total.begin(), total.end()), median(yard),
                 setup_s_);
    trim_heap();
    if (!reset_peak_rss()) {
      std::fprintf(stderr, "%s: cannot reset VmHWM; serial_peak_rss_mb "
                   "includes set-up\n", w_.name);
    }
  }

  // ---- builds -----------------------------------------------------------

  /// Open the root span of one build; every span until the next call
  /// shares its build id.
  [[nodiscard]] Tracer::Scope begin_build() {
    tracer_.next_build();
    return tracer_.span("bench.build");
  }

  /// Run one build (timed around the core call only) and check its model
  /// digest against the run's serial digest. Throws and mismatches count
  /// as failures; nullopt on a throw.
  std::optional<Built> run_build(const char* key, Formulation f,
                                 const ParOptions& o) {
    ++attempted_;
    Built b;
    try {
      const auto s = tracer_.span("core.build");
      const std::int64_t t0 = now_ns();
      b.res = o.num_procs == 1 ? pdt::core::build_serial(ds_, o)
                               : pdt::core::build(f, ds_, o);
      b.host_s = seconds_since(t0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: build threw: %s\n", key, e.what());
      ++failed_;
      return std::nullopt;
    }
    std::string digest;
    {
      const auto s = tracer_.span("dtree.model_digest");
      digest = pdt::dtree::model_digest(b.res.tree);
    }
    if (serial_digest_.empty()) {
      serial_digest_ = digest;
      std::fprintf(stderr, "%s: serial digest %s\n", w_.name, digest.c_str());
      const bool known_size = opt_.records <= 0 || opt_.records == kRecords;
      if (opt_.seed == 1 && known_size &&
          digest.rfind(w_.seed1_digest, 0) != 0) {
        std::fprintf(stderr, "FAIL %s: serial digest %s, expected %s...\n",
                     key, digest.c_str(), w_.seed1_digest);
        ++failed_;
      }
      return b;
    }
    if (inject_pending_) {
      inject_pending_ = false;
      digest[0] = digest[0] == '0' ? '1' : '0';
    }
    if (digest != serial_digest_) {
      std::fprintf(stderr, "FAIL %s: digest %s != serial %s\n", key,
                   digest.c_str(), serial_digest_.c_str());
      ++failed_;
    }
    return b;
  }

  std::optional<Built> simple_build(const char* key, Formulation f,
                                    int procs, ParOptions o) {
    o.num_procs = procs;
    const auto s = begin_build();
    return run_build(key, f, o);
  }

  [[nodiscard]] fs::path ckpt_dir(const char* tag) const {
    fs::path dir = fs::path(opt_.work_dir) / (std::string("ckpt-") + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  /// The full observability bundle: event log, host profiler, split audit.
  [[nodiscard]] std::unique_ptr<pdt::obs::Observability> full_obs() {
    const auto s = tracer_.span("obs.setup");
    auto ob = std::make_unique<pdt::obs::Observability>(
        pdt::obs::ProfilerConfig{.timeline = true});
    ob->enable_event_log();
    ob->enable_host_profiler();
    ob->enable_split_audit();
    return ob;
  }

  /// Hybrid P=8 options with `ob` attached.
  [[nodiscard]] ParOptions observed_hybrid8(pdt::obs::Observability* ob) const {
    ParOptions o = base_;
    o.num_procs = 8;
    o.obs = ob;
    o.trace = true;
    return o;
  }

  /// durable-resume's main build: hybrid P=8 with the full observability
  /// bundle, durable checkpoints into a fresh directory and one injected
  /// fail-stop; the event log is then written to a file, as a harness would.
  std::optional<Built> durable_build(const fs::path& dir) {
    const auto s = begin_build();
    const std::unique_ptr<pdt::obs::Observability> ob = full_obs();
    ParOptions o = observed_hybrid8(ob.get());
    o.fault = &fault_;
    o.ckpt_dir = dir.string();
    o.ckpt_keep = kKeepAllEpochs;
    std::optional<Built> b = run_build("hybrid.P8", Formulation::Hybrid, o);
    if (b) {
      const auto sw = tracer_.span("obs.write_events");
      pdt::obs::EventLogMeta meta;
      meta.formulation = "hybrid";
      meta.workload = w_.name;
      meta.n = n_;
      meta.procs = 8;
      std::ofstream os(fs::path(opt_.work_dir) / "events.json");
      pdt::obs::write_events_report(os, *ob->event_log(), meta,
                                    ob->host_profiler());
      events_ = static_cast<double>(ob->event_log()->events().size());
    }
    return b;
  }

  /// Resume a hybrid P=8 build from the middle epoch of `dir`.
  std::optional<Built> resume_build(const fs::path& dir, int epochs) {
    ParOptions o = base_;
    o.num_procs = 8;
    o.ckpt_dir = dir.string();
    o.ckpt_keep = kKeepAllEpochs;
    o.resume = true;
    o.resume_epoch = epochs / 2;
    const auto s = begin_build();
    return run_build("resume.P8", Formulation::Hybrid, o);
  }

  /// One timed build of a repetition.
  struct Sample {
    std::string key;  ///< "serial.P1" or a P>1 key
    double host_s = 0.0;
    /// Untraced runs only: host_s over the mean of the yardstick samples
    /// taken right before and right after the build.
    double vs_yardstick = 0.0;
  };

  /// Run the workload's builds once. With `keep`, the results the traced
  /// run reports on are retained and the checkpoint epochs are parsed.
  std::vector<Sample> rep(bool keep) {
    const auto s = tracer_.span("bench.rep");
    std::vector<Sample> out;
    std::vector<double> yard;
    const auto done = [&](const std::string& key, double host_s) {
      out.push_back({key, host_s, 0.0});
      if (!opt_.trace) yard.push_back(yard_.run());
    };
    if (!opt_.trace) yard.push_back(yard_.run());
    if (auto b = simple_build("serial.P1", Formulation::Sync, 1, base_)) {
      done("serial.P1", b->host_s);
      if (serial_virtual_ == 0.0) {
        serial_virtual_ = b->res.parallel_time;
        tree_cells_ = tree_cells(b->res.tree, ds_.num_attributes());
        // The data plus the serial build's peak; the benchmark's own
        // tables and the set-up's transients are not counted.
        serial_peak_rss_mb_ =
            (proc_status_kib("VmHWM") - base_rss_kib_) / 1024.0;
      }
    }
    for (const BuildSpec& spec : parallel_specs()) {
      auto b = simple_build(spec.key, spec.f, spec.procs, base_);
      if (!b) continue;
      done(spec.key, b->host_s);
      note_parallel(spec.key, *b, keep);
    }
    if (w_.kind == Kind::Durable) {
      const fs::path dir = ckpt_dir("durable");
      if (auto b = durable_build(dir)) {
        done("hybrid.P8", b->host_s);
        note_parallel("hybrid.P8", *b, keep);
        const int epochs = b->res.recovery.durable_checkpoints;
        if (auto rb = resume_build(dir, epochs)) done("resume.P8", rb->host_s);
        if (keep) parse_epochs(dir);
      }
      fs::remove_all(dir);
    }
    for (std::size_t i = 0; !opt_.trace && i < out.size(); ++i) {
      out[i].vs_yardstick = out[i].host_s / (0.5 * (yard[i] + yard[i + 1]));
    }
    return out;
  }

  void note_parallel(const char* key, const Built& b, bool keep) {
    if (std::string(key) != "hybrid.P8") return;
    if (hybrid8_virtual_ == 0.0) hybrid8_virtual_ = b.res.parallel_time;
    if (keep) hybrid8_ = b.res;
  }

  // ---- untraced run: end-to-end metrics --------------------------------

  /// Repeat the workload's builds until the time budget is spent. A build
  /// kind's cost is the median over repetitions of its time relative to
  /// the yardstick, in yardstick cells per cell of the grown tree, so the
  /// host's noise and the seed's tree size drop out.
  void timed_run() {
    std::map<std::string, std::vector<double>> rel, raw;
    const std::int64_t t0 = now_ns();
    const auto once = [&] {
      for (const Sample& x : rep(false)) {
        rel[x.key].push_back(x.vs_yardstick);
        raw[x.key].push_back(x.host_s);
      }
    };
    once();  // at least one repetition, however short the budget
    const int reps = 1 + repeat_until(deadline_, seconds_since(t0), once);
    std::fprintf(stderr, "%s: %d repetition(s) in %.1f s\n", w_.name, reps,
                 seconds_since(t0));
    double train = 0.0;
    double serial = 0.0;
    for (const auto& [key, v] : rel) {
      const double cost =
          tree_cells_ > 0.0 ? median(v) * yard_.cells() / tree_cells_ : 0.0;
      const std::vector<double>& sec = raw[key];
      std::fprintf(stderr,
                   "%s %-10s median %.4f s (fastest %.4f s), cost %.4f, "
                   "%zu samples\n",
                   w_.name, key.c_str(), median(sec),
                   *std::min_element(sec.begin(), sec.end()), cost, v.size());
      (key == "serial.P1" ? serial : train) += cost;
    }
    metric("setup_s", setup_s_, "s");
    metric("train_cost", train, "refcell/cell");
    metric("serial_cost", serial, "refcell/cell");
    metric("serial_peak_rss_mb", serial_peak_rss_mb_, "MB");
    metric("virtual_speedup",
           hybrid8_virtual_ > 0.0 ? serial_virtual_ / hybrid8_virtual_ : 0.0,
           "x");
  }

  // ---- traced run: per-layer metrics ------------------------------------

  /// One repetition of the builds with spans on (its results feed the
  /// probes), the single-layer probes and the paired overheads, then more
  /// repetitions with what is left of the time budget; each build kind's
  /// seconds is its median over the repetitions.
  void traced_run() {
    std::map<std::string, std::vector<double>> samples;
    const auto once = [&](bool keep) {
      for (const Sample& x : rep(keep)) samples[x.key].push_back(x.host_s);
    };
    const std::int64_t t_first = now_ns();
    once(true);
    const double first_rep_s = seconds_since(t_first);
    probes();
    if (w_.kind == Kind::Durable) durable_pairs();
    const std::int64_t t0 = now_ns();
    // Tracing overhead: the serial build untraced (A) against traced (B),
    // paired and interleaved; pairs sized to a few seconds.
    const double serial_s =
        samples.count("serial.P1") != 0 ? samples["serial.P1"][0] : 1.0;
    const int pairs =
        std::clamp(static_cast<int>(4.0 / (2.0 * serial_s)), 2, 6);
    const PairedTimes tp = paired_ab(
        pairs,
        [&] {
          tracer_.set_on(false);
          const double s = timed_serial_build();
          tracer_.set_on(true);
          return s;
        },
        [&] { return timed_serial_build(); });
    std::fprintf(stderr, "%s: trace-overhead pairs %d in %.1f s\n", w_.name,
                 pairs, seconds_since(t0));
    const int reps =
        1 + repeat_until(deadline_, first_rep_s, [&] { once(false); });
    std::fprintf(stderr, "%s: %d traced repetition(s)\n", w_.name, reps);
    for (const auto& [key, v] : samples) build_s_[key] = median(v);
    report_layers(tp.ratio());
  }

  /// Seconds of one plain hybrid P=8 build (0 if it threw).
  double plain_hybrid8() {
    const auto b = simple_build("hybrid.P8", Formulation::Hybrid, 8, base_);
    return b ? b->host_s : 0.0;
  }

  /// Wall seconds of one serial build including its digest check.
  double timed_serial_build() {
    const std::int64_t t0 = now_ns();
    (void)simple_build("serial.P1", Formulation::Sync, 1, base_);
    return seconds_since(t0);
  }

  void probes() {
    const pdt::dtree::GrowOptions& grow = base_.grow;
    const pdt::data::Schema& schema = ds_.schema();
    const int attrs = ds_.num_attributes();
    pdt::dtree::SlotMapper mapper;
    {
      const auto s = tracer_.span("dtree.slot_mapper");
      mapper = pdt::dtree::SlotMapper(ds_, grow.cont_bins);
    }
    const pdt::dtree::AttrLayout layout(schema, grow.cont_bins);
    // The rows in the order a one-rank build holds them (the formulations'
    // random initial distribution), so the kernel sees their access pattern.
    const std::vector<pdt::data::RowId> rows = pdt::data::partition_random(
        static_cast<std::size_t>(n_), 1, base_.seed)[0];
    const auto sp = tracer_.span("bench.probes");
    pdt::dtree::Hist hist(static_cast<std::size_t>(layout.total()), 0);

    // Histogram kernel over the workload's own node row lists: every row
    // is routed through the grown tree level by level, as the formulations
    // partition them (not timed), then accumulate() is timed per node over
    // all nodes. Passes are paired with plain hybrid P=8 builds, so the
    // kernel's share of a build compares times taken side by side. The
    // root's histogram feeds the split-evaluation probe below.
    pdt::dtree::Hist root_hist;
    if (hybrid8_) {
      const pdt::dtree::Tree& tree = hybrid8_->tree;
      std::vector<std::pair<int, std::vector<pdt::data::RowId>>> nodes;
      nodes.emplace_back(tree.root(), rows);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const pdt::dtree::Node& node = tree.node(nodes[i].first);
        if (node.is_leaf()) continue;
        const pdt::dtree::SplitTest& t = node.test;
        std::vector<std::vector<pdt::data::RowId>> kids(
            static_cast<std::size_t>(t.num_children));
        for (const pdt::data::RowId row : nodes[i].second) {
          const int child =
              t.kind == pdt::dtree::SplitTest::Kind::Threshold
                  ? (ds_.cont(t.attr, row) < t.threshold ? 0 : 1)
                  : t.child_of_slot(mapper.slot(t.attr, row));
          kids[static_cast<std::size_t>(child)].push_back(row);
        }
        for (int k = 0; k < t.num_children; ++k) {
          auto& kr = kids[static_cast<std::size_t>(k)];
          if (!kr.empty()) {
            nodes.emplace_back(node.first_child + k, std::move(kr));
          }
        }
      }
      double cells = 0.0;
      for (const auto& [id, node_rows] : nodes) {
        cells += static_cast<double>(node_rows.size()) * attrs;
      }
      const auto pass = [&] {
        const auto s = tracer_.span("dtree.accumulate");
        double acc_s = 0.0;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          std::fill(hist.begin(), hist.end(), 0);
          const std::int64_t t0 = now_ns();
          pdt::dtree::accumulate(hist, layout, mapper, nodes[i].second);
          acc_s += seconds_since(t0);
          if (i == 0 && root_hist.empty()) root_hist = hist;
        }
        return acc_s;
      };
      const PairedTimes pk = paired_ab(3, [&] { return plain_hybrid8(); },
                                       pass);
      accumulate_ns_ = cells > 0 ? median(pk.b_s) * 1e9 / cells : 0.0;
      accumulate_share_ = pk.ratio();
      routed_cells_ = cells;
    }

    // Slot lookups of the continuous attributes (bin_of per cell).
    std::vector<int> cont;
    for (int a = 0; a < attrs; ++a) {
      if (schema.attr(a).is_continuous()) cont.push_back(a);
    }
    if (!cont.empty()) {
      std::vector<double> lk;
      for (int r = 0; r < 3; ++r) {
        const auto s = tracer_.span("dtree.slot");
        const std::int64_t t0 = now_ns();
        std::int64_t sum = 0;
        for (const int a : cont) {
          for (const pdt::data::RowId row : rows) {
            sum += mapper.slot(a, row);
          }
        }
        lk.push_back(seconds_since(t0));
        g_sink = g_sink + sum;
      }
      slot_ns_ = median(lk) * 1e9 /
                 (static_cast<double>(n_) * static_cast<double>(cont.size()));
    }

    // Split evaluation on the root histogram (BestTracker via choose_split).
    if (!root_hist.empty()) {
      const auto s = tracer_.span("dtree.choose_split");
      const std::int64_t t0 = now_ns();
      int calls = 0;
      while (calls < 20 || (calls < 20000 && seconds_since(t0) < 0.2)) {
        const pdt::dtree::SplitDecision d =
            pdt::dtree::choose_split(root_hist, layout, schema, mapper, grow);
        g_sink = g_sink + d.test.attr;
        ++calls;
      }
      split_eval_us_ = seconds_since(t0) * 1e6 / calls;
    }

    // Canonical model bytes of the grown tree (digest and checkpoint form).
    if (hybrid8_) {
      std::vector<double> cj;
      for (int r = 0; r < 5; ++r) {
        const auto s = tracer_.span("dtree.canonical_nodes_json");
        const std::int64_t t0 = now_ns();
        g_sink = g_sink + static_cast<std::int64_t>(
                              pdt::dtree::canonical_nodes_json(hybrid8_->tree)
                                  .size());
        cj.push_back(seconds_since(t0));
      }
      canonical_json_ms_ = median(cj) * 1e3;
    }

    // One all-reduce of a root-sized histogram over an 8-rank group.
    {
      pdt::mpsim::Machine m(8);
      const pdt::mpsim::Group g = pdt::mpsim::Group::whole(m);
      const std::size_t len = static_cast<std::size_t>(layout.total());
      std::vector<std::vector<std::int64_t>> bufs(
          8, std::vector<std::int64_t>(len, 0));
      std::vector<std::int64_t*> ptrs;
      for (auto& b : bufs) ptrs.push_back(b.data());
      const auto s = tracer_.span("mpsim.all_reduce_sum");
      const std::int64_t t0 = now_ns();
      int calls = 0;
      while (calls < 50 || (calls < 200000 && seconds_since(t0) < 0.2)) {
        g.all_reduce_sum(ptrs, len);
        ++calls;
      }
      all_reduce_us_ = seconds_since(t0) * 1e6 / calls;
    }
  }

  /// durable-resume only: the paired observability and checkpoint
  /// overheads against the plain hybrid P=8 build.
  void durable_pairs() {
    const auto plain = [&] { return plain_hybrid8(); };
    const PairedTimes po = paired_ab(4, plain, [&] {
      const auto s = begin_build();
      const std::unique_ptr<pdt::obs::Observability> ob = full_obs();
      const auto b = run_build("hybrid.P8", Formulation::Hybrid,
                               observed_hybrid8(ob.get()));
      return b ? b->host_s : 0.0;
    });
    obs_overhead_ratio_ = po.ratio();
    const PairedTimes pc = paired_ab(4, plain, [&] {
      const fs::path dir = ckpt_dir("pair");
      ParOptions o = base_;
      o.ckpt_dir = dir.string();
      o.ckpt_keep = kKeepAllEpochs;
      const auto b = simple_build("hybrid.P8", Formulation::Hybrid, 8, o);
      fs::remove_all(dir);
      return b ? b->host_s : 0.0;
    });
    ckpt_overhead_s_ = pc.delta_s();
  }

  /// Parse every epoch file of a checkpoint directory (the offline census
  /// path); reading the bytes is not timed.
  void parse_epochs(const fs::path& dir) {
    double parse_s = 0.0;
    int n = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ".pdt") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      pdt::core::RunSnapshot snap;
      const auto s = tracer_.span("core.parse_ckpt");
      const std::int64_t t0 = now_ns();
      const std::string err = pdt::core::parse_ckpt(bytes, &snap);
      parse_s += seconds_since(t0);
      if (!err.empty()) {
        std::fprintf(stderr, "FAIL parse %s: %s\n",
                     entry.path().filename().c_str(), err.c_str());
        ++failed_;
      }
      ++n;
    }
    parse_ms_per_epoch_ = n > 0 ? parse_s * 1e3 / n : 0.0;
  }

  void report_layers(double trace_overhead) {
    const ParResult empty;
    const ParResult& h = hybrid8_ ? *hybrid8_ : empty;
    const double cells = tree_cells(h.tree, ds_.num_attributes());
    if (cells != routed_cells_) {
      std::fprintf(stderr, "FAIL cells: %.0f from node counts, %.0f routed\n",
                   cells, routed_cells_);
      ++failed_;
    }
    const pdt::mpsim::RankStats& t = h.totals;
    const double rank_time =
        t.compute_time + t.comm_time + t.io_time + t.idle_time;
    const pdt::core::RecoveryStats& rc = h.recovery;
    const auto share = [&](double x) {
      return rank_time > 0 ? x / rank_time : 0.0;
    };

    metric("data.generate_s", generate_s_, "s");
    metric("data.discretize_s", discretize_s_, "s");
    metric("dtree.accumulate_ns_per_cell", accumulate_ns_, "ns");
    metric("dtree.slot_ns_per_lookup", slot_ns_, "ns");
    metric("dtree.cells", cells, "count");
    metric("dtree.accumulate_share", accumulate_share_, "ratio");
    metric("dtree.split_eval_us_per_node", split_eval_us_, "us");
    metric("dtree.tree_nodes", h.tree.num_nodes(), "count");
    metric("dtree.canonical_json_ms", canonical_json_ms_, "ms");
    metric("mpsim.messages", static_cast<double>(t.messages_sent), "count");
    metric("mpsim.bytes_sent", 4.0 * static_cast<double>(t.words_sent), "B");
    metric("mpsim.histogram_words", h.histogram_words, "words");
    metric("mpsim.idle_share", share(t.idle_time), "ratio");
    metric("mpsim.comm_share", share(t.comm_time), "ratio");
    metric("mpsim.all_reduce_us", all_reduce_us_, "us");
    for (const char* key : kBuildKeys) {
      const auto it = build_s_.find(key);
      metric(std::string("core.build_s.") + key,
             it != build_s_.end() ? it->second : 0.0, "s");
    }
    const auto resumed = build_s_.find("resume.P8");
    metric("core.resume_s", resumed != build_s_.end() ? resumed->second : 0.0,
           "s");
    metric("core.levels", h.levels, "count");
    metric("core.records_moved", static_cast<double>(h.records_moved), "count");
    metric("core.partition_splits", h.partition_splits, "count");
    metric("core.rejoins", h.rejoins, "count");
    metric("core.ckpt_epochs", rc.durable_checkpoints, "count");
    metric("core.ckpt_mb", static_cast<double>(rc.durable_bytes) / 1e6, "MB");
    metric("core.ckpt_overhead_s", ckpt_overhead_s_, "s");
    metric("core.ckpt_parse_ms_per_epoch", parse_ms_per_epoch_, "ms");
    metric("core.recovery_failures", rc.failures, "count");
    metric("core.records_redistributed",
           static_cast<double>(rc.records_redistributed), "count");
    metric("obs.overhead_ratio", obs_overhead_ratio_, "ratio");
    metric("obs.events", events_, "count");
    const std::map<std::string, double> self = tracer_.self_seconds();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      metric(std::string(layer) + ".self_s",
             it != self.end() ? it->second : 0.0, "s");
    }
    metric("bench.trace_overhead_ratio", trace_overhead, "ratio");

    const std::string path = (fs::path(opt_.work_dir) /
                              (std::string(w_.name) + ".spans.json"))
                                 .string();
    if (!tracer_.write_json(path, w_.name, opt_.seed)) {
      throw std::runtime_error("cannot write " + path);
    }
    std::fprintf(stderr, "%s: wrote %zu spans to %s\n", w_.name,
                 tracer_.spans().size(), path.c_str());
  }

  /// Seconds of set-up repetitions before the builds start.
  static constexpr double kSetupSeconds = 2.5;

  const RunOptions& opt_;
  const Workload& w_;
  std::int64_t deadline_ = 0;  ///< steady-clock ns when the budget ends
  double base_rss_kib_ = 0.0;  ///< resident size before set-up
  std::int64_t n_;
  Tracer tracer_;
  Yardstick yard_;
  pdt::mpsim::FaultPlan fault_;
  ParOptions base_;
  pdt::data::Dataset ds_;
  std::string serial_digest_;
  bool inject_pending_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;

  double setup_s_ = 0.0, generate_s_ = 0.0, discretize_s_ = 0.0;
  double tree_cells_ = 0.0, serial_peak_rss_mb_ = 0.0;
  double serial_virtual_ = 0.0, hybrid8_virtual_ = 0.0;
  std::map<std::string, double> build_s_;
  std::optional<ParResult> hybrid8_;
  double routed_cells_ = 0.0;
  double accumulate_ns_ = 0.0, slot_ns_ = 0.0, split_eval_us_ = 0.0;
  double canonical_json_ms_ = 0.0, all_reduce_us_ = 0.0;
  double parse_ms_per_epoch_ = 0.0, ckpt_overhead_s_ = 0.0;
  double obs_overhead_ratio_ = 0.0, events_ = 0.0;
  /// The kernel's time over all nodes / a plain hybrid P=8 build's time
  /// (durable-resume's own hybrid build also carries observability,
  /// faults and checkpoints), median of paired rounds.
  double accumulate_share_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Workload& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

RunResult run_workload(const RunOptions& opt) {
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) return Runner(opt, w).run();
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace hostbench
