// hostbench: the host-time benchmark of the pdtree simulator.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--records <n>] [--work-dir <dir>] [--inject-mismatch]
//
// Runs one workload single-threaded, checks every grown tree's model
// digest against the run's serial tree, and prints the metrics: the
// end-to-end ones untraced (--trace 0), the per-layer ones from a traced
// run (--trace 1). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
// build matched, 1 when any build threw or mismatched, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\n"
               "usage: hostbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--records <n>] [--work-dir <dir>] "
               "[--inject-mismatch]\nworkloads:",
               why);
  for (const std::string& w : hostbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long long parse_int(const char* flag, const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--inject-mismatch") {
      opt.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_int("--seed", v));
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_int("--seconds", v));
    } else if (a == "--trace") {
      const long long t = parse_int("--trace", v);
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
    } else if (a == "--records") {
      opt.records = parse_int("--records", v);
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  hostbench::RunResult r;
  try {
    r = hostbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }

  for (const hostbench::Metric& m : r.metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("builds %lld, failed %lld, error_rate %.4f\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 1.0);

  std::ostringstream os;
  pdt::obs::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", r.failed == 0 && r.attempted > 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics").begin_object();
  for (const hostbench::Metric& m : r.metrics) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", os.str().c_str());
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
