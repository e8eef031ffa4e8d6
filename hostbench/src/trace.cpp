#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/export.hpp"

namespace hostbench {

namespace {

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!on_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.build = build_;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return Scope(this, idx);
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  t_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::ofstream os(path);
  if (!os) return false;
  pdt::obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "hostbench-spans-v1");
  w.kv("workload", workload);
  w.kv("seed", static_cast<std::int64_t>(seed));
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("name", s.name);
    w.kv("layer", layer_of(s.name));
    w.kv("build", s.build);
    w.kv("parent", s.parent);
    w.kv("start_ns", s.start_ns);
    w.kv("end_ns", s.end_ns);
    w.end_object();
  }
  w.end_array();
  w.key("self_s").begin_object();
  for (const auto& [layer, sec] : self_seconds()) w.kv(layer, sec);
  w.end_object();
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

double PairedTimes::ratio() const {
  std::vector<double> r;
  for (std::size_t i = 0; i < a_s.size(); ++i) r.push_back(b_s[i] / a_s[i]);
  return median(std::move(r));
}

double PairedTimes::delta_s() const {
  std::vector<double> d;
  for (std::size_t i = 0; i < a_s.size(); ++i) d.push_back(b_s[i] - a_s[i]);
  return median(std::move(d));
}

PairedTimes paired_ab(int pairs, const std::function<double()>& a,
                      const std::function<double()>& b) {
  PairedTimes out;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      out.a_s.push_back(a());
      out.b_s.push_back(b());
    } else {
      out.b_s.push_back(b());
      out.a_s.push_back(a());
    }
  }
  return out;
}

}  // namespace hostbench
