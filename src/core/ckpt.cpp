#include "core/ckpt.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ranges>
#include <stdexcept>
#include <system_error>

#include "dtree/serialize.hpp"
#include "dtree/sha256.hpp"
#include "obs/atomic_file.hpp"
#include "obs/fingerprint.hpp"

namespace pdt::core {

namespace {

namespace fs = std::filesystem;

// Writers: a payload line is a key and space-separated tokens, appended
// into one reserved string with no stream or string temporaries.

/// An integer token in decimal (std::to_string's bytes).
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out += ' ';
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// A double token as a C99 %a hexfloat: strtod restores the identical
/// bit pattern, which counters like histogram_words need — a resumed run
/// must finish with the same accounting as an uninterrupted one, not one
/// ulp off.
void put(std::string& out, double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%a", v);
  out += ' ';
  out.append(buf, static_cast<std::size_t>(n));
}

void put(std::string& out, std::string_view text) {
  out += ' ';
  out += text;
}

/// A range puts each element as its own token (none when empty).
template <std::ranges::range R>
  requires(!std::convertible_to<const R&, std::string_view>)
void put(std::string& out, const R& values) {
  for (const auto& v : values) put(out, v);
}

template <class... T>
void put_line(std::string& out, std::string_view key, const T&... tokens) {
  out += key;
  (put(out, tokens), ...);
  out += '\n';
}

/// The whitespace-separated tokens of a meta or state payload, read in
/// place. Every count is a plain decimal no larger than the bytes left
/// after it (each counted item takes at least one byte), so a corrupt
/// count is rejected before it can size an allocation.
class Tokens {
 public:
  explicit Tokens(std::string_view text) : text_(text) {}

  /// The next token; empty at the end of the payload.
  std::string_view next() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// The next token is exactly `key`.
  bool key(std::string_view word) { return next() == word; }

  /// The next token is a whole decimal integer that fits in T.
  template <class T>
  bool integer(T* v) {
    const std::string_view tok = next();
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, *v);
    return ec == std::errc() && ptr == end;
  }

  /// The next token is a count: an integer no larger than the bytes left.
  bool count(std::size_t* n) {
    return integer(n) && *n <= text_.size() - pos_;
  }

  /// The next token is a whole strtod number (hexfloats included).
  bool real(double* v) {
    const std::string_view tok = next();
    char buf[64];
    if (tok.empty() || tok.size() >= sizeof buf) return false;
    std::memcpy(buf, tok.data(), tok.size());
    buf[tok.size()] = '\0';
    char* end = nullptr;
    *v = std::strtod(buf, &end);
    return end == buf + tok.size();
  }

  /// The rest of the current line, without its '\n'.
  std::string_view rest_of_line() {
    const std::size_t nl = std::min(text_.find('\n', pos_), text_.size());
    const std::string_view rest = text_.substr(pos_, nl - pos_);
    pos_ = std::min(nl + 1, text_.size());
    return rest;
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- meta --

std::string meta_text(const RunSnapshot& s) {
  std::string out;
  out.reserve(512 + s.formulation.size() + s.fingerprint.size());
  put_line(out, "formulation", s.formulation);
  put_line(out, "num_procs", s.num_procs);
  put_line(out, "seed", s.seed);
  put_line(out, "levels", s.levels);
  put_line(out, "partition_splits", s.partition_splits);
  put_line(out, "rejoins", s.rejoins);
  put_line(out, "records_moved", s.records_moved);
  put_line(out, "histogram_words", s.histogram_words);
  put_line(out, "record_words", s.record_words);
  put_line(out, "cost", s.cost.t_s, s.cost.t_w, s.cost.t_c, s.cost.t_io,
           s.cost.t_timeout);
  put_line(out, "fingerprint", s.fingerprint);
  put_line(out, "tree_digest", s.tree_digest);
  return out;
}

std::string parse_meta(std::string_view text, RunSnapshot* out) {
  Tokens in(text);
  if (!in.key("formulation")) return "meta: bad formulation";
  out->formulation = in.next();
  if (out->formulation.empty()) return "meta: bad formulation";
  if (!in.key("num_procs") || !in.integer(&out->num_procs) ||
      out->num_procs < 1) {
    return "meta: bad num_procs";
  }
  if (!in.key("seed") || !in.integer(&out->seed)) return "meta: bad seed";
  if (!in.key("levels") || !in.integer(&out->levels) || out->levels < 0) {
    return "meta: bad levels";
  }
  if (!in.key("partition_splits") || !in.integer(&out->partition_splits)) {
    return "meta: bad partition_splits";
  }
  if (!in.key("rejoins") || !in.integer(&out->rejoins)) {
    return "meta: bad rejoins";
  }
  if (!in.key("records_moved") || !in.integer(&out->records_moved)) {
    return "meta: bad records_moved";
  }
  if (!in.key("histogram_words") || !in.real(&out->histogram_words)) {
    return "meta: bad histogram_words";
  }
  if (!in.key("record_words") || !in.real(&out->record_words)) {
    return "meta: bad record_words";
  }
  if (!in.key("cost") || !in.real(&out->cost.t_s) ||
      !in.real(&out->cost.t_w) || !in.real(&out->cost.t_c) ||
      !in.real(&out->cost.t_io) || !in.real(&out->cost.t_timeout)) {
    return "meta: bad cost constants";
  }
  if (!in.key("fingerprint")) return "meta: bad fingerprint";
  std::string_view fingerprint = in.rest_of_line();
  if (!fingerprint.empty() && fingerprint.front() == ' ') {
    fingerprint.remove_prefix(1);
  }
  out->fingerprint = fingerprint;
  if (!in.key("tree_digest")) return "meta: bad tree_digest";
  out->tree_digest = in.next();
  if (out->tree_digest.size() != 64) return "meta: bad tree_digest";
  return "";
}

// --------------------------------------------------------------- state --

std::string state_text(const RunSnapshot& s) {
  // Row ids are nearly all of the payload: reserve for ~7 digits each
  // plus a line of keywords per row list, rank and part.
  std::size_t rows_total = 0;
  for (const CkptPart& p : s.parts) {
    for (const NodeWork& nw : p.frontier) {
      for (const auto& rows : nw.local_rows) rows_total += rows.size() + 8;
    }
  }
  std::string out;
  out.reserve(8 * rows_total + 256 * (1 + s.parts.size() + s.mem.size()));

  put_line(out, "parts", s.parts.size());
  for (std::size_t k = 0; k < s.parts.size(); ++k) {
    const CkptPart& p = s.parts[k];
    put_line(out, "part", k, "acc_comm", p.acc_comm, "ranks",
             p.ranks.size(), p.ranks);
    put_line(out, "nodes", p.frontier.size());
    for (const NodeWork& nw : p.frontier) {
      put_line(out, "node", nw.node_id, nw.local_rows.size());
      for (const auto& rows : nw.local_rows) {
        put_line(out, "rows", rows.size(), rows);
      }
    }
  }
  put_line(out, "idle", s.idle.size());
  for (const auto& g : s.idle) put_line(out, "igroup", g.size(), g);
  put_line(out, "mem", s.mem.size());
  for (std::size_t r = 0; r < s.mem.size(); ++r) {
    const mpsim::MemStats& m = s.mem[r];
    put_line(out, "rank", r, "live", m.live, m.live_total, "peak", m.peak,
             m.peak_total);
  }
  return out;
}

std::string parse_state(std::string_view text, RunSnapshot* out) {
  Tokens in(text);
  const int P = out->num_procs;
  const auto rank_ok = [P](mpsim::Rank r) { return r >= 0 && r < P; };

  std::size_t nparts = 0;
  if (!in.key("parts") || !in.count(&nparts)) return "state: bad parts";
  out->parts.resize(nparts);
  for (std::size_t k = 0; k < nparts; ++k) {
    CkptPart& p = out->parts[k];
    std::size_t idx = 0, nranks = 0;
    if (!in.key("part") || !in.integer(&idx) || idx != k ||
        !in.key("acc_comm") || !in.real(&p.acc_comm) || !in.key("ranks") ||
        !in.count(&nranks) || nranks == 0 ||
        nranks > static_cast<std::size_t>(P)) {
      return "state: bad part header";
    }
    p.ranks.resize(nranks);
    for (mpsim::Rank& r : p.ranks) {
      if (!in.integer(&r) || !rank_ok(r)) return "state: bad part rank";
    }
    std::size_t nnodes = 0;
    if (!in.key("nodes") || !in.count(&nnodes)) {
      return "state: bad node count";
    }
    p.frontier.resize(nnodes);
    for (NodeWork& nw : p.frontier) {
      std::size_t nmembers = 0;
      if (!in.key("node") || !in.integer(&nw.node_id) || nw.node_id < 0 ||
          !in.count(&nmembers) || nmembers != nranks) {
        return "state: bad node header";
      }
      nw.local_rows.resize(nmembers);
      for (auto& rows : nw.local_rows) {
        std::size_t count = 0;
        if (!in.key("rows") || !in.count(&count)) {
          return "state: bad row count";
        }
        rows.resize(count);
        for (data::RowId& row : rows) {
          if (!in.integer(&row)) return "state: bad row id";
        }
      }
    }
  }

  std::size_t nidle = 0;
  if (!in.key("idle") || !in.count(&nidle)) return "state: bad idle";
  out->idle.resize(nidle);
  for (auto& g : out->idle) {
    std::size_t n = 0;
    if (!in.key("igroup") || !in.count(&n) || n == 0 ||
        n > static_cast<std::size_t>(P)) {
      return "state: bad idle group";
    }
    g.resize(n);
    for (mpsim::Rank& r : g) {
      if (!in.integer(&r) || !rank_ok(r)) return "state: bad idle rank";
    }
  }

  std::size_t nmem = 0;
  if (!in.key("mem") || !in.count(&nmem) ||
      nmem != static_cast<std::size_t>(P)) {
    return "state: bad mem count";
  }
  out->mem.resize(nmem);
  for (std::size_t r = 0; r < nmem; ++r) {
    mpsim::MemStats& m = out->mem[r];
    std::size_t idx = 0;
    if (!in.key("rank") || !in.integer(&idx) || idx != r ||
        !in.key("live")) {
      return "state: bad mem rank";
    }
    for (std::int64_t& b : m.live) {
      if (!in.integer(&b)) return "state: bad mem live";
    }
    if (!in.integer(&m.live_total) || !in.key("peak")) {
      return "state: bad mem live total";
    }
    for (std::int64_t& b : m.peak) {
      if (!in.integer(&b)) return "state: bad mem peak";
    }
    if (!in.integer(&m.peak_total)) return "state: bad mem peak total";
  }
  if (!in.next().empty()) return "state: trailing tokens";
  return "";
}

// ------------------------------------------------------------- framing --

void append_section(std::string& out, std::string_view name,
                    std::string_view payload, std::string_view sha) {
  put_line(out, "section", name, payload.size(), sha);
  out += payload;
  out += '\n';
}

/// The file bytes of `snap`, with `tree_sha` — the hex SHA-256 of
/// snap.tree_json — as the tree section's digest.
std::string render(const RunSnapshot& snap, std::string_view tree_sha) {
  const std::string meta = meta_text(snap);
  const std::string state = state_text(snap);
  std::string out;
  out.reserve(256 + meta.size() + snap.tree_json.size() + state.size());
  out += "pdt-ckpt-v1\n";
  put_line(out, "epoch", snap.epoch);
  out += "sections 3\n";
  append_section(out, "meta", meta, dtree::sha256_hex(meta));
  append_section(out, "tree", snap.tree_json, tree_sha);
  append_section(out, "state", state, dtree::sha256_hex(state));
  return out;
}

/// Pull the next '\n'-terminated line off `rest`.
bool take_line(std::string_view& rest, std::string_view* line) {
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) return false;
  *line = rest.substr(0, nl);
  rest.remove_prefix(nl + 1);
  return true;
}

/// Parse `section <name> <bytes> <sha>` + payload + '\n' off `rest`,
/// verifying the framing and the payload digest. The byte count must be
/// a plain decimal that fits in what is left of the file. On success
/// `payload` views the section's bytes in `rest`'s buffer and `sha` the
/// header digest they were checked against.
std::string take_section(std::string_view& rest, std::string_view name,
                         std::string_view* payload, std::string_view* sha) {
  const std::string label(name);
  std::string_view line;
  if (!take_line(rest, &line)) return "truncated before section " + label;
  Tokens header(line);
  std::size_t nbytes = 0;
  if (!header.key("section") || !header.key(name) ||
      !header.integer(&nbytes) || (*sha = header.next()).size() != 64) {
    return "bad section header for " + label;
  }
  if (nbytes >= rest.size() || rest[nbytes] != '\n') {
    return "section " + label + " truncated";
  }
  *payload = rest.substr(0, nbytes);
  rest.remove_prefix(nbytes + 1);
  if (dtree::sha256_hex(*payload) != *sha) {
    return "section " + label + " digest mismatch";
  }
  return "";
}

/// `epoch_path` file-name part, shared by writer and globber.
std::string epoch_file(int epoch) {
  return "ckpt-" + std::to_string(epoch) + ".pdt";
}

/// The whole file at `path`; false when it cannot be opened or read.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0);
  return static_cast<bool>(in.read(out->data(), size));
}

}  // namespace

std::string ckpt_text(const RunSnapshot& snap) {
  return render(snap, dtree::sha256_hex(snap.tree_json));
}

std::string parse_ckpt(std::string_view text, RunSnapshot* out) {
  *out = RunSnapshot{};
  std::string_view rest = text;
  std::string_view line;
  if (!take_line(rest, &line) || line != "pdt-ckpt-v1") {
    return "not a pdt-ckpt-v1 file";
  }
  if (!take_line(rest, &line) || !line.starts_with("epoch ")) {
    return "missing epoch line";
  }
  if (!Tokens(line.substr(6)).integer(&out->epoch) || out->epoch < 0) {
    return "bad epoch number";
  }
  if (!take_line(rest, &line) || line != "sections 3") {
    return "missing sections line";
  }

  std::string_view meta, tree, state, meta_sha, tree_sha, state_sha;
  std::string err = take_section(rest, "meta", &meta, &meta_sha);
  if (err.empty()) err = take_section(rest, "tree", &tree, &tree_sha);
  if (err.empty()) err = take_section(rest, "state", &state, &state_sha);
  if (!err.empty()) return err;
  if (!rest.empty()) return "trailing bytes after state section";

  err = parse_meta(meta, out);
  if (!err.empty()) return err;
  out->tree_json = tree;
  // The meta's digest must name the tree payload — the cross-check that
  // binds the sections of one epoch together. take_section has verified
  // tree_sha against the payload, so comparing with it is the same check
  // as hashing the payload again.
  if (tree_sha != out->tree_digest) {
    return "tree section does not match meta tree_digest";
  }
  return parse_state(state, out);
}

// ------------------------------------------------------ CheckpointStore --

CheckpointStore::CheckpointStore(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(std::max(1, keep)) {}

std::string CheckpointStore::epoch_path(int epoch) const {
  return dir_ + "/" + epoch_file(epoch);
}

std::vector<int> CheckpointStore::list_epochs() const {
  std::vector<int> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.compare(0, 5, "ckpt-") != 0 ||
        name.compare(name.size() - 4, 4, ".pdt") != 0) {
      continue;
    }
    const std::string num = name.substr(5, name.size() - 9);
    if (num.empty() ||
        num.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    epochs.push_back(std::atoi(num.c_str()));
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

int CheckpointStore::latest_epoch() const {
  const std::vector<int> epochs = list_epochs();
  return epochs.empty() ? -1 : epochs.back();
}

bool CheckpointStore::save(const RunSnapshot& snap, std::int64_t* bytes_out) {
  return commit(snap.epoch, ckpt_text(snap), bytes_out);
}

bool CheckpointStore::commit(int epoch, const std::string& text,
                             std::int64_t* bytes_out) {
  {
    obs::AtomicFile f(epoch_path(epoch));
    if (!f.ok()) return false;
    f.stream().write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!f.commit()) return false;
  }
  const std::vector<int> epochs = list_epochs();
  if (static_cast<int>(epochs.size()) > keep_) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(keep_) < epochs.size();
         ++i) {
      std::error_code ec;
      fs::remove(epoch_path(epochs[i]), ec);
    }
  }
  if (bytes_out != nullptr) {
    *bytes_out = static_cast<std::int64_t>(text.size());
  }
  return true;
}

int CheckpointStore::load_latest(RunSnapshot* out, int max_epoch, int* skipped,
                                 std::string* error) const {
  const std::vector<int> epochs = list_epochs();
  int skip = 0;
  std::string first_err;
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const int e = *it;
    if (max_epoch >= 0 && e > max_epoch) continue;  // bounded resume
    std::string err;
    std::string bytes;
    if (!read_file(epoch_path(e), &bytes)) {
      err = "cannot open";
    } else {
      RunSnapshot snap;
      err = parse_ckpt(bytes, &snap);
      if (err.empty() && snap.epoch != e) {
        err = "epoch field disagrees with file name";
      }
      if (err.empty()) *out = std::move(snap);
    }
    if (!err.empty()) {
      ++skip;
      if (first_err.empty()) first_err = epoch_file(e) + ": " + err;
      continue;
    }
    if (skipped != nullptr) *skipped = skip;
    if (error != nullptr) *error = first_err;
    return e;
  }
  if (skipped != nullptr) *skipped = skip;
  if (error != nullptr) {
    *error = first_err.empty() ? "no checkpoint epochs found" : first_err;
  }
  return -1;
}

// --------------------------------------------------- DurableCheckpointer --

DurableCheckpointer::DurableCheckpointer(ParContext& ctx,
                                         std::string formulation)
    : ctx_(&ctx),
      formulation_(std::move(formulation)),
      store_(ctx.options().ckpt_dir, ctx.options().ckpt_keep) {
  if (!enabled()) return;
  epoch_ = store_.latest_epoch() + 1;
  const obs::EnvFingerprint fp = obs::EnvFingerprint::collect();
  fingerprint_ = fp.compiler + " | " + fp.git_sha +
                 (fp.git_dirty ? "+dirty" : "") + " | " + fp.hostname;
}

void DurableCheckpointer::save(std::vector<CkptPart> parts,
                               std::vector<std::vector<mpsim::Rank>> idle) {
  if (!enabled()) return;
  const obs::PhaseScope phase(ctx_->profiler(), "checkpoint");
  mpsim::Machine& machine = ctx_->machine();
  const mpsim::CostModel& cm = machine.cost();
  const dtree::Tree& tree = ctx_->tree();

  // Frontier node ids are arena ids mid-run; on disk they are canonical
  // (the ids the resumed, freshly replayed tree will carry).
  const std::vector<int> order = dtree::canonical_order(tree);
  std::vector<int> canon_of(static_cast<std::size_t>(tree.num_nodes()), -1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    canon_of[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  for (CkptPart& p : parts) {
    for (NodeWork& nw : p.frontier) {
      const int c = canon_of[static_cast<std::size_t>(nw.node_id)];
      assert(c >= 0);  // frontier nodes are reachable by construction
      nw.node_id = c;
    }
  }

  RunSnapshot snap;
  snap.formulation = formulation_;
  snap.epoch = epoch_;
  snap.num_procs = ctx_->options().num_procs;
  snap.seed = ctx_->options().seed;
  snap.levels = ctx_->levels;
  snap.partition_splits = ctx_->partition_splits;
  snap.rejoins = ctx_->rejoins;
  snap.records_moved = ctx_->records_moved;
  snap.histogram_words = ctx_->histogram_words;
  snap.record_words = ctx_->record_words();
  snap.cost = cm;
  snap.fingerprint = fingerprint_;
  snap.tree_json = dtree::canonical_nodes_json(tree, order);
  snap.tree_digest = dtree::sha256_hex(snap.tree_json);
  snap.parts = std::move(parts);
  snap.idle = std::move(idle);

  // Each rank serializes its frontier shard to stable storage through a
  // staging buffer at t_io per record word — the same charge the
  // in-memory take_checkpoint makes, so durable and in-memory
  // checkpoints are comparable in the cost breakdowns. No barrier: the
  // single-threaded simulation makes the cut consistent for free, and a
  // global sync would serialize the hybrid's asynchronous partitions.
  std::vector<std::int64_t> owned(static_cast<std::size_t>(machine.size()), 0);
  for (const CkptPart& p : snap.parts) {
    for (std::size_t m = 0; m < p.ranks.size(); ++m) {
      for (const NodeWork& nw : p.frontier) {
        owned[static_cast<std::size_t>(p.ranks[m])] +=
            static_cast<std::int64_t>(nw.local_rows[m].size());
      }
    }
  }
  mpsim::Time io_total = 0.0;
  std::int64_t records = 0;
  for (int r = 0; r < machine.size(); ++r) {
    const std::int64_t n = owned[static_cast<std::size_t>(r)];
    if (n == 0) continue;
    records += n;
    const std::int64_t staging = n * ctx_->record_bytes();
    machine.alloc_bytes(r, mpsim::MemTag::Scratch, staging);
    const mpsim::Time t = cm.t_io * static_cast<double>(n) *
                          ctx_->record_words();
    machine.charge_io(r, t);
    machine.free_bytes(r, mpsim::MemTag::Scratch, staging);
    io_total += t;
  }
  snap.mem.reserve(static_cast<std::size_t>(machine.size()));
  for (int r = 0; r < machine.size(); ++r) {
    snap.mem.push_back(machine.mem(r));
  }

  // snap.tree_digest was just hashed from snap.tree_json, so it is the
  // tree section's digest: render with it rather than hash the tree twice.
  std::int64_t bytes = 0;
  if (!store_.commit(epoch_, render(snap, snap.tree_digest), &bytes)) {
    throw std::runtime_error("durable checkpoint write failed: " +
                             store_.epoch_path(epoch_));
  }
  ctx_->recovery.durable_checkpoints += 1;
  ctx_->recovery.durable_bytes += bytes;
  ctx_->recovery.durable_io_us += io_total;
  if (machine.trace().enabled()) {
    machine.trace().record(
        {.time = machine.max_clock(),
         .kind = mpsim::EventKind::Checkpoint,
         .rank = snap.parts.empty() ? 0 : snap.parts.front().ranks.front(),
         .group_base = 0,
         .group_size = machine.size(),
         .words = static_cast<double>(bytes) / 4.0,
         .detail = "durable epoch " + std::to_string(epoch_) + ": " +
                   std::to_string(records) + " records, " +
                   std::to_string(bytes) + " bytes"});
  }
  if (ctx_->options().ckpt_crash_epoch == epoch_) {
    // SIGKILL stand-in for the crash-restart tests: no exit handlers, no
    // flushes — only files already committed through AtomicFile survive.
    std::_Exit(137);
  }
  ++epoch_;
}

// ------------------------------------------------ resume_from_checkpoint --

bool resume_from_checkpoint(ParContext& ctx, const std::string& formulation,
                            RunSnapshot* out) {
  const ParOptions& opt = ctx.options();
  if (!opt.resume || opt.ckpt_dir.empty()) return false;
  const obs::PhaseScope phase(ctx.profiler(), "resume");
  mpsim::Machine& machine = ctx.machine();
  const mpsim::CostModel& cm = machine.cost();

  const CheckpointStore store(opt.ckpt_dir, opt.ckpt_keep);
  int skipped = 0;
  std::string err;
  const int epoch = store.load_latest(out, opt.resume_epoch, &skipped, &err);
  ctx.recovery.resume_skipped = skipped;
  if (epoch < 0) return false;  // nothing valid on disk: cold start

  if (out->formulation != formulation) {
    throw std::runtime_error("resume: checkpoint is a " + out->formulation +
                             " run, not " + formulation);
  }
  if (out->num_procs != opt.num_procs) {
    throw std::runtime_error(
        "resume: checkpoint has P=" + std::to_string(out->num_procs) +
        ", run has P=" + std::to_string(opt.num_procs));
  }
  if (out->seed != opt.seed) {
    throw std::runtime_error("resume: checkpoint seed " +
                             std::to_string(out->seed) + " != run seed " +
                             std::to_string(opt.seed));
  }
  if (out->record_words != ctx.record_words()) {
    throw std::runtime_error(
        "resume: checkpoint record width does not match this dataset");
  }

  // Rebuild the tree by replaying expand() over the canonical nodes; the
  // replayed arena ids equal the canonical ids, so the checkpointed
  // frontier node ids are directly valid. The split observer (model
  // audit) is detached during the replay — these are not new decisions.
  std::vector<dtree::NodeSpec> nodes;
  err = dtree::parse_canonical_nodes(out->tree_json, &nodes);
  if (err.empty()) {
    dtree::Tree rebuilt;
    err = dtree::tree_from_nodes(nodes, &rebuilt);
    if (err.empty()) {
      dtree::SplitObserver* observer = ctx.tree().split_observer();
      ctx.tree() = std::move(rebuilt);
      ctx.tree().set_split_observer(observer);
    }
  }
  if (!err.empty()) {
    throw std::runtime_error("resume: epoch " + std::to_string(epoch) +
                             " tree rejected: " + err);
  }
  for (const CkptPart& p : out->parts) {
    for (const NodeWork& nw : p.frontier) {
      if (nw.node_id >= ctx.tree().num_nodes() ||
          !ctx.tree().node(nw.node_id).is_leaf()) {
        throw std::runtime_error(
            "resume: frontier names node " + std::to_string(nw.node_id) +
            " which is not a leaf of the checkpointed tree");
      }
    }
  }

  ctx.levels = out->levels;
  ctx.partition_splits = out->partition_splits;
  ctx.rejoins = out->rejoins;
  ctx.records_moved = out->records_moved;
  ctx.histogram_words = out->histogram_words;

  // Every rank re-reads its frontier shard from the checkpoint at t_io
  // per record word and re-enters the rows in its Records account (peaks
  // restart at the live level — the pre-crash highs died with the
  // process and are kept in the file only as provenance).
  mpsim::Time io_total = 0.0;
  std::int64_t records = 0;
  for (const CkptPart& p : out->parts) {
    for (std::size_t m = 0; m < p.ranks.size(); ++m) {
      std::int64_t n = 0;
      for (const NodeWork& nw : p.frontier) {
        n += static_cast<std::int64_t>(nw.local_rows[m].size());
      }
      if (n == 0) continue;
      records += n;
      const mpsim::Rank r = p.ranks[m];
      const mpsim::Time t =
          cm.t_io * static_cast<double>(n) * ctx.record_words();
      machine.charge_io(r, t);
      ctx.mem_records_alloc(r, n);
      io_total += t;
    }
  }

  ctx.recovery.resumed = true;
  ctx.recovery.resume_epoch = epoch;
  ctx.recovery.resume_io_us = io_total;
  ctx.recovery.resume_records = records;
  if (machine.trace().enabled()) {
    machine.trace().record(
        {.time = machine.max_clock(),
         .kind = mpsim::EventKind::Resume,
         .rank = out->parts.empty() ? 0 : out->parts.front().ranks.front(),
         .group_base = 0,
         .group_size = machine.size(),
         .words = static_cast<double>(records) * ctx.record_words(),
         .detail = "resumed from epoch " + std::to_string(epoch) +
                   (skipped > 0
                        ? " (skipped " + std::to_string(skipped) + " invalid)"
                        : "") +
                   ": " + std::to_string(records) + " records, tree " +
                   out->tree_digest.substr(0, 12)});
  }
  return true;
}

}  // namespace pdt::core
