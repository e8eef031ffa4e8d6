#include "data/io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace pdt::data {

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

/// The whole of `f` as a number: from_chars must consume every byte, so
/// `2x`, `1.5abc`, an empty field and leading blanks are all rejected.
/// `what` names the field for the error ("row 3 column x").
template <typename T>
T parse_number(const std::string& f, const std::string& what) {
  T v{};
  const char* end = f.data() + f.size();
  const auto [ptr, ec] = std::from_chars(f.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error("csv: " + what + ": '" + f + "' is not " +
                             (std::is_integral_v<T> ? "an integer"
                                                    : "a number"));
  }
  return v;
}

/// A header count (cardinality, class count): a positive integer.
int parse_count(const std::string& f, const std::string& column) {
  const int v = parse_number<int>(f, "header column " + column);
  if (v < 1) {
    throw std::runtime_error("csv: header column " + column + ": count " +
                             f + " is not positive");
  }
  return v;
}

/// getline without a CRLF file's trailing carriage return.
bool read_line(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

}  // namespace

void save_csv(const Dataset& ds, std::ostream& out) {
  const Schema& s = ds.schema();
  for (int a = 0; a < s.num_attributes(); ++a) {
    const Attribute& attr = s.attr(a);
    out << attr.name << ':';
    if (attr.is_categorical()) {
      out << "cat:" << attr.cardinality;
      if (attr.ordered) out << ":o";
    } else {
      out << "cont";
    }
    out << ',';
  }
  out << "class:cat:" << s.num_classes() << '\n';

  out.precision(17);
  for (std::size_t row = 0; row < ds.num_rows(); ++row) {
    for (int a = 0; a < s.num_attributes(); ++a) {
      if (s.attr(a).is_categorical()) {
        out << ds.cat(a, row);
      } else {
        out << ds.cont(a, row);
      }
      out << ',';
    }
    out << ds.label(row) << '\n';
  }
}

void save_csv_file(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_csv(ds, out);
}

Dataset load_csv(std::istream& in) {
  std::string header;
  if (!read_line(in, header)) {
    throw std::runtime_error("csv: empty input");
  }
  const auto cols = split(header, ',');
  if (cols.size() < 2) throw std::runtime_error("csv: header too short");

  std::vector<Attribute> attrs;
  int num_classes = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const auto parts = split(cols[i], ':');
    const bool is_class = i + 1 == cols.size();
    if (is_class) {
      if (parts.size() < 3 || parts[1] != "cat") {
        throw std::runtime_error("csv: malformed class column");
      }
      num_classes = parse_count(parts[2], parts[0]);
      continue;
    }
    if (parts.size() >= 3 && parts[1] == "cat") {
      attrs.push_back(Attribute::categorical(
          parts[0], parse_count(parts[2], parts[0]),
          parts.size() >= 4 && parts[3] == "o"));
    } else if (parts.size() >= 2 && parts[1] == "cont") {
      attrs.push_back(Attribute::continuous(parts[0]));
    } else {
      throw std::runtime_error("csv: malformed column spec: " + cols[i]);
    }
  }

  Dataset ds;
  try {
    ds = Dataset(Schema(std::move(attrs), num_classes));
  } catch (const std::invalid_argument& e) {  // more than kMaxSlots
    throw std::runtime_error(std::string("csv: ") + e.what());
  }
  // A value outside its column's range would index past its histogram
  // table (and wrap in the byte column), so it is rejected here.
  const auto field = [](std::size_t row, const std::string& column) {
    return "row " + std::to_string(row) + " column " + column;
  };
  const auto checked = [&](const std::string& f, int limit, std::size_t row,
                           const std::string& column) {
    const int v = parse_number<int>(f, field(row, column));
    if (v < 0 || v >= limit) {
      throw std::runtime_error("csv: " + field(row, column) + ": value " + f +
                               " outside [0, " + std::to_string(limit) + ")");
    }
    return v;
  };
  std::string line;
  while (read_line(in, line)) {
    if (line.empty()) continue;
    const auto fields = split(line, ',');
    if (fields.size() != cols.size()) {
      throw std::runtime_error("csv: wrong field count in row: " + line);
    }
    const std::size_t row = ds.add_row(
        checked(fields.back(), num_classes, ds.num_rows(), "class"));
    for (int a = 0; a < ds.num_attributes(); ++a) {
      const auto& f = fields[static_cast<std::size_t>(a)];
      const Attribute& attr = ds.schema().attr(a);
      if (attr.is_categorical()) {
        ds.set_cat(a, row, checked(f, attr.cardinality, row, attr.name));
      } else {
        ds.set_cont(a, row, parse_number<double>(f, field(row, attr.name)));
      }
    }
  }
  // Nothing downstream has a meaning for zero records (a continuous
  // column has no range to bin over).
  if (ds.num_rows() == 0) throw std::runtime_error("csv: no data rows");
  return ds;
}

Dataset load_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load_csv(in);
}

}  // namespace pdt::data
