#include "common/io.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json_reader.hpp"

namespace storesched {

struct CsvWriter::Impl {
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::~CsvWriter() { delete impl_; }

namespace {

std::string csv_escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) impl_->out << ',';
    impl_->out << csv_escape(fields[i]);
  }
  impl_->out << '\n';
}

std::string markdown_table(const std::vector<std::string>& header,
                           const std::vector<std::vector<std::string>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != header.size()) {
      throw std::invalid_argument("markdown_table: ragged rows");
    }
  }
  std::vector<std::size_t> width(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(width[c])) << row[c]
         << " |";
    }
    os << '\n';
  };
  emit_row(header);
  os << '|';
  for (std::size_t c = 0; c < header.size(); ++c) {
    os << ' ' << std::string(width[c], '-') << " |";
  }
  os << '\n';
  for (const auto& row : rows) emit_row(row);
  return os.str();
}

std::string to_dot(const Instance& inst, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n  rankdir=TB;\n";
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    os << "  t" << i << " [label=\"t" << i << "\\np=" << inst.task(i).p
       << ",s=" << inst.task(i).s << "\"];\n";
  }
  if (inst.has_precedence()) {
    const Dag& dag = inst.dag();
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        os << "  t" << u << " -> t" << v << ";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_text(const Instance& inst) {
  std::ostringstream os;
  os << inst.n() << ' ' << inst.m();
  if (inst.has_precedence()) os << " prec";
  os << '\n';
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    os << inst.task(i).p << ' ' << inst.task(i).s << '\n';
  }
  if (inst.has_precedence()) {
    const Dag& dag = inst.dag();
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        os << u << ' ' << v << '\n';
      }
    }
  }
  return os.str();
}

Instance from_text(const std::string& text) {
  std::istringstream is(text);
  std::string first_line;
  if (!std::getline(is, first_line)) {
    throw std::runtime_error("from_text: empty input");
  }
  std::istringstream head(first_line);
  std::size_t n = 0;
  int m = 0;
  std::string prec_flag;
  if (!(head >> n >> m)) throw std::runtime_error("from_text: bad header");
  const bool has_prec = static_cast<bool>(head >> prec_flag) && prec_flag == "prec";

  std::vector<Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> tasks[i].p >> tasks[i].s)) {
      throw std::runtime_error("from_text: bad task line");
    }
  }
  if (!has_prec) return Instance(std::move(tasks), m);

  Dag dag(n);
  TaskId u = 0;
  TaskId v = 0;
  while (is >> u >> v) dag.add_edge(u, v);
  return Instance(std::move(tasks), m, std::move(dag));
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string instance_to_jsonl(const Instance& inst) {
  std::ostringstream os;
  os << "{\"m\":" << inst.m() << ",\"tasks\":[";
  for (TaskId i = 0; i < static_cast<TaskId>(inst.n()); ++i) {
    if (i > 0) os << ',';
    os << '[' << inst.task(i).p << ',' << inst.task(i).s << ']';
  }
  os << ']';
  if (inst.has_precedence()) {
    os << ",\"edges\":[";
    bool first = true;
    const Dag& dag = inst.dag();
    for (TaskId u = 0; u < static_cast<TaskId>(inst.n()); ++u) {
      for (const TaskId v : dag.succs(u)) {
        if (!first) os << ',';
        os << '[' << u << ',' << v << ']';
        first = false;
      }
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

namespace {

/// "line N: " when the stream position is known, empty otherwise.
std::string line_prefix(std::size_t line_number) {
  return line_number > 0 ? "line " + std::to_string(line_number) + ": " : "";
}

/// Instance integers: an optional '-' and a digit run (leading zeros
/// allowed) that fits in 64 bits.
std::int64_t read_int(JsonReader& r) {
  r.skip_ws();
  const std::size_t begin = r.pos();
  r.take('-');
  if (r.digits().empty()) r.fail("expected integer");
  std::int64_t value = 0;
  if (!r.parse_since(begin, value)) r.fail_at(begin, "integer out of range");
  return value;
}

/// [[a,b],[c,d],...], possibly empty; add(a, b) per pair.
template <class Add>
void read_pairs(JsonReader& r, Add add) {
  r.expect('[');
  if (r.consume(']')) return;
  do {
    r.expect('[');
    const std::int64_t a = read_int(r);
    r.expect(',');
    const std::int64_t b = read_int(r);
    r.expect(']');
    add(a, b);
  } while (r.consume(','));
  r.expect(']');
}

/// The instance object at the start of `text`. A whole line admits nothing
/// but whitespace after it; otherwise `consumed` reports where it ended.
Instance read_instance(std::string_view text, std::size_t line_number,
                       bool whole_line, std::size_t& consumed) {
  enum Key : std::size_t { kM, kTasks, kEdges };
  static constexpr std::string_view kKeys[] = {"m", "tasks", "edges"};
  JsonReader r(text, /*whitespace=*/true);
  unsigned seen = 0;
  int m = 0;
  std::vector<Task> tasks;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  try {
    r.expect('{');
    if (!r.consume('}')) {
      do {
        const std::string_view key = r.bare_key();
        r.expect(':');
        switch (static_cast<Key>(r.claim(kKeys, key, seen))) {
          case kM: {
            const std::int64_t v = read_int(r);
            if (v < 1 || v > std::numeric_limits<int>::max()) {
              r.fail("m out of range");
            }
            m = static_cast<int>(v);
            break;
          }
          case kTasks:
            read_pairs(r, [&](std::int64_t p, std::int64_t s) {
              tasks.push_back({p, s});
            });
            break;
          case kEdges:
            read_pairs(r, [&](std::int64_t u, std::int64_t v) {
              edges.emplace_back(u, v);
            });
            break;
        }
      } while (r.consume(','));
      r.expect('}');
    }
    if (whole_line) {
      r.skip_ws();
      if (!r.at_end()) r.fail("trailing garbage");
    }
    if ((seen & 1u << kM) == 0) r.fail("missing \"m\"");
    if ((seen & 1u << kTasks) == 0) r.fail("missing \"tasks\"");
  } catch (const JsonSyntaxError& e) {
    throw std::runtime_error("instance_from_jsonl: " +
                             line_prefix(line_number) + e.what +
                             " at byte " + std::to_string(e.offset));
  }
  consumed = r.pos();

  const auto n = static_cast<std::int64_t>(tasks.size());
  try {
    if ((seen & 1u << kEdges) == 0) return Instance(std::move(tasks), m);
    Dag dag(tasks.size());
    for (const auto& [u, v] : edges) {
      if (u < 0 || u >= n || v < 0 || v >= n) {
        throw std::invalid_argument("edge [" + std::to_string(u) + "," +
                                    std::to_string(v) +
                                    "] references a task outside [0, " +
                                    std::to_string(n) + ")");
      }
      dag.add_edge(static_cast<TaskId>(u), static_cast<TaskId>(v));
    }
    return Instance(std::move(tasks), m, std::move(dag));
  } catch (const std::invalid_argument& e) {
    // Instance/Dag validation reports as std::invalid_argument; the wire
    // contract is one exception type for any malformed line.
    throw std::runtime_error("instance_from_jsonl: " +
                             line_prefix(line_number) + e.what());
  }
}

}  // namespace

bool has_binary_wire_magic(std::string_view bytes) {
  return bytes.size() >= sizeof(kBinaryWireMagic) &&
         bytes.compare(0, sizeof(kBinaryWireMagic),
                       std::string_view(kBinaryWireMagic,
                                        sizeof(kBinaryWireMagic))) == 0;
}

Instance instance_from_jsonl(const std::string& line,
                             std::size_t line_number) {
  if (has_binary_wire_magic(line)) {
    throw std::runtime_error(
        "instance_from_jsonl: " + line_prefix(line_number) +
        "input is the binary wire format (magic \"STSCHDB1\"), not JSONL -- "
        "use --format=binary (or auto-detection) instead");
  }
  std::size_t consumed = 0;
  return read_instance(line, line_number, /*whole_line=*/true, consumed);
}

Instance instance_from_json_prefix(std::string_view text,
                                   std::size_t& consumed) {
  return read_instance(text, 0, /*whole_line=*/false, consumed);
}

std::string fmt(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

}  // namespace storesched
