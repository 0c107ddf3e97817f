#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "common/io.hpp"
#include "common/json_reader.hpp"

namespace storesched {

const char* to_string(ServePriority priority) {
  switch (priority) {
    case ServePriority::kHigh: return "high";
    case ServePriority::kNormal: return "normal";
    case ServePriority::kLow: return "low";
  }
  return "normal";
}

const char* to_string(ServeAdmission admission) {
  switch (admission) {
    case ServeAdmission::kOk: return "ok";
    case ServeAdmission::kDegraded: return "degraded";
    case ServeAdmission::kOverSlo: return "over_slo";
    case ServeAdmission::kRejected: return "rejected";
  }
  return "ok";
}

namespace {

/// Canonical decimal for millisecond fields: integers print bare, the
/// rest as fixed-6 with trailing zeros trimmed. Stable under reparse for
/// every value the parser admits (< 1e9, so fixed-6 carries more
/// precision than a double's half-ulp at that magnitude).
std::string fmt_ms(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << v;
  std::string s = os.str();
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Request numbers: a non-negative decimal with an optional fraction, no
/// leading zero, below 1e9 so canonical fixed-6 printing reparses exactly.
double read_number(JsonReader& r, const char* key) {
  const std::size_t begin = r.pos();
  if (r.rest().starts_with('-')) {
    r.fail(std::string("\"") + key + "\" must be non-negative");
  }
  const std::size_t whole = r.canonical_digits().size();
  if (r.take('.') && r.digits().empty()) {
    r.fail("digits required after the decimal point");
  }
  // from_chars leaves `value` untouched on overflow, so a ten-digit whole
  // part (>= 1e9 anyway) is rejected by length.
  double value = 0;
  r.parse_since(begin, value);
  if (whole > 9 || !(value < 1e9)) {
    r.fail(std::string("\"") + key + "\" out of range (< 1e9)");
  }
  return value;
}

}  // namespace

std::string serve_request_to_jsonl(const ServeRequest& request) {
  std::ostringstream os;
  os << '{';
  const char* sep = "";
  const auto field = [&](const char* key, const std::string& value) {
    os << sep << '"' << key << "\":\"" << json_escape(value) << '"';
    sep = ",";
  };
  if (!request.id.empty()) field("id", request.id);
  if (request.statsz) {
    os << sep << "\"statsz\":true";
    sep = ",";
  }
  if (!request.cancel_id.empty()) field("cancel", request.cancel_id);
  if (!request.spec.empty()) field("spec", request.spec);
  if (request.slo_ms) {
    os << sep << "\"slo_ms\":" << fmt_ms(*request.slo_ms);
    sep = ",";
  }
  if (request.deadline_ms) {
    os << sep << "\"deadline_ms\":" << fmt_ms(*request.deadline_ms);
    sep = ",";
  }
  if (request.priority != ServePriority::kNormal) {
    field("priority", to_string(request.priority));
  }
  if (request.quality != 0) {
    os << sep << "\"quality\":" << request.quality;
    sep = ",";
  }
  if (request.instance) {
    os << sep << "\"instance\":" << instance_to_jsonl(*request.instance);
    sep = ",";
  }
  if (request.ref) {
    os << sep << "\"ref\":" << *request.ref;
    sep = ",";
  }
  os << '}';
  return os.str();
}

// Strict like the error records -- exact tokens, no leading zeros, unknown
// or duplicate keys rejected -- but whitespace is allowed between tokens.
// An "instance" value is read in place by the instance wire's own reader.
ServeRequest serve_request_from_jsonl(const std::string& line) {
  enum Key : std::size_t {
    kId, kInstance, kRef, kSpec, kSlo, kDeadline, kPriority, kQuality,
    kStatsz, kCancel,
  };
  static constexpr std::string_view kKeys[] = {
      "id",          "instance", "ref",     "spec",   "slo_ms",
      "deadline_ms", "priority", "quality", "statsz", "cancel"};
  JsonReader r(line, /*whitespace=*/true);
  unsigned seen = 0;
  const auto saw = [&](Key key) { return (seen & 1u << key) != 0; };
  ServeRequest req;
  try {
    r.expect('{');
    if (!r.consume('}')) {
      do {
        const std::string key = r.string();
        r.expect(':');
        r.skip_ws();
        switch (static_cast<Key>(r.claim(kKeys, key, seen))) {
          case kId:
            req.id = r.string();
            break;
          case kInstance: {
            std::size_t consumed = 0;
            req.instance = std::make_shared<Instance>(
                instance_from_json_prefix(r.rest(), consumed));
            r.advance(consumed);
            break;
          }
          case kRef: {
            const double v = read_number(r, "ref");
            if (v != std::floor(v)) {
              r.fail("\"ref\" must be an integer record index");
            }
            req.ref = static_cast<std::uint64_t>(v);
            break;
          }
          case kSpec:
            req.spec = r.string();
            if (req.spec.empty()) r.fail("\"spec\" must not be empty");
            break;
          case kSlo:
            req.slo_ms = read_number(r, "slo_ms");
            break;
          case kDeadline:
            req.deadline_ms = read_number(r, "deadline_ms");
            if (*req.deadline_ms <= 0) r.fail("\"deadline_ms\" must be > 0");
            break;
          case kPriority: {
            const std::string token = r.string();
            if (token == "high") {
              req.priority = ServePriority::kHigh;
            } else if (token == "normal") {
              req.priority = ServePriority::kNormal;
            } else if (token == "low") {
              req.priority = ServePriority::kLow;
            } else {
              r.fail("unknown priority \"" + token + "\"");
            }
            break;
          }
          case kQuality: {
            const double v = read_number(r, "quality");
            if (v != std::floor(v) || v > 1000000) {
              r.fail("\"quality\" must be an integer rung index <= 1000000");
            }
            req.quality = static_cast<std::size_t>(v);
            break;
          }
          case kStatsz:
            if (!r.literal("true")) r.fail("\"statsz\" must be true");
            req.statsz = true;
            break;
          case kCancel:
            req.cancel_id = r.string();
            if (req.cancel_id.empty()) {
              r.fail("\"cancel\" must name a request id");
            }
            break;
        }
      } while (r.consume(','));
      r.expect('}');
    }
    r.skip_ws();
    if (!r.at_end()) r.fail("trailing bytes after the request");

    const bool solve_fields = saw(kSpec) || saw(kSlo) || saw(kDeadline) ||
                              saw(kPriority) || saw(kQuality);
    if (req.statsz) {
      if (saw(kInstance) || saw(kRef) || solve_fields || saw(kCancel)) {
        r.fail("\"statsz\" requests carry no solve or cancel fields");
      }
    } else if (!req.cancel_id.empty()) {
      if (saw(kInstance) || saw(kRef) || solve_fields) {
        r.fail("\"cancel\" messages carry no solve fields");
      }
    } else if (saw(kInstance) && saw(kRef)) {
      r.fail("\"instance\" and \"ref\" are mutually exclusive");
    } else if (!saw(kInstance) && !saw(kRef)) {
      r.fail("request needs \"instance\", \"ref\", \"statsz\", or \"cancel\"");
    }
  } catch (const JsonSyntaxError& e) {
    throw std::runtime_error("serve request: " + e.what + " (at byte " +
                             std::to_string(e.offset) + ")");
  }
  return req;
}

std::string serve_response_to_jsonl(const ServeResponse& response,
                                    const JsonlResultOptions& options) {
  std::ostringstream os;
  os << '{';
  if (!response.id.empty()) {
    os << "\"id\":\"" << json_escape(response.id) << "\",";
  }
  os << "\"ok\":" << (response.ok ? "true" : "false");
  if (!response.ok) {
    os << ",\"error\":\"" << json_escape(response.error) << '"';
  }
  if (!response.cancel_ack.empty()) {
    os << ",\"cancelled\":\"" << json_escape(response.cancel_ack) << '"';
  }
  if (response.admission) {
    os << ",\"admission\":\"" << to_string(*response.admission) << '"';
  }
  if (!response.spec.empty()) {
    os << ",\"spec\":\"" << json_escape(response.spec) << '"';
    if (response.rung >= 0) os << ",\"rung\":" << response.rung;
    os << ",\"queue_ms\":" << fmt(response.queue_ms, 3)
       << ",\"solve_ms\":" << fmt(response.solve_ms, 3);
  }
  if (response.result) os << result_jsonl_fields(*response.result, options);
  os << '}';
  return os.str();
}

void LineFramer::feed(const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    const char c = data[i];
    if (c == '\n') {
      if (discarding_) {
        ready_.push_back({std::string(), /*oversized=*/true});
        discarding_ = false;
      } else {
        if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
        ready_.push_back({std::move(buffer_), /*oversized=*/false});
      }
      buffer_.clear();
      continue;
    }
    if (discarding_) continue;
    if (buffer_.size() >= max_line_) {
      // Cap exceeded: drop what we buffered and skip to the newline.
      buffer_.clear();
      discarding_ = true;
      continue;
    }
    buffer_.push_back(c);
  }
}

std::optional<LineFramer::Line> LineFramer::next() {
  if (ready_.empty()) return std::nullopt;
  Line line = std::move(ready_.front());
  ready_.pop_front();
  return line;
}

}  // namespace storesched
