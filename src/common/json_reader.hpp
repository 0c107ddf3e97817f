// The one strict JSON reader behind the three JSONL wires: instance lines
// (common/io.hpp), error records (core/stream.hpp) and serve requests
// (serve/protocol.hpp). It lexes; each wire keeps its own value rules
// (which numbers, which keys are required) and wraps JsonSyntaxError in
// its own message format. The grammar each wire accepts is spelled out in
// docs/SOLVER_SPECS.md ("JSONL grammar").
#pragma once

#include <charconv>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace storesched {

/// A malformed token: what is wrong and the byte offset it was found at.
/// Never leaves a wire's entry point, which rethrows it as
/// std::runtime_error in the wire's own message format.
struct JsonSyntaxError {
  std::string what;
  std::size_t offset;
};

/// Cursor over one JSON text. Token readers (consume, expect, literal,
/// string, bare_key) first skip JSON whitespace -- space, tab, CR, LF --
/// when the wire allows whitespace at all; take() and digits() read the
/// very next bytes.
class JsonReader {
 public:
  JsonReader(std::string_view text, bool whitespace)
      : text_(text), whitespace_(whitespace) {}

  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == text_.size(); }
  std::string_view rest() const { return text_.substr(pos_); }
  void advance(std::size_t n) { pos_ += n; }

  [[noreturn]] void fail(const std::string& what) const { fail_at(pos_, what); }
  [[noreturn]] static void fail_at(std::size_t at, const std::string& what) {
    throw JsonSyntaxError{what, at};
  }

  void skip_ws() {
    if (!whitespace_) return;
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool take(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool consume(char c) {
    skip_ws();
    return take(c);
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  /// A bare token such as `true`.
  bool literal(std::string_view token) {
    skip_ws();
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  /// The run of ASCII digits at the cursor, possibly empty.
  std::string_view digits() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return text_.substr(begin, pos_ - begin);
  }

  /// A non-empty digit run with no leading zero (error records, requests).
  std::string_view canonical_digits() {
    const std::string_view run = digits();
    if (run.empty()) fail("expected a number");
    if (run.size() > 1 && run[0] == '0') fail("leading zero in number");
    return run;
  }

  /// Parses the bytes from `begin` to the cursor; false if they do not
  /// fit in `value`'s type.
  template <class Number>
  bool parse_since(std::size_t begin, Number& value) const {
    return std::from_chars(text_.data() + begin, text_.data() + pos_, value)
               .ec == std::errc();
  }

  /// A JSON string. Escapes: \" \\ \/ \n \r \t and \uXXXX up to 0x7f --
  /// json_escape() emits only those, and wider code points would need a
  /// UTF-8 encoding no wire uses.
  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out.push_back(unicode_escape()); break;
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  /// A key taken byte for byte, with escapes rejected rather than decoded
  /// (the instance wire's keys).
  std::string_view bare_key() {
    expect('"');
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') fail("escapes are not allowed in keys");
      ++pos_;
    }
    if (pos_ == text_.size()) fail("unterminated key");
    return text_.substr(begin, pos_++ - begin);
  }

  /// The key rule every wire shares: `key` must be one of `keys` and not
  /// yet marked in `seen`. Marks it and returns its index.
  std::size_t claim(std::span<const std::string_view> keys,
                    std::string_view key, unsigned& seen) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != key) continue;
      if ((seen & (1u << i)) != 0) {
        fail("duplicate key \"" + std::string(key) + "\"");
      }
      seen |= 1u << i;
      return i;
    }
    fail("unknown key \"" + std::string(key) + "\"");
  }

 private:
  char unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char* hex = text_.data() + pos_++;
      unsigned digit = 0;
      if (std::from_chars(hex, hex + 1, digit, 16).ec != std::errc()) {
        fail("malformed \\u escape");
      }
      value = value * 16 + digit;
    }
    if (value > 0x7f) fail("\\u escape outside ASCII");
    return static_cast<char>(value);
  }

  std::string_view text_;
  bool whitespace_;
  std::size_t pos_ = 0;
};

}  // namespace storesched
