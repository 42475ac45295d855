#include "libcache/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "io/number.hpp"

namespace dagmap::libcache {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::String ? v->string : std::move(fallback);
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::Number ? v->number : fallback;
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind == Kind::Bool ? v->boolean : fallback;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw FormatError("bad JSON at offset " + std::to_string(pos_) + ": " +
                      what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': {
        v.kind = JsonValue::Kind::Object;
        ++pos_;
        skip_ws();
        if (peek() == '}') { ++pos_; return v; }
        while (true) {
          skip_ws();
          if (peek() != '"') fail("expected a member name");
          std::string name = string_body();
          skip_ws();
          expect(':');
          v.members.emplace_back(std::move(name), value(depth + 1));
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind = JsonValue::Kind::Array;
        ++pos_;
        skip_ws();
        if (peek() == ']') { ++pos_; return v; }
        while (true) {
          v.elements.push_back(value(depth + 1));
          skip_ws();
          if (peek() == ',') { ++pos_; continue; }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind = JsonValue::Kind::String;
        v.string = string_body();
        return v;
      case 't':
        if (!consume_word("true")) fail("bad literal");
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        v.kind = JsonValue::Kind::Null;
        return v;
      default:
        v.kind = JsonValue::Kind::Number;
        v.number = number_body();
        return v;
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') { out.push_back(c); continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = hex4();
          // Surrogate pairs: combine; a lone surrogate is an error.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("lone high surrogate");
            pos_ += 2;
            unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  unsigned hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  double number_body() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("expected a value");
    // Locale-independent parse (io/number.hpp): strtod honors
    // LC_NUMERIC, so under a comma-decimal locale it would truncate
    // "1.5" to 1.0 and silently corrupt every request field.
    std::optional<double> v = parse_double_strict(token);
    if (!v) fail("bad number");
    return *v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  return format_double_shortest(v);
}

}  // namespace dagmap::libcache
