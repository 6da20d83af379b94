#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace dn::json {

const char* type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

Value& Object::operator[](const std::string& key) {
  for (auto& [k, v] : items_)
    if (k == key) return v;
  items_.emplace_back(key, Value());
  return items_.back().second;
}

const Value* Object::find(const std::string& key) const {
  for (const auto& [k, v] : items_)
    if (k == key) return &v;
  return nullptr;
}

StatusOr<bool> Value::require_bool(const char* what) const {
  if (!is_bool())
    return Status::InvalidArgument(std::string(what) + " must be a boolean, got " +
                                   type_name(type_));
  return bool_;
}

StatusOr<double> Value::require_number(const char* what) const {
  if (!is_number())
    return Status::InvalidArgument(std::string(what) + " must be a number, got " +
                                   type_name(type_));
  return num_;
}

StatusOr<int> Value::require_int(const char* what) const {
  if (!is_number() || num_ != std::floor(num_) || std::abs(num_) > 1e9)
    return Status::InvalidArgument(std::string(what) + " must be an integer");
  return static_cast<int>(num_);
}

StatusOr<std::string> Value::require_string(const char* what) const {
  if (!is_string())
    return Status::InvalidArgument(std::string(what) + " must be a string, got " +
                                   type_name(type_));
  return str_;
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; null is the least-bad.
    os << "null";
    return;
  }
  // Shortest round-trip digits, laid out like %g (so at most 17 of them);
  // an integral double below 2^53 in fixed notation is its exact integer
  // ("-0" keeps the sign bit).
  char buf[32];
  const bool integral =
      v == std::floor(v) && std::abs(v) < 9.007199254740992e15;
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v,
      integral ? std::chars_format::fixed : std::chars_format::general);
  os.write(buf, r.ptr - buf);
}

namespace {

/// Length of the well-formed multi-byte UTF-8 sequence starting at s[i]
/// (Unicode Table 3-7: no overlongs, no surrogates, nothing past
/// U+10FFFF), or 0 when s[i] does not start one.
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return i + k < s.size() ? static_cast<unsigned char>(s[i + k]) : 0u;
  };
  const auto cont = [](unsigned b, unsigned lo = 0x80, unsigned hi = 0xbf) {
    return b >= lo && b <= hi;
  };
  const unsigned b0 = byte(0);
  if (b0 >= 0xc2 && b0 <= 0xdf) return cont(byte(1)) ? 2 : 0;
  if (b0 >= 0xe0 && b0 <= 0xef) {
    const unsigned lo = b0 == 0xe0 ? 0xa0 : 0x80;
    const unsigned hi = b0 == 0xed ? 0x9f : 0xbf;
    return cont(byte(1), lo, hi) && cont(byte(2)) ? 3 : 0;
  }
  if (b0 >= 0xf0 && b0 <= 0xf4) {
    const unsigned lo = b0 == 0xf0 ? 0x90 : 0x80;
    const unsigned hi = b0 == 0xf4 ? 0x8f : 0xbf;
    return cont(byte(1), lo, hi) && cont(byte(2)) && cont(byte(3)) ? 4 : 0;
  }
  return 0;
}

}  // namespace

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else if (static_cast<unsigned char>(c) < 0x80) {
          os << c;
        } else if (const std::size_t len = utf8_sequence_length(s, i)) {
          os.write(s.data() + i, static_cast<std::streamsize>(len));
          i += len;
          continue;
        } else {
          os << "\\ufffd";
        }
    }
    ++i;
  }
  os << '"';
}

void Value::dump(std::ostream& os) const {
  switch (type_) {
    case Type::kNull: os << "null"; break;
    case Type::kBool: os << (bool_ ? "true" : "false"); break;
    case Type::kNumber: write_number(os, num_); break;
    case Type::kString: write_string(os, str_); break;
    case Type::kArray: {
      os << '[';
      bool first = true;
      for (const Value& v : *arr_) {
        if (!first) os << ',';
        first = false;
        v.dump(os);
      }
      os << ']';
      break;
    }
    case Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : *obj_) {
        if (!first) os << ',';
        first = false;
        write_string(os, k);
        os << ':';
        v.dump(os);
      }
      os << '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

namespace {

/// Recursive-descent parser over a string_view. Errors carry the byte
/// offset so a malformed request line is diagnosable from the response.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Value> parse_document() {
    skip_ws();
    StatusOr<Value> v = parse_value(0);
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  StatusOr<Value> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        StatusOr<std::string> s = parse_string();
        if (!s.ok()) return s.status();
        return Value(std::move(*s));
      }
      case 't':
        if (consume_word("true")) return Value(true);
        return fail("invalid literal");
      case 'f':
        if (consume_word("false")) return Value(false);
        return fail("invalid literal");
      case 'n':
        if (consume_word("null")) return Value(nullptr);
        return fail("invalid literal");
      default: return parse_number();
    }
  }

  StatusOr<Value> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      pos_ = start;
      return fail("malformed number");
    }
    return Value(v);
  }

  StatusOr<std::string> parse_string() {
    if (!consume('"')) return fail("expected string");
    std::string out;
    while (true) {
      if (eof()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned int cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) return fail("truncated \\u escape");
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // Surrogate pairs: a high surrogate must be followed by \uDC00..
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u")
              return fail("unpaired surrogate");
            pos_ += 2;
            unsigned int lo = 0;
            for (int i = 0; i < 4; ++i) {
              if (eof()) return fail("truncated \\u escape");
              const char h = text_[pos_++];
              lo <<= 4;
              if (h >= '0' && h <= '9') lo |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') lo |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') lo |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape");
            }
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          // UTF-8 encode.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape");
      }
    }
  }

  StatusOr<Value> parse_array(int depth) {
    consume('[');
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    while (true) {
      skip_ws();
      StatusOr<Value> v = parse_value(depth + 1);
      if (!v.ok()) return v;
      arr.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return Value(std::move(arr));
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  StatusOr<Value> parse_object(int depth) {
    consume('{');
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    while (true) {
      skip_ws();
      StatusOr<std::string> key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      skip_ws();
      StatusOr<Value> v = parse_value(depth + 1);
      if (!v.ok()) return v;
      obj[*key] = std::move(*v);
      skip_ws();
      if (consume('}')) return Value(std::move(obj));
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<Value> parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::size_t node_count(const Value& v) {
  switch (v.type()) {
    case Type::kArray: {
      std::size_t n = 1;
      for (const Value& e : v.as_array()) n += node_count(e);
      return n;
    }
    case Type::kObject: {
      std::size_t n = 1;
      for (const auto& [key, val] : v.as_object()) {
        (void)key;
        n += node_count(val);
      }
      return n;
    }
    default:
      return 1;
  }
}

}  // namespace dn::json
