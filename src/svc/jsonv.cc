#include "src/svc/jsonv.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "src/util/strings.h"

namespace aitia {
namespace svc {

int64_t JsonValue::AsInt(int64_t def) const {
  switch (kind_) {
    case Kind::kInt: return int_;
    case Kind::kDouble:
      // Saturate: converting a double outside int64_t's range is undefined,
      // and clients send numbers like 1e300. 2^63 is exact in a double.
      if (double_ >= 0x1p63) {
        return std::numeric_limits<int64_t>::max();
      }
      if (double_ < -0x1p63) {
        return std::numeric_limits<int64_t>::min();
      }
      return static_cast<int64_t>(double_);
    default: return def;
  }
}

double JsonValue::AsDouble(double def) const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kDouble: return double_;
    default: return def;
  }
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : fields_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

class Parser {
 public:
  Parser(std::string_view text, int max_depth) : text_(text), max_depth_(max_depth) {}

  StatusOr<JsonValue> Parse() {
    JsonValue v;
    if (Status st = ParseValue(v, 0); !st.ok()) {
      return st;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument(StrFormat("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Peek(char& c) {
    if (pos_ >= text_.size()) {
      return false;
    }
    c = text_[pos_];
    return true;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > max_depth_) {
      return Err("nesting too deep");
    }
    SkipWs();
    char c;
    if (!Peek(c)) {
      return Err("unexpected end of input");
    }
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': out.kind_ = JsonValue::Kind::kString; return ParseString(out.string_);
      case 't':
        if (!Literal("true")) return Err("bad literal");
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return OkStatus();
      case 'f':
        if (!Literal("false")) return Err("bad literal");
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return OkStatus();
      case 'n':
        if (!Literal("null")) return Err("bad literal");
        out.kind_ = JsonValue::Kind::kNull;
        return OkStatus();
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind_ = JsonValue::Kind::kObject;
    SkipWs();
    char c;
    if (Peek(c) && c == '}') {
      ++pos_;
      return OkStatus();
    }
    for (;;) {
      SkipWs();
      if (!Peek(c) || c != '"') {
        return Err("expected object key");
      }
      std::string key;
      if (Status st = ParseString(key); !st.ok()) {
        return st;
      }
      SkipWs();
      if (!Peek(c) || c != ':') {
        return Err("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (Status st = ParseValue(value, depth + 1); !st.ok()) {
        return st;
      }
      out.fields_.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (!Peek(c)) {
        return Err("unterminated object");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return OkStatus();
      }
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind_ = JsonValue::Kind::kArray;
    SkipWs();
    char c;
    if (Peek(c) && c == ']') {
      ++pos_;
      return OkStatus();
    }
    for (;;) {
      JsonValue value;
      if (Status st = ParseValue(value, depth + 1); !st.ok()) {
        return st;
      }
      out.items_.push_back(std::move(value));
      SkipWs();
      if (!Peek(c)) {
        return Err("unterminated array");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return OkStatus();
      }
      return Err("expected ',' or ']'");
    }
  }

  // Appends the UTF-8 encoding of `cp` to `out`.
  static void AppendUtf8(uint32_t cp, std::string& out) {
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
  }

  bool ParseHex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = 10 + (c - 'a');
      } else if (c >= 'A' && c <= 'F') {
        digit = 10 + (c - 'A');
      } else {
        return false;
      }
      out = (out << 4) | digit;
    }
    pos_ += 4;
    return true;
  }

  Status ParseString(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return OkStatus();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        return Err("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t cp;
          if (!ParseHex4(cp)) {
            return Err("bad \\u escape");
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return Err("lone high surrogate");
            }
            pos_ += 2;
            uint32_t low;
            if (!ParseHex4(low) || low < 0xDC00 || low > 0xDFFF) {
              return Err("bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Err("lone low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default: return Err("unknown escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Err("expected a value");
    }
    // Integer part: a leading zero must stand alone (RFC 8259).
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Err("bad fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Err("bad exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), nullptr, 10);
      if (errno == 0) {
        out.kind_ = JsonValue::Kind::kInt;
        out.int_ = v;
        return OkStatus();
      }
      // Out of int64 range: fall through to double.
    }
    out.kind_ = JsonValue::Kind::kDouble;
    out.double_ = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out.double_)) {
      return Err("number out of range");
    }
    return OkStatus();
  }

  std::string_view text_;
  int max_depth_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> ParseJson(std::string_view text, int max_depth) {
  return Parser(text, max_depth).Parse();
}

}  // namespace svc
}  // namespace aitia
