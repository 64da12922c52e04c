#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/string_util.h"

namespace tecore {
namespace util {

Json& Json::Set(std::string key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

int64_t Json::int_value() const {
  // Casting a double outside the int64 range is undefined behaviour.
  // 2^63 is exact as a double; every double below it and at or above
  // -2^63 converts.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (std::isnan(number_)) return 0;
  if (number_ >= kTwoTo63) return std::numeric_limits<int64_t>::max();
  if (number_ < -kTwoTo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(number_);
}

double Json::GetNumber(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_value() : fallback;
}

int64_t Json::GetInt(std::string_view key, int64_t fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_number() ? v->int_value() : fallback;
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_value() : fallback;
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_value()
                                        : std::move(fallback);
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
  return out;
}

void Json::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      if (is_int_ || (std::floor(number_) == number_ && std::isfinite(number_) &&
                      std::fabs(number_) < 9.007199254740992e15)) {
        *out += StringPrintf("%lld", static_cast<long long>(number_));
      } else if (std::isfinite(number_)) {
        *out += FormatDoubleExact(number_);
      } else {
        *out += "null";  // JSON has no Inf/NaN
      }
      break;
    case Kind::kString:
      *out += JsonQuote(string_);
      break;
    case Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const Json& item : items_) {
        if (!first) *out += ',';
        first = false;
        item.DumpTo(out);
      }
      *out += ']';
      break;
    }
    case Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) *out += ',';
        first = false;
        *out += JsonQuote(key);
        *out += ':';
        value.DumpTo(out);
      }
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser over a bounded view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    TECORE_ASSIGN_OR_RETURN(value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return std::move(value);
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(
        StringPrintf("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    struct DepthGuard {
      int* d;
      ~DepthGuard() { --*d; }
    } guard{&depth_};
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      TECORE_ASSIGN_OR_RETURN(s, ParseString());
      return Json::Str(std::move(s));
    }
    if (ConsumeWord("true")) return Json::Bool(true);
    if (ConsumeWord("false")) return Json::Bool(false);
    if (ConsumeWord("null")) return Json::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(StringPrintf("unexpected character '%c'", c));
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    bool is_int = true;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(
                                      static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Consume('.')) {
      is_int = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_int = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    double value = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &value)) {
      return Error("malformed number");
    }
    if (is_int && std::fabs(value) < 9.007199254740992e15) {
      return Json::Int(static_cast<int64_t>(value));
    }
    return Json::Number(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences; the service layer never emits
          // them, this only keeps foreign input lossless-ish).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseArray() {
    Consume('[');
    Json out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      TECORE_ASSIGN_OR_RETURN(value, ParseValue());
      out.Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<Json> ParseObject() {
    Consume('{');
    Json out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      TECORE_ASSIGN_OR_RETURN(key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      TECORE_ASSIGN_OR_RETURN(value, ParseValue());
      out.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace util
}  // namespace tecore
