#ifndef TECORE_UTIL_JSON_H_
#define TECORE_UTIL_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tecore {
namespace util {

/// \brief Minimal JSON document model for the service boundary.
///
/// The API layer and `tecore-server` exchange small request/response
/// bodies; this is a self-contained value type covering exactly RFC 8259
/// (null, bool, number, string, array, object) with no external
/// dependency. Objects preserve insertion order so serialized responses
/// are deterministic. Numbers are stored as double with an integer flag so
/// counts round-trip without a trailing ".0"; doubles are emitted with
/// `FormatDoubleExact`, so confidence scores and objectives survive a
/// serialize/parse round trip bitwise.
class Json {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool value) {
    Json j;
    j.kind_ = Kind::kBool;
    j.bool_ = value;
    return j;
  }
  static Json Number(double value) {
    Json j;
    j.kind_ = Kind::kNumber;
    j.number_ = value;
    return j;
  }
  static Json Int(int64_t value) {
    Json j;
    j.kind_ = Kind::kNumber;
    j.number_ = static_cast<double>(value);
    j.is_int_ = true;
    return j;
  }
  static Json Str(std::string value) {
    Json j;
    j.kind_ = Kind::kString;
    j.string_ = std::move(value);
    return j;
  }
  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// Truncated toward zero and saturated to the int64 range (NaN reads
  /// as 0): request bodies carry arbitrary numbers.
  int64_t int_value() const;
  const std::string& string_value() const { return string_; }

  // ----- array -----
  const std::vector<Json>& items() const { return items_; }
  Json& Append(Json value) {
    items_.push_back(std::move(value));
    return items_.back();
  }
  size_t Size() const {
    return kind_ == Kind::kArray ? items_.size() : members_.size();
  }

  // ----- object -----
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  /// \brief Set (or overwrite) a member; returns *this for chaining.
  Json& Set(std::string key, Json value);
  /// \brief Member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  // Typed member accessors with defaults — the shape used when decoding
  // request bodies where every field is optional.
  double GetNumber(std::string_view key, double fallback) const;
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;
  std::string GetString(std::string_view key, std::string fallback) const;

  /// \brief Compact serialization (no whitespace). Deterministic: object
  /// members in insertion order, doubles via FormatDoubleExact.
  std::string Dump() const;

  /// \brief Parse a complete JSON document (trailing garbage is an error).
  static Result<Json> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  bool is_int_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// \brief Escape a string for embedding in a JSON document (adds quotes).
std::string JsonQuote(std::string_view s);

}  // namespace util
}  // namespace tecore

#endif  // TECORE_UTIL_JSON_H_
