// Minimal JSON value / parser / writer.
//
// Objects preserve insertion order (a vector of pairs) so that rendered
// tables and emitted events keep stable, human-readable field order — the
// same property the paper's JSON events rely on for Kibana tables.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace dio {

class Json;

using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;
using JsonObject = std::vector<JsonMember>;

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() : rep_(nullptr) {}
  Json(std::nullptr_t) : rep_(nullptr) {}         // NOLINT
  Json(bool b) : rep_(b) {}                       // NOLINT
  Json(int v) : rep_(static_cast<std::int64_t>(v)) {}    // NOLINT
  Json(unsigned v) : rep_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(long v) : rep_(static_cast<std::int64_t>(v)) {}      // NOLINT
  Json(long long v) : rep_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned long v) : rep_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(unsigned long long v) : rep_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(double v) : rep_(v) {}                     // NOLINT
  Json(const char* s) : rep_(std::string(s)) {}   // NOLINT
  Json(std::string s) : rep_(std::move(s)) {}     // NOLINT
  Json(std::string_view s) : rep_(std::string(s)) {}  // NOLINT
  Json(JsonArray a) : rep_(std::move(a)) {}       // NOLINT
  Json(JsonObject o) : rep_(std::move(o)) {}      // NOLINT

  static Json MakeObject() { return Json(JsonObject{}); }
  static Json MakeArray() { return Json(JsonArray{}); }

  [[nodiscard]] Type type() const {
    return static_cast<Type>(rep_.index());
  }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const { return type() == Type::kDouble; }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(rep_); }
  [[nodiscard]] std::int64_t as_int() const {
    if (is_double()) return static_cast<std::int64_t>(std::get<double>(rep_));
    return std::get<std::int64_t>(rep_);
  }
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(rep_));
    return std::get<double>(rep_);
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(rep_);
  }
  [[nodiscard]] const JsonArray& as_array() const {
    return std::get<JsonArray>(rep_);
  }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(rep_); }
  [[nodiscard]] const JsonObject& as_object() const {
    return std::get<JsonObject>(rep_);
  }
  [[nodiscard]] JsonObject& as_object() { return std::get<JsonObject>(rep_); }

  // Object access. Set() replaces the value if the key exists.
  void Set(std::string key, Json value);
  [[nodiscard]] const Json* Find(std::string_view key) const;
  [[nodiscard]] bool Has(std::string_view key) const {
    return Find(key) != nullptr;
  }
  // Convenience typed getters with fallbacks (for query code over
  // heterogeneous documents).
  [[nodiscard]] std::int64_t GetInt(std::string_view key,
                                    std::int64_t fallback = 0) const;
  [[nodiscard]] double GetDouble(std::string_view key,
                                 double fallback = 0.0) const;
  [[nodiscard]] std::string GetString(std::string_view key,
                                      std::string fallback = "") const;
  [[nodiscard]] bool GetBool(std::string_view key, bool fallback = false) const;

  void Append(Json value);

  [[nodiscard]] std::string Dump(int indent = -1) const;

  // Parses one JSON document. Malformed input, and arrays/objects nested
  // more than 512 deep, fail with "json parse error at offset N: ...".
  static Expected<Json> Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      rep_;
};

// Escapes a string per JSON rules (used by the event encoder fast path).
void JsonEscapeTo(std::string& out, std::string_view s);

}  // namespace dio
