// Minimal JSON value model, parser, and pretty-printer.
//
// The lineage tracker serializes record trails (architectures, fitness and
// prediction histories, engine parameters, timings) as JSON documents in the
// data commons, and the analyzer reads them back. This is a small,
// dependency-free implementation that supports the full JSON grammar with
// IEEE-754 round-trippable number formatting.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace a4nn::util {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps keys ordered so serialized commons files are diffable.
using JsonObject = std::map<std::string, Json>;

/// Thrown on malformed documents and type-mismatched accessors.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value: null, bool, number (double), string, array, or object.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  template <typename T>
  Json(const std::vector<T>& v) {
    JsonArray a;
    a.reserve(v.size());
    for (const auto& x : v) a.emplace_back(x);
    value_ = std::move(a);
  }

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object access; creates the key on the mutable overload.
  Json& operator[](const std::string& key);
  /// Const object access; throws JsonError if the key is absent.
  const Json& at(const std::string& key) const;
  /// Array element access with bounds checking.
  const Json& at(std::size_t index) const;

  bool contains(const std::string& key) const;
  std::size_t size() const;

  /// Convenience typed getters with defaults for optional fields.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  void push_back(Json v);

  /// Serialize. indent < 0 emits compact one-line JSON; indent >= 0 pretty
  /// prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Parse a complete document; trailing garbage is an error, and so is
  /// nesting deeper than kMaxParseDepth arrays/objects (the parser
  /// recurses, so hostile input must not choose the stack depth).
  static Json parse(const std::string& text);
  static constexpr std::size_t kMaxParseDepth = 512;

  /// Extract a vector of doubles from an array of numbers.
  std::vector<double> as_double_vector() const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;

  void dump_impl(std::string& out, int indent, int depth) const;
};

}  // namespace a4nn::util
