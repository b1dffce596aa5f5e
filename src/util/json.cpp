#include "util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace a4nn::util {

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw JsonError("Json: not a bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw JsonError("Json: not a number");
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw JsonError("Json: not a string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw JsonError("Json: not an array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw JsonError("Json: not an array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw JsonError("Json: not an object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw JsonError("Json: not an object");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("Json: missing key '" + key + "'");
  return it->second;
}

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw JsonError("Json: array index out of range");
  return arr[index];
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw JsonError("Json: size() on non-container");
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : std::move(fallback);
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = JsonArray{};
  as_array().push_back(std::move(v));
}

std::vector<double> Json::as_double_vector() const {
  const auto& arr = as_array();
  std::vector<double> out;
  out.reserve(arr.size());
  for (const auto& v : arr) out.push_back(v.as_number());
  return out;
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void format_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; record trails should never contain them, but we
    // degrade to null rather than emit an unparseable document.
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  // Shortest representation that round-trips.
  std::array<char, 32> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  if (ec == std::errc()) {
    out.append(buf.data(), ptr);
  } else {
    char fallback[32];
    std::snprintf(fallback, sizeof(fallback), "%.17g", d);
    out += fallback;
  }
}

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
  const std::string close_pad = pretty ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    format_number(out, as_number());
  } else if (is_string()) {
    escape_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_impl(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [k, v] : obj) {
      out += pad;
      escape_string(out, k);
      out += colon;
      v.dump_impl(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_

  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  /// Counts one level of array/object nesting for the lifetime of a
  /// parse_object/parse_array call.
  struct DepthGuard {
    Parser& p;
    explicit DepthGuard(Parser& parser) : p(parser) {
      if (p.depth_ == Json::kMaxParseDepth)
        p.fail("nesting deeper than " + std::to_string(Json::kMaxParseDepth));
      ++p.depth_;
    }
    ~DepthGuard() { --p.depth_; }
  };

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') break;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs never appear in our record trails).
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
          default: fail("invalid escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double d = 0.0;
    auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) fail("invalid number");
    return Json(d);
  }
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace a4nn::util
