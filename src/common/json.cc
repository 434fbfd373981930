#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace dio {

void Json::Set(std::string key, Json value) {
  if (!is_object()) rep_ = JsonObject{};
  JsonObject& obj = as_object();
  for (JsonMember& member : obj) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const JsonMember& member : as_object()) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::int64_t Json::GetInt(std::string_view key, std::int64_t fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

void Json::Append(Json value) {
  if (!is_array()) rep_ = JsonArray{};
  as_array().push_back(std::move(value));
}

bool operator==(const Json& a, const Json& b) {
  if (a.type() != b.type()) {
    // ints and doubles compare numerically across types.
    if (a.is_number() && b.is_number()) {
      return a.as_double() == b.as_double();
    }
    return false;
  }
  return a.rep_ == b.rep_;
}

void JsonEscapeTo(std::string& out, std::string_view s) {
  out.push_back('"');
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&] {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  };
  const auto closing_newline = [&] {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += as_bool() ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(as_int());
      break;
    case Type::kDouble: {
      double v = as_double();
      if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN.
      }
      break;
    }
    case Type::kString:
      JsonEscapeTo(out, as_string());
      break;
    case Type::kArray: {
      const JsonArray& arr = as_array();
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline();
        arr[i].DumpTo(out, indent, depth + 1);
      }
      if (!arr.empty()) closing_newline();
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const JsonObject& obj = as_object();
      out.push_back('{');
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline();
        JsonEscapeTo(out, obj[i].first);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        obj[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!obj.empty()) closing_newline();
      out.push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

// Deepest array/object nesting Parse accepts. The parser recurses once per
// level, so without a bound a few hundred KB of '[' overflow the stack;
// deeper input fails with a positioned parse error instead.
constexpr int kMaxNestingDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expected<Json> Parse() {
    SkipWhitespace();
    Expected<Json> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(std::string msg) const {
    return InvalidArgument("json parse error at offset " +
                           std::to_string(pos_) + ": " + std::move(msg));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] bool AtEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char Peek() const { return text_[pos_]; }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Expected<Json> ParseValue() {
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth) {
          return Error("nesting deeper than " +
                       std::to_string(kMaxNestingDepth) + " levels");
        }
        ++depth_;
        Expected<Json> nested = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        Expected<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return Json(std::move(s.value()));
      }
      case 't':
        if (ConsumeLiteral("true")) return Json(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Json(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Expected<Json> ParseObject() {
    ++pos_;  // '{'
    Json obj = Json::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      Expected<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      Expected<Json> value = ParseValue();
      if (!value.ok()) return value;
      obj.as_object().emplace_back(std::move(key.value()),
                                   std::move(value.value()));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}'");
    }
  }

  Expected<Json> ParseArray() {
    ++pos_;  // '['
    Json arr = Json::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      Expected<Json> value = ParseValue();
      if (!value.ok()) return value;
      arr.as_array().push_back(std::move(value.value()));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']'");
    }
  }

  Expected<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad hex digit in \\u escape");
          }
          // Encode as UTF-8 (no surrogate-pair handling; BMP only).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  Expected<Json> ParseNumber() {
    std::size_t start = pos_;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos_;
    bool is_double = false;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) return Error("invalid number");
    if (!is_double) {
      std::int64_t value = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Overflowed int64: fall through to double.
    }
    double value = 0.0;
    char buf[64];
    if (token.size() >= sizeof(buf)) return Error("number too long");
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
    char* end = nullptr;
    value = std::strtod(buf, &end);
    if (end != buf + token.size()) return Error("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

Expected<Json> Json::Parse(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace dio
