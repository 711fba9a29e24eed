#include "service/json.hpp"

#include <cctype>
#include <cstdlib>

namespace istc::service {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

double Value::num_or(std::string_view key, double def) const {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->number : def;
}

std::string Value::str_or(std::string_view key, std::string_view def) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string : std::string(def);
}

bool Value::bool_or(std::string_view key, bool def) const {
  const Value* v = find(key);
  return v != nullptr && v->is_bool() ? v->boolean : def;
}

namespace {

/// Recursive-descent parser over a bounded cursor.  Errors are sticky:
/// once set, every production bails out immediately.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult result;
    result.value = parse_value(0);
    if (!error_.empty()) {
      result.value = Value{};
      result.error = error_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.value = Value{};
      result.error = "trailing characters after value";
    }
    return result;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value parse_value(std::size_t depth) {
    Value v;
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return v;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return v;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (literal("null")) return v;
    if (literal("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
      return v;
    }
    return parse_number();
  }

  Value parse_number() {
    Value v;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      digits = digits ||
               std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0;
      ++pos_;
    }
    if (!digits) {
      fail("invalid token");
      return v;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("invalid number '" + token + "'");
      return v;
    }
    v.kind = Value::Kind::kNumber;
    v.number = parsed;
    return v;
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
          return out;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // ASCII-range \uXXXX only (what json_escape emits for control
            // characters); reject the rest rather than silently mangle.
            if (pos_ + 4 > text_.size()) {
              fail("unterminated \\u escape");
              return out;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape digit");
                return out;
              }
            }
            if (code > 0x7F) {
              fail("non-ASCII \\u escape");
              return out;
            }
            c = static_cast<char>(code);
            break;
          }
          default:
            fail("unsupported escape");
            return out;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  Value parse_array(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return v;
    while (error_.empty()) {
      v.array.push_back(parse_value(depth + 1));
      if (consume(']')) return v;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return v;
      }
    }
    return v;
  }

  Value parse_object(std::size_t depth) {
    Value v;
    v.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return v;
    while (error_.empty()) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return v;
      }
      std::string key = parse_string();
      if (!error_.empty()) return v;
      if (!consume(':')) {
        fail("expected ':'");
        return v;
      }
      v.object[std::move(key)] = parse_value(depth + 1);
      if (consume('}')) return v;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return v;
      }
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult parse(std::string_view text) { return Parser(text).run(); }

void JsonWriter::key(std::string_view k) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
}

void JsonWriter::comma() {
  if (!first_) out_ += ',';
  first_ = false;
}

void JsonWriter::value(std::string_view s) {
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
}

void JsonWriter::value(double v) { out_ += format_double(v); }

void JsonWriter::value(std::int64_t v) { out_ += std::to_string(v); }

void JsonWriter::value(std::uint64_t v) { out_ += std::to_string(v); }

void JsonWriter::value(bool v) { out_ += v ? "true" : "false"; }

}  // namespace istc::service
