#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.hpp"

namespace hymm {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- Parser --------------------------------------------------------

namespace {

// Recursive-descent parser building a JsonValue tree; json_is_valid
// is this parser with the tree thrown away.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue root;
    if (!value(root)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return root;
  }

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (eof()) return false;
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) return false;
        ++depth_;
        const bool ok = peek() == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.string_value);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        out.kind = JsonValue::Kind::kNumber;
        return number(out.number_value);
    }
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue member;
      if (!value(member)) return false;
      out.object_members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      JsonValue item;
      if (!value(item)) return false;
      out.array_items.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  static void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code_point = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) return false;
            const char h = text_[pos_++];
            code_point <<= 4;
            if (h >= '0' && h <= '9') code_point |= h - '0';
            else if (h >= 'a' && h <= 'f') code_point |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code_point |= h - 'A' + 10;
            else return false;
          }
          // Surrogate pairs are not combined (nothing this repo emits
          // leaves the BMP); each half round-trips as its own unit.
          append_utf8(out, code_point);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool number(double& out) {
    const std::size_t begin = pos_;
    consume('-');
    if (consume('0')) {
      // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (consume('.')) {
      if (!digits()) return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    out = std::strtod(std::string(text_.substr(begin, pos_ - begin)).c_str(),
                      nullptr);
    return true;
  }

  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // containers open around the current value
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, member] : object_members) {
    if (name == key) return &member;
  }
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key,
                                  const std::string& fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_string() ? member->string_value
                                                  : fallback;
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_number() ? member->number_value
                                                  : fallback;
}

std::optional<JsonValue> json_parse(std::string_view text) {
  return JsonParser(text).run();
}

bool json_is_valid(std::string_view text) {
  return json_parse(text).has_value();
}

// --- Writer --------------------------------------------------------

JsonWriter::JsonWriter(std::ostream& out, bool pretty)
    : out_(out), pretty_(pretty) {}

void JsonWriter::indent() {
  if (!pretty_) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (!stack_.back().first) out_ << ',';
  stack_.back().first = false;
  indent();
}

void JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Level{});
}

void JsonWriter::end_object() {
  HYMM_DCHECK(!stack_.empty());
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) indent();
  out_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Level{});
}

void JsonWriter::end_array() {
  HYMM_DCHECK(!stack_.empty());
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) indent();
  out_ << ']';
}

void JsonWriter::key(std::string_view name) {
  HYMM_DCHECK(!after_key_);
  before_value();
  out_ << '"' << json_escape(name) << "\":" << (pretty_ ? " " : "");
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  out_ << '"' << json_escape(s) << '"';
}

void JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ << buf;
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ << v;
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  out_ << v;
}

void JsonWriter::value(bool v) {
  before_value();
  out_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  before_value();
  out_ << "null";
}

}  // namespace hymm
