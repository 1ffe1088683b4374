/// @file
/// Minimal JSON utilities for the observability layer: a streaming
/// writer (used by the trace emitter and the run-report writer), a
/// strict well-formedness checker (used by tests to validate emitted
/// documents) and a small value parser (used by hymm_diff to read run
/// reports and bench snapshots back). No external dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hymm {

/// Escapes `s` for embedding inside a JSON string literal (the
/// surrounding quotes are not included).
std::string json_escape(std::string_view s);

/// Deepest array/object nesting json_parse (and so json_is_valid)
/// accepts (the root container is depth 1). The parser recurses once
/// per level, so a deeper document is rejected instead of exhausting
/// the stack; every document this repo writes nests a few levels.
inline constexpr std::size_t kJsonMaxDepth = 256;


/// Parsed JSON value tree. Numbers are kept as doubles (every value
/// this repo persists — cycle counts included — fits a double's 53-bit
/// integer range; 64-bit hashes are persisted as hex *strings* for
/// exactly this reason). Object member order is preserved.
struct JsonValue {
  /// JSON value kinds (RFC 8259).
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;      ///< which alternative is active
  bool bool_value = false;      ///< payload for kBool
  double number_value = 0.0;    ///< payload for kNumber
  std::string string_value;     ///< payload for kString
  std::vector<JsonValue> array_items;  ///< payload for kArray
  /// Payload for kObject, in document order.
  std::vector<std::pair<std::string, JsonValue>> object_members;

  bool is_object() const { return kind == Kind::kObject; }  ///< kind test
  bool is_array() const { return kind == Kind::kArray; }    ///< kind test
  bool is_string() const { return kind == Kind::kString; }  ///< kind test
  bool is_number() const { return kind == Kind::kNumber; }  ///< kind test

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  const JsonValue* find(std::string_view key) const;

  /// Typed member accessor: the fallback when the member is absent or
  /// has the wrong type.
  std::string get_string(std::string_view key,
                         const std::string& fallback = {}) const;
  /// Typed member accessor: the fallback when the member is absent or
  /// has the wrong type.
  double get_number(std::string_view key, double fallback = 0.0) const;
};

/// Parses a complete, strictly well-formed JSON document (RFC 8259
/// values; \uXXXX escapes are decoded to UTF-8). nullopt on any syntax
/// error, trailing garbage or nesting deeper than kJsonMaxDepth.
std::optional<JsonValue> json_parse(std::string_view text);

/// Whether json_parse accepts `text`: one grammar, one depth cap.
bool json_is_valid(std::string_view text);

/// Streaming writer for nested JSON documents. The caller drives
/// structure explicitly:
///
///   JsonWriter w(out);
///   w.begin_object();
///   w.field("cycles", std::uint64_t{42});
///   w.key("dram"); w.begin_object(); ... w.end_object();
///   w.end_object();
///
/// Numbers that are not finite are emitted as null (JSON has no NaN).
class JsonWriter {
 public:
  /// Writes to `out`; `pretty` adds newlines and two-space indents.
  explicit JsonWriter(std::ostream& out, bool pretty = true);

  void begin_object();  ///< opens `{`
  void end_object();    ///< closes `}`
  void begin_array();   ///< opens `[`
  void end_array();     ///< closes `]`

  /// Emits an object key; the next value() is its member value.
  void key(std::string_view name);

  void value(std::string_view s);  ///< string value (escaped)
  void value(const char* s) { value(std::string_view(s)); }  ///< string value
  void value(double v);         ///< number; non-finite emits null
  void value(std::uint64_t v);  ///< unsigned integer value
  void value(std::int64_t v);   ///< signed integer value
  void value(int v) { value(static_cast<std::int64_t>(v)); }  ///< int value
  void value(bool v);  ///< boolean value
  void null();         ///< null value

  /// key(name) + value(v) in one call.
  template <typename T>
  void field(std::string_view name, T v) {
    key(name);
    value(v);
  }

 private:
  void before_value();
  void indent();

  std::ostream& out_;
  bool pretty_;
  struct Level {
    bool first = true;
  };
  std::vector<Level> stack_;
  bool after_key_ = false;
};

}  // namespace hymm
