#ifndef MYSAWH_UTIL_JSON_H_
#define MYSAWH_UTIL_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// Minimal strict JSON reader for the pipeline's own artifacts (run
/// manifests, telemetry JSONL lines, BENCH_perf.json). Recursive-descent
/// over the full JSON grammar with a nesting-depth cap; rejects trailing
/// garbage, comments, and unquoted keys. Object member order is preserved
/// (the writers emit deterministically ordered objects, and the dashboard
/// renderer keeps that order).
///
/// This is a reader for trusted, machine-written input — errors come back
/// as `InvalidArgument` with a byte offset, never as crashes, but the
/// parser does not try to outdo a full JSON library on pathological input
/// beyond the depth cap.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; defaults returned on kind mismatch (callers verify
  /// kinds with the predicates above when the distinction matters).
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_members()
      const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Find + kind/number conveniences for the common manifest shapes.
  /// `fallback` is returned when the key is absent or the kind mismatches.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one complete JSON document. InvalidArgument (with byte offset)
/// on syntax errors, trailing non-whitespace, or nesting deeper than 64.
Result<JsonValue> ParseJson(const std::string& text);

/// The body of a JSON string literal (no quotes): `"` and `\` backslashed,
/// \n \t \r by name, every other byte below 0x20 as \u00XX; all other
/// bytes (UTF-8 included) verbatim.
std::string JsonEscape(std::string_view text);

/// The one number rule of every artifact: the shortest decimal that
/// strtod reads back bit-exactly, in printf %g notation (exponent form
/// below 1e-4 and from 1e15 up, plain digits between); NaN -> `null`;
/// +/-Inf -> `1e999` / `-1e999`, which ParseJson (and Python's json)
/// read back as +/-Inf.
std::string JsonNumber(double value);

/// Streaming JSON writer with automatic comma placement: every value,
/// key, container and Raw fragment is separated from the previous item at
/// its level, and nothing follows a key but its value. No whitespace is
/// emitted. The top level acts as the inside of a container without its
/// brackets, so a writer can also build a member fragment
/// (`"a":1,"b":2`) for embedding via Raw() or TelemetryStream::Line.
///
///   JsonWriter w;
///   w.BeginObject().Key("rows").Int(n).Key("edges").BeginArray();
///   for (double e : edges) w.Number(e);
///   w.EndArray().EndObject();
///   std::string json = w.Take();
///
/// The writer does not check nesting; callers pair Begin/End themselves.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  template <std::integral T>
  JsonWriter& Int(T value) {
    return Raw(std::to_string(value));
  }
  JsonWriter& Bool(bool value);
  /// Inserts a pre-rendered fragment as one item: a complete value (a
  /// sub-document, a fixed-point `%.3f` figure) or, inside an object, a
  /// run of members. An empty fragment adds nothing.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  /// Emits the comma owed to the previous item at this level, if any.
  void Separate();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string out_;
  /// True once an item is complete at the current level; false right
  /// after an opening bracket or a key.
  bool need_comma_ = false;
};

}  // namespace mysawh

#endif  // MYSAWH_UTIL_JSON_H_
