// Minimal JSON document type for structured result export and for reading
// scenario scripts (--scenario).
//
// Object keys keep insertion order and numbers render with shortest-
// round-trip formatting, which makes dumps byte-stable across runs — a
// property runner_test relies on to check that parallel sweeps are
// deterministic. Parse() is a strict recursive-descent reader for the same
// value model (no comments, no trailing commas).
#ifndef ECNSHARP_HARNESS_JSON_H_
#define ECNSHARP_HARNESS_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ecnsharp {

class Json {
 public:
  // Scalars. The default-constructed value is null.
  Json() = default;
  static Json Str(std::string value);
  static Json Num(double value);
  static Json Int(std::int64_t value);
  static Json UInt(std::uint64_t value);
  static Json Bool(bool value);

  // Containers.
  static Json Object();
  static Json Array();

  // Adds/overwrites `key` in an object (first use turns a null into an
  // object). Returns *this for chaining.
  Json& Set(std::string key, Json value);
  // Appends to an array (first use turns a null into an array).
  Json& Push(Json value);

  // Serializes with 2-space indentation and a trailing newline at the top
  // level, suitable for writing straight to a .json file.
  std::string Dump() const;

  // Parses `text` into `*out`. On failure returns false and, if `error` is
  // non-null, stores a one-line message with the byte offset. Integers
  // without fraction/exponent parse as kInt (kUInt when too large for
  // int64), everything else numeric as kNum.
  static bool Parse(const std::string& text, Json* out,
                    std::string* error = nullptr);

  // --- Inspection (for parsed documents) ---------------------------------
  bool IsNull() const { return kind_ == Kind::kNull; }
  bool IsBool() const { return kind_ == Kind::kBool; }
  bool IsNumber() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUInt || kind_ == Kind::kNum;
  }
  // A number written without fraction or exponent (AsInt/AsUInt are exact).
  bool IsInteger() const { return kind_ == Kind::kInt || kind_ == Kind::kUInt; }
  bool IsString() const { return kind_ == Kind::kStr; }
  bool IsArray() const { return kind_ == Kind::kArray; }
  bool IsObject() const { return kind_ == Kind::kObject; }

  // Object member lookup; null when this is not an object or the key is
  // absent.
  const Json* Find(const std::string& key) const;

  // Numeric coercions across kInt/kUInt/kNum; `fallback` for other kinds.
  double AsDouble(double fallback = 0.0) const;
  std::int64_t AsInt(std::int64_t fallback = 0) const;
  std::uint64_t AsUInt(std::uint64_t fallback = 0) const;
  bool AsBool(bool fallback = false) const;
  // Empty string when this is not a string.
  const std::string& AsString() const { return str_; }

  // Array elements / object members (empty for other kinds).
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

 private:
  enum class Kind { kNull, kBool, kInt, kUInt, kNum, kStr, kArray, kObject };

  void DumpTo(std::string& out, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_JSON_H_
