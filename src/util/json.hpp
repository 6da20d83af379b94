// Minimal JSON value model, parser, and serializer.
//
// The serving stack speaks newline-delimited JSON (one request/response
// object per line) and the unified AnalysisConfig round-trips through the
// same representation, so both ends need a real parser. This is also the
// one JSON writer: reports, batch envelopes, the metrics registry and
// protocol responses are built as Values and rendered by dump(), and the
// trace recorder streams its events' strings through write_string.
// Scope is deliberately small: the standard value model
// (null/bool/number/string/array/object), strict RFC-8259 syntax with a
// nesting-depth bound, and deterministic serialization (object keys kept
// in insertion order, numbers in the shortest round-trip form) so
// protocol transcripts are byte-stable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace dn::json {

class Value;

/// Object preserving insertion order (protocol responses render keys in
/// the order the handler set them, deterministically).
class Object {
 public:
  Value& operator[](const std::string& key);  // Inserts null when absent.
  const Value* find(const std::string& key) const;  // Null when absent.
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  using Item = std::pair<std::string, Value>;
  std::vector<Item>::const_iterator begin() const { return items_.begin(); }
  std::vector<Item>::const_iterator end() const { return items_.end(); }

 private:
  std::vector<Item> items_;
};

using Array = std::vector<Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

const char* type_name(Type t);

class Value {
 public:
  Value() = default;  // null
  Value(std::nullptr_t) {}  // NOLINT: implicit by design (literals).
  Value(bool b) : type_(Type::kBool), bool_(b) {}                  // NOLINT
  Value(double d) : type_(Type::kNumber), num_(d) {}               // NOLINT
  Value(int i) : type_(Type::kNumber), num_(i) {}                  // NOLINT
  Value(std::int64_t i)                                            // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(std::uint64_t i)                                           // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Value(const char* s) : type_(Type::kString), str_(s) {}          // NOLINT
  Value(Array a)                                                   // NOLINT
      : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o)                                                  // NOLINT
      : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Unchecked accessors: valid only for the matching type.
  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return *arr_; }
  const Object& as_object() const { return *obj_; }
  Array& as_array() { return *arr_; }
  Object& as_object() { return *obj_; }

  /// Object member lookup; null pointer when not an object or key absent.
  const Value* find(const std::string& key) const {
    return is_object() ? obj_->find(key) : nullptr;
  }

  /// Checked narrowing helpers for protocol/config parsing: the Status
  /// names `what` so "jobs must be a number" style messages come for free.
  StatusOr<bool> require_bool(const char* what) const;
  StatusOr<double> require_number(const char* what) const;
  StatusOr<int> require_int(const char* what) const;  // Integral number.
  StatusOr<std::string> require_string(const char* what) const;

  /// Deterministic serialization (insertion-ordered keys, no whitespace).
  void dump(std::ostream& os) const;
  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Containers behind shared_ptr keep Value cheap to copy; handlers build
  // responses by value. Copies share structure (values are treated as
  // immutable once built).
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Renders a double the way dump() does: integers below 2^53 without a
/// fraction part, Inf/NaN as null, everything else as the shortest decimal
/// that parses back to the same double (never more than 17 significant
/// digits). parse(dump(x)) returns x bit for bit, -0 included.
void write_number(std::ostream& os, double v);

/// Renders `s` as a quoted JSON string: '"' and '\\' escaped, control
/// characters as \n/\r/\t or \u00XX (never dropped), well-formed UTF-8
/// sequences as is, and each other byte as \ufffd, so the text is always
/// valid UTF-8 (RFC 8259) whatever bytes a file name holds.
void write_string(std::ostream& os, std::string_view s);

/// Strict parse of one JSON document (the whole string must be consumed
/// apart from trailing whitespace). Malformed input comes back as
/// kInvalidArgument with a byte-offset context message.
StatusOr<Value> parse(std::string_view text);

/// Total number of values in the tree — containers and leaves alike.
/// The server's per-request field-count limit is enforced on this, so a
/// structurally huge request is rejected by one cheap walk instead of
/// being discovered deep inside a handler.
std::size_t node_count(const Value& v);

}  // namespace dn::json
