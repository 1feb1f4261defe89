#ifndef GEMSTONE_OBJECT_VALUE_H_
#define GEMSTONE_OBJECT_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "core/ids.h"

namespace gemstone {

/// Discriminates the immediate value kinds of the GemStone data model.
///
/// Simple (immediate) values — nil, booleans, integers, floats, strings,
/// symbols — are stored inline (a string as a shared immutable buffer)
/// and compare by value; per §5.4 "STDM does
/// not support entity identity, except for simple, nonchangeable values",
/// so for these, value equality *is* identity. kRef is a reference to a
/// full GsObject and carries only the Oid: equality of two kRef values is
/// entity identity, never structural equivalence.
enum class ValueTag : std::uint8_t {
  kNil = 0,
  kBoolean,
  kInteger,
  kFloat,
  kString,
  kSymbol,
  kRef,
  kHandle,  // transient runtime payload (block closures); never persisted
};

/// Opaque base for transient runtime payloads carried in a Value (the
/// OPAL layer derives BlockClosure from this). Handles compare by
/// pointer identity and are not serializable — the storage layer writes
/// them as nil.
class RuntimeHandle {
 public:
  virtual ~RuntimeHandle() = default;
};

std::string_view ValueTagToString(ValueTag tag);

/// A tagged immediate value or object reference.
class Value {
 public:
  /// Default-constructed Value is nil.
  Value() = default;

  static Value Nil() { return Value(); }
  static Value Boolean(bool b) { return Value(Repr(std::in_place_index<1>, b)); }
  static Value Integer(std::int64_t i) {
    return Value(Repr(std::in_place_index<2>, i));
  }
  static Value Float(double d) { return Value(Repr(std::in_place_index<3>, d)); }
  static Value String(std::string s) {
    return Value(Repr(std::in_place_index<4>,
                      std::make_shared<const std::string>(std::move(s))));
  }
  static Value Symbol(SymbolId id) {
    return Value(Repr(std::in_place_index<5>, id));
  }
  static Value Ref(Oid oid) { return Value(Repr(std::in_place_index<6>, oid)); }
  static Value Handle(std::shared_ptr<RuntimeHandle> handle) {
    return Value(Repr(std::in_place_index<7>, std::move(handle)));
  }

  ValueTag tag() const { return static_cast<ValueTag>(repr_.index()); }

  bool IsNil() const { return tag() == ValueTag::kNil; }
  bool IsBoolean() const { return tag() == ValueTag::kBoolean; }
  bool IsInteger() const { return tag() == ValueTag::kInteger; }
  bool IsFloat() const { return tag() == ValueTag::kFloat; }
  bool IsNumber() const { return IsInteger() || IsFloat(); }
  bool IsString() const { return tag() == ValueTag::kString; }
  bool IsSymbol() const { return tag() == ValueTag::kSymbol; }
  bool IsRef() const { return tag() == ValueTag::kRef; }
  bool IsHandle() const { return tag() == ValueTag::kHandle; }

  /// Unchecked accessors: the tag must match.
  bool boolean() const { return std::get<1>(repr_); }
  std::int64_t integer() const { return std::get<2>(repr_); }
  double real() const { return std::get<3>(repr_); }
  const std::string& string() const { return *std::get<4>(repr_); }
  SymbolId symbol() const { return std::get<5>(repr_); }
  Oid ref() const { return std::get<6>(repr_); }
  const std::shared_ptr<RuntimeHandle>& handle() const {
    return std::get<7>(repr_);
  }

  /// Numeric value widened to double (tag must be kInteger or kFloat).
  double AsDouble() const {
    return IsInteger() ? static_cast<double>(integer()) : real();
  }

  /// Value equality for simple values; entity identity for references.
  /// Integers and floats compare numerically across the two tags.
  friend bool operator==(const Value& a, const Value& b) {
    if (a.IsNumber() && b.IsNumber()) {
      if (a.IsInteger() && b.IsInteger()) return a.integer() == b.integer();
      return a.AsDouble() == b.AsDouble();
    }
    if (a.IsString() && b.IsString()) return a.string() == b.string();
    return a.repr_ == b.repr_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Debug rendering: "nil", "42", "'text'", "#sym" (needs no symbol
  /// table: symbols render by id), "oid:7".
  std::string ToString() const;

 private:
  // Strings are shared and immutable, so a Value stays 24 bytes (every
  // association in every history holds one) and copying one is a
  // refcount bump; equality and hashing still go by content.
  using Repr = std::variant<std::monostate, bool, std::int64_t, double,
                            std::shared_ptr<const std::string>, SymbolId,
                            Oid, std::shared_ptr<RuntimeHandle>>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

/// A hash consistent with operator== for non-numeric mixing (integers and
/// floats that compare equal may hash differently only when one is a float
/// with fractional part zero; callers keying maps by Value should
/// normalize numbers first — collections in gs_object do).
struct ValueHash {
  std::size_t operator()(const Value& v) const;
};

}  // namespace gemstone

#endif  // GEMSTONE_OBJECT_VALUE_H_
