#include <algorithm>
#include <cmath>

#include "index/directory.h"
#include "opal/compiler.h"
#include "opal/interpreter.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

// Kernel primitive methods. Each is a captureless lambda converted to a
// PrimitiveFn and installed into the bootstrapped class hierarchy; OPAL
// methods compiled at run time layer on top via ordinary lookup.

namespace gemstone::opal {

namespace {

// --- Small helpers ----------------------------------------------------------

Status WrongArgs(Interpreter& interp, const char* selector,
                 std::size_t want, std::size_t got) {
  (void)interp;
  return Status::RuntimeError(std::string("#") + selector + " expects " +
                              std::to_string(want) + " arguments, got " +
                              std::to_string(got));
}

Result<bool> AsBoolean(Interpreter& interp, const Value& v,
                       const char* context) {
  if (!v.IsBoolean()) {
    return Status::TypeMismatch(std::string(context) +
                                " needs a Boolean, got " +
                                interp.DefaultPrintString(v));
  }
  return v.boolean();
}

/// Evaluates `v` as a condition value: booleans pass through; a block is
/// invoked with no arguments (and: / or: accept both).
Result<bool> AsCondition(Interpreter& interp, const Value& v,
                         const char* context) {
  if (v.IsBoolean()) return v.boolean();
  if (v.IsHandle()) {
    GS_ASSIGN_OR_RETURN(Value r, interp.CallBlock(v, {}));
    if (interp.nlr_active()) return false;  // unwinding; caller propagates
    return AsBoolean(interp, r, context);
  }
  return Status::TypeMismatch(std::string(context) +
                              " needs a Boolean or a block");
}

/// Enumerate the member values of any collection object: Set/Bag/
/// Dictionary families yield named-element values; Array families yield
/// indexed slots in order.
Result<std::vector<Value>> CollectionMembers(Interpreter& interp,
                                             const Value& collection) {
  if (!collection.IsRef()) {
    return Status::TypeMismatch("not a collection: " +
                                interp.DefaultPrintString(collection));
  }
  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(collection));
  const GsClass* cls = interp.memory().classes().Get(class_oid);
  if (cls == nullptr) return Status::Internal("collection class missing");
  std::vector<Value> members;
  if (cls->format() == ObjectFormat::kIndexed) {
    GS_ASSIGN_OR_RETURN(std::size_t n,
                        interp.session().IndexedSize(collection.ref()));
    members.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      GS_ASSIGN_OR_RETURN(Value v,
                          interp.session().ReadIndexed(collection.ref(), i));
      members.push_back(std::move(v));
    }
  } else {
    GS_ASSIGN_OR_RETURN(auto named,
                        interp.session().ListNamed(collection.ref()));
    members.reserve(named.size());
    for (auto& [name, value] : named) members.push_back(std::move(value));
  }
  return members;
}

/// Creates a fresh collection of the same class as `like` (for select:
/// results) or of an explicit kernel class.
Result<Value> NewCollection(Interpreter& interp, Oid class_oid) {
  GS_ASSIGN_OR_RETURN(Oid oid, interp.session().Create(class_oid));
  return Value::Ref(oid);
}

/// Adds `member` to a set-format collection under a fresh alias.
Status SetAddRaw(Interpreter& interp, Oid set, const Value& member) {
  const SymbolId alias = interp.memory().symbols().GenerateAlias();
  return interp.session().WriteNamed(set, alias, member);
}

Status AppendRaw(Interpreter& interp, Oid array, const Value& member) {
  return interp.session().AppendIndexed(array, member).status();
}

/// Adds `member` into `collection` respecting its format and Set
/// uniqueness.
Result<Value> GenericAdd(Interpreter& interp, const Value& collection,
                         const Value& member) {
  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(collection));
  const GsClass* cls = interp.memory().classes().Get(class_oid);
  const auto& kernel = interp.memory().kernel();
  if (cls->format() == ObjectFormat::kIndexed) {
    GS_RETURN_IF_ERROR(AppendRaw(interp, collection.ref(), member));
  } else {
    if (interp.memory().classes().IsKindOf(class_oid, kernel.set)) {
      // Set semantics: no duplicates under value equality.
      GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, collection));
      for (const Value& existing : members) {
        if (existing == member) return member;
      }
    }
    GS_RETURN_IF_ERROR(SetAddRaw(interp, collection.ref(), member));
  }
  return member;
}

Status GenericAddAll(Interpreter& interp, const Value& target,
                     const Value& source) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, source));
  for (const Value& m : members) {
    GS_RETURN_IF_ERROR(GenericAdd(interp, target, m).status());
  }
  return Status::OK();
}

std::string StringOrSymbolText(Interpreter& interp, const Value& v,
                               bool* ok) {
  *ok = true;
  if (v.IsString()) return v.string();
  if (v.IsSymbol()) return interp.memory().symbols().Name(v.symbol());
  *ok = false;
  return {};
}

// Compares with the given operator; numbers numerically, strings
// lexicographically.
Result<bool> OrderedCompare(const Value& a, const Value& b,
                            CompiledMethod::PredicateConjunct::CmpOp op) {
  using CmpOp = CompiledMethod::PredicateConjunct::CmpOp;
  if (op == CmpOp::kEq) return a == b;
  if (op == CmpOp::kNe) return !(a == b);
  int cmp;
  if (a.IsNumber() && b.IsNumber()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    cmp = x < y ? -1 : (x > y ? 1 : 0);
  } else if (a.IsString() && b.IsString()) {
    cmp = a.string().compare(b.string());
  } else {
    return Status::TypeMismatch("values are not order-comparable");
  }
  switch (op) {
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
    default: return Status::Internal("unreachable");
  }
}

// --- selectWhere: the declarative query path --------------------------------

/// Evaluates one extracted conjunct against a member without any message
/// dispatch (the compiled calculus-to-procedural translation, §6).
Result<bool> EvalConjunct(Interpreter& interp,
                          const CompiledMethod::PredicateConjunct& conjunct,
                          const Value& member) {
  auto walk = [&](const std::vector<std::string>& path) -> Result<Value> {
    Value v = member;
    for (const std::string& step : path) {
      if (!v.IsRef()) return Status::TypeMismatch("path into simple value");
      const SymbolId sym = interp.memory().symbols().Intern(step);
      GS_ASSIGN_OR_RETURN(v, interp.session().ReadNamed(v.ref(), sym));
    }
    return v;
  };
  GS_ASSIGN_OR_RETURN(const Value lhs, walk(conjunct.lhs_path));
  if (conjunct.rhs_path.empty()) {
    return OrderedCompare(lhs, conjunct.rhs_literal, conjunct.op);
  }
  GS_ASSIGN_OR_RETURN(const Value rhs, walk(conjunct.rhs_path));
  return OrderedCompare(lhs, rhs, conjunct.op);
}

/// Runs a declarative block over a collection: pick a conjunct covered by
/// a directory as the access path, residual conjuncts filter. A directory
/// holds committed postings from its fill time on, so it serves reads at
/// or after it by a transaction with no permanent write of its own; any
/// other request scans. Either way the answer is select:'s.
Result<Value> SelectWhere(Interpreter& interp, const Value& collection,
                          const CompiledMethod& block) {
  using CmpOp = CompiledMethod::PredicateConjunct::CmpOp;
  const auto& conjuncts = block.declarative_conjuncts;
  txn::Session& session = interp.session();
  const TxnTime at = session.EffectiveTime() == kTimeNow
                         ? session.manager().Now()
                         : session.EffectiveTime();
  const bool may_probe = interp.directories() != nullptr &&
                         collection.IsRef() &&
                         session.transaction() != nullptr &&
                         !session.transaction()->wrote_permanent();

  std::vector<Value> candidates;
  bool probed = false;
  for (std::size_t c = 0; may_probe && !probed && c < conjuncts.size(); ++c) {
    const auto& conj = conjuncts[c];
    const bool eq = conj.op == CmpOp::kEq;
    const bool lower = conj.op == CmpOp::kGt || conj.op == CmpOp::kGe;
    const bool upper = conj.op == CmpOp::kLt || conj.op == CmpOp::kLe;
    if (!conj.rhs_path.empty() || conj.lhs_path.empty() ||
        !(eq || ((lower || upper) && conj.rhs_literal.IsNumber()))) {
      continue;
    }
    std::vector<SymbolId> path;
    for (const std::string& step : conj.lhs_path) {
      path.push_back(interp.memory().symbols().Intern(step));
    }
    index::Directory* dir = interp.directories()->Find(collection.ref(), path);
    if (dir == nullptr || at < dir->filled_at()) continue;
    // Read the collection as the scan would: access-checked and recorded.
    GS_RETURN_IF_ERROR(session.IndexedSize(collection.ref()).status());
    // A one-sided range runs to the far end; the recheck below is exact.
    const Value lo = eq || lower ? conj.rhs_literal : Value::Float(-1e308);
    const Value hi = eq || upper ? conj.rhs_literal : Value::Float(1e308);
    for (Oid member : dir->LookupRange(lo, hi, at)) {
      candidates.push_back(Value::Ref(member));
    }
    probed = true;
  }
  if (!probed) {
    GS_ASSIGN_OR_RETURN(candidates, CollectionMembers(interp, collection));
  }

  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(collection));
  GS_ASSIGN_OR_RETURN(Value result, NewCollection(interp, class_oid));
  const bool indexed = interp.memory().classes().Get(class_oid)->format() ==
                       ObjectFormat::kIndexed;
  for (const Value& member : candidates) {
    bool keep = true;
    for (std::size_t c = 0; c < conjuncts.size() && keep; ++c) {
      // Re-apply every conjunct (the directory probe is a superset for
      // ranges and exact for equality; rechecking is cheap and safe).
      GS_ASSIGN_OR_RETURN(keep, EvalConjunct(interp, conjuncts[c], member));
    }
    if (keep) {
      GS_RETURN_IF_ERROR(indexed ? AppendRaw(interp, result.ref(), member)
                                 : SetAddRaw(interp, result.ref(), member));
    }
  }
  return result;
}

// --- Object ------------------------------------------------------------------

Result<Value> PrimIdentical(Interpreter&, const Value& receiver,
                            std::vector<Value>& args) {
  return Value::Boolean(receiver == args[0]);
}

Result<Value> PrimNotIdentical(Interpreter&, const Value& receiver,
                               std::vector<Value>& args) {
  return Value::Boolean(!(receiver == args[0]));
}

Result<Value> PrimNotEqual(Interpreter& interp, const Value& receiver,
                           std::vector<Value>& args) {
  const SymbolId eq = interp.memory().symbols().Intern("=");
  GS_ASSIGN_OR_RETURN(Value v, interp.Send(receiver, eq, {args[0]}));
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, v, "~="));
  return Value::Boolean(!b);
}

Result<Value> PrimIsNil(Interpreter&, const Value& receiver,
                        std::vector<Value>&) {
  return Value::Boolean(receiver.IsNil());
}

Result<Value> PrimNotNil(Interpreter&, const Value& receiver,
                         std::vector<Value>&) {
  return Value::Boolean(!receiver.IsNil());
}

Result<Value> PrimClass(Interpreter& interp, const Value& receiver,
                        std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(receiver));
  return Value::Ref(class_oid);
}

Result<Value> PrimPrintString(Interpreter& interp, const Value& receiver,
                              std::vector<Value>&) {
  return Value::String(interp.DefaultPrintString(receiver));
}

Result<Value> PrimYourself(Interpreter&, const Value& receiver,
                           std::vector<Value>&) {
  return receiver;
}

Result<Value> PrimHash(Interpreter&, const Value& receiver,
                       std::vector<Value>&) {
  return Value::Integer(static_cast<std::int64_t>(ValueHash()(receiver)));
}

Result<Value> PrimDeepEqualTo(Interpreter& interp, const Value& receiver,
                              std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool eq, interp.session().DeepEquals(receiver, args[0]));
  return Value::Boolean(eq);
}

Result<Value> PrimIsKindOf(Interpreter& interp, const Value& receiver,
                           std::vector<Value>& args) {
  if (!args[0].IsRef()) return Value::Boolean(false);
  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(receiver));
  return Value::Boolean(
      interp.memory().classes().IsKindOf(class_oid, args[0].ref()));
}

Result<Value> PrimRespondsTo(Interpreter& interp, const Value& receiver,
                             std::vector<Value>& args) {
  if (!args[0].IsSymbol()) {
    return Status::TypeMismatch("respondsTo: needs a Symbol");
  }
  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(receiver));
  return Value::Boolean(interp.memory().classes().LookupMethod(
                            class_oid, args[0].symbol()) != nullptr);
}

Result<Value> PrimError(Interpreter& interp, const Value&,
                        std::vector<Value>& args) {
  return Status::RuntimeError(args[0].IsString()
                                  ? args[0].string()
                                  : interp.DefaultPrintString(args[0]));
}

Result<Value> PrimInstVarNamed(Interpreter& interp, const Value& receiver,
                               std::vector<Value>& args) {
  if (!receiver.IsRef()) {
    return Status::TypeMismatch("instVarNamed: on a simple value");
  }
  bool ok;
  const std::string name = StringOrSymbolText(interp, args[0], &ok);
  if (!ok) return Status::TypeMismatch("instVarNamed: needs a name");
  return interp.session().ReadNamed(receiver.ref(),
                                    interp.memory().symbols().Intern(name));
}

Result<Value> PrimInstVarNamedPut(Interpreter& interp, const Value& receiver,
                                  std::vector<Value>& args) {
  if (!receiver.IsRef()) {
    return Status::TypeMismatch("instVarNamed:put: on a simple value");
  }
  bool ok;
  const std::string name = StringOrSymbolText(interp, args[0], &ok);
  if (!ok) return Status::TypeMismatch("instVarNamed:put: needs a name");
  GS_RETURN_IF_ERROR(interp.session().WriteNamed(
      receiver.ref(), interp.memory().symbols().Intern(name), args[1]));
  return args[1];
}

/// elementAt:atTime: — explicit temporal read (the @ of path syntax as a
/// message, usable where the path form is inconvenient).
Result<Value> PrimElementAtTime(Interpreter& interp, const Value& receiver,
                                std::vector<Value>& args) {
  if (!receiver.IsRef()) {
    return Status::TypeMismatch("elementAt:atTime: on a simple value");
  }
  bool ok;
  const std::string name = StringOrSymbolText(interp, args[0], &ok);
  if (!ok || !args[1].IsInteger()) {
    return Status::TypeMismatch("elementAt:atTime: needs name and time");
  }
  return interp.session().ReadNamedAt(
      receiver.ref(), interp.memory().symbols().Intern(name),
      static_cast<TxnTime>(args[1].integer()));
}

// --- Boolean -----------------------------------------------------------------

Result<Value> PrimNot(Interpreter& interp, const Value& receiver,
                      std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, receiver, "not"));
  return Value::Boolean(!b);
}

Result<Value> PrimAnd(Interpreter& interp, const Value& receiver,
                      std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool a, AsBoolean(interp, receiver, "&"));
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, args[0], "&"));
  return Value::Boolean(a && b);
}

Result<Value> PrimOr(Interpreter& interp, const Value& receiver,
                     std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool a, AsBoolean(interp, receiver, "|"));
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, args[0], "|"));
  return Value::Boolean(a || b);
}

Result<Value> PrimAndColon(Interpreter& interp, const Value& receiver,
                           std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool a, AsBoolean(interp, receiver, "and:"));
  if (!a) return Value::Boolean(false);
  GS_ASSIGN_OR_RETURN(bool b, AsCondition(interp, args[0], "and:"));
  if (interp.nlr_active()) return Value::Nil();
  return Value::Boolean(b);
}

Result<Value> PrimOrColon(Interpreter& interp, const Value& receiver,
                          std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool a, AsBoolean(interp, receiver, "or:"));
  if (a) return Value::Boolean(true);
  GS_ASSIGN_OR_RETURN(bool b, AsCondition(interp, args[0], "or:"));
  if (interp.nlr_active()) return Value::Nil();
  return Value::Boolean(b);
}

Result<Value> PrimIfTrue(Interpreter& interp, const Value& receiver,
                         std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, receiver, "ifTrue:"));
  if (!b) return Value::Nil();
  return interp.CallBlock(args[0], {});
}

Result<Value> PrimIfFalse(Interpreter& interp, const Value& receiver,
                          std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, receiver, "ifFalse:"));
  if (b) return Value::Nil();
  return interp.CallBlock(args[0], {});
}

Result<Value> PrimIfTrueIfFalse(Interpreter& interp, const Value& receiver,
                                std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, receiver, "ifTrue:ifFalse:"));
  return interp.CallBlock(b ? args[0] : args[1], {});
}

Result<Value> PrimIfFalseIfTrue(Interpreter& interp, const Value& receiver,
                                std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, receiver, "ifFalse:ifTrue:"));
  return interp.CallBlock(b ? args[1] : args[0], {});
}

// --- Number ------------------------------------------------------------------

Result<Value> NumericPair(Interpreter& interp, const Value& a, const Value& b,
                          const char* op, bool* both_int) {
  if (!a.IsNumber() || !b.IsNumber()) {
    return Status::TypeMismatch(std::string(op) + " needs numbers, got " +
                                interp.DefaultPrintString(a) + " and " +
                                interp.DefaultPrintString(b));
  }
  *both_int = a.IsInteger() && b.IsInteger();
  return Value::Nil();
}

Result<Value> PrimAdd(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "+", &ints).status());
  if (ints) return Value::Integer(r.integer() + args[0].integer());
  return Value::Float(r.AsDouble() + args[0].AsDouble());
}

Result<Value> PrimSub(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "-", &ints).status());
  if (ints) return Value::Integer(r.integer() - args[0].integer());
  return Value::Float(r.AsDouble() - args[0].AsDouble());
}

Result<Value> PrimMul(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "*", &ints).status());
  if (ints) return Value::Integer(r.integer() * args[0].integer());
  return Value::Float(r.AsDouble() * args[0].AsDouble());
}

Result<Value> PrimDiv(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "/", &ints).status());
  if (args[0].AsDouble() == 0) {
    return Status::RuntimeError("division by zero");
  }
  if (ints && r.integer() % args[0].integer() == 0) {
    return Value::Integer(r.integer() / args[0].integer());
  }
  return Value::Float(r.AsDouble() / args[0].AsDouble());
}

Result<Value> PrimIntDiv(Interpreter& interp, const Value& r,
                         std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "//", &ints).status());
  if (args[0].AsDouble() == 0) return Status::RuntimeError("division by zero");
  const double q = std::floor(r.AsDouble() / args[0].AsDouble());
  return Value::Integer(static_cast<std::int64_t>(q));
}

Result<Value> PrimMod(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "\\\\", &ints).status());
  if (args[0].AsDouble() == 0) return Status::RuntimeError("division by zero");
  const double q = std::floor(r.AsDouble() / args[0].AsDouble());
  const double m = r.AsDouble() - q * args[0].AsDouble();
  if (ints) return Value::Integer(static_cast<std::int64_t>(m));
  return Value::Float(m);
}

template <int kOp>  // 0 < , 1 <= , 2 > , 3 >=
Result<Value> PrimNumCompare(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "<", &ints).status());
  const double a = r.AsDouble();
  const double b = args[0].AsDouble();
  switch (kOp) {
    case 0: return Value::Boolean(a < b);
    case 1: return Value::Boolean(a <= b);
    case 2: return Value::Boolean(a > b);
    default: return Value::Boolean(a >= b);
  }
}

Result<Value> PrimValueEq(Interpreter&, const Value& r,
                          std::vector<Value>& args) {
  return Value::Boolean(r == args[0]);
}

Result<Value> PrimAbs(Interpreter&, const Value& r, std::vector<Value>&) {
  if (r.IsInteger()) return Value::Integer(std::abs(r.integer()));
  return Value::Float(std::fabs(r.real()));
}

Result<Value> PrimNegated(Interpreter&, const Value& r, std::vector<Value>&) {
  if (r.IsInteger()) return Value::Integer(-r.integer());
  return Value::Float(-r.real());
}

Result<Value> PrimAsFloat(Interpreter&, const Value& r, std::vector<Value>&) {
  return Value::Float(r.AsDouble());
}

Result<Value> PrimAsInteger(Interpreter&, const Value& r,
                            std::vector<Value>&) {
  return Value::Integer(static_cast<std::int64_t>(r.AsDouble()));
}

Result<Value> PrimSqrt(Interpreter&, const Value& r, std::vector<Value>&) {
  if (r.AsDouble() < 0) return Status::RuntimeError("sqrt of a negative");
  return Value::Float(std::sqrt(r.AsDouble()));
}

Result<Value> PrimSquared(Interpreter&, const Value& r, std::vector<Value>&) {
  if (r.IsInteger()) return Value::Integer(r.integer() * r.integer());
  return Value::Float(r.real() * r.real());
}

Result<Value> PrimMin(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "min:", &ints).status());
  return r.AsDouble() <= args[0].AsDouble() ? r : args[0];
}

Result<Value> PrimMax(Interpreter& interp, const Value& r,
                      std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(NumericPair(interp, r, args[0], "max:", &ints).status());
  return r.AsDouble() >= args[0].AsDouble() ? r : args[0];
}

Result<Value> PrimBetweenAnd(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  bool ints;
  GS_RETURN_IF_ERROR(
      NumericPair(interp, r, args[0], "between:and:", &ints).status());
  GS_RETURN_IF_ERROR(
      NumericPair(interp, r, args[1], "between:and:", &ints).status());
  return Value::Boolean(r.AsDouble() >= args[0].AsDouble() &&
                        r.AsDouble() <= args[1].AsDouble());
}

Result<Value> PrimTimesRepeat(Interpreter& interp, const Value& r,
                              std::vector<Value>& args) {
  if (!r.IsInteger()) {
    return Status::TypeMismatch("timesRepeat: needs an Integer receiver");
  }
  for (std::int64_t i = 0; i < r.integer(); ++i) {
    GS_RETURN_IF_ERROR(interp.CallBlock(args[0], {}).status());
    if (interp.nlr_active()) return Value::Nil();
  }
  return r;
}

Result<Value> PrimToDo(Interpreter& interp, const Value& r,
                       std::vector<Value>& args) {
  if (!r.IsInteger() || !args[0].IsInteger()) {
    return Status::TypeMismatch("to:do: needs Integer bounds");
  }
  for (std::int64_t i = r.integer(); i <= args[0].integer(); ++i) {
    GS_RETURN_IF_ERROR(
        interp.CallBlock(args[1], {Value::Integer(i)}).status());
    if (interp.nlr_active()) return Value::Nil();
  }
  return r;
}

Result<Value> PrimToByDo(Interpreter& interp, const Value& r,
                         std::vector<Value>& args) {
  if (!r.IsInteger() || !args[0].IsInteger() || !args[1].IsInteger()) {
    return Status::TypeMismatch("to:by:do: needs Integer bounds and step");
  }
  const std::int64_t step = args[1].integer();
  if (step == 0) return Status::RuntimeError("to:by:do: step is zero");
  for (std::int64_t i = r.integer();
       step > 0 ? i <= args[0].integer() : i >= args[0].integer();
       i += step) {
    GS_RETURN_IF_ERROR(
        interp.CallBlock(args[2], {Value::Integer(i)}).status());
    if (interp.nlr_active()) return Value::Nil();
  }
  return r;
}

// --- String ------------------------------------------------------------------

Result<Value> PrimStringConcat(Interpreter& interp, const Value& r,
                               std::vector<Value>& args) {
  if (!r.IsString() || !args[0].IsString()) {
    return Status::TypeMismatch("',' concatenates Strings, got " +
                                interp.DefaultPrintString(args[0]));
  }
  return Value::String(r.string() + args[0].string());
}

Result<Value> PrimStringSize(Interpreter&, const Value& r,
                             std::vector<Value>&) {
  return Value::Integer(static_cast<std::int64_t>(r.string().size()));
}

Result<Value> PrimStringAt(Interpreter&, const Value& r,
                           std::vector<Value>& args) {
  if (!args[0].IsInteger()) return Status::TypeMismatch("at: needs an index");
  const std::int64_t i = args[0].integer();
  if (i < 1 || static_cast<std::size_t>(i) > r.string().size()) {
    return Status::OutOfRange("string index " + std::to_string(i) +
                              " out of 1.." +
                              std::to_string(r.string().size()));
  }
  return Value::String(std::string(1, r.string()[static_cast<std::size_t>(
                                        i - 1)]));
}

template <int kOp>
Result<Value> PrimStringCompare(Interpreter& interp, const Value& r,
                                std::vector<Value>& args) {
  if (!args[0].IsString()) {
    return Status::TypeMismatch("string comparison with " +
                                interp.DefaultPrintString(args[0]));
  }
  const int cmp = r.string().compare(args[0].string());
  switch (kOp) {
    case 0: return Value::Boolean(cmp < 0);
    case 1: return Value::Boolean(cmp <= 0);
    case 2: return Value::Boolean(cmp > 0);
    default: return Value::Boolean(cmp >= 0);
  }
}

Result<Value> PrimAsSymbol(Interpreter& interp, const Value& r,
                           std::vector<Value>&) {
  return Value::Symbol(interp.memory().symbols().Intern(r.string()));
}

Result<Value> PrimSymbolAsString(Interpreter& interp, const Value& r,
                                 std::vector<Value>&) {
  return Value::String(interp.memory().symbols().Name(r.symbol()));
}

Result<Value> PrimStringIsEmpty(Interpreter&, const Value& r,
                                std::vector<Value>&) {
  return Value::Boolean(r.string().empty());
}

Result<Value> PrimCopyFromTo(Interpreter&, const Value& r,
                             std::vector<Value>& args) {
  if (!args[0].IsInteger() || !args[1].IsInteger()) {
    return Status::TypeMismatch("copyFrom:to: needs Integer bounds");
  }
  const std::int64_t from = args[0].integer();
  const std::int64_t to = args[1].integer();
  const auto& s = r.string();
  if (from < 1 || to > static_cast<std::int64_t>(s.size()) || from > to + 1) {
    return Status::OutOfRange("copyFrom:to: bounds");
  }
  return Value::String(s.substr(static_cast<std::size_t>(from - 1),
                                static_cast<std::size_t>(to - from + 1)));
}

// --- Block -------------------------------------------------------------------

Result<Value> PrimBlockValue0(Interpreter& interp, const Value& r,
                              std::vector<Value>&) {
  return interp.CallBlock(r, {});
}

Result<Value> PrimBlockValue1(Interpreter& interp, const Value& r,
                              std::vector<Value>& args) {
  return interp.CallBlock(r, {args[0]});
}

Result<Value> PrimBlockValue2(Interpreter& interp, const Value& r,
                              std::vector<Value>& args) {
  return interp.CallBlock(r, {args[0], args[1]});
}

Result<Value> PrimBlockValue3(Interpreter& interp, const Value& r,
                              std::vector<Value>& args) {
  return interp.CallBlock(r, {args[0], args[1], args[2]});
}

Result<Value> PrimBlockNumArgs(Interpreter&, const Value& r,
                               std::vector<Value>&) {
  auto* closure = dynamic_cast<BlockClosure*>(r.handle().get());
  if (closure == nullptr) return Status::TypeMismatch("not a block");
  return Value::Integer(closure->method->num_args);
}

Result<Value> PrimBlockIsDeclarative(Interpreter&, const Value& r,
                                     std::vector<Value>&) {
  auto* closure = dynamic_cast<BlockClosure*>(r.handle().get());
  if (closure == nullptr) return Status::TypeMismatch("not a block");
  return Value::Boolean(closure->method->is_declarative);
}

Result<Value> PrimWhileTrue(Interpreter& interp, const Value& r,
                            std::vector<Value>& args) {
  for (;;) {
    GS_ASSIGN_OR_RETURN(Value cond, interp.CallBlock(r, {}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, cond, "whileTrue:"));
    if (!b) return Value::Nil();
    if (!args.empty()) {
      GS_RETURN_IF_ERROR(interp.CallBlock(args[0], {}).status());
      if (interp.nlr_active()) return Value::Nil();
    }
  }
}

Result<Value> PrimWhileFalse(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  for (;;) {
    GS_ASSIGN_OR_RETURN(Value cond, interp.CallBlock(r, {}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, cond, "whileFalse:"));
    if (b) return Value::Nil();
    if (!args.empty()) {
      GS_RETURN_IF_ERROR(interp.CallBlock(args[0], {}).status());
      if (interp.nlr_active()) return Value::Nil();
    }
  }
}

// --- Class (metaclass protocol) ----------------------------------------------

Result<GsClass*> ReceiverClass(Interpreter& interp, const Value& receiver) {
  if (!receiver.IsRef()) return Status::TypeMismatch("not a class");
  GsClass* cls = interp.memory().classes().Get(receiver.ref());
  if (cls == nullptr) return Status::TypeMismatch("not a class");
  return cls;
}

Result<Value> PrimClassNew(Interpreter& interp, const Value& receiver,
                           std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  GS_ASSIGN_OR_RETURN(Oid oid, interp.session().Create(cls->oid()));
  return Value::Ref(oid);
}

Result<Value> PrimClassNewSize(Interpreter& interp, const Value& receiver,
                               std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  if (!args[0].IsInteger() || args[0].integer() < 0) {
    return Status::TypeMismatch("new: needs a non-negative size");
  }
  GS_ASSIGN_OR_RETURN(Oid oid, interp.session().Create(cls->oid()));
  for (std::int64_t i = 0; i < args[0].integer(); ++i) {
    GS_RETURN_IF_ERROR(
        interp.session().AppendIndexed(oid, Value::Nil()).status());
  }
  return Value::Ref(oid);
}

Result<Value> PrimClassName(Interpreter& interp, const Value& receiver,
                            std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  return Value::String(cls->name());
}

Result<Value> PrimClassSuperclass(Interpreter& interp, const Value& receiver,
                                  std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  if (cls->superclass().IsNil()) return Value::Nil();
  return Value::Ref(cls->superclass());
}

Result<Value> PrimClassInstVarNames(Interpreter& interp,
                                    const Value& receiver,
                                    std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  GS_ASSIGN_OR_RETURN(Oid array,
                      interp.session().Create(interp.memory().kernel().array));
  for (SymbolId var : interp.memory().classes().AllInstVars(cls->oid())) {
    GS_RETURN_IF_ERROR(
        interp.session()
            .AppendIndexed(array, Value::String(
                                      interp.memory().symbols().Name(var)))
            .status());
  }
  return Value::Ref(array);
}

Result<Value> DefineSubclass(Interpreter& interp, const Value& receiver,
                             const Value& name_value,
                             const std::vector<std::string>& inst_vars) {
  GS_ASSIGN_OR_RETURN(GsClass * super, ReceiverClass(interp, receiver));
  if (!name_value.IsString()) {
    return Status::TypeMismatch("subclass: needs a String name");
  }
  const Oid oid = interp.memory().AllocateOid();
  GS_ASSIGN_OR_RETURN(
      Oid defined,
      interp.memory().classes().DefineClass(oid, name_value.string(),
                                            super->oid(), super->format(),
                                            inst_vars));
  return Value::Ref(defined);
}

Result<Value> PrimSubclass(Interpreter& interp, const Value& receiver,
                           std::vector<Value>& args) {
  return DefineSubclass(interp, receiver, args[0], {});
}

Result<Value> PrimSubclassInstVars(Interpreter& interp, const Value& receiver,
                                   std::vector<Value>& args) {
  std::vector<std::string> inst_vars;
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, args[1]));
  for (const Value& v : members) {
    bool ok;
    std::string text = StringOrSymbolText(interp, v, &ok);
    if (!ok) {
      return Status::TypeMismatch(
          "instVarNames: needs Strings or Symbols");
    }
    inst_vars.push_back(std::move(text));
  }
  return DefineSubclass(interp, receiver, args[0], inst_vars);
}

Result<Value> PrimAddInstVarName(Interpreter& interp, const Value& receiver,
                                 std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  bool ok;
  const std::string name = StringOrSymbolText(interp, args[0], &ok);
  if (!ok) return Status::TypeMismatch("addInstVarName: needs a name");
  GS_RETURN_IF_ERROR(interp.memory().classes().AddInstVar(cls->oid(), name));
  return receiver;
}

Result<Value> PrimCompileMethod(Interpreter& interp, const Value& receiver,
                                std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(GsClass * cls, ReceiverClass(interp, receiver));
  if (!args[0].IsString()) {
    return Status::TypeMismatch("compileMethod: needs source text");
  }
  Compiler compiler(&interp.memory());
  GS_ASSIGN_OR_RETURN(auto method,
                      compiler.CompileMethodSource(args[0].string(),
                                                   cls->oid()));
  const SymbolId selector =
      interp.memory().symbols().Intern(method->selector);
  // Through the registry: the install takes the exclusive class lock and
  // retires any replaced handle a concurrent reader may be executing.
  GS_RETURN_IF_ERROR(interp.memory().classes().InstallMethod(
      cls->oid(), selector, method, args[0].string()));
  return Value::Symbol(selector);
}

// --- System ------------------------------------------------------------------

Result<Value> PrimSysCommit(Interpreter& interp, const Value&,
                            std::vector<Value>&) {
  Status s = interp.session().Commit();
  Status begin = interp.session().Begin();
  if (!begin.ok()) return begin;
  if (s.IsTransactionConflict()) return Value::Boolean(false);
  GS_RETURN_IF_ERROR(s);
  return Value::Boolean(true);
}

Result<Value> PrimSysAbort(Interpreter& interp, const Value&,
                           std::vector<Value>&) {
  GS_RETURN_IF_ERROR(interp.session().Abort());
  GS_RETURN_IF_ERROR(interp.session().Begin());
  return Value::Boolean(true);
}

Result<Value> PrimSysNow(Interpreter& interp, const Value&,
                         std::vector<Value>&) {
  return Value::Integer(
      static_cast<std::int64_t>(interp.session().manager().Now()));
}

Result<Value> PrimSysSafeTime(Interpreter& interp, const Value&,
                              std::vector<Value>&) {
  return Value::Integer(
      static_cast<std::int64_t>(interp.session().manager().SafeTime()));
}

Result<Value> PrimSysTimeDial(Interpreter& interp, const Value&,
                              std::vector<Value>& args) {
  if (!args[0].IsInteger() || args[0].integer() < 0) {
    return Status::TypeMismatch("timeDial: needs a non-negative Integer");
  }
  interp.session().SetTimeDial(static_cast<TxnTime>(args[0].integer()));
  return Value::Nil();
}

Result<Value> PrimSysClearTimeDial(Interpreter& interp, const Value&,
                                   std::vector<Value>&) {
  interp.session().ClearTimeDial();
  return Value::Nil();
}

Result<Value> PrimSysSafeTimeDial(Interpreter& interp, const Value&,
                                  std::vector<Value>&) {
  interp.session().SetTimeDialToSafeTime();
  return Value::Integer(
      static_cast<std::int64_t>(interp.session().manager().SafeTime()));
}

Result<Value> PrimSysStats(Interpreter&, const Value&, std::vector<Value>&) {
  // System stats — the live process-wide telemetry report as a String.
  return Value::String(telemetry::ToText(
      telemetry::MetricsRegistry::Global().Snapshot()));
}

Result<Value> PrimSysStatsJson(Interpreter&, const Value&,
                               std::vector<Value>&) {
  return Value::String(telemetry::ToJson(
      telemetry::MetricsRegistry::Global().Snapshot()));
}

Result<Value> PrimSysCreateDirectoryOn(Interpreter& interp, const Value&,
                                       std::vector<Value>& args) {
  // System createDirectoryOn: aCollection path: #(step1 step2)
  if (interp.directories() == nullptr) {
    return Status::Unavailable("no directory manager in this session");
  }
  if (!args[0].IsRef()) {
    return Status::TypeMismatch("createDirectoryOn: needs a collection");
  }
  GS_ASSIGN_OR_RETURN(auto steps, CollectionMembers(interp, args[1]));
  std::vector<SymbolId> path;
  for (const Value& s : steps) {
    bool ok;
    const std::string text = StringOrSymbolText(interp, s, &ok);
    if (!ok) return Status::TypeMismatch("path: needs names");
    path.push_back(interp.memory().symbols().Intern(text));
  }
  GS_RETURN_IF_ERROR(interp.directories()->CreateDirectory(
      &interp.session(), args[0].ref(), path));
  return Value::Boolean(true);
}

// --- Collections -------------------------------------------------------------

Result<Value> PrimCollAdd(Interpreter& interp, const Value& r,
                          std::vector<Value>& args) {
  return GenericAdd(interp, r, args[0]);
}

Result<Value> PrimCollSize(Interpreter& interp, const Value& r,
                           std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  return Value::Integer(static_cast<std::int64_t>(members.size()));
}

Result<Value> PrimCollIsEmpty(Interpreter& interp, const Value& r,
                              std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  return Value::Boolean(members.empty());
}

Result<Value> PrimCollNotEmpty(Interpreter& interp, const Value& r,
                               std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  return Value::Boolean(!members.empty());
}

Result<Value> PrimCollIncludes(Interpreter& interp, const Value& r,
                               std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  for (const Value& m : members) {
    if (m == args[0]) return Value::Boolean(true);
  }
  return Value::Boolean(false);
}

Result<Value> PrimCollDo(Interpreter& interp, const Value& r,
                         std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  for (const Value& m : members) {
    GS_RETURN_IF_ERROR(interp.CallBlock(args[0], {m}).status());
    if (interp.nlr_active()) return Value::Nil();
  }
  return r;
}

Result<Value> CollFilter(Interpreter& interp, const Value& r,
                         const Value& block, bool keep_matching) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(Oid class_oid, interp.ClassOfValue(r));
  GS_ASSIGN_OR_RETURN(Value result, NewCollection(interp, class_oid));
  const GsClass* cls = interp.memory().classes().Get(class_oid);
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value keep, interp.CallBlock(block, {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, keep, "select:"));
    if (b == keep_matching) {
      if (cls->format() == ObjectFormat::kIndexed) {
        GS_RETURN_IF_ERROR(AppendRaw(interp, result.ref(), m));
      } else {
        GS_RETURN_IF_ERROR(SetAddRaw(interp, result.ref(), m));
      }
    }
  }
  return result;
}

Result<Value> PrimCollSelect(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  return CollFilter(interp, r, args[0], true);
}

Result<Value> PrimCollReject(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  return CollFilter(interp, r, args[0], false);
}

Result<Value> PrimCollSelectWhere(Interpreter& interp, const Value& r,
                                  std::vector<Value>& args) {
  if (!args[0].IsHandle()) {
    return Status::TypeMismatch("selectWhere: needs a block");
  }
  auto* closure = dynamic_cast<BlockClosure*>(args[0].handle().get());
  if (closure == nullptr || !closure->method->is_declarative) {
    return Status::InvalidArgument(
        "selectWhere: needs a declarative block — a one-argument block "
        "whose body is a conjunction of path comparisons, e.g. "
        "[:e | (e!salary > 1000) & (e!dept = 'Sales')]");
  }
  return SelectWhere(interp, r, *closure->method);
}

Result<Value> PrimCollCollect(Interpreter& interp, const Value& r,
                              std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().array));
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value mapped, interp.CallBlock(args[0], {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_RETURN_IF_ERROR(AppendRaw(interp, result.ref(), mapped));
  }
  return result;
}

Result<Value> PrimCollDetectIfNone(Interpreter& interp, const Value& r,
                                   std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value keep, interp.CallBlock(args[0], {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, keep, "detect:"));
    if (b) return m;
  }
  return interp.CallBlock(args[1], {});
}

Result<Value> PrimCollDetect(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value keep, interp.CallBlock(args[0], {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, keep, "detect:"));
    if (b) return m;
  }
  return Status::RuntimeError("detect: found no matching member");
}

Result<Value> PrimCollAddAll(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, args[0]));
  for (const Value& m : members) {
    GS_RETURN_IF_ERROR(GenericAdd(interp, r, m).status());
  }
  return args[0];
}

Result<Value> PrimCollAsArray(Interpreter& interp, const Value& r,
                              std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().array));
  for (const Value& m : members) {
    GS_RETURN_IF_ERROR(AppendRaw(interp, result.ref(), m));
  }
  return result;
}

Result<Value> PrimCollAsSet(Interpreter& interp, const Value& r,
                            std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().set));
  for (const Value& m : members) {
    GS_RETURN_IF_ERROR(GenericAdd(interp, result, m).status());
  }
  return result;
}

Result<Value> PrimCollInjectInto(Interpreter& interp, const Value& r,
                                 std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  Value acc = args[0];
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(acc, interp.CallBlock(args[1], {acc, m}));
    if (interp.nlr_active()) return Value::Nil();
  }
  return acc;
}

Result<Value> PrimIfNil(Interpreter& interp, const Value& r,
                        std::vector<Value>& args) {
  if (!r.IsNil()) return r;
  return interp.CallBlock(args[0], {});
}

Result<Value> PrimIfNotNil(Interpreter& interp, const Value& r,
                           std::vector<Value>& args) {
  if (r.IsNil()) return Value::Nil();
  return interp.CallBlock(args[0], {r});
}

Result<Value> PrimIfNilIfNotNil(Interpreter& interp, const Value& r,
                                std::vector<Value>& args) {
  if (r.IsNil()) return interp.CallBlock(args[0], {});
  return interp.CallBlock(args[1], {r});
}

// Renders a collection with its members: "a Set(1 2 3)".
Result<Value> PrimCollPrintString(Interpreter& interp, const Value& r,
                                  std::vector<Value>& args) {
  (void)args;
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  std::string out = interp.DefaultPrintString(r) + "(";
  const SymbolId print = interp.memory().symbols().Intern("printString");
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += " ";
    GS_ASSIGN_OR_RETURN(Value rendered, interp.Send(members[i], print, {}));
    out += rendered.IsString() ? rendered.string()
                               : interp.DefaultPrintString(members[i]);
  }
  out += ")";
  return Value::String(std::move(out));
}

Result<Value> PrimCollAnySatisfy(Interpreter& interp, const Value& r,
                                 std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value keep, interp.CallBlock(args[0], {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, keep, "anySatisfy:"));
    if (b) return Value::Boolean(true);
  }
  return Value::Boolean(false);
}

Result<Value> PrimCollAllSatisfy(Interpreter& interp, const Value& r,
                                 std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value keep, interp.CallBlock(args[0], {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, keep, "allSatisfy:"));
    if (!b) return Value::Boolean(false);
  }
  return Value::Boolean(true);
}

Result<Value> PrimCollCount(Interpreter& interp, const Value& r,
                            std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto members, CollectionMembers(interp, r));
  std::int64_t n = 0;
  for (const Value& m : members) {
    GS_ASSIGN_OR_RETURN(Value keep, interp.CallBlock(args[0], {m}));
    if (interp.nlr_active()) return Value::Nil();
    GS_ASSIGN_OR_RETURN(bool b, AsBoolean(interp, keep, "count:"));
    if (b) ++n;
  }
  return Value::Integer(n);
}

// --- Set algebra on OPAL sets ---------------------------------------------------

Result<Value> PrimSetUnion(Interpreter& interp, const Value& r,
                           std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().set));
  GS_RETURN_IF_ERROR(GenericAddAll(interp, result, r));
  GS_RETURN_IF_ERROR(GenericAddAll(interp, result, args[0]));
  return result;
}

Result<Value> PrimSetIntersection(Interpreter& interp, const Value& r,
                                  std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto mine, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(auto theirs, CollectionMembers(interp, args[0]));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().set));
  for (const Value& m : mine) {
    for (const Value& t : theirs) {
      if (m == t) {
        GS_RETURN_IF_ERROR(GenericAdd(interp, result, m).status());
        break;
      }
    }
  }
  return result;
}

Result<Value> PrimSetDifference(Interpreter& interp, const Value& r,
                                std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto mine, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(auto theirs, CollectionMembers(interp, args[0]));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().set));
  for (const Value& m : mine) {
    bool found = false;
    for (const Value& t : theirs) found = found || (m == t);
    if (!found) GS_RETURN_IF_ERROR(GenericAdd(interp, result, m).status());
  }
  return result;
}

// a isSubsetOf: b — the §5.2 primitive at the OPAL level.
Result<Value> PrimSetSubset(Interpreter& interp, const Value& r,
                            std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto mine, CollectionMembers(interp, r));
  GS_ASSIGN_OR_RETURN(auto theirs, CollectionMembers(interp, args[0]));
  for (const Value& m : mine) {
    bool found = false;
    for (const Value& t : theirs) found = found || (m == t);
    if (!found) return Value::Boolean(false);
  }
  return Value::Boolean(true);
}

// --- More string protocol ---------------------------------------------------------

Result<Value> PrimStringAsUppercase(Interpreter&, const Value& r,
                                    std::vector<Value>&) {
  std::string out = r.string();
  for (char& c : out) c = static_cast<char>(std::toupper(
                            static_cast<unsigned char>(c)));
  return Value::String(std::move(out));
}

Result<Value> PrimStringAsLowercase(Interpreter&, const Value& r,
                                    std::vector<Value>&) {
  std::string out = r.string();
  for (char& c : out) c = static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)));
  return Value::String(std::move(out));
}

Result<Value> PrimStringIncludesSubstring(Interpreter&, const Value& r,
                                          std::vector<Value>& args) {
  if (!args[0].IsString()) {
    return Status::TypeMismatch("includesSubstring: needs a String");
  }
  return Value::Boolean(r.string().find(args[0].string()) !=
                        std::string::npos);
}

Result<Value> PrimStringIndexOf(Interpreter&, const Value& r,
                                std::vector<Value>& args) {
  if (!args[0].IsString() || args[0].string().size() != 1) {
    return Status::TypeMismatch("indexOf: needs a one-character String");
  }
  const std::size_t pos = r.string().find(args[0].string()[0]);
  return Value::Integer(pos == std::string::npos
                            ? 0
                            : static_cast<std::int64_t>(pos + 1));
}

Result<Value> PrimStringReversed(Interpreter&, const Value& r,
                                 std::vector<Value>&) {
  return Value::String(std::string(r.string().rbegin(), r.string().rend()));
}

// --- Dictionary values / associationsDo analog -------------------------------------

Result<Value> PrimDictValues(Interpreter& interp, const Value& r,
                             std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto named, interp.session().ListNamed(r.ref()));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().array));
  for (const auto& [name, value] : named) {
    GS_RETURN_IF_ERROR(AppendRaw(interp, result.ref(), value));
  }
  return result;
}

// --- Set-specific ------------------------------------------------------------

Result<Value> SetRemove(Interpreter& interp, const Value& r,
                        const Value& target, bool* removed) {
  *removed = false;
  GS_ASSIGN_OR_RETURN(auto named, interp.session().ListNamed(r.ref()));
  for (const auto& [name, value] : named) {
    if (value == target) {
      GS_RETURN_IF_ERROR(
          interp.session().WriteNamed(r.ref(), name, Value::Nil()));
      *removed = true;
      return target;
    }
  }
  return Value::Nil();
}

Result<Value> PrimSetRemove(Interpreter& interp, const Value& r,
                            std::vector<Value>& args) {
  bool removed;
  GS_ASSIGN_OR_RETURN(Value v, SetRemove(interp, r, args[0], &removed));
  if (!removed) {
    return Status::NotFound("remove: member not in collection");
  }
  return v;
}

Result<Value> PrimSetRemoveIfAbsent(Interpreter& interp, const Value& r,
                                    std::vector<Value>& args) {
  bool removed;
  GS_ASSIGN_OR_RETURN(Value v, SetRemove(interp, r, args[0], &removed));
  if (!removed) return interp.CallBlock(args[1], {});
  return v;
}

// --- Dictionary --------------------------------------------------------------

Result<SymbolId> DictKey(Interpreter& interp, const Value& key) {
  bool ok;
  const std::string text = StringOrSymbolText(interp, key, &ok);
  if (!ok) {
    return Status::TypeMismatch(
        "Dictionary keys must be Strings or Symbols (element names)");
  }
  return interp.memory().symbols().Intern(text);
}

Result<Value> PrimDictAtPut(Interpreter& interp, const Value& r,
                            std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(SymbolId key, DictKey(interp, args[0]));
  GS_RETURN_IF_ERROR(interp.session().WriteNamed(r.ref(), key, args[1]));
  return args[1];
}

Result<Value> PrimDictAt(Interpreter& interp, const Value& r,
                         std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(SymbolId key, DictKey(interp, args[0]));
  GS_ASSIGN_OR_RETURN(Value v, interp.session().ReadNamed(r.ref(), key));
  if (v.IsNil()) {
    return Status::NotFound("key not found: " +
                            interp.DefaultPrintString(args[0]));
  }
  return v;
}

Result<Value> PrimDictAtIfAbsent(Interpreter& interp, const Value& r,
                                 std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(SymbolId key, DictKey(interp, args[0]));
  GS_ASSIGN_OR_RETURN(Value v, interp.session().ReadNamed(r.ref(), key));
  if (v.IsNil()) return interp.CallBlock(args[1], {});
  return v;
}

Result<Value> PrimDictIncludesKey(Interpreter& interp, const Value& r,
                                  std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(SymbolId key, DictKey(interp, args[0]));
  GS_ASSIGN_OR_RETURN(Value v, interp.session().ReadNamed(r.ref(), key));
  return Value::Boolean(!v.IsNil());
}

Result<Value> PrimDictRemoveKey(Interpreter& interp, const Value& r,
                                std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(SymbolId key, DictKey(interp, args[0]));
  GS_ASSIGN_OR_RETURN(Value old, interp.session().ReadNamed(r.ref(), key));
  if (old.IsNil()) return Status::NotFound("removeKey: key not present");
  GS_RETURN_IF_ERROR(
      interp.session().WriteNamed(r.ref(), key, Value::Nil()));
  return old;
}

Result<Value> PrimDictKeys(Interpreter& interp, const Value& r,
                           std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(auto named, interp.session().ListNamed(r.ref()));
  GS_ASSIGN_OR_RETURN(Value result,
                      NewCollection(interp, interp.memory().kernel().array));
  for (const auto& [name, value] : named) {
    GS_RETURN_IF_ERROR(AppendRaw(
        interp, result.ref(),
        Value::String(interp.memory().symbols().Name(name))));
  }
  return result;
}

Result<Value> PrimDictKeysAndValuesDo(Interpreter& interp, const Value& r,
                                      std::vector<Value>& args) {
  GS_ASSIGN_OR_RETURN(auto named, interp.session().ListNamed(r.ref()));
  for (const auto& [name, value] : named) {
    GS_RETURN_IF_ERROR(
        interp
            .CallBlock(args[0],
                       {Value::String(interp.memory().symbols().Name(name)),
                        value})
            .status());
    if (interp.nlr_active()) return Value::Nil();
  }
  return r;
}

// --- Array / OrderedCollection -----------------------------------------------

Result<Value> PrimArrayAt(Interpreter& interp, const Value& r,
                          std::vector<Value>& args) {
  if (!args[0].IsInteger()) return Status::TypeMismatch("at: needs an index");
  const std::int64_t i = args[0].integer();
  if (i < 1) return Status::OutOfRange("indexes are 1-based");
  return interp.session().ReadIndexed(r.ref(),
                                      static_cast<std::size_t>(i - 1));
}

Result<Value> PrimArrayAtPut(Interpreter& interp, const Value& r,
                             std::vector<Value>& args) {
  if (!args[0].IsInteger()) {
    return Status::TypeMismatch("at:put: needs an index");
  }
  const std::int64_t i = args[0].integer();
  GS_ASSIGN_OR_RETURN(std::size_t n, interp.session().IndexedSize(r.ref()));
  if (i < 1 || static_cast<std::size_t>(i) > n) {
    return Status::OutOfRange("index " + std::to_string(i) + " out of 1.." +
                              std::to_string(n));
  }
  GS_RETURN_IF_ERROR(interp.session().WriteIndexed(
      r.ref(), static_cast<std::size_t>(i - 1), args[1]));
  return args[1];
}

Result<Value> PrimArrayFirst(Interpreter& interp, const Value& r,
                             std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(std::size_t n, interp.session().IndexedSize(r.ref()));
  if (n == 0) return Status::OutOfRange("first of an empty collection");
  return interp.session().ReadIndexed(r.ref(), 0);
}

Result<Value> PrimArrayLast(Interpreter& interp, const Value& r,
                            std::vector<Value>&) {
  GS_ASSIGN_OR_RETURN(std::size_t n, interp.session().IndexedSize(r.ref()));
  if (n == 0) return Status::OutOfRange("last of an empty collection");
  return interp.session().ReadIndexed(r.ref(), n - 1);
}

}  // namespace

void InstallKernelPrimitives(ObjectMemory* memory) {
  ClassRegistry& classes = memory->classes();
  SymbolTable& symbols = memory->symbols();
  const KernelClasses& kernel = memory->kernel();

  auto install = [&](Oid class_oid, const char* selector, PrimitiveFn fn) {
    Status s = classes.InstallMethod(class_oid, symbols.Intern(selector),
                                     std::make_shared<PrimitiveMethod>(fn));
    (void)s;  // kernel classes always exist at boot
  };

  // Object protocol (inherited everywhere).
  install(kernel.object, "==", PrimIdentical);
  install(kernel.object, "~~", PrimNotIdentical);
  install(kernel.object, "=", PrimValueEq);
  install(kernel.object, "~=", PrimNotEqual);
  install(kernel.object, "isNil", PrimIsNil);
  install(kernel.object, "notNil", PrimNotNil);
  install(kernel.object, "class", PrimClass);
  install(kernel.object, "printString", PrimPrintString);
  install(kernel.object, "displayString", PrimPrintString);
  install(kernel.object, "yourself", PrimYourself);
  install(kernel.object, "hash", PrimHash);
  install(kernel.object, "deepEqualTo:", PrimDeepEqualTo);
  install(kernel.object, "isKindOf:", PrimIsKindOf);
  install(kernel.object, "respondsTo:", PrimRespondsTo);
  install(kernel.object, "error:", PrimError);
  install(kernel.object, "instVarNamed:", PrimInstVarNamed);
  install(kernel.object, "instVarNamed:put:", PrimInstVarNamedPut);
  install(kernel.object, "elementAt:atTime:", PrimElementAtTime);
  install(kernel.object, "ifNil:", PrimIfNil);
  install(kernel.object, "ifNotNil:", PrimIfNotNil);
  install(kernel.object, "ifNil:ifNotNil:", PrimIfNilIfNotNil);

  // Boolean.
  install(kernel.boolean, "not", PrimNot);
  install(kernel.boolean, "&", PrimAnd);
  install(kernel.boolean, "|", PrimOr);
  install(kernel.boolean, "and:", PrimAndColon);
  install(kernel.boolean, "or:", PrimOrColon);
  install(kernel.boolean, "ifTrue:", PrimIfTrue);
  install(kernel.boolean, "ifFalse:", PrimIfFalse);
  install(kernel.boolean, "ifTrue:ifFalse:", PrimIfTrueIfFalse);
  install(kernel.boolean, "ifFalse:ifTrue:", PrimIfFalseIfTrue);

  // Number (Integer and Float inherit).
  install(kernel.number, "+", PrimAdd);
  install(kernel.number, "-", PrimSub);
  install(kernel.number, "*", PrimMul);
  install(kernel.number, "/", PrimDiv);
  install(kernel.number, "//", PrimIntDiv);
  install(kernel.number, "\\\\", PrimMod);
  install(kernel.number, "<", PrimNumCompare<0>);
  install(kernel.number, "<=", PrimNumCompare<1>);
  install(kernel.number, ">", PrimNumCompare<2>);
  install(kernel.number, ">=", PrimNumCompare<3>);
  install(kernel.number, "abs", PrimAbs);
  install(kernel.number, "negated", PrimNegated);
  install(kernel.number, "asFloat", PrimAsFloat);
  install(kernel.number, "asInteger", PrimAsInteger);
  install(kernel.number, "sqrt", PrimSqrt);
  install(kernel.number, "squared", PrimSquared);
  install(kernel.number, "min:", PrimMin);
  install(kernel.number, "max:", PrimMax);
  install(kernel.number, "between:and:", PrimBetweenAnd);
  install(kernel.integer, "timesRepeat:", PrimTimesRepeat);
  install(kernel.integer, "to:do:", PrimToDo);
  install(kernel.integer, "to:by:do:", PrimToByDo);

  // String and Symbol.
  install(kernel.string, ",", PrimStringConcat);
  install(kernel.string, "size", PrimStringSize);
  install(kernel.string, "at:", PrimStringAt);
  install(kernel.string, "<", PrimStringCompare<0>);
  install(kernel.string, "<=", PrimStringCompare<1>);
  install(kernel.string, ">", PrimStringCompare<2>);
  install(kernel.string, ">=", PrimStringCompare<3>);
  install(kernel.string, "asSymbol", PrimAsSymbol);
  install(kernel.string, "isEmpty", PrimStringIsEmpty);
  install(kernel.string, "copyFrom:to:", PrimCopyFromTo);
  install(kernel.string, "asUppercase", PrimStringAsUppercase);
  install(kernel.string, "asLowercase", PrimStringAsLowercase);
  install(kernel.string, "includesSubstring:", PrimStringIncludesSubstring);
  install(kernel.string, "indexOf:", PrimStringIndexOf);
  install(kernel.string, "reversed", PrimStringReversed);
  install(kernel.symbol, "asString", PrimSymbolAsString);

  // Block.
  install(kernel.block, "value", PrimBlockValue0);
  install(kernel.block, "value:", PrimBlockValue1);
  install(kernel.block, "value:value:", PrimBlockValue2);
  install(kernel.block, "value:value:value:", PrimBlockValue3);
  install(kernel.block, "numArgs", PrimBlockNumArgs);
  install(kernel.block, "isDeclarative", PrimBlockIsDeclarative);
  install(kernel.block, "whileTrue:", PrimWhileTrue);
  install(kernel.block, "whileTrue", PrimWhileTrue);
  install(kernel.block, "whileFalse:", PrimWhileFalse);

  // Class (metaclass protocol).
  install(kernel.metaclass, "new", PrimClassNew);
  install(kernel.metaclass, "new:", PrimClassNewSize);
  install(kernel.metaclass, "name", PrimClassName);
  install(kernel.metaclass, "superclass", PrimClassSuperclass);
  install(kernel.metaclass, "instVarNames", PrimClassInstVarNames);
  install(kernel.metaclass, "subclass:", PrimSubclass);
  install(kernel.metaclass, "subclass:instVarNames:", PrimSubclassInstVars);
  install(kernel.metaclass, "addInstVarName:", PrimAddInstVarName);
  install(kernel.metaclass, "compileMethod:", PrimCompileMethod);

  // System singleton.
  install(kernel.system, "commitTransaction", PrimSysCommit);
  install(kernel.system, "abortTransaction", PrimSysAbort);
  install(kernel.system, "now", PrimSysNow);
  install(kernel.system, "safeTime", PrimSysSafeTime);
  install(kernel.system, "timeDial:", PrimSysTimeDial);
  install(kernel.system, "clearTimeDial", PrimSysClearTimeDial);
  install(kernel.system, "safeTimeDial", PrimSysSafeTimeDial);
  install(kernel.system, "stats", PrimSysStats);
  install(kernel.system, "statsJson", PrimSysStatsJson);
  install(kernel.system, "createDirectoryOn:path:", PrimSysCreateDirectoryOn);

  // Collection protocol (Set, Bag, Dictionary, Array, OrderedCollection).
  install(kernel.collection, "add:", PrimCollAdd);
  install(kernel.collection, "size", PrimCollSize);
  install(kernel.collection, "isEmpty", PrimCollIsEmpty);
  install(kernel.collection, "notEmpty", PrimCollNotEmpty);
  install(kernel.collection, "includes:", PrimCollIncludes);
  install(kernel.collection, "do:", PrimCollDo);
  install(kernel.collection, "select:", PrimCollSelect);
  install(kernel.collection, "reject:", PrimCollReject);
  install(kernel.collection, "selectWhere:", PrimCollSelectWhere);
  install(kernel.collection, "collect:", PrimCollCollect);
  install(kernel.collection, "detect:ifNone:", PrimCollDetectIfNone);
  install(kernel.collection, "detect:", PrimCollDetect);
  install(kernel.collection, "addAll:", PrimCollAddAll);
  install(kernel.collection, "asArray", PrimCollAsArray);
  install(kernel.collection, "asSet", PrimCollAsSet);
  install(kernel.collection, "inject:into:", PrimCollInjectInto);
  install(kernel.collection, "printString", PrimCollPrintString);
  install(kernel.collection, "anySatisfy:", PrimCollAnySatisfy);
  install(kernel.collection, "allSatisfy:", PrimCollAllSatisfy);
  install(kernel.collection, "count:", PrimCollCount);

  // Set / Bag.
  install(kernel.set, "remove:", PrimSetRemove);
  install(kernel.set, "remove:ifAbsent:", PrimSetRemoveIfAbsent);
  install(kernel.bag, "remove:", PrimSetRemove);
  install(kernel.bag, "remove:ifAbsent:", PrimSetRemoveIfAbsent);
  install(kernel.set, "union:", PrimSetUnion);
  install(kernel.set, "intersection:", PrimSetIntersection);
  install(kernel.set, "difference:", PrimSetDifference);
  install(kernel.set, "isSubsetOf:", PrimSetSubset);

  // Dictionary.
  install(kernel.dictionary, "at:put:", PrimDictAtPut);
  install(kernel.dictionary, "at:", PrimDictAt);
  install(kernel.dictionary, "at:ifAbsent:", PrimDictAtIfAbsent);
  install(kernel.dictionary, "includesKey:", PrimDictIncludesKey);
  install(kernel.dictionary, "removeKey:", PrimDictRemoveKey);
  install(kernel.dictionary, "keys", PrimDictKeys);
  install(kernel.dictionary, "keysAndValuesDo:", PrimDictKeysAndValuesDo);
  install(kernel.dictionary, "values", PrimDictValues);

  // Array / OrderedCollection.
  install(kernel.array, "at:", PrimArrayAt);
  install(kernel.array, "at:put:", PrimArrayAtPut);
  install(kernel.array, "first", PrimArrayFirst);
  install(kernel.array, "last", PrimArrayLast);
  install(kernel.ordered_collection, "at:", PrimArrayAt);
  install(kernel.ordered_collection, "at:put:", PrimArrayAtPut);
  install(kernel.ordered_collection, "first", PrimArrayFirst);
  install(kernel.ordered_collection, "last", PrimArrayLast);

  (void)WrongArgs;
}

}  // namespace gemstone::opal
