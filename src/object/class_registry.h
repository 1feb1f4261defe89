#ifndef GEMSTONE_OBJECT_CLASS_REGISTRY_H_
#define GEMSTONE_OBJECT_CLASS_REGISTRY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/ids.h"
#include "core/result.h"
#include "core/status.h"
#include "core/sync.h"
#include "object/symbol_table.h"

namespace gemstone {

/// Base for anything installable in a method dictionary. The OPAL layer
/// derives CompiledMethod and PrimitiveMethod from this; the object layer
/// stays ignorant of bytecodes.
class MethodHandle {
 public:
  virtual ~MethodHandle() = default;
};

/// How instances of a class arrange their private memory.
enum class ObjectFormat : std::uint8_t {
  kNamed,    // named instance variables only (records, kernel objects)
  kIndexed,  // numbered slots in addition to named ones (arrays, strings)
  kSet,      // alias-named members (Set/Bag/Dictionary families)
};

/// A class: name, superclass, declared instance variables, and a method
/// dictionary. §4.1: "a class is a group of structurally similar objects
/// that respond to the same set of messages ... classes are organized in
/// a (strict) hierarchy" — i.e., single inheritance.
class GsClass {
 public:
  GsClass(Oid oid, std::string name, Oid superclass, ObjectFormat format)
      : oid_(oid),
        name_(std::move(name)),
        superclass_(superclass),
        format_(format) {}

  Oid oid() const { return oid_; }
  const std::string& name() const { return name_; }
  Oid superclass() const { return superclass_; }
  ObjectFormat format() const { return format_; }

  /// Instance variables declared by this class (not inherited ones).
  const std::vector<SymbolId>& own_inst_vars() const { return inst_vars_; }
  void add_inst_var(SymbolId name) { inst_vars_.push_back(name); }
  bool declares_inst_var(SymbolId name) const {
    for (SymbolId v : inst_vars_) {
      if (v == name) return true;
    }
    return false;
  }

  /// Installs (or replaces) the method for `selector`.
  void InstallMethod(SymbolId selector,
                     std::shared_ptr<const MethodHandle> method) {
    methods_[selector] = std::move(method);
  }

  /// This class's own method for `selector`, nullptr if absent (callers
  /// walk the superclass chain via ClassRegistry::LookupMethod).
  const MethodHandle* OwnMethod(SymbolId selector) const {
    auto it = methods_.find(selector);
    return it == methods_.end() ? nullptr : it->second.get();
  }

  std::size_t method_count() const { return methods_.size(); }
  const std::unordered_map<SymbolId, std::shared_ptr<const MethodHandle>>&
  methods() const {
    return methods_;
  }

  /// OPAL methods keep their source so the schema can be exported and
  /// recompiled after recovery (compiled code itself is not persistent).
  void SetMethodSource(SymbolId selector, std::string source) {
    method_sources_[selector] = std::move(source);
  }
  const std::unordered_map<SymbolId, std::string>& method_sources() const {
    return method_sources_;
  }

 private:
  Oid oid_;
  std::string name_;
  Oid superclass_;
  ObjectFormat format_;
  std::vector<SymbolId> inst_vars_;
  std::unordered_map<SymbolId, std::shared_ptr<const MethodHandle>> methods_;
  std::unordered_map<SymbolId, std::string> method_sources_;
};

/// Owns every class and implements lookup along the strict hierarchy.
///
/// Satisfies design goal §2A: type definition (DefineClass) is separate
/// from instantiation (ObjectMemory / Workspace create instances), and
/// §2C: classes can gain instance variables after instances exist, with
/// no restructuring (instances store elements sparsely).
///
/// Internally synchronized: gateway sessions send messages (method
/// lookup, inst-var resolution) concurrently with another session's
/// schema mutation, so every lookup holds the shared lock and every
/// mutation the exclusive one. GsClass pointers returned
/// by Get/FindByName stay valid forever (classes are never erased), and a
/// replaced method's handle is retired, not destroyed, so an interpreter
/// mid-execution of the old version never dangles. Runtime method
/// installs must go through InstallMethod/SetMethodSource here — not the
/// GsClass setters — to get that protection.
class ClassRegistry {
 public:
  explicit ClassRegistry(SymbolTable* symbols) : symbols_(symbols) {}
  ClassRegistry(const ClassRegistry&) = delete;
  ClassRegistry& operator=(const ClassRegistry&) = delete;

  /// Defines a new class. `superclass` must already exist (or be kNilOid
  /// for the root). Fails with AlreadyExists on a duplicate name.
  Result<Oid> DefineClass(Oid oid, std::string_view name, Oid superclass,
                          ObjectFormat format,
                          const std::vector<std::string>& inst_var_names);

  /// Adds an instance variable to an existing class; existing instances
  /// acquire the element lazily on first write (no reformatting — §2C).
  Status AddInstVar(Oid class_oid, std::string_view name);

  /// Installs (or replaces) `selector` on `class_oid` under the exclusive
  /// lock; a replaced handle is retired so concurrent executions of the
  /// old method stay valid. `source`, when present, is kept for schema
  /// export (compiled OPAL methods); primitives pass nullopt.
  Status InstallMethod(Oid class_oid, SymbolId selector,
                       std::shared_ptr<const MethodHandle> method,
                       std::optional<std::string> source = std::nullopt);

  GsClass* Get(Oid oid);
  const GsClass* Get(Oid oid) const;
  GsClass* FindByName(std::string_view name);
  const GsClass* FindByName(std::string_view name) const;

  /// All instance variables visible in instances of `class_oid`:
  /// superclass-first, then own (shared structure via the hierarchy, §4.1).
  std::vector<SymbolId> AllInstVars(Oid class_oid) const;

  /// True if `class_oid` equals `ancestor` or inherits from it.
  bool IsKindOf(Oid class_oid, Oid ancestor) const;

  /// Finds the method for `selector` on `class_oid` or the nearest
  /// ancestor defining it; nullptr when no class in the chain responds.
  const MethodHandle* LookupMethod(Oid class_oid, SymbolId selector) const;

  /// As LookupMethod, but also reports the class that defined the method
  /// (needed for `super` sends).
  const MethodHandle* LookupMethodFrom(Oid class_oid, SymbolId selector,
                                       Oid* defining_class) const;

  std::size_t size() const {
    ReaderMutexLock lock(mu_);
    return classes_.size();
  }

  /// Monotonic schema version, bumped by every successful DefineClass /
  /// AddInstVar / InstallMethod. Interpreters key their session-local
  /// send caches on it: one atomic load per send instead of a
  /// shared-lock acquisition, which the snapshot read path hammers from
  /// every worker at once. Retired method handles outlive their
  /// replacement, so a cache that is one version stale still points at
  /// live (merely superseded) methods.
  std::uint64_t SchemaVersion() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Names of every registered class (diagnostics).
  std::vector<std::string> ClassNames() const;

 private:
  // Unlocked variants for use while already holding mu_.
  GsClass* GetLocked(Oid oid) GS_REQUIRES_SHARED(mu_);
  const GsClass* GetLocked(Oid oid) const GS_REQUIRES_SHARED(mu_);
  const MethodHandle* LookupMethodFromLocked(Oid class_oid, SymbolId selector,
                                             Oid* defining_class) const
      GS_REQUIRES_SHARED(mu_);

  SymbolTable* symbols_;
  std::atomic<std::uint64_t> version_{1};
  mutable SharedMutex mu_{LockRank::kClassRegistry,
                          "object.class_registry_mu"};
  std::unordered_map<std::uint64_t, std::unique_ptr<GsClass>> classes_
      GS_GUARDED_BY(mu_);
  std::unordered_map<std::string, Oid> by_name_ GS_GUARDED_BY(mu_);
  /// Replaced method handles, kept alive for the process: a send resolved
  /// to a method just before a recompile may still be executing it.
  std::vector<std::shared_ptr<const MethodHandle>> retired_methods_
      GS_GUARDED_BY(mu_);
};

}  // namespace gemstone

#endif  // GEMSTONE_OBJECT_CLASS_REGISTRY_H_
