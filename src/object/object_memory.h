#ifndef GEMSTONE_OBJECT_OBJECT_MEMORY_H_
#define GEMSTONE_OBJECT_OBJECT_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/ids.h"
#include "core/sync.h"
#include "core/result.h"
#include "core/status.h"
#include "object/class_registry.h"
#include "object/gs_object.h"
#include "object/symbol_table.h"
#include "object/value.h"

namespace gemstone {

/// Oids of the bootstrapped kernel class hierarchy (a database-oriented
/// subset of the ST80 image: "minus display and file system classes", §6).
struct KernelClasses {
  Oid object;
  Oid undefined_object;
  Oid boolean;
  Oid magnitude;
  Oid number;
  Oid integer;
  Oid real;  // "Float" in ST80; "real" here to avoid clashing with Value.
  Oid string;
  Oid symbol;
  Oid collection;
  Oid set;
  Oid bag;
  Oid dictionary;
  Oid array;
  Oid ordered_collection;
  Oid association;
  Oid block;
  Oid metaclass;      // class "Class"
  Oid system;         // class "System": transaction control, time dial
  Oid system_object;  // the System singleton instance
};

/// The shared permanent object space plus the global object table.
///
/// §6: "The Object Manager performs the same operations as the ST80
/// object memory, but is quite different in structure" — objects here are
/// element/association-table structures (GsObject), not contiguous words,
/// precisely because "GemStone objects retain history [and] grow with
/// time".
///
/// Concurrency contract: many sessions read concurrently; mutation happens
/// only inside TransactionManager::Commit (the Linker) under this class's
/// writer lock. Oid allocation is lock-free.
///
/// There are deliberately no arbitrary limits here (§2B): the 32K-object /
/// 64KB-object ceilings of ST80 implementations do not exist; capacity is
/// bounded by memory / simulated disk only.
class ObjectMemory {
 public:
  ObjectMemory();
  ObjectMemory(const ObjectMemory&) = delete;
  ObjectMemory& operator=(const ObjectMemory&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  ClassRegistry& classes() { return classes_; }
  const ClassRegistry& classes() const { return classes_; }
  const KernelClasses& kernel() const { return kernel_; }

  /// Mints a fresh, never-reused identity. Thread-safe.
  Oid AllocateOid() { return Oid(next_oid_.fetch_add(1)); }

  /// Recovery support: guarantees future allocations exceed `floor`
  /// (identities are permanent; a recovered image must not re-mint them).
  void EnsureOidAbove(std::uint64_t floor) {
    std::uint64_t current = next_oid_.load();
    while (current <= floor &&
           !next_oid_.compare_exchange_weak(current, floor + 1)) {
    }
  }

  // --- Permanent store ------------------------------------------------------

  /// Publishes `object` into the permanent space (commit path only).
  /// Fails with AlreadyExists if the oid is present.
  Status Insert(GsObject object);

  /// Read access; nullptr when absent (never existed, or archived).
  /// The pointer remains valid until the object is archived; element reads
  /// through it are safe concurrently with commits only for times <= the
  /// reader's snapshot (history entries are append-only).
  const GsObject* Find(Oid oid) const;

  /// Mutable access for the Linker at commit; nullptr when absent.
  GsObject* FindMutable(Oid oid);

  bool Contains(Oid oid) const;

  /// Detaches an object for migration to archival media (§6: a DBA "can
  /// explicitly move objects to other media"); subsequent Find returns
  /// nullptr and reads report Unavailable.
  Result<GsObject> Detach(Oid oid);

  /// True if `oid` was detached to archival media at some point.
  bool IsArchived(Oid oid) const;

  std::size_t NumObjects() const;

  /// Every oid currently resident (snapshot; used by checkpointing).
  std::vector<Oid> AllOids() const;

  // --- Typed reads ----------------------------------------------------------

  /// The value of `oid`'s element `name` at `time`. NotFound when the
  /// object or element is missing; Unavailable when archived.
  Result<Value> ReadNamed(Oid oid, SymbolId name, TxnTime time) const;

  /// Class of a value: immediates map to kernel classes, references to the
  /// referenced object's class (nil Oid if the object is unknown).
  Oid ClassOf(const Value& value) const;

 private:
  SymbolTable symbols_;
  ClassRegistry classes_;
  KernelClasses kernel_;
  std::atomic<std::uint64_t> next_oid_{1};

  mutable SharedMutex mu_{LockRank::kObjectMemory, "object.memory_mu"};
  // The global object table ("GOOP ... resolved through a global object
  // table", §6): identity -> object representation.
  std::unordered_map<std::uint64_t, std::unique_ptr<GsObject>> objects_
      GS_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, bool> archived_ GS_GUARDED_BY(mu_);
};

}  // namespace gemstone

#endif  // GEMSTONE_OBJECT_OBJECT_MEMORY_H_
