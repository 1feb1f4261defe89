#ifndef GEMSTONE_OBJECT_GS_OBJECT_H_
#define GEMSTONE_OBJECT_GS_OBJECT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/ids.h"
#include "object/association_table.h"
#include "object/value.h"

namespace gemstone {

/// One named element of an object: an element name plus the element's
/// association table (§6: "An element is represented as an element name
/// and a table of associations").
struct NamedElement {
  SymbolId name = kInvalidSymbol;
  AssociationTable table;
};

/// A GemStone object: private memory with identity and history.
///
/// Structure follows §4.1 ("private memory is structured as a list of
/// named or numbered instance variables") with §5.3's temporal extension:
/// each element is an association table rather than a single slot.
///
/// - *Named* elements hold instance variables and the alias-named members
///   of sets (§5.1: unlabeled set members get generated alias names).
/// - *Indexed* elements hold array/string-like numbered slots.
///
/// Objects are value-copyable: a transaction workspace clones an object,
/// mutates the clone, and the Linker folds dirty elements back into the
/// permanent copy at commit time.
class GsObject {
 public:
  GsObject() = default;
  GsObject(Oid oid, Oid class_oid) : oid_(oid), class_oid_(class_oid) {}

  Oid oid() const { return oid_; }
  Oid class_oid() const { return class_oid_; }
  void set_class_oid(Oid class_oid) { class_oid_ = class_oid; }

  // --- Named elements -----------------------------------------------------

  /// Binds `name` to `value` starting at `time`, creating the element on
  /// first use (optional instance variables cost nothing until bound).
  void WriteNamed(SymbolId name, TxnTime time, Value value);

  /// The value of `name` visible at `time`; nullptr if the element was
  /// never bound at or before `time`. A deleted element yields nil.
  const Value* ReadNamed(SymbolId name, TxnTime time) const;

  /// The element `name`, or nullptr if it does not exist.
  const NamedElement* FindNamed(SymbolId name) const;

  /// Full history of `name`, or nullptr if the element does not exist.
  const AssociationTable* NamedHistory(SymbolId name) const {
    const NamedElement* element = FindNamed(name);
    return element != nullptr ? &element->table : nullptr;
  }

  bool HasNamed(SymbolId name) const { return NamedHistory(name) != nullptr; }

  /// All named elements in creation order (stable display order).
  const std::vector<NamedElement>& named_elements() const { return named_; }

  // --- Indexed elements ---------------------------------------------------

  /// Writes slot `index` (0-based) at `time`, growing the object; slots
  /// skipped over spring into existence bound to nil at `time`.
  void WriteIndexed(std::size_t index, TxnTime time, Value value);

  /// Appends a new slot bound at `time`; returns its index.
  std::size_t AppendIndexed(TxnTime time, Value value);

  /// The value of slot `index` at `time`; nullptr if the slot did not
  /// exist at `time`.
  const Value* ReadIndexed(std::size_t index, TxnTime time) const;

  /// Number of slots that existed at `time`. Slot creation times are
  /// non-decreasing by construction (appends carry commit times, which
  /// increase), so this is a binary search.
  std::size_t IndexedSizeAt(TxnTime time) const;

  /// Total allocated slots across all times.
  std::size_t indexed_capacity() const { return indexed_.size(); }

  const AssociationTable* IndexedHistory(std::size_t index) const {
    return index < indexed_.size() ? &indexed_[index] : nullptr;
  }

  /// Adds a whole element's history at once — how a stored image is read
  /// back. `name` must not be bound yet; an indexed table becomes the next
  /// slot.
  void AdoptNamed(SymbolId name, AssociationTable table) {
    named_.push_back(NamedElement{name, std::move(table)});
  }
  void AdoptIndexed(AssociationTable table) {
    indexed_.push_back(std::move(table));
  }

  /// Re-binds every provisional (kTimeNow) binding at `time` — how a
  /// created object's workspace copy takes its commit time.
  void StampProvisional(TxnTime time);

  // --- History tiering ------------------------------------------------------

  /// Largest demotion boundary applied to this object: every binding at a
  /// time strictly below the floor is complete only in the tier store's
  /// cold runs (in memory each element keeps just its creation marker and
  /// the carry-forward). 0 = full history resident. Reads at `t <
  /// history_floor()` must consult the level resolver.
  TxnTime history_floor() const { return history_floor_; }
  void set_history_floor(TxnTime floor) { history_floor_ = floor; }

  /// Bindings a demotion at `boundary` would move to cold storage.
  std::size_t CountTruncatableBelow(TxnTime boundary) const;

  /// Truncates every element's history below `boundary` (keeping creation
  /// markers and carry-forwards) and raises the floor. The caller must
  /// have durably emitted the full prefix at or before `boundary` first.
  /// Returns the number of associations removed.
  std::size_t TruncateHistoryBelow(TxnTime boundary);

  // --- Accounting ----------------------------------------------------------

  /// Total associations stored across every element (history bloat metric;
  /// feeds the Boxer's track-packing estimate).
  std::size_t TotalAssociations() const;

  /// Rough serialized size in bytes, used by the Boxer to pack tracks.
  std::size_t ApproximateByteSize() const;

 private:
  Oid oid_;
  Oid class_oid_;
  TxnTime history_floor_ = 0;
  std::vector<NamedElement> named_;
  std::vector<AssociationTable> indexed_;
};

}  // namespace gemstone

#endif  // GEMSTONE_OBJECT_GS_OBJECT_H_
