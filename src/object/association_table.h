#ifndef GEMSTONE_OBJECT_ASSOCIATION_TABLE_H_
#define GEMSTONE_OBJECT_ASSOCIATION_TABLE_H_

#include <cstddef>
#include <vector>

#include "core/ids.h"
#include "object/value.h"

namespace gemstone {

/// One (transaction time, value) pair: "associations are pairs of
/// transaction times and object pointers, each representing that the
/// element acquired the object as its value at the time given" (§6).
struct Association {
  TxnTime time = kTimeOrigin;
  Value value;
};

/// The full history of one element of an object.
///
/// §5.3.2: "we represent history in STDM by replacing an element's single
/// value with a set of values ... the binding between an element name and
/// its associated value is indexed by time." The table is kept sorted by
/// ascending time; a read at time T resolves to the binding with the
/// largest time <= T. Bindings are never erased — deletion is a binding
/// to nil at a later time (Figure 1's departed employee).
class AssociationTable {
 public:
  AssociationTable() = default;

  /// Binds `value` starting at `time`. If a binding at exactly `time`
  /// exists it is replaced (a transaction writes each element at most once
  /// per commit time); otherwise the pair is inserted in time order.
  /// Out-of-order binds are accepted (the Linker replays recovered history
  /// in arbitrary track order).
  void Bind(TxnTime time, Value value);

  void Reserve(std::size_t n) { entries_.reserve(n); }

  /// Re-binds a provisional (kTimeNow) binding at `time`.
  void StampProvisional(TxnTime time);

  /// The value visible at `time`, or nullptr if the element had no binding
  /// yet. Note a deleted element returns a pointer to a nil Value, which
  /// is distinct from "never bound".
  const Value* ValueAt(TxnTime time) const;

  /// The value visible now (largest binding).
  const Value* CurrentValue() const {
    return entries_.empty() ? nullptr : &entries_.back().value;
  }

  /// Time of the earliest binding, or kTimeNow if empty.
  TxnTime FirstBoundAt() const {
    return entries_.empty() ? kTimeNow : entries_.front().time;
  }

  /// Time of the latest binding, or kTimeOrigin if empty.
  TxnTime LastBoundAt() const {
    return entries_.empty() ? kTimeOrigin : entries_.back().time;
  }

  std::size_t history_size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Full history, ascending by time.
  const std::vector<Association>& entries() const { return entries_; }

  /// Bindings that TruncateBelow(boundary) would drop: every entry at or
  /// before `boundary` except the first (the creation marker, which keeps
  /// FirstBoundAt/IndexedSizeAt exact) and the last (the carry-forward
  /// that keeps reads at times >= boundary resolving in memory).
  std::size_t CountTruncatableBelow(TxnTime boundary) const;

  /// Drops the truncatable prefix (see CountTruncatableBelow). The caller
  /// must have emitted every entry at or before `boundary` to a cold run
  /// first — after this, reads at times < boundary may resolve to the
  /// creation marker instead of the true binding and must be routed to
  /// the tier resolver. Returns the number of entries removed.
  std::size_t TruncateBelow(TxnTime boundary);

 private:
  std::vector<Association> entries_;
};

}  // namespace gemstone

#endif  // GEMSTONE_OBJECT_ASSOCIATION_TABLE_H_
