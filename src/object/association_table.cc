#include "object/association_table.h"

#include <algorithm>

namespace gemstone {

namespace {
bool TimeLess(const Association& a, TxnTime t) { return a.time < t; }
}  // namespace

void AssociationTable::Bind(TxnTime time, Value value) {
  if (entries_.empty() || entries_.back().time < time) {
    entries_.push_back(Association{time, std::move(value)});
    return;
  }
  auto it = std::lower_bound(entries_.begin(), entries_.end(), time, TimeLess);
  if (it != entries_.end() && it->time == time) {
    it->value = std::move(value);
  } else {
    entries_.insert(it, Association{time, std::move(value)});
  }
}

void AssociationTable::StampProvisional(TxnTime time) {
  if (entries_.empty() || entries_.back().time != kTimeNow) return;
  Value value = std::move(entries_.back().value);
  entries_.pop_back();
  Bind(time, std::move(value));
}

std::size_t AssociationTable::CountTruncatableBelow(TxnTime boundary) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), boundary,
      [](TxnTime t, const Association& a) { return t < a.time; });
  const std::size_t prefix =
      static_cast<std::size_t>(std::distance(entries_.begin(), it));
  return prefix <= 2 ? 0 : prefix - 2;
}

std::size_t AssociationTable::TruncateBelow(TxnTime boundary) {
  const std::size_t removable = CountTruncatableBelow(boundary);
  if (removable == 0) return 0;
  // Keep entries_[0] (creation marker) and the last prefix entry (the
  // carry-forward); drop everything between them.
  entries_.erase(entries_.begin() + 1, entries_.begin() + 1 + removable);
  return removable;
}

const Value* AssociationTable::ValueAt(TxnTime time) const {
  // Find the last entry with entry.time <= time.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), time,
      [](TxnTime t, const Association& a) { return t < a.time; });
  if (it == entries_.begin()) return nullptr;
  return &std::prev(it)->value;
}

}  // namespace gemstone
