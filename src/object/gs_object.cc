#include "object/gs_object.h"

#include <algorithm>

namespace gemstone {

void GsObject::WriteNamed(SymbolId name, TxnTime time, Value value) {
  for (NamedElement& element : named_) {
    if (element.name == name) {
      element.table.Bind(time, std::move(value));
      return;
    }
  }
  named_.push_back(NamedElement{name, {}});
  named_.back().table.Bind(time, std::move(value));
}

const Value* GsObject::ReadNamed(SymbolId name, TxnTime time) const {
  const AssociationTable* table = NamedHistory(name);
  return table ? table->ValueAt(time) : nullptr;
}

const NamedElement* GsObject::FindNamed(SymbolId name) const {
  for (const NamedElement& element : named_) {
    if (element.name == name) return &element;
  }
  return nullptr;
}

void GsObject::WriteIndexed(std::size_t index, TxnTime time, Value value) {
  while (indexed_.size() <= index) {
    indexed_.emplace_back();
    if (indexed_.size() <= index) {
      // Intermediate slots exist from `time` onward, bound to nil.
      indexed_.back().Bind(time, Value::Nil());
    }
  }
  indexed_[index].Bind(time, std::move(value));
}

std::size_t GsObject::AppendIndexed(TxnTime time, Value value) {
  indexed_.emplace_back();
  indexed_.back().Bind(time, std::move(value));
  return indexed_.size() - 1;
}

const Value* GsObject::ReadIndexed(std::size_t index, TxnTime time) const {
  if (index >= indexed_.size()) return nullptr;
  return indexed_[index].ValueAt(time);
}

std::size_t GsObject::IndexedSizeAt(TxnTime time) const {
  // First slot whose first binding is after `time` ends the prefix.
  auto it = std::upper_bound(
      indexed_.begin(), indexed_.end(), time,
      [](TxnTime t, const AssociationTable& table) {
        return t < table.FirstBoundAt();
      });
  return static_cast<std::size_t>(it - indexed_.begin());
}

void GsObject::StampProvisional(TxnTime time) {
  for (NamedElement& element : named_) element.table.StampProvisional(time);
  for (AssociationTable& table : indexed_) table.StampProvisional(time);
}

std::size_t GsObject::CountTruncatableBelow(TxnTime boundary) const {
  std::size_t count = 0;
  for (const NamedElement& element : named_) {
    count += element.table.CountTruncatableBelow(boundary);
  }
  for (const AssociationTable& table : indexed_) {
    count += table.CountTruncatableBelow(boundary);
  }
  return count;
}

std::size_t GsObject::TruncateHistoryBelow(TxnTime boundary) {
  std::size_t removed = 0;
  for (NamedElement& element : named_) {
    removed += element.table.TruncateBelow(boundary);
  }
  for (AssociationTable& table : indexed_) {
    removed += table.TruncateBelow(boundary);
  }
  if (boundary > history_floor_) history_floor_ = boundary;
  return removed;
}

std::size_t GsObject::TotalAssociations() const {
  std::size_t total = 0;
  for (const NamedElement& element : named_) {
    total += element.table.history_size();
  }
  for (const AssociationTable& table : indexed_) {
    total += table.history_size();
  }
  return total;
}

std::size_t GsObject::ApproximateByteSize() const {
  // Header + per-element name + per-association (time, tagged value).
  std::size_t bytes = 16;
  auto value_bytes = [](const Value& v) -> std::size_t {
    return v.IsString() ? 9 + v.string().size() : 9;
  };
  for (const NamedElement& element : named_) {
    bytes += 4;
    for (const Association& a : element.table.entries()) {
      bytes += 8 + value_bytes(a.value);
    }
  }
  for (const AssociationTable& table : indexed_) {
    bytes += 2;
    for (const Association& a : table.entries()) {
      bytes += 8 + value_bytes(a.value);
    }
  }
  return bytes;
}

}  // namespace gemstone
