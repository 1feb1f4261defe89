#include "index/directory.h"

#include <algorithm>
#include <bit>

namespace gemstone::index {

namespace {

// Order-preserving encoding of a double into 16 hex chars.
std::string EncodeNumber(double d) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(d);
  if (bits & (1ull << 63)) {
    bits = ~bits;  // negative: flip everything
  } else {
    bits |= (1ull << 63);  // positive: set sign so it sorts above
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[bits & 0xF];
    bits >>= 4;
  }
  return out;
}

}  // namespace

Directory::Directory(Oid collection, std::vector<SymbolId> path,
                     TxnTime filled_at)
    : collection_(collection),
      path_(std::move(path)),
      filled_at_(filled_at),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("directory.lookups", lookups_.value());
            sink->Counter("directory.postings_scanned",
                          postings_scanned_.value());
            sink->Counter("directory.updates", updates_.value());
          })) {}

std::string Directory::KeyOf(const Value& value) {
  if (value.IsNumber()) return "n" + EncodeNumber(value.AsDouble());
  if (value.IsString()) return "s" + value.string();
  if (value.IsSymbol()) return "y" + std::to_string(value.symbol());
  if (value.IsBoolean()) return value.boolean() ? "b1" : "b0";
  if (value.IsRef()) return "r" + std::to_string(value.ref().raw);
  return "0nil";
}

std::vector<Oid> Directory::Lookup(const Value& key, TxnTime at) const {
  return LookupRange(key, key, at);
}

std::vector<Oid> Directory::LookupRange(const Value& lo, const Value& hi,
                                        TxnTime at) const {
  MutexLock lock(mu_);
  lookups_.Increment();
  std::vector<Oid> out;
  auto begin = postings_.lower_bound(KeyOf(lo));
  auto end = postings_.upper_bound(KeyOf(hi));
  for (auto it = begin; it != end; ++it) {
    for (const Posting& p : it->second) {
      postings_scanned_.Increment();
      // [since, until); an open posting is visible at kTimeNow too.
      if (p.since <= at && (p.until == kTimeNow || at < p.until)) {
        out.push_back(p.member);
      }
    }
  }
  return out;
}

void Directory::Add(SymbolId slot, const Value& key, Oid member, TxnTime at,
                    std::vector<std::uint64_t> through) {
  MutexLock lock(mu_);
  updates_.Increment();
  const std::string k = KeyOf(key);
  auto [it, fresh] = open_.try_emplace(slot);
  Open& open = it->second;
  // An unchanged posting only moves its reverse-map entries.
  if (fresh || open.key != k || postings_[k][open.index].member != member) {
    if (!fresh) postings_[open.key][open.index].until = at;
    std::vector<Posting>& list = postings_[k];
    list.push_back(Posting{member, at, kTimeNow});
    open.key = k;
    open.index = list.size() - 1;
  }
  for (std::uint64_t raw : open.through) through_.erase({raw, slot});
  for (std::uint64_t raw : through) through_.insert({raw, slot});
  open.through = std::move(through);
}

void Directory::Remove(SymbolId slot, TxnTime at) {
  MutexLock lock(mu_);
  updates_.Increment();
  auto it = open_.find(slot);
  if (it == open_.end()) return;
  postings_[it->second.key][it->second.index].until = at;
  for (std::uint64_t raw : it->second.through) through_.erase({raw, slot});
  open_.erase(it);
}

std::vector<SymbolId> Directory::SlotsTouchedBy(
    const std::vector<storage::ObjectImage>& images) const {
  std::vector<SymbolId> slots;
  MutexLock lock(mu_);
  for (const storage::ObjectImage& image : images) {
    if (image.object == nullptr) continue;  // created: on no key path yet
    const std::uint64_t raw = image.object->oid().raw;
    if (raw == collection_.raw) {
      for (const auto& [name, value] : image.named) slots.push_back(name);
    }
    for (auto it = through_.lower_bound({raw, 0});
         it != through_.end() && it->first == raw; ++it) {
      slots.push_back(it->second);
    }
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

std::size_t Directory::posting_count() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, postings] : postings_) n += postings.size();
  return n;
}

DirectoryStats Directory::stats() const {
  DirectoryStats stats;
  stats.lookups = lookups_.value();
  stats.postings_scanned = postings_scanned_.value();
  stats.updates = updates_.value();
  return stats;
}

void DirectoryManager::Post(Directory* directory, const GsObject* collection,
                            SymbolId slot, TxnTime at) const {
  const Value* held =
      collection != nullptr ? collection->ReadNamed(slot, at) : nullptr;
  // A departed member closes; simple values are not indexed.
  if (held == nullptr || !held->IsRef()) return directory->Remove(slot, at);
  std::vector<std::uint64_t> through;
  Value key = *held;
  for (SymbolId step : directory->path()) {
    const GsObject* object = key.IsRef() ? memory_->Find(key.ref()) : nullptr;
    if (object == nullptr) {
      key = Value::Nil();
      break;
    }
    through.push_back(object->oid().raw);
    const Value* next = object->ReadNamed(step, at);
    key = next != nullptr ? *next : Value::Nil();
  }
  directory->Add(slot, key, held->ref(), at, std::move(through));
}

Status DirectoryManager::CreateDirectory(txn::Session* session,
                                         Oid collection,
                                         const std::vector<SymbolId>& path) {
  if (path.empty()) {
    return Status::InvalidArgument("directory path must be non-empty");
  }
  // The creator must be able to read the collection; the fill then reads
  // committed objects, which no session's workspace or pin can change.
  GS_RETURN_IF_ERROR(session->ListNamed(collection).status());
  return session->manager().ReadCommitted([&](TxnTime now) -> Status {
    const GsObject* set = memory_->Find(collection);
    if (set == nullptr) {
      return Status::NotFound("directories index committed collections");
    }
    const GsClass* cls = memory_->classes().Get(set->class_oid());
    if (cls == nullptr || cls->format() == ObjectFormat::kIndexed) {
      return Status::TypeMismatch("directories index named collections");
    }
    auto directory = std::make_unique<Directory>(collection, path, now);
    for (const NamedElement& element : set->named_elements()) {
      Post(directory.get(), set, element.name, now);
    }
    MutexLock lock(mu_);
    for (const auto& d : directories_) {
      if (d->collection() == collection && d->path() == path) {
        return Status::AlreadyExists("directory already exists on that path");
      }
    }
    directories_.push_back(std::move(directory));
    any_.store(true, std::memory_order_relaxed);
    return Status::OK();
  });
}

Directory* DirectoryManager::Find(Oid collection,
                                  const std::vector<SymbolId>& path) {
  MutexLock lock(mu_);
  for (const auto& d : directories_) {
    if (d->collection() == collection && d->path() == path) return d.get();
  }
  return nullptr;
}

void DirectoryManager::Published(
    TxnTime time, const std::vector<storage::ObjectImage>& images) {
  if (!any_.load(std::memory_order_relaxed)) return;
  std::vector<Directory*> directories;
  {
    MutexLock lock(mu_);
    for (const auto& d : directories_) directories.push_back(d.get());
  }
  for (Directory* directory : directories) {
    const std::vector<SymbolId> slots = directory->SlotsTouchedBy(images);
    const GsObject* collection = memory_->Find(directory->collection());
    for (SymbolId slot : slots) Post(directory, collection, slot, time);
  }
}

}  // namespace gemstone::index
