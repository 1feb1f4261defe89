#include "index/directory.h"

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

// A posting is visible at `at` from its open (inclusive) to its close
// (exclusive); an open posting (until == kTimeNow) is visible at kTimeNow.
bool Visible(const Posting& p, TxnTime at) {
  if (p.since > at) return false;
  return p.until == kTimeNow || at < p.until;
}

}  // namespace

Directory::Directory(Oid collection, std::vector<SymbolId> path)
    : collection_(collection),
      path_(std::move(path)),
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
  MutexLock lock(mu_);
  lookups_.Increment();
  std::vector<Oid> out;
  auto it = postings_.find(KeyOf(key));
  if (it == postings_.end()) return out;
  for (const Posting& p : it->second) {
    postings_scanned_.Increment();
    if (Visible(p, at)) out.push_back(p.member);
  }
  return out;
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
      if (Visible(p, at)) out.push_back(p.member);
    }
  }
  return out;
}

void Directory::Add(const Value& key, Oid member, TxnTime at) {
  MutexLock lock(mu_);
  updates_.Increment();
  // Close a currently-open posting first (discriminator change).
  auto open_it = open_.find(member.raw);
  if (open_it != open_.end()) {
    for (Posting& p : postings_[open_it->second]) {
      if (p.member == member && p.until == kTimeNow) p.until = at;
    }
  }
  const std::string k = KeyOf(key);
  postings_[k].push_back(Posting{member, at, kTimeNow});
  open_[member.raw] = k;
}

void Directory::Remove(Oid member, TxnTime at) {
  MutexLock lock(mu_);
  updates_.Increment();
  auto open_it = open_.find(member.raw);
  if (open_it == open_.end()) return;
  for (Posting& p : postings_[open_it->second]) {
    if (p.member == member && p.until == kTimeNow) p.until = at;
  }
  open_.erase(open_it);
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

Result<Value> DirectoryManager::ReadPath(txn::Session* session,
                                         const Value& member,
                                         const std::vector<SymbolId>& path) {
  Value current = member;
  for (SymbolId step : path) {
    if (!current.IsRef()) {
      return Status::TypeMismatch(
          "directory discriminator path hits a simple value");
    }
    GS_ASSIGN_OR_RETURN(current, session->ReadNamed(current.ref(), step));
  }
  return current;
}

Status DirectoryManager::CreateDirectory(txn::Session* session,
                                         Oid collection,
                                         const std::vector<SymbolId>& path) {
  if (path.empty()) {
    return Status::InvalidArgument("directory path must be non-empty");
  }
  if (Find(collection, path) != nullptr) {
    return Status::AlreadyExists("directory already exists on that path");
  }
  // The directory is shared and outlives the transaction, and only a
  // registered one is maintained (NoteAdd/NoteRemove): a member missed
  // here stays missed. So it is filled from the latest committed state
  // plus the workspace, not from a snapshot pin that commits may have
  // passed, and the request's later reads are current reads too.
  if (session->transaction() != nullptr) session->transaction()->LeavePin();
  auto directory = std::make_unique<Directory>(collection, path);
  // Populate from the collection's members as the session reads them,
  // stamped at the time they are read at: the dial, else now.
  GS_ASSIGN_OR_RETURN(auto members, session->ListNamed(collection));
  const TxnTime at = session->EffectiveTime() == kTimeNow
                         ? session->manager().Now()
                         : session->EffectiveTime();
  for (const auto& [name, member] : members) {
    GS_ASSIGN_OR_RETURN(Value key, ReadPath(session, member, path));
    if (!member.IsRef()) {
      return Status::TypeMismatch("directory members must be objects");
    }
    directory->Add(key, member.ref(), at);
  }
  MutexLock lock(mu_);
  directories_.push_back(std::move(directory));
  return Status::OK();
}

Directory* DirectoryManager::Find(Oid collection,
                                  const std::vector<SymbolId>& path) {
  MutexLock lock(mu_);
  for (const auto& d : directories_) {
    if (d->collection() == collection && d->path() == path) return d.get();
  }
  return nullptr;
}

Directory* DirectoryManager::FindByFirstStep(Oid collection, SymbolId first) {
  MutexLock lock(mu_);
  for (const auto& d : directories_) {
    if (d->collection() == collection && !d->path().empty() &&
        d->path().front() == first) {
      return d.get();
    }
  }
  return nullptr;
}

Status DirectoryManager::NoteAdd(txn::Session* session, Oid collection,
                                 const Value& member) {
  if (!member.IsRef()) return Status::OK();  // simple values are not indexed
  std::vector<Directory*> affected;
  {
    MutexLock lock(mu_);
    for (const auto& d : directories_) {
      if (d->collection() == collection) affected.push_back(d.get());
    }
  }
  const TxnTime now = session->manager().Now() + 1;  // effective at commit
  for (Directory* d : affected) {
    GS_ASSIGN_OR_RETURN(Value key, ReadPath(session, member, d->path()));
    d->Add(key, member.ref(), now);
  }
  return Status::OK();
}

Status DirectoryManager::NoteRemove(txn::Session* session, Oid collection,
                                    const Value& member) {
  if (!member.IsRef()) return Status::OK();
  std::vector<Directory*> affected;
  {
    MutexLock lock(mu_);
    for (const auto& d : directories_) {
      if (d->collection() == collection) affected.push_back(d.get());
    }
  }
  const TxnTime now = session->manager().Now() + 1;
  for (Directory* d : affected) {
    d->Remove(member.ref(), now);
  }
  return Status::OK();
}

}  // namespace gemstone::index
