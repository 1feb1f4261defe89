#include "storage/serializer.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace gemstone::storage {

namespace {
constexpr std::uint32_t kObjectMagic = 0x47534F42;  // "GSOB"

enum class WireTag : std::uint8_t {
  kNil = 0,
  kBooleanFalse = 1,
  kBooleanTrue = 2,
  kInteger = 3,
  kFloat = 4,
  kString = 5,
  kSymbol = 6,
  kRef = 7,
};
}  // namespace

void ByteWriter::PutU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
}

void ByteWriter::PutU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xFF);
}

void ByteWriter::PatchU32(std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_[pos + i] = (v >> (8 * i)) & 0xFF;
}

void ByteWriter::PutF64(double v) {
  PutU64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PutBytes(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

Result<std::uint8_t> ByteReader::GetU8() {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  return bytes_[pos_++];
}

Result<std::uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) return Status::Corruption("truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  }
  return v;
}

Result<std::uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) return Status::Corruption("truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  }
  return v;
}

Result<std::int64_t> ByteReader::GetI64() {
  GS_ASSIGN_OR_RETURN(std::uint64_t v, GetU64());
  return static_cast<std::int64_t>(v);
}

Result<double> ByteReader::GetF64() {
  GS_ASSIGN_OR_RETURN(std::uint64_t v, GetU64());
  return std::bit_cast<double>(v);
}

Result<std::string> ByteReader::GetString() {
  GS_ASSIGN_OR_RETURN(std::uint32_t len, GetU32());
  if (remaining() < len) return Status::Corruption("truncated string");
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void WriteValue(const Value& v, const SymbolTable& symbols, ByteWriter* out) {
  switch (v.tag()) {
    case ValueTag::kNil:
      out->PutU8(static_cast<std::uint8_t>(WireTag::kNil));
      return;
    case ValueTag::kBoolean:
      out->PutU8(static_cast<std::uint8_t>(v.boolean()
                                               ? WireTag::kBooleanTrue
                                               : WireTag::kBooleanFalse));
      return;
    case ValueTag::kInteger:
      out->PutU8(static_cast<std::uint8_t>(WireTag::kInteger));
      out->PutI64(v.integer());
      return;
    case ValueTag::kFloat:
      out->PutU8(static_cast<std::uint8_t>(WireTag::kFloat));
      out->PutF64(v.real());
      return;
    case ValueTag::kString:
      out->PutU8(static_cast<std::uint8_t>(WireTag::kString));
      out->PutString(v.string());
      return;
    case ValueTag::kSymbol:
      out->PutU8(static_cast<std::uint8_t>(WireTag::kSymbol));
      out->PutString(symbols.Name(v.symbol()));
      return;
    case ValueTag::kRef:
      out->PutU8(static_cast<std::uint8_t>(WireTag::kRef));
      out->PutU64(v.ref().raw);
      return;
    case ValueTag::kHandle:
      // Blocks and other runtime handles are transient; they persist as
      // nil (documented in DESIGN.md).
      out->PutU8(static_cast<std::uint8_t>(WireTag::kNil));
      return;
  }
}

Result<Value> ReadValue(ByteReader* in, SymbolTable* symbols) {
  GS_ASSIGN_OR_RETURN(std::uint8_t raw_tag, in->GetU8());
  switch (static_cast<WireTag>(raw_tag)) {
    case WireTag::kNil:
      return Value::Nil();
    case WireTag::kBooleanFalse:
      return Value::Boolean(false);
    case WireTag::kBooleanTrue:
      return Value::Boolean(true);
    case WireTag::kInteger: {
      GS_ASSIGN_OR_RETURN(std::int64_t v, in->GetI64());
      return Value::Integer(v);
    }
    case WireTag::kFloat: {
      GS_ASSIGN_OR_RETURN(double v, in->GetF64());
      return Value::Float(v);
    }
    case WireTag::kString: {
      GS_ASSIGN_OR_RETURN(std::string s, in->GetString());
      return Value::String(std::move(s));
    }
    case WireTag::kSymbol: {
      GS_ASSIGN_OR_RETURN(std::string s, in->GetString());
      return Value::Symbol(symbols->Intern(s));
    }
    case WireTag::kRef: {
      GS_ASSIGN_OR_RETURN(std::uint64_t oid, in->GetU64());
      return Value::Ref(Oid(oid));
    }
  }
  return Status::Corruption("unknown value wire tag " +
                            std::to_string(raw_tag));
}

namespace {

void WriteTable(const AssociationTable& table, const SymbolTable& symbols,
                const Value* appended, TxnTime time, ByteWriter* out) {
  out->PutU32(static_cast<std::uint32_t>(table.history_size() +
                                         (appended != nullptr ? 1 : 0)));
  for (const Association& a : table.entries()) {
    out->PutU64(a.time);
    WriteValue(a.value, symbols, out);
  }
  if (appended != nullptr) {
    out->PutU64(time);
    WriteValue(*appended, symbols, out);
  }
}

Status ReadTable(ByteReader* in, SymbolTable* symbols,
                 AssociationTable* table) {
  GS_ASSIGN_OR_RETURN(std::uint32_t count, in->GetU32());
  table->Reserve(std::min<std::size_t>(count, in->remaining() / 9));
  for (std::uint32_t i = 0; i < count; ++i) {
    GS_ASSIGN_OR_RETURN(TxnTime time, in->GetU64());
    GS_ASSIGN_OR_RETURN(Value value, ReadValue(in, symbols));
    table->Bind(time, std::move(value));
  }
  return Status::OK();
}

}  // namespace

// The appended bindings follow GsObject::WriteNamed / WriteIndexed: a new
// name becomes a new trailing element; an index past the end grows the
// object, with skipped slots bound to nil at the same time.
void AppendObjectImage(const ObjectImage& image, const SymbolTable& symbols,
                       ByteWriter* out) {
  const GsObject& object = *image.object;
  const std::size_t start = out->size();
  auto appended_named = [&](SymbolId name) -> const Value* {
    for (const auto& [n, v] : image.named) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  std::vector<const std::pair<SymbolId, Value>*> new_names;
  for (const auto& binding : image.named) {
    if (!object.HasNamed(binding.first)) new_names.push_back(&binding);
  }
  out->PutU32(kObjectMagic);
  out->PutU64(object.oid().raw);
  out->PutU64(object.class_oid().raw);
  out->PutU64(object.history_floor());
  out->PutU32(static_cast<std::uint32_t>(object.named_elements().size() +
                                         new_names.size()));
  for (const NamedElement& element : object.named_elements()) {
    out->PutString(symbols.Name(element.name));
    out->PutU8(symbols.IsAlias(element.name) ? 1 : 0);
    WriteTable(element.table, symbols, appended_named(element.name),
               image.time, out);
  }
  for (const auto* binding : new_names) {
    out->PutString(symbols.Name(binding->first));
    out->PutU8(symbols.IsAlias(binding->first) ? 1 : 0);
    WriteTable(AssociationTable(), symbols, &binding->second, image.time,
               out);
  }
  const std::size_t capacity =
      image.indexed.empty()
          ? object.indexed_capacity()
          : std::max(object.indexed_capacity(),
                     image.indexed.back().first + 1);
  const Value nil = Value::Nil();
  auto next = image.indexed.begin();
  out->PutU32(static_cast<std::uint32_t>(capacity));
  for (std::size_t i = 0; i < capacity; ++i) {
    const Value* appended = nullptr;
    if (next != image.indexed.end() && next->first == i) {
      appended = &next->second;
      ++next;
    } else if (i >= object.indexed_capacity()) {
      appended = &nil;
    }
    const AssociationTable* table = object.IndexedHistory(i);
    WriteTable(table != nullptr ? *table : AssociationTable(), symbols,
               appended, image.time, out);
  }
  const std::uint64_t checksum =
      Fnv1a(std::span<const std::uint8_t>(out->bytes()).subspan(start));
  out->PutU64(checksum);
}

std::vector<std::uint8_t> SerializeObject(const GsObject& object,
                                          const SymbolTable& symbols) {
  ByteWriter out;
  AppendObjectImage(ObjectImage(&object), symbols, &out);
  return out.Take();
}

Result<GsObject> DeserializeObject(std::span<const std::uint8_t> bytes,
                                   SymbolTable* symbols) {
  if (bytes.size() < 8) return Status::Corruption("object image too small");
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
  ByteReader checksum_reader(bytes.subspan(bytes.size() - 8));
  GS_ASSIGN_OR_RETURN(std::uint64_t stored, checksum_reader.GetU64());
  if (Fnv1a(body) != stored) {
    return Status::Corruption("object image checksum mismatch");
  }

  ByteReader in(body);
  GS_ASSIGN_OR_RETURN(std::uint32_t magic, in.GetU32());
  if (magic != kObjectMagic) return Status::Corruption("bad object magic");
  GS_ASSIGN_OR_RETURN(std::uint64_t oid, in.GetU64());
  GS_ASSIGN_OR_RETURN(std::uint64_t class_oid, in.GetU64());
  GS_ASSIGN_OR_RETURN(std::uint64_t history_floor, in.GetU64());
  GsObject object{Oid(oid), Oid(class_oid)};
  object.set_history_floor(history_floor);

  GS_ASSIGN_OR_RETURN(std::uint32_t num_named, in.GetU32());
  for (std::uint32_t i = 0; i < num_named; ++i) {
    GS_ASSIGN_OR_RETURN(std::string name, in.GetString());
    GS_ASSIGN_OR_RETURN(std::uint8_t was_alias, in.GetU8());
    const SymbolId sym =
        was_alias != 0 ? symbols->InternAlias(name) : symbols->Intern(name);
    if (object.HasNamed(sym)) {
      return Status::Corruption("element named twice in object image");
    }
    AssociationTable table;
    GS_RETURN_IF_ERROR(ReadTable(&in, symbols, &table));
    object.AdoptNamed(sym, std::move(table));
  }
  GS_ASSIGN_OR_RETURN(std::uint32_t num_indexed, in.GetU32());
  for (std::uint32_t i = 0; i < num_indexed; ++i) {
    AssociationTable table;
    GS_RETURN_IF_ERROR(ReadTable(&in, symbols, &table));
    object.AdoptIndexed(std::move(table));
  }
  if (in.remaining() != 0) {
    return Status::Corruption("trailing bytes after object image");
  }
  return object;
}

}  // namespace gemstone::storage
