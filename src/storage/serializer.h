#ifndef GEMSTONE_STORAGE_SERIALIZER_H_
#define GEMSTONE_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/result.h"
#include "object/gs_object.h"
#include "object/symbol_table.h"

namespace gemstone::storage {

/// Little-endian append-only encoder used by the storage layer.
class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(v); }
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutF64(double v);
  void PutString(std::string_view s);
  void PutBytes(std::span<const std::uint8_t> bytes);

  /// Overwrites the u32 at `pos` (a length written before it was known).
  void PatchU32(std::size_t pos, std::uint32_t v);
  void Reserve(std::size_t n) { buf_.reserve(n); }
  /// Drops every byte from `n` on.
  void Truncate(std::size_t n) { buf_.resize(n); }

  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decoder; every getter fails with Corruption on
/// truncated input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  Result<std::uint8_t> GetU8();
  Result<std::uint32_t> GetU32();
  Result<std::uint64_t> GetU64();
  Result<std::int64_t> GetI64();
  Result<double> GetF64();
  Result<std::string> GetString();

  /// Advances past `n` bytes without decoding them.
  Status Skip(std::size_t n) {
    if (remaining() < n) return Status::Corruption("skip past end");
    pos_ += n;
    return Status::OK();
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// FNV-1a over `bytes`; the storage layer's integrity check.
std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes);

/// The tagged value wire codec shared by object images and the tier
/// store's cold-run records. Symbols are stored as text so the encoding
/// survives re-interning after recovery.
void WriteValue(const Value& v, const SymbolTable& symbols, ByteWriter* out);
Result<Value> ReadValue(ByteReader* in, SymbolTable* symbols);

/// An object as a commit persists it: `object` plus the bindings the
/// commit appends at `time` — exactly what publishing those bindings will
/// make of the object, serialized without building that object first.
struct ObjectImage {
  ObjectImage() = default;
  explicit ObjectImage(const GsObject* object) : object(object) {}

  const GsObject* object = nullptr;
  TxnTime time = kTimeNow;
  std::vector<std::pair<SymbolId, Value>> named;       // distinct names
  std::vector<std::pair<std::size_t, Value>> indexed;  // ascending
};

/// Appends the serialized image — identity, class, and the complete
/// association-table history of every element, then a trailing checksum —
/// to `out`. Symbol names are stored as text so images survive
/// re-interning.
void AppendObjectImage(const ObjectImage& image, const SymbolTable& symbols,
                       ByteWriter* out);

/// The image of `object` as it stands.
std::vector<std::uint8_t> SerializeObject(const GsObject& object,
                                          const SymbolTable& symbols);

/// Inverse of SerializeObject; verifies the checksum and re-interns
/// element names into `symbols`.
Result<GsObject> DeserializeObject(std::span<const std::uint8_t> bytes,
                                   SymbolTable* symbols);

}  // namespace gemstone::storage

#endif  // GEMSTONE_STORAGE_SERIALIZER_H_
