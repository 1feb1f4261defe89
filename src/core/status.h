#ifndef GEMSTONE_CORE_STATUS_H_
#define GEMSTONE_CORE_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace gemstone {

/// Error categories used across the GemStone/84 library. Mirrors the
/// Status idiom of Arrow/RocksDB: no exceptions cross a public API
/// boundary; every fallible call returns a Status or a Result<T>.
enum class StatusCode {
  kOk = 0,
  kNotFound,            // object / element / key absent
  kAlreadyExists,       // duplicate class name, element name, key
  kInvalidArgument,     // malformed input to an API
  kOutOfRange,          // index / time outside valid bounds
  kTypeMismatch,        // value has the wrong tag / class
  kDoesNotUnderstand,   // OPAL message not handled by receiver's class chain
  kCompileError,        // OPAL lexer/parser/compiler diagnostics
  kRuntimeError,        // OPAL interpreter failures (e.g. block arity)
  kTransactionConflict, // optimistic validation failed at commit
  kTransactionState,    // commit/abort without begin, nested begin, ...
  kAuthorizationDenied, // segment ACL check failed
  kIoError,             // simulated disk failure
  kCorruption,          // deserialization / checksum failure
  kUnavailable,         // object migrated to archival media
  kNotImplemented,
  kInternal,            // invariant violation inside the library
};

/// Returns a stable human-readable name, e.g. "TransactionConflict".
std::string_view StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// An OK status carries no allocation at all; error states hold a
/// heap-allocated code + message record shared across copies.
///
/// [[nodiscard]] at class scope: a dropped Status is a swallowed error,
/// so every call returning one must consume it (test, propagate with
/// GS_RETURN_IF_ERROR, or annotate a deliberate drop).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<Rep>(Rep{code, std::move(message)});
    }
  }

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status TypeMismatch(std::string msg) {
    return Status(StatusCode::kTypeMismatch, std::move(msg));
  }
  static Status DoesNotUnderstand(std::string msg) {
    return Status(StatusCode::kDoesNotUnderstand, std::move(msg));
  }
  static Status CompileError(std::string msg) {
    return Status(StatusCode::kCompileError, std::move(msg));
  }
  static Status RuntimeError(std::string msg) {
    return Status(StatusCode::kRuntimeError, std::move(msg));
  }
  static Status TransactionConflict(std::string msg) {
    return Status(StatusCode::kTransactionConflict, std::move(msg));
  }
  static Status TransactionState(std::string msg) {
    return Status(StatusCode::kTransactionState, std::move(msg));
  }
  static Status AuthorizationDenied(std::string msg) {
    return Status(StatusCode::kAuthorizationDenied, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string* const kEmpty = new std::string;
    return rep_ ? rep_->message : *kEmpty;
  }

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsTransactionConflict() const {
    return code() == StatusCode::kTransactionConflict;
  }
  bool IsIoError() const { return code() == StatusCode::kIoError; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const Rep> rep_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code();
}

/// Propagates a non-OK Status out of the enclosing function.
#define GS_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::gemstone::Status gs_status_ = (expr);       \
    if (!gs_status_.ok()) return gs_status_;      \
  } while (0)

}  // namespace gemstone

#endif  // GEMSTONE_CORE_STATUS_H_
