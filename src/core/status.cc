#include "core/status.h"

namespace gemstone {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kTypeMismatch:
      return "TypeMismatch";
    case StatusCode::kDoesNotUnderstand:
      return "DoesNotUnderstand";
    case StatusCode::kCompileError:
      return "CompileError";
    case StatusCode::kRuntimeError:
      return "RuntimeError";
    case StatusCode::kTransactionConflict:
      return "TransactionConflict";
    case StatusCode::kTransactionState:
      return "TransactionState";
    case StatusCode::kAuthorizationDenied:
      return "AuthorizationDenied";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  out += ": ";
  out += message();
  return out;
}

}  // namespace gemstone
