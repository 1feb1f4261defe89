#ifndef GEMSTONE_OPAL_INTERPRETER_H_
#define GEMSTONE_OPAL_INTERPRETER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/annotations.h"
#include "core/result.h"
#include "core/sync.h"
#include "object/object_memory.h"
#include "opal/bytecode.h"
#include "telemetry/metrics.h"
#include "txn/session.h"

namespace gemstone::index {
class DirectoryManager;
}  // namespace gemstone::index

namespace gemstone::opal {

/// Lexically chained temporary slots: a method activation owns one, block
/// activations chain to the defining activation's environment so closures
/// read and write their home temporaries.
struct TempEnv {
  std::vector<Value> slots;
  std::shared_ptr<TempEnv> parent;
};

/// A closed-over block: compiled code plus the captured environment,
/// receiver and home-activation identity (for non-local `^` returns).
class BlockClosure : public RuntimeHandle {
 public:
  std::shared_ptr<const CompiledMethod> method;
  std::shared_ptr<TempEnv> home_env;
  Value home_receiver;
  Oid home_class;                 // class context for instVar access
  std::uint64_t home_frame_id = 0;  // method activation ^ returns from
};

/// Shared global namespace ("UserGlobals"): symbol -> value. Class names
/// resolve through the ClassRegistry before this table is consulted.
/// Thread-safe: one GlobalEnv is shared by every session's interpreter
/// (the Interpreter itself is session-confined). Reads take the shared
/// side: snapshot-path readers resolve the same globals every bytecode
/// loop, so an exclusive lock here would re-serialize the read path.
class GlobalEnv {
 public:
  void Set(SymbolId name, Value value) {
    WriterMutexLock lock(mu_);
    values_[name] = std::move(value);
  }
  bool Get(SymbolId name, Value* out) const {
    ReaderMutexLock lock(mu_);
    auto it = values_.find(name);
    if (it == values_.end()) return false;
    *out = it->second;
    return true;
  }

 private:
  mutable SharedMutex mu_{LockRank::kOpalGlobals, "opal.globals_mu"};
  std::unordered_map<SymbolId, Value> values_ GS_GUARDED_BY(mu_);
};

/// Thin snapshot of one session's telemetry counters. The registry view
/// (`opal.*`) sums every live session plus retired ones, so it reads as
/// process-lifetime totals. Relaxed-atomic reads: individually monotonic,
/// no cross-field consistency while the session executes.
struct InterpreterStats {
  std::uint64_t message_sends = 0;
  std::uint64_t primitive_calls = 0;
  std::uint64_t block_invocations = 0;
  std::uint64_t bytecodes = 0;
};

/// The OPAL abstract stack machine (§6): "It dispatches bytecodes,
/// performs stack manipulations and some primitive methods, and makes
/// calls to the Object Manager."
///
/// One interpreter per session; all persistent-object access flows
/// through the Session (so the time dial and the transaction workspace
/// apply uniformly), and message lookup walks the shared ClassRegistry.
class Interpreter {
 public:
  Interpreter(ObjectMemory* memory, txn::Session* session, GlobalEnv* globals);

  ObjectMemory& memory() { return *memory_; }
  txn::Session& session() { return *session_; }
  GlobalEnv& globals() { return *globals_; }

  /// Optional Directory Manager: when set, createDirectoryOn:path: creates
  /// directories (commits maintain them) and selectWhere: probes them.
  void set_directories(index::DirectoryManager* directories) {
    directories_ = directories;
  }
  index::DirectoryManager* directories() { return directories_; }
  InterpreterStats stats() const;
  void ResetStats();

  /// Runs a compiled `doIt` body with `self` = nil; answers its value.
  Result<Value> Run(std::shared_ptr<const CompiledMethod> body);

  /// Full message send with method lookup (primitives included).
  Result<Value> Send(const Value& receiver, SymbolId selector,
                     std::vector<Value> args);

  /// Invokes a block closure value (primitives use this for value, do:,
  /// select:, whileTrue:, ...). After the call, check nlr_active(): a
  /// pending non-local return must be propagated, not swallowed.
  Result<Value> CallBlock(const Value& block, std::vector<Value> args);

  /// True while a `^` from inside a block is unwinding toward its home
  /// method activation.
  bool nlr_active() const { return nlr_active_; }

  /// The dynamic class of a value: classes answer Class; blocks answer
  /// Block; refs resolve through the session (workspace included).
  Result<Oid> ClassOfValue(const Value& value);

  /// Class-name rendering for diagnostics.
  std::string ClassNameOf(const Value& value);

  /// Resolves a global: user globals first, then class names.
  Result<Value> ResolveGlobal(SymbolId name);

  /// A short human-readable rendering (printString's default).
  std::string DefaultPrintString(const Value& value);

 private:
  struct Frame {
    const CompiledMethod* method = nullptr;
    std::shared_ptr<TempEnv> env;
    Value receiver;
    Oid defining_class;        // class whose dictionary held the method
    std::uint64_t frame_id = 0;       // this activation
    std::uint64_t home_frame_id = 0;  // enclosing method activation
    bool is_block = false;
  };

  Result<Value> Execute(Frame& frame);
  Result<Value> Activate(const CompiledMethod& method, Oid defining_class,
                         const Value& receiver, std::vector<Value> args,
                         std::shared_ptr<TempEnv> captured_env,
                         std::uint64_t home_frame_id, bool is_block);
  Result<Value> DispatchSend(const Value& receiver, SymbolId selector,
                             std::vector<Value> args, bool super_send,
                             Oid defining_class);
  Result<Value> PathRead(const Value& receiver, SymbolId name,
                         const Value* time);

  ObjectMemory* memory_;
  txn::Session* session_;
  GlobalEnv* globals_;
  index::DirectoryManager* directories_ = nullptr;

  telemetry::Counter message_sends_;
  telemetry::Counter primitive_calls_;
  telemetry::Counter block_invocations_;
  telemetry::Counter bytecodes_;
  telemetry::Registration telemetry_;  // after the counters it samples

  std::uint64_t next_frame_id_ = 1;
  bool nlr_active_ = false;
  std::uint64_t nlr_target_ = 0;
  Value nlr_value_;
  int depth_ = 0;

  /// Session-confined send cache: (lookup class, selector) -> resolved
  /// method and its defining class, valid for one ClassRegistry schema
  /// version. Sends are the hottest operation in the system, and the
  /// snapshot read path (DESIGN.md §12) runs many interpreters at once —
  /// without the cache every send takes the registry's shared lock,
  /// whose cache-line traffic alone serializes the workers. Entries
  /// cleared on a version bump still point at live methods (the registry
  /// retires replaced handles, never destroys them).
  struct SendCacheKey {
    std::uint64_t class_oid;
    SymbolId selector;
    bool operator==(const SendCacheKey& o) const {
      return class_oid == o.class_oid && selector == o.selector;
    }
  };
  struct SendCacheKeyHash {
    std::size_t operator()(const SendCacheKey& k) const {
      std::uint64_t x = k.class_oid * 0x9e3779b97f4a7c15ull + k.selector;
      x ^= x >> 32;
      return static_cast<std::size_t>(x);
    }
  };
  struct SendCacheEntry {
    const MethodHandle* method;
    Oid defining_class;
  };
  /// Drops stale entries when the registry's schema version moved.
  void RefreshSendCache();
  std::unordered_map<SendCacheKey, SendCacheEntry, SendCacheKeyHash>
      send_cache_;
  /// Oids known to name classes / known not to, same schema version.
  std::unordered_map<std::uint64_t, bool> class_oid_cache_;
  std::uint64_t send_cache_version_ = 0;
};

/// Installs the kernel primitive methods (Object, Boolean, Number,
/// String, Block, collections, Class, System) into `memory`'s class
/// registry. Call once per ObjectMemory before interpreting.
void InstallKernelPrimitives(ObjectMemory* memory);

}  // namespace gemstone::opal

#endif  // GEMSTONE_OPAL_INTERPRETER_H_
