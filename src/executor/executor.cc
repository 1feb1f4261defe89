#include "executor/executor.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>
#include <sstream>

#include "stdm/calculus_parser.h"
#include "stdm/gsdm_bridge.h"
#include "stdm/translate.h"
#include "storage/serializer.h"
#include "telemetry/io_attribution.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gemstone::executor {

namespace {
// The system object's element holding the serialized schema and clock.
constexpr const char* kSchemaElement = "schemaImage";
// Kernel classes occupy oids below this; only user classes export.
constexpr std::uint64_t kFirstUserOid = 64;

// Process-wide session traffic counters (registry-owned: stable pointers).
telemetry::Counter* LoginCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("executor.logins");
  return counter;
}
telemetry::Counter* ExecuteCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("executor.executes");
  return counter;
}
telemetry::Gauge* ActiveSessionsGauge() {
  static telemetry::Gauge* gauge =
      telemetry::MetricsRegistry::Global().GetGauge(
          "executor.active_sessions");
  return gauge;
}
}  // namespace

Executor::Executor()
    : directories_(&memory_), transactions_(&memory_, nullptr, &directories_) {
  Bootstrap();
}

Executor::Executor(storage::StorageEngine* engine)
    : directories_(&memory_), transactions_(&memory_, engine, &directories_) {
  Bootstrap();
}

void Executor::Bootstrap() {
  opal::InstallKernelPrimitives(&memory_);
  // The System singleton is reachable as the global `System`.
  globals_.Set(memory_.symbols().Intern("System"),
               Value::Ref(memory_.kernel().system_object));
}

Result<SessionId> Executor::Login(UserId user) {
  const SessionId id = next_session_.fetch_add(1, std::memory_order_relaxed);
  SessionEntry entry;
  entry.session = std::make_unique<txn::Session>(&transactions_, id, user);
  entry.interpreter = std::make_unique<opal::Interpreter>(
      &memory_, entry.session.get(), &globals_);
  entry.interpreter->set_directories(&directories_);
  GS_RETURN_IF_ERROR(entry.session->Begin());
  {
    WriterMutexLock lock(sessions_mu_);
    sessions_.emplace(id, std::move(entry));
  }
  session_count_.fetch_add(1, std::memory_order_release);
  LoginCounter()->Increment();
  ActiveSessionsGauge()->Add(1);
  return id;
}

Status Executor::Logout(SessionId session) {
  // Move the entry out under the lock; abort and destroy outside it so a
  // slow abort never stalls unrelated logins or read-path lookups.
  SessionEntry entry;
  {
    WriterMutexLock lock(sessions_mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return Status::NotFound("no such session: " + std::to_string(session));
    }
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  if (entry.session->InTransaction()) {
    (void)entry.session->Abort();
  }
  session_count_.fetch_sub(1, std::memory_order_release);
  ActiveSessionsGauge()->Add(-1);
  return Status::OK();
}

txn::Session* Executor::session(SessionId id) {
  ReaderMutexLock lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.session.get();
}

opal::Interpreter* Executor::interpreter(SessionId id) {
  ReaderMutexLock lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.interpreter.get();
}

Result<Value> Executor::Execute(SessionId session, std::string_view source) {
  return ExecuteIn(interpreter(session), session, source);
}

Result<std::string> Executor::ExecuteToString(SessionId session,
                                              std::string_view source) {
  opal::Interpreter* interp = interpreter(session);
  GS_ASSIGN_OR_RETURN(Value result, ExecuteIn(interp, session, source));
  return interp->DefaultPrintString(result);
}

Result<Value> Executor::ExecuteIn(opal::Interpreter* interp,
                                  SessionId session,
                                  std::string_view source) {
  if (interp == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session));
  }
  ExecuteCounter()->Increment();
  TELEM_SPAN("executor.execute");
  opal::Compiler compiler(&memory_);
  GS_ASSIGN_OR_RETURN(auto body, compiler.CompileBody(source));
  return interp->Run(std::move(body));
}

namespace {

/// Free variables of a calculus query: everything it mentions minus its
/// range variables, in first-mention order.
std::vector<std::string> FreeVariableNames(const stdm::CalculusQuery& query) {
  std::vector<std::string> mentioned;
  for (const auto& [label, term] : query.target) term.CollectVars(&mentioned);
  for (const stdm::Range& r : query.ranges) {
    r.source.CollectVars(&mentioned);
  }
  query.condition.CollectVars(&mentioned);
  std::set<std::string> range_vars;
  for (const stdm::Range& r : query.ranges) range_vars.insert(r.var);
  std::vector<std::string> free_names;
  std::set<std::string> seen;
  for (const std::string& v : mentioned) {
    if (range_vars.count(v) == 0 && seen.insert(v).second) {
      free_names.push_back(v);
    }
  }
  return free_names;
}

std::string MsString(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string IoLine(std::uint64_t ns, const telemetry::IoTally& io) {
  return "time=" + MsString(ns) + "ms reads=" +
         std::to_string(io.tracks_read) + " writes=" +
         std::to_string(io.tracks_written) + " seeks=" +
         std::to_string(io.seeks);
}

}  // namespace

Result<std::string> Executor::ExplainStdm(SessionId session,
                                          std::string_view query_text,
                                          bool analyze) {
  txn::Session* s = this->session(session);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session));
  }

  GS_ASSIGN_OR_RETURN(stdm::CalculusQuery query,
                      stdm::ParseCalculus(query_text));
  GS_ASSIGN_OR_RETURN(stdm::AlgebraPlan plan, stdm::TranslateToAlgebra(query));
  const std::vector<std::string> free_names = FreeVariableNames(query);

  std::ostringstream out;
  out << (analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") << query.ToString()
      << "\n";
  if (s->DialSet()) {
    out << "time dial: " << s->EffectiveTime()
        << " (free variables export at the dialed time)\n";
  } else {
    out << "time dial: now\n";
  }

  // Bind phase: resolve free variables from the globals and export each
  // object graph at the session's effective time. The deque keeps the
  // exported values' addresses stable for the Bindings.
  const std::uint64_t bind_start = telemetry::TraceNowNs();
  const telemetry::IoTally bind_before = telemetry::ThreadIoTally();
  std::deque<stdm::StdmValue> exported;
  stdm::Bindings free;
  GS_RETURN_IF_ERROR(BindFreeVariables(s, free_names, &exported, &free));
  const telemetry::IoTally bind_io =
      telemetry::IoDelta(bind_before, telemetry::ThreadIoTally());
  const std::uint64_t bind_ns = telemetry::TraceNowNs() - bind_start;

  if (!analyze) {
    out << plan.ToString();
    return out.str();
  }

  stdm::ExplainContext ctx;
  stdm::AlgebraStats stats;
  const std::uint64_t exec_start = telemetry::TraceNowNs();
  const telemetry::IoTally exec_before = telemetry::ThreadIoTally();
  GS_ASSIGN_OR_RETURN(stdm::StdmValue result,
                      plan.Execute(free, &stats, &ctx));
  const telemetry::IoTally exec_io =
      telemetry::IoDelta(exec_before, telemetry::ThreadIoTally());
  const std::uint64_t exec_ns = telemetry::TraceNowNs() - exec_start;

  out << plan.ToString(&ctx);
  out << "bind (" << free_names.size() << " free vars): "
      << IoLine(bind_ns, bind_io) << "\n";
  telemetry::IoTally total_io = bind_io;
  total_io.tracks_read += exec_io.tracks_read;
  total_io.tracks_written += exec_io.tracks_written;
  total_io.seeks += exec_io.seeks;
  out << "totals: rows=" << result.size() << " scanned=" << stats.rows_scanned
      << " examined=" << stats.rows_examined << " "
      << IoLine(bind_ns + exec_ns, total_io) << "\n";
  return out.str();
}

Status Executor::BindFreeVariables(txn::Session* s,
                                   const std::vector<std::string>& names,
                                   std::deque<stdm::StdmValue>* exported,
                                   stdm::Bindings* free) {
  for (const std::string& name : names) {
    Value value;
    if (!globals_.Get(memory_.symbols().Intern(name), &value)) {
      return Status::NotFound("free variable '" + name +
                              "' is not bound to a global");
    }
    GS_ASSIGN_OR_RETURN(stdm::StdmValue v, stdm::ExportStdm(s, &memory_, value));
    exported->push_back(std::move(v));
    free->Push(name, &exported->back());
  }
  return Status::OK();
}

Result<std::string> Executor::ExecuteStdm(SessionId session,
                                          std::string_view query_text) {
  txn::Session* s = this->session(session);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session));
  }

  TELEM_SPAN("executor.stdm_query");
  GS_ASSIGN_OR_RETURN(stdm::CalculusQuery query,
                      stdm::ParseCalculus(query_text));
  GS_ASSIGN_OR_RETURN(stdm::AlgebraPlan plan, stdm::TranslateToAlgebra(query));

  std::deque<stdm::StdmValue> exported;
  stdm::Bindings free;
  GS_RETURN_IF_ERROR(
      BindFreeVariables(s, FreeVariableNames(query), &exported, &free));

  stdm::AlgebraStats stats;
  GS_ASSIGN_OR_RETURN(stdm::StdmValue result,
                      plan.Execute(free, &stats, nullptr));
  return result.ToString();
}

// --- Schema persistence --------------------------------------------------------

std::string Executor::EncodeSchema() const {
  using storage::ByteWriter;
  ByteWriter out;
  // Commit clock and oid high-water mark first.
  out.PutU64(transactions_.Now());

  // User classes in oid order (supers defined before subclasses because
  // superclass oids are always smaller — DefineClass requires an existing
  // superclass).
  std::vector<const GsClass*> user_classes;
  for (const std::string& name : memory_.classes().ClassNames()) {
    const GsClass* cls = memory_.classes().FindByName(name);
    if (cls->oid().raw >= kFirstUserOid) user_classes.push_back(cls);
  }
  std::sort(user_classes.begin(), user_classes.end(),
            [](const GsClass* a, const GsClass* b) {
              return a->oid() < b->oid();
            });
  out.PutU32(static_cast<std::uint32_t>(user_classes.size()));
  for (const GsClass* cls : user_classes) {
    out.PutU64(cls->oid().raw);
    out.PutString(cls->name());
    out.PutU64(cls->superclass().raw);
    out.PutU8(static_cast<std::uint8_t>(cls->format()));
    out.PutU32(static_cast<std::uint32_t>(cls->own_inst_vars().size()));
    for (SymbolId var : cls->own_inst_vars()) {
      out.PutString(memory_.symbols().Name(var));
    }
    out.PutU32(static_cast<std::uint32_t>(cls->method_sources().size()));
    for (const auto& [selector, source] : cls->method_sources()) {
      out.PutString(source);
    }
  }
  const auto bytes = out.bytes();
  return std::string(bytes.begin(), bytes.end());
}

Status Executor::DecodeSchema(const std::string& blob) {
  using storage::ByteReader;
  const auto* data = reinterpret_cast<const std::uint8_t*>(blob.data());
  ByteReader in(std::span<const std::uint8_t>(data, blob.size()));
  GS_ASSIGN_OR_RETURN(std::uint64_t clock, in.GetU64());
  // Commits after the schema snapshot may have advanced the clock further;
  // never move it backwards.
  transactions_.RestoreClock(std::max<TxnTime>(clock, transactions_.Now()));

  GS_ASSIGN_OR_RETURN(std::uint32_t count, in.GetU32());
  struct PendingMethods {
    Oid class_oid;
    std::vector<std::string> sources;
  };
  std::vector<PendingMethods> pending;
  for (std::uint32_t i = 0; i < count; ++i) {
    GS_ASSIGN_OR_RETURN(std::uint64_t oid, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::string name, in.GetString());
    GS_ASSIGN_OR_RETURN(std::uint64_t super, in.GetU64());
    GS_ASSIGN_OR_RETURN(std::uint8_t format, in.GetU8());
    GS_ASSIGN_OR_RETURN(std::uint32_t num_vars, in.GetU32());
    std::vector<std::string> vars;
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      GS_ASSIGN_OR_RETURN(std::string var, in.GetString());
      vars.push_back(std::move(var));
    }
    GS_RETURN_IF_ERROR(memory_.classes()
                           .DefineClass(Oid(oid), name, Oid(super),
                                        static_cast<ObjectFormat>(format),
                                        vars)
                           .status());
    memory_.EnsureOidAbove(oid);
    GS_ASSIGN_OR_RETURN(std::uint32_t num_methods, in.GetU32());
    PendingMethods methods;
    methods.class_oid = Oid(oid);
    for (std::uint32_t m = 0; m < num_methods; ++m) {
      GS_ASSIGN_OR_RETURN(std::string source, in.GetString());
      methods.sources.push_back(std::move(source));
    }
    pending.push_back(std::move(methods));
  }
  // Compile methods after every class exists (methods may reference any).
  opal::Compiler compiler(&memory_);
  for (const PendingMethods& methods : pending) {
    GsClass* cls = memory_.classes().Get(methods.class_oid);
    for (const std::string& source : methods.sources) {
      GS_ASSIGN_OR_RETURN(
          auto method, compiler.CompileMethodSource(source, cls->oid()));
      const SymbolId selector =
          memory_.symbols().Intern(method->selector);
      GS_RETURN_IF_ERROR(memory_.classes().InstallMethod(
          cls->oid(), selector, method, source));
    }
  }
  return Status::OK();
}

Status Executor::SaveSchema(SessionId session) {
  txn::Session* s = this->session(session);
  if (s == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session));
  }
  const SymbolId element = memory_.symbols().Intern(kSchemaElement);
  GS_RETURN_IF_ERROR(s->WriteNamed(memory_.kernel().system_object, element,
                                   Value::String(EncodeSchema())));
  GS_RETURN_IF_ERROR(s->Commit());
  return s->Begin();
}

Result<std::unique_ptr<Executor>> Executor::Recover(
    storage::StorageEngine* engine) {
  auto executor = std::unique_ptr<Executor>(new Executor(engine));
  // Load every cataloged object; track the largest oid and commit time.
  std::uint64_t max_oid = 0;
  TxnTime max_time = 0;
  std::string schema_blob;
  const SymbolId schema_element =
      executor->memory_.symbols().Intern(kSchemaElement);
  for (Oid oid : engine->CatalogOids()) {
    GS_ASSIGN_OR_RETURN(GsObject object,
                        engine->LoadObject(oid, &executor->memory_.symbols()));
    max_oid = std::max(max_oid, oid.raw);
    for (const NamedElement& element : object.named_elements()) {
      max_time = std::max(max_time, element.table.LastBoundAt());
      if (oid == executor->memory_.kernel().system_object &&
          element.name == schema_element) {
        const Value* v = element.table.CurrentValue();
        if (v != nullptr && v->IsString()) schema_blob = v->string();
      }
    }
    for (std::size_t i = 0; i < object.indexed_capacity(); ++i) {
      max_time = std::max(max_time, object.IndexedHistory(i)->LastBoundAt());
    }
    if (oid == executor->memory_.kernel().system_object) {
      // The bootstrapped singleton already exists; merge the recovered
      // history over it.
      GsObject* system =
          executor->memory_.FindMutable(executor->memory_.kernel()
                                            .system_object);
      for (const NamedElement& element : object.named_elements()) {
        for (const Association& a : element.table.entries()) {
          system->WriteNamed(element.name, a.time, a.value);
        }
      }
      continue;
    }
    GS_RETURN_IF_ERROR(executor->memory_.Insert(std::move(object)));
  }
  executor->memory_.EnsureOidAbove(max_oid);
  executor->transactions_.RestoreClock(max_time);
  if (!schema_blob.empty()) {
    GS_RETURN_IF_ERROR(executor->DecodeSchema(schema_blob));
  }
  return executor;
}

}  // namespace gemstone::executor
