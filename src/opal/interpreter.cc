#include "opal/interpreter.h"

#include "telemetry/profiler.h"

namespace gemstone::opal {

namespace {
constexpr int kMaxDepth = 512;
}  // namespace

Interpreter::Interpreter(ObjectMemory* memory, txn::Session* session,
                         GlobalEnv* globals)
    : memory_(memory),
      session_(session),
      globals_(globals),
      telemetry_(telemetry::MetricsRegistry::Global().Register(
          [this](telemetry::SampleSink* sink) {
            sink->Counter("opal.message_sends", message_sends_.value());
            sink->Counter("opal.primitive_calls", primitive_calls_.value());
            sink->Counter("opal.block_invocations",
                          block_invocations_.value());
            sink->Counter("opal.bytecodes", bytecodes_.value());
          })) {}

InterpreterStats Interpreter::stats() const {
  InterpreterStats stats;
  stats.message_sends = message_sends_.value();
  stats.primitive_calls = primitive_calls_.value();
  stats.block_invocations = block_invocations_.value();
  stats.bytecodes = bytecodes_.value();
  return stats;
}

void Interpreter::ResetStats() {
  message_sends_.Reset();
  primitive_calls_.Reset();
  block_invocations_.Reset();
  bytecodes_.Reset();
}

Result<Value> Interpreter::Run(std::shared_ptr<const CompiledMethod> body) {
  nlr_active_ = false;
  Result<Value> result =
      Activate(*body, kNilOid, Value::Nil(), {}, nullptr, 0,
               /*is_block=*/false);
  if (nlr_active_) {
    nlr_active_ = false;
    return Status::RuntimeError(
        "non-local return from a block whose home method already returned");
  }
  return result;
}

Result<Value> Interpreter::Send(const Value& receiver, SymbolId selector,
                                std::vector<Value> args) {
  return DispatchSend(receiver, selector, std::move(args),
                      /*super_send=*/false, kNilOid);
}

Result<Oid> Interpreter::ClassOfValue(const Value& value) {
  if (value.IsHandle()) return memory_->kernel().block;
  if (value.IsRef()) {
    // A reference to a class behaves as an instance of Class. Class-ness
    // is cached per schema version so the hot path doesn't take the
    // registry lock for every receiver.
    RefreshSendCache();
    auto it = class_oid_cache_.find(value.ref().raw);
    if (it == class_oid_cache_.end()) {
      it = class_oid_cache_
               .emplace(value.ref().raw,
                        memory_->classes().Get(value.ref()) != nullptr)
               .first;
    }
    if (it->second) return memory_->kernel().metaclass;
    return session_->ClassOfObject(value.ref());
  }
  return memory_->ClassOf(value);
}

void Interpreter::RefreshSendCache() {
  const std::uint64_t version = memory_->classes().SchemaVersion();
  if (version != send_cache_version_) {
    send_cache_.clear();
    class_oid_cache_.clear();
    send_cache_version_ = version;
  }
}

std::string Interpreter::ClassNameOf(const Value& value) {
  auto class_oid = ClassOfValue(value);
  if (!class_oid.ok()) return "<unknown>";
  const GsClass* cls = memory_->classes().Get(class_oid.value());
  return cls == nullptr ? "<unknown>" : cls->name();
}

Result<Value> Interpreter::ResolveGlobal(SymbolId name) {
  Value out;
  if (globals_->Get(name, &out)) return out;
  const GsClass* cls =
      memory_->classes().FindByName(memory_->symbols().Name(name));
  if (cls != nullptr) return Value::Ref(cls->oid());
  return Status::RuntimeError("undefined global: " +
                              memory_->symbols().Name(name));
}

std::string Interpreter::DefaultPrintString(const Value& value) {
  switch (value.tag()) {
    case ValueTag::kNil:
    case ValueTag::kBoolean:
    case ValueTag::kInteger:
    case ValueTag::kFloat:
    case ValueTag::kString:
      return value.ToString();
    case ValueTag::kSymbol:
      return "#" + memory_->symbols().Name(value.symbol());
    case ValueTag::kHandle:
      return "a Block";
    case ValueTag::kRef: {
      if (const GsClass* cls = memory_->classes().Get(value.ref())) {
        return cls->name();
      }
      const std::string name = ClassNameOf(value);
      const char article =
          !name.empty() && std::string("AEIOU").find(name[0]) !=
                               std::string::npos
              ? 'n'
              : '\0';
      return (article == 'n' ? "an " : "a ") + name;
    }
  }
  return "?";
}

Result<Value> Interpreter::DispatchSend(const Value& receiver,
                                        SymbolId selector,
                                        std::vector<Value> args,
                                        bool super_send, Oid defining_class) {
  message_sends_.Increment();
  // Selector-name lookup only when profiling (the name is an interned
  // string with process lifetime, so the scope's view stays valid).
  telemetry::ProfileScope profile_scope(
      telemetry::Profiler::Enabled()
          ? std::string_view(memory_->symbols().Name(selector))
          : std::string_view());
  Oid lookup_class;
  if (super_send) {
    const GsClass* defining = memory_->classes().Get(defining_class);
    if (defining == nullptr) {
      return Status::RuntimeError("super send outside a method");
    }
    lookup_class = defining->superclass();
  } else {
    GS_ASSIGN_OR_RETURN(lookup_class, ClassOfValue(receiver));
  }
  RefreshSendCache();
  Oid found_in;
  const MethodHandle* method = nullptr;
  const SendCacheKey key{lookup_class.raw, selector};
  if (auto cached = send_cache_.find(key); cached != send_cache_.end()) {
    method = cached->second.method;
    found_in = cached->second.defining_class;
  } else {
    method =
        memory_->classes().LookupMethodFrom(lookup_class, selector, &found_in);
    if (method != nullptr) {
      send_cache_.emplace(key, SendCacheEntry{method, found_in});
    }
  }
  if (method == nullptr) {
    return Status::DoesNotUnderstand(
        ClassNameOf(receiver) + " does not understand #" +
        memory_->symbols().Name(selector));
  }
  if (const auto* primitive = dynamic_cast<const PrimitiveMethod*>(method)) {
    primitive_calls_.Increment();
    return primitive->fn(*this, receiver, args);
  }
  const auto* compiled = static_cast<const CompiledMethod*>(method);
  if (args.size() != compiled->num_args) {
    return Status::RuntimeError(
        "wrong number of arguments to #" + memory_->symbols().Name(selector) +
        ": got " + std::to_string(args.size()) + ", want " +
        std::to_string(compiled->num_args));
  }
  return Activate(*compiled, found_in, receiver, std::move(args), nullptr, 0,
                  /*is_block=*/false);
}

Result<Value> Interpreter::CallBlock(const Value& block,
                                     std::vector<Value> args) {
  if (!block.IsHandle()) {
    return Status::TypeMismatch("value/do: target is not a block");
  }
  auto* closure = dynamic_cast<BlockClosure*>(block.handle().get());
  if (closure == nullptr) {
    return Status::TypeMismatch("handle is not a block closure");
  }
  if (args.size() != closure->method->num_args) {
    return Status::RuntimeError(
        "block expects " + std::to_string(closure->method->num_args) +
        " arguments, got " + std::to_string(args.size()));
  }
  block_invocations_.Increment();
  return Activate(*closure->method, closure->home_class,
                  closure->home_receiver, std::move(args), closure->home_env,
                  closure->home_frame_id, /*is_block=*/true);
}

Result<Value> Interpreter::Activate(const CompiledMethod& method,
                                    Oid defining_class, const Value& receiver,
                                    std::vector<Value> args,
                                    std::shared_ptr<TempEnv> captured_env,
                                    std::uint64_t home_frame_id,
                                    bool is_block) {
  if (++depth_ > kMaxDepth) {
    --depth_;
    return Status::RuntimeError("activation stack overflow (depth " +
                                std::to_string(kMaxDepth) + ")");
  }
  Frame frame;
  frame.method = &method;
  frame.env = std::make_shared<TempEnv>();
  frame.env->slots.resize(method.num_slots);
  frame.env->parent = std::move(captured_env);
  for (std::size_t i = 0; i < args.size(); ++i) {
    frame.env->slots[i] = std::move(args[i]);
  }
  frame.receiver = receiver;
  frame.defining_class = defining_class;
  frame.frame_id = next_frame_id_++;
  frame.home_frame_id = is_block ? home_frame_id : frame.frame_id;
  frame.is_block = is_block;

  Result<Value> result = Execute(frame);
  --depth_;
  if (result.ok() && nlr_active_ && !is_block &&
      nlr_target_ == frame.frame_id) {
    // A block's ^ landed back in its home activation: consume it.
    nlr_active_ = false;
    return std::move(nlr_value_);
  }
  return result;
}

Result<Value> Interpreter::Execute(Frame& frame) {
  const std::vector<std::uint8_t>& code = frame.method->code;
  const std::vector<Value>& literals = frame.method->literals;
  std::vector<Value> stack;
  std::size_t ip = 0;

  auto u8 = [&]() { return code[ip++]; };
  auto u16 = [&]() {
    std::uint16_t v = static_cast<std::uint16_t>(code[ip]) |
                      (static_cast<std::uint16_t>(code[ip + 1]) << 8);
    ip += 2;
    return v;
  };
  auto env_at = [&](std::uint8_t level) {
    TempEnv* env = frame.env.get();
    for (std::uint8_t i = 0; i < level && env != nullptr; ++i) {
      env = env->parent.get();
    }
    return env;
  };

  while (ip < code.size()) {
    bytecodes_.Increment();
    const Op op = static_cast<Op>(u8());
    switch (op) {
      case Op::kPushLiteral:
        stack.push_back(literals[u16()]);
        break;
      case Op::kPushSelf:
        stack.push_back(frame.receiver);
        break;
      case Op::kPushTemp: {
        const std::uint8_t level = u8();
        const std::uint16_t slot = u16();
        TempEnv* env = env_at(level);
        if (env == nullptr || slot >= env->slots.size()) {
          return Status::Internal("bad temp reference");
        }
        stack.push_back(env->slots[slot]);
        break;
      }
      case Op::kStoreTemp: {
        const std::uint8_t level = u8();
        const std::uint16_t slot = u16();
        TempEnv* env = env_at(level);
        if (env == nullptr || slot >= env->slots.size()) {
          return Status::Internal("bad temp reference");
        }
        env->slots[slot] = stack.back();
        break;
      }
      case Op::kPushGlobal: {
        const Value& name = literals[u16()];
        GS_ASSIGN_OR_RETURN(Value v, ResolveGlobal(name.symbol()));
        stack.push_back(std::move(v));
        break;
      }
      case Op::kStoreGlobal: {
        const Value& name = literals[u16()];
        globals_->Set(name.symbol(), stack.back());
        break;
      }
      case Op::kPushInstVar: {
        const Value& name = literals[u16()];
        if (!frame.receiver.IsRef()) {
          return Status::RuntimeError(
              "instance variable access on a non-object receiver");
        }
        GS_ASSIGN_OR_RETURN(
            Value v, session_->ReadNamed(frame.receiver.ref(), name.symbol()));
        stack.push_back(std::move(v));
        break;
      }
      case Op::kStoreInstVar: {
        const Value& name = literals[u16()];
        if (!frame.receiver.IsRef()) {
          return Status::RuntimeError(
              "instance variable store on a non-object receiver");
        }
        GS_RETURN_IF_ERROR(session_->WriteNamed(frame.receiver.ref(),
                                                name.symbol(), stack.back()));
        break;
      }
      case Op::kPop:
        stack.pop_back();
        break;
      case Op::kDup:
        stack.push_back(stack.back());
        break;
      case Op::kSend:
      case Op::kSuperSend: {
        const std::uint16_t selector_index = u16();
        const std::uint8_t argc = u8();
        std::vector<Value> args(argc);
        for (int i = argc - 1; i >= 0; --i) {
          args[static_cast<std::size_t>(i)] = std::move(stack.back());
          stack.pop_back();
        }
        Value receiver = std::move(stack.back());
        stack.pop_back();
        Result<Value> result = DispatchSend(
            receiver, literals[selector_index].symbol(), std::move(args),
            op == Op::kSuperSend, frame.defining_class);
        if (!result.ok()) return result;
        if (nlr_active_) {
          if (nlr_target_ == frame.frame_id && !frame.is_block) {
            nlr_active_ = false;
            return std::move(nlr_value_);
          }
          return Value::Nil();  // keep unwinding
        }
        stack.push_back(std::move(result).value());
        break;
      }
      case Op::kPushBlock: {
        const std::uint16_t index = u16();
        auto closure = std::make_shared<BlockClosure>();
        closure->method = frame.method->blocks[index];
        closure->home_env = frame.env;
        closure->home_receiver = frame.receiver;
        closure->home_class = frame.defining_class;
        closure->home_frame_id = frame.home_frame_id;
        stack.push_back(Value::Handle(std::move(closure)));
        break;
      }
      case Op::kReturnTop: {
        Value top = std::move(stack.back());
        stack.pop_back();
        if (!frame.is_block) return top;
        // Non-local return: unwind to the home method activation.
        nlr_active_ = true;
        nlr_target_ = frame.home_frame_id;
        nlr_value_ = std::move(top);
        return Value::Nil();
      }
      case Op::kLocalReturn: {
        Value top = std::move(stack.back());
        stack.pop_back();
        return top;
      }
      case Op::kPathGet: {
        const Value& name = literals[u16()];
        const bool timed = u8() != 0;
        Value time;
        if (timed) {
          time = std::move(stack.back());
          stack.pop_back();
        }
        Value receiver = std::move(stack.back());
        stack.pop_back();
        GS_ASSIGN_OR_RETURN(
            Value v,
            PathRead(receiver, name.symbol(), timed ? &time : nullptr));
        stack.push_back(std::move(v));
        break;
      }
      case Op::kPathSet: {
        Value value = std::move(stack.back());
        stack.pop_back();
        Value receiver = std::move(stack.back());
        stack.pop_back();
        const Value& name = literals[u16()];
        if (!receiver.IsRef()) {
          return Status::TypeMismatch("path assignment into a simple value");
        }
        GS_RETURN_IF_ERROR(
            session_->WriteNamed(receiver.ref(), name.symbol(), value));
        stack.push_back(std::move(value));
        break;
      }
      case Op::kMakeArray: {
        const std::uint16_t n = u16();
        GS_ASSIGN_OR_RETURN(Oid array,
                            session_->Create(memory_->kernel().array));
        // Elements sit on the stack in order; append from the bottom.
        const std::size_t base = stack.size() - n;
        for (std::size_t i = 0; i < n; ++i) {
          GS_RETURN_IF_ERROR(
              session_->AppendIndexed(array, std::move(stack[base + i]))
                  .status());
        }
        stack.resize(base);
        stack.push_back(Value::Ref(array));
        break;
      }
    }
  }
  // Code should always end in a return; reaching here is a compiler bug.
  return Status::Internal("fell off the end of compiled code");
}

Result<Value> Interpreter::PathRead(const Value& receiver, SymbolId name,
                                    const Value* time) {
  if (!receiver.IsRef()) {
    return Status::TypeMismatch("path navigation into a simple value (" +
                                DefaultPrintString(receiver) + ")");
  }
  if (time == nullptr) {
    return session_->ReadNamed(receiver.ref(), name);
  }
  if (!time->IsInteger() || time->integer() < 0) {
    return Status::TypeMismatch("@ time must be a non-negative integer");
  }
  return session_->ReadNamedAt(receiver.ref(), name,
                               static_cast<TxnTime>(time->integer()));
}

}  // namespace gemstone::opal
