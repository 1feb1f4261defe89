#include "core/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace gemstone {

std::string_view LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kNetConnTable: return "net.conn_table";
    case LockRank::kNetConnection: return "net.connection";
    case LockRank::kExecutorSessions: return "executor.sessions";
    case LockRank::kOpalGlobals: return "opal.globals";
    case LockRank::kTxnCommit: return "txn.commit";
    case LockRank::kTxnStore: return "txn.store";
    case LockRank::kStorageTier: return "storage.tier";
    case LockRank::kClassRegistry: return "object.class_registry";
    case LockRank::kObjectMemory: return "object.memory";
    case LockRank::kSymbolTable: return "object.symbol_table";
    case LockRank::kDirectoryManager: return "index.directory_manager";
    case LockRank::kDirectory: return "index.directory";
    case LockRank::kAuthorization: return "admin.authorization";
    case LockRank::kStorageDevice: return "storage.device";
    case LockRank::kStorageHeatmap: return "storage.heatmap";
    case LockRank::kTelemetryObservatory: return "telemetry.observatory";
    case LockRank::kTelemetryMetrics: return "telemetry.metrics";
    case LockRank::kTelemetryProfiler: return "telemetry.profiler";
    case LockRank::kTelemetryTrace: return "telemetry.trace";
    case LockRank::kTelemetryAutoDump: return "telemetry.auto_dump";
    case LockRank::kLeaf: return "leaf";
    case LockRank::kRankCount: break;
  }
  return "unknown";
}

namespace lock_order {
namespace {

constexpr std::size_t kN = static_cast<std::size_t>(LockRank::kRankCount);

/// The observed-acquisition graph: edge_counts[holder][acquired]. Fixed
/// size and wait-free to update — NoteAcquire runs on every Lock() of a
/// validation build, including under the hottest leaf mutexes.
std::atomic<std::uint64_t> edge_counts[kN][kN];
std::atomic<std::uint64_t> distinct_edges{0};
std::atomic<std::uint64_t> acquisitions{0};
std::atomic<std::uint64_t> violations{0};
std::atomic<bool> abort_on_violation{true};

/// Per-thread held-lock stack. Deep enough for the longest legal chain
/// (txn.commit -> txn.store -> ... -> telemetry is 8 deep; 32
/// leaves room for what the next PRs add).
constexpr std::size_t kMaxHeld = 32;
struct ThreadStack {
  Held held[kMaxHeld];
  std::size_t depth = 0;
};
thread_local ThreadStack tls_stack;

void RecordEdge(LockRank holder, LockRank acquired) {
  auto& cell = edge_counts[static_cast<std::size_t>(holder)]
                          [static_cast<std::size_t>(acquired)];
  if (cell.fetch_add(1, std::memory_order_relaxed) == 0) {
    distinct_edges.fetch_add(1, std::memory_order_relaxed);
  }
}

[[noreturn]] void AbortWithStack(LockRank rank, const char* name) {
  const ThreadStack& stack = tls_stack;
  std::fprintf(stderr,
               "lock-order violation: acquiring \"%s\" (rank %s) while "
               "holding \"%s\" (rank %s)\nheld stack (outermost first):\n",
               name, std::string(LockRankName(rank)).c_str(),
               stack.depth > 0 ? stack.held[stack.depth - 1].name : "?",
               stack.depth > 0
                   ? std::string(
                         LockRankName(stack.held[stack.depth - 1].rank))
                         .c_str()
                   : "?");
  for (std::size_t i = 0; i < stack.depth; ++i) {
    std::fprintf(stderr, "  %zu. \"%s\" (rank %s%s)\n", i + 1,
                 stack.held[i].name,
                 std::string(LockRankName(stack.held[i].rank)).c_str(),
                 stack.held[i].shared ? ", shared" : "");
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void NoteAcquire(LockRank rank, const char* name, bool shared) {
  acquisitions.fetch_add(1, std::memory_order_relaxed);
  ThreadStack& stack = tls_stack;
  if (stack.depth > 0) {
    const Held& innermost = stack.held[stack.depth - 1];
    RecordEdge(innermost.rank, rank);
    // Strictly inner only: equal ranks nested are a violation too — two
    // same-rank locks taken in both orders on two threads is the classic
    // ABBA deadlock the per-rank contract cannot see.
    if (rank <= innermost.rank) {
      violations.fetch_add(1, std::memory_order_relaxed);
      if (abort_on_violation.load(std::memory_order_relaxed)) {
        AbortWithStack(rank, name);
      }
    }
  }
  if (stack.depth < kMaxHeld) {
    stack.held[stack.depth] = Held{rank, name, shared};
  }
  ++stack.depth;
}

void NoteRelease(LockRank rank, const char* name) {
  (void)name;
  ThreadStack& stack = tls_stack;
  if (stack.depth == 0) return;  // release without record: overflow slot
  // Locks release LIFO in practice (every holder is scoped RAII), but
  // tolerate out-of-order release of a tracked rank gracefully.
  std::size_t i = stack.depth;
  while (i > 0) {
    --i;
    if (i < kMaxHeld && stack.held[i].rank == rank) break;
  }
  for (std::size_t j = i; j + 1 < stack.depth && j + 1 < kMaxHeld; ++j) {
    stack.held[j] = stack.held[j + 1];
  }
  --stack.depth;
}

std::vector<Held> HeldLocks() {
  const ThreadStack& stack = tls_stack;
  const std::size_t n = stack.depth < kMaxHeld ? stack.depth : kMaxHeld;
  return std::vector<Held>(stack.held, stack.held + n);
}

std::size_t HeldCount() { return tls_stack.depth; }

std::vector<Edge> AcquisitionEdges() {
  std::vector<Edge> edges;
  for (std::size_t from = 0; from < kN; ++from) {
    for (std::size_t to = 0; to < kN; ++to) {
      const std::uint64_t count =
          edge_counts[from][to].load(std::memory_order_relaxed);
      if (count > 0) {
        edges.push_back(Edge{static_cast<LockRank>(from),
                             static_cast<LockRank>(to), count});
      }
    }
  }
  return edges;
}

std::uint64_t EdgeCount() {
  return distinct_edges.load(std::memory_order_relaxed);
}

std::uint64_t AcquisitionCount() {
  return acquisitions.load(std::memory_order_relaxed);
}

namespace {

/// Three-color DFS over the observed graph. 0 = unvisited, 1 = on the
/// current path, 2 = done. Finding a gray node is the cycle.
bool DfsFindsCycle(std::size_t node, unsigned char* color,
                   std::string* cycle_out) {
  color[node] = 1;
  for (std::size_t next = 0; next < kN; ++next) {
    if (edge_counts[node][next].load(std::memory_order_relaxed) == 0) {
      continue;
    }
    if (color[next] == 1) {
      if (cycle_out != nullptr) {
        *cycle_out =
            std::string(LockRankName(static_cast<LockRank>(node))) + " -> " +
            std::string(LockRankName(static_cast<LockRank>(next))) + " -> " +
            std::string(LockRankName(static_cast<LockRank>(node)));
      }
      return true;
    }
    if (color[next] == 0 && DfsFindsCycle(next, color, cycle_out)) {
      return true;
    }
  }
  color[node] = 2;
  return false;
}

}  // namespace

bool GraphIsAcyclic(std::string* cycle_out) {
  unsigned char color[kN] = {0};
  for (std::size_t node = 0; node < kN; ++node) {
    if (color[node] == 0 && DfsFindsCycle(node, color, cycle_out)) {
      return false;
    }
  }
  return true;
}

std::uint64_t ViolationCount() {
  return violations.load(std::memory_order_relaxed);
}

bool SetAbortOnViolation(bool value) {
  return abort_on_violation.exchange(value, std::memory_order_relaxed);
}

void ResetGraphForTest() {
  for (std::size_t from = 0; from < kN; ++from) {
    for (std::size_t to = 0; to < kN; ++to) {
      edge_counts[from][to].store(0, std::memory_order_relaxed);
    }
  }
  distinct_edges.store(0, std::memory_order_relaxed);
  acquisitions.store(0, std::memory_order_relaxed);
  violations.store(0, std::memory_order_relaxed);
}

}  // namespace lock_order
}  // namespace gemstone
