#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "executor/error_format.h"
#include "telemetry/export.h"
#include "telemetry/io_attribution.h"
#include "telemetry/observatory.h"
#include "telemetry/trace.h"

namespace gemstone::net {

namespace {

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " +
         std::system_category().message(errno);
}

std::uint64_t NowMs() { return telemetry::TraceNowNs() / 1'000'000; }

/// Scoped Session owner binding: the worker claims the session for the
/// duration of one request (GS_THREAD_SAFETY builds assert this), then
/// releases it so the next request may run on any worker.
class SessionOwnerBinding {
 public:
  explicit SessionOwnerBinding(txn::Session* session) : session_(session) {
    if (session_ != nullptr) session_->BindOwnerToCurrentThread();
  }
  ~SessionOwnerBinding() {
    if (session_ != nullptr) session_->ReleaseOwner();
  }
  SessionOwnerBinding(const SessionOwnerBinding&) = delete;
  SessionOwnerBinding& operator=(const SessionOwnerBinding&) = delete;

 private:
  txn::Session* session_;
};

}  // namespace

std::string_view RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kIdle: return "idle";
    case RequestStage::kExecute: return "execute";
    case RequestStage::kSerialize: return "serialize";
    case RequestStage::kFlush: return "flush";
  }
  return "unknown";
}

/// One parsed request waiting for a worker. `received_ns` is stamped when
/// the frame came off the socket — the zero point every stage delta
/// telescopes from.
struct Server::Request {
  MsgType type = MsgType::kOk;
  std::uint64_t trace_id = 0;
  std::uint32_t seq = 0;
  std::string payload;
  std::uint64_t received_ns = 0;
};

/// Per-connection state. The socket, read buffer, and timestamps belong
/// to the event-loop thread; pending/outbox/flags are shared with workers
/// under `mu`. `session`/`logged_in` are written by the single worker
/// serving the connection; they (and the byte counters and in-flight
/// markers) are relaxed atomics so the status page can read them from any
/// thread without joining the lock dance.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;

  // Event-loop-thread state.
  std::string inbuf;
  std::uint64_t last_frame_ms = 0;
  bool read_paused = false;

  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};

  // Worker-owned session binding (see struct comment).
  std::atomic<SessionId> session{0};
  std::atomic<bool> logged_in{false};

  // The request this connection's worker is serving right now (status
  // page only; monitoring-grade consistency).
  std::atomic<std::uint8_t> inflight_stage{0};  // RequestStage
  std::atomic<std::uint64_t> inflight_trace_id{0};
  std::atomic<std::uint8_t> inflight_type{0};  // MsgType

  mutable Mutex mu{LockRank::kNetConnection, "net.conn_mu"};
  std::deque<Request> pending GS_GUARDED_BY(mu);
  std::string outbox GS_GUARDED_BY(mu);
  /// Cumulative bytes ever appended to / flushed out of the outbox; a
  /// PendingFlush completes when flushed catches up to its target.
  std::uint64_t outbox_appended GS_GUARDED_BY(mu) = 0;
  std::uint64_t outbox_flushed GS_GUARDED_BY(mu) = 0;
  std::deque<PendingFlush> awaiting_flush GS_GUARDED_BY(mu);
  bool scheduled GS_GUARDED_BY(mu) = false;
  bool dead GS_GUARDED_BY(mu) = false;
  bool close_after_flush GS_GUARDED_BY(mu) = false;
  std::string close_reason GS_GUARDED_BY(mu);
};

Server::Server(executor::Executor* executor,
               admin::AuthorizationManager* auth, ServerOptions options)
    : executor_(executor), auth_(auth), options_(options) {
  auto& registry = telemetry::MetricsRegistry::Global();
  connections_gauge_ = registry.GetGauge("net.connections");
  accepted_ = registry.GetCounter("net.connections_accepted");
  rejected_ = registry.GetCounter("net.connections_rejected");
  requests_ = registry.GetCounter("net.requests");
  request_errors_ = registry.GetCounter("net.request_errors");
  protocol_errors_ = registry.GetCounter("net.protocol_errors");
  bytes_in_ = registry.GetCounter("net.bytes_in");
  bytes_out_ = registry.GetCounter("net.bytes_out");
  backpressure_stalls_ = registry.GetCounter("net.backpressure_stalls");
  idle_timeouts_ = registry.GetCounter("net.idle_timeouts");
  request_timeouts_ = registry.GetCounter("net.request_timeouts");
  slow_requests_ = registry.GetCounter("net.slow_requests");
  read_path_requests_ = registry.GetCounter("net.read_path_requests");
  // Loopback stages sit in single-digit microseconds: these distributions
  // need the dense MicroLatencyBounds or the histogram cannot resolve
  // them (satellite fix — the default decade ladder put a 5 µs median in
  // a 2.5 µs-wide bucket).
  const auto& micro = telemetry::Histogram::MicroLatencyBounds();
  request_latency_us_ =
      registry.GetHistogram("net.request_latency_us", micro);
  stage_queue_us_ = registry.GetHistogram("net.stage.queue_us", micro);
  stage_execute_us_ = registry.GetHistogram("net.stage.execute_us", micro);
  stage_serialize_us_ =
      registry.GetHistogram("net.stage.serialize_us", micro);
  stage_flush_us_ = registry.GetHistogram("net.stage.flush_us", micro);
}

Server::~Server() { Stop(); }

std::int64_t Server::connection_count() const {
  return connections_gauge_->value();
}

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  if (auth_ != nullptr) {
    executor_->transactions().set_access_controller(auth_);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IoError(ErrnoText("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IoError(ErrnoText("bind"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status s = Status::IoError(ErrnoText("listen"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) < 0) {
    Status s = Status::IoError(ErrnoText("pipe2"));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];

  stopping_.store(false, std::memory_order_release);
  workers_done_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = false;
    queue_.clear();
  }

  const int workers = options_.workers < 1 ? 1 : options_.workers;
  worker_threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  start_ns_ = telemetry::TraceNowNs();
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  stopping_.store(true, std::memory_order_release);
  WakeLoop();

  // Drain: workers finish everything already parsed (in-flight commits
  // included), then exit when the queue runs dry.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : worker_threads_) worker.join();
  worker_threads_.clear();

  // With the pool gone, outboxes are final: the loop flushes and exits.
  workers_done_.store(true, std::memory_order_release);
  WakeLoop();
  loop_thread_.join();

  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
}

void Server::WakeLoop() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

// --- Event loop ----------------------------------------------------------------

void Server::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  std::uint64_t drain_deadline_ms = 0;

  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && drain_deadline_ms == 0) {
      drain_deadline_ms = NowMs() + 5000;
    }

    fds.clear();
    polled.clear();
    if (!stopping && listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
    } else {
      fds.push_back({-1, 0, 0});  // keep indices stable
    }
    fds.push_back({wake_read_fd_, POLLIN, 0});

    bool flushing = false;  // any outbox still draining
    {
      MutexLock table(conn_table_mu_);
      for (auto& [id, conn] : connections_) {
        if (conn->fd < 0) continue;
        short events = 0;
        bool paused_by_limits = false;
        bool flushed_and_closing = false;
        bool dead = false;
        {
          MutexLock lock(conn->mu);
          dead = conn->dead;
          if (!dead) {
            const bool limits =
                conn->pending.size() >= options_.max_pipeline ||
                conn->outbox.size() >= options_.outbox_limit;
            const bool want_read =
                !stopping && !conn->close_after_flush && !limits;
            paused_by_limits =
                limits && !stopping && !conn->close_after_flush;
            if (want_read) events |= POLLIN;
            if (!conn->outbox.empty()) {
              events |= POLLOUT;
              flushing = true;
            } else if (conn->close_after_flush) {
              // Response already flushed; nothing left to wait for.
              flushed_and_closing = true;
            }
          }
        }
        if (dead) continue;
        if (flushed_and_closing) {
          MarkDead(conn.get(), "closed after protocol error");
          continue;
        }
        if (paused_by_limits && !conn->read_paused) {
          conn->read_paused = true;
          backpressure_stalls_->Increment();
        } else if (!paused_by_limits) {
          conn->read_paused = false;
        }
        fds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }
    }

    if (stopping) {
      bool workers_busy = false;
      if (!workers_done_.load(std::memory_order_acquire)) {
        workers_busy = true;
      }
      if ((!workers_busy && !flushing) || NowMs() >= drain_deadline_ms) {
        break;
      }
    }

    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (n < 0 && errno != EINTR) break;

    // Drain wakeup bytes.
    if (fds[1].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }

    if (fds[0].revents & POLLIN) AcceptReady();

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const pollfd& pfd = fds[i + 2];
      Connection* conn = polled[i].get();
      if (conn->fd < 0) continue;
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        MarkDead(conn, "socket error");
        continue;
      }
      if (pfd.revents & POLLOUT) WriteReady(conn);
      if (conn->fd >= 0 && (pfd.revents & (POLLIN | POLLHUP))) {
        ReadReady(polled[i]);
      }
    }

    // Idle-timeout sweep.
    if (options_.idle_timeout_ms > 0 && !stopping) {
      const std::uint64_t now = NowMs();
      MutexLock table(conn_table_mu_);
      for (auto& [id, conn] : connections_) {
        if (conn->fd < 0) continue;
        if (now - conn->last_frame_ms > options_.idle_timeout_ms) {
          idle_timeouts_->Increment();
          MarkDead(conn.get(), "idle timeout");
        }
      }
    }

    ReapDeadConnections();
  }

  // Teardown: whatever survives the drain is closed and its session
  // aborted (logout aborts any open transaction).
  {
    MutexLock table(conn_table_mu_);
    for (auto& [id, conn] : connections_) {
      MarkDead(conn.get(), "server shutdown");
      {
        MutexLock lock(conn->mu);
        conn->pending.clear();
        conn->scheduled = false;
      }
    }
  }
  ReapDeadConnections();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptReady() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: poll again
    bool at_capacity = false;
    {
      MutexLock table(conn_table_mu_);
      at_capacity = connections_.size() >= options_.max_connections;
    }
    if (at_capacity) {
      rejected_->Increment();
      const std::string frame =
          EncodeFrame(MsgType::kProtocolError, "server at connection capacity");
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_frame_ms = NowMs();
    {
      MutexLock table(conn_table_mu_);
      conn->id = next_conn_id_++;
      connections_.emplace(conn->id, conn);
    }
    accepted_->Increment();
    connections_gauge_->Add(1);
    telemetry::RecordEvent(telemetry::TraceKind::kNetConnOpen, 0, conn->id,
                           0, "");
  }
}

void Server::ReadReady(const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
  if (n == 0) {
    MarkDead(conn.get(), "peer closed");
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    MarkDead(conn.get(), ErrnoText("read"));
    return;
  }
  bytes_in_->Increment(static_cast<std::uint64_t>(n));
  conn->bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
  conn->inbuf.append(buf, static_cast<std::size_t>(n));
  ParseFrames(conn);
}

void Server::ParseFrames(const std::shared_ptr<Connection>& conn) {
  std::size_t offset = 0;
  bool scheduled_any = false;
  while (true) {
    Frame frame;
    std::size_t used = 0;
    const DecodeResult r =
        DecodeFrame(std::string_view(conn->inbuf).substr(offset),
                    options_.max_frame_len, &frame, &used);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kMalformed) {
      // The length prefix is garbage, so the stream cannot resync:
      // answer once, flush, close.
      protocol_errors_->Increment();
      const std::string response = EncodeFrame(
          MsgType::kProtocolError,
          "malformed frame: length must be in [" +
              std::to_string(kFrameHeaderLen) + ", " +
              std::to_string(options_.max_frame_len) + "]");
      MutexLock lock(conn->mu);
      conn->outbox += response;
      conn->outbox_appended += response.size();
      conn->close_after_flush = true;
      conn->inbuf.clear();
      return;
    }
    offset += used;
    conn->last_frame_ms = NowMs();
    Request request;
    request.type = frame.type;
    // A zero trace id asks the gateway to assign one; the top bit marks
    // server-assigned ids so mixed dumps stay unambiguous.
    request.trace_id =
        frame.trace_id != 0
            ? frame.trace_id
            : ((1ull << 63) |
               next_trace_id_.fetch_add(1, std::memory_order_relaxed));
    request.seq = frame.seq;
    request.payload = std::move(frame.payload);
    request.received_ns = telemetry::TraceNowNs();
    {
      MutexLock lock(conn->mu);
      conn->pending.push_back(std::move(request));
    }
    scheduled_any = true;
  }
  if (offset > 0) conn->inbuf.erase(0, offset);
  if (scheduled_any) Schedule(conn);
}

void Server::WriteReady(Connection* conn) {
  constexpr std::size_t kMaxWrite = 256 * 1024;
  std::string chunk;
  {
    MutexLock lock(conn->mu);
    if (conn->outbox.empty()) return;
    chunk.assign(conn->outbox, 0, std::min(kMaxWrite, conn->outbox.size()));
  }
  const ssize_t n = ::send(conn->fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    MarkDead(conn, ErrnoText("write"));
    return;
  }
  bytes_out_->Increment(static_cast<std::uint64_t>(n));
  conn->bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
  bool close_now = false;
  {
    MutexLock lock(conn->mu);
    conn->outbox.erase(0, static_cast<std::size_t>(n));
    conn->outbox_flushed += static_cast<std::uint64_t>(n);
    close_now = conn->close_after_flush && conn->outbox.empty();
  }
  CompleteFlushes(conn, telemetry::TraceNowNs());
  if (close_now) MarkDead(conn, "closed after protocol error");
}

void Server::CompleteFlushes(Connection* conn, std::uint64_t now_ns) {
  // Collect completed responses under the lock, observe outside it.
  std::vector<PendingFlush> done;
  {
    MutexLock lock(conn->mu);
    while (!conn->awaiting_flush.empty() &&
           conn->awaiting_flush.front().outbox_target <=
               conn->outbox_flushed) {
      done.push_back(std::move(conn->awaiting_flush.front()));
      conn->awaiting_flush.pop_front();
    }
    if (done.empty()) return;
    if (conn->awaiting_flush.empty() &&
        conn->inflight_stage.load(std::memory_order_relaxed) ==
            static_cast<std::uint8_t>(RequestStage::kFlush)) {
      conn->inflight_stage.store(
          static_cast<std::uint8_t>(RequestStage::kIdle),
          std::memory_order_relaxed);
    }
  }
  for (const PendingFlush& pf : done) {
    const std::uint64_t flush_us =
        (now_ns > pf.appended_ns ? now_ns - pf.appended_ns : 0) / 1000;
    const std::uint64_t total_us =
        (now_ns > pf.received_ns ? now_ns - pf.received_ns : 0) / 1000;
    stage_flush_us_->Observe(flush_us);
    request_latency_us_->Observe(total_us);
    if (options_.slow_request_us != 0 &&
        total_us >= options_.slow_request_us) {
      slow_requests_->Increment();
      std::ostringstream detail;
      detail << MsgTypeName(pf.type) << " queue=" << pf.queue_us
             << "us execute=" << pf.execute_us
             << "us serialize=" << pf.serialize_us
             << "us flush=" << flush_us
             << "us tracks_read=" << pf.tracks_read
             << " tracks_written=" << pf.tracks_written;
      // Bind the request's trace id so the event carries it — the flush
      // completes on the event-loop thread, outside the dispatch scope.
      telemetry::TraceContextScope trace(pf.trace_id);
      telemetry::RecordEvent(
          telemetry::TraceKind::kSlowRequest,
          conn->session.load(std::memory_order_relaxed), total_us, pf.seq,
          detail.str());
    }
  }
}

void Server::Schedule(const std::shared_ptr<Connection>& conn) {
  bool enqueue = false;
  {
    MutexLock lock(conn->mu);
    if (!conn->scheduled && !conn->dead && !conn->pending.empty()) {
      conn->scheduled = true;
      enqueue = true;
    }
  }
  if (enqueue) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(conn);
    }
    queue_cv_.notify_one();
  }
}

void Server::MarkDead(Connection* conn, const std::string& reason) {
  {
    MutexLock lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    conn->close_reason = reason;
  }
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void Server::ReapDeadConnections() {
  // Unlink under the table lock; session teardown happens after it is
  // released. Holding conn_table_mu_ across Logout would both stall the
  // status page behind a slow abort and violate the lock-order contract
  // (DESIGN.md §12: conn_table_mu_ is never held while entering the
  // executor or transaction layer).
  struct Reaped {
    std::shared_ptr<Connection> conn;
    std::string reason;
  };
  std::vector<Reaped> reaped;
  {
    MutexLock table(conn_table_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection* conn = it->second.get();
      bool reap = false;
      std::string reason;
      {
        MutexLock lock(conn->mu);
        // A scheduled connection is still referenced by a worker; its
        // teardown waits for the completion wakeup.
        reap = conn->dead && !conn->scheduled;
        reason = conn->close_reason;
      }
      if (!reap) {
        ++it;
        continue;
      }
      reaped.push_back(Reaped{it->second, std::move(reason)});
      it = connections_.erase(it);
    }
  }
  for (Reaped& r : reaped) {
    const SessionId session =
        r.conn->session.load(std::memory_order_relaxed);
    if (r.conn->logged_in.load(std::memory_order_relaxed)) {
      // Logout aborts any transaction the disconnected client left open.
      // `dead && !scheduled` guarantees no worker still references the
      // session, and the Executor's session table is internally
      // synchronized, so a reap never waits behind a long-running
      // request.
      (void)executor_->Logout(session);
    }
    connections_gauge_->Add(-1);
    telemetry::RecordEvent(
        telemetry::TraceKind::kNetConnClose, session,
        r.conn->bytes_in.load(std::memory_order_relaxed),
        r.conn->bytes_out.load(std::memory_order_relaxed), r.reason);
  }
}

// --- Worker pool ---------------------------------------------------------------

void Server::WorkerLoop() {
  while (true) {
    std::shared_ptr<Connection> conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      conn = std::move(queue_.front());
      queue_.pop_front();
    }

    Request request;
    bool have = false;
    {
      MutexLock lock(conn->mu);
      if (conn->dead) {
        conn->pending.clear();
        conn->scheduled = false;
      } else if (!conn->pending.empty()) {
        request = std::move(conn->pending.front());
        conn->pending.pop_front();
        have = true;
      } else {
        conn->scheduled = false;
      }
    }

    if (have) HandleRequest(conn.get(), std::move(request));

    // Round-robin fairness: a pipelining client goes to the back of the
    // queue instead of monopolizing this worker.
    bool more = false;
    {
      MutexLock lock(conn->mu);
      if (conn->dead || conn->pending.empty()) {
        if (conn->dead) conn->pending.clear();
        conn->scheduled = false;
      } else {
        more = true;
      }
    }
    if (more) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(conn);
      }
      queue_cv_.notify_one();
    }
    WakeLoop();
  }
}

Server::Reply Server::ErrorReply(const Status& status) {
  request_errors_->Increment();
  return Reply{MsgType::kError, EncodeErrorPayload(status)};
}

void Server::HandleRequest(Connection* conn, Request&& request) {
  requests_->Increment();

  // Stage clock. Every delta telescopes from received_ns, so
  //   total = queue + execute + serialize + flush
  // holds exactly for each request (flush completes in CompleteFlushes).
  const std::uint64_t dequeue_ns = telemetry::TraceNowNs();
  stage_queue_us_->Observe((dequeue_ns - request.received_ns) / 1000);

  // Everything this thread records while serving the request — spans,
  // flight events, slow-op captures — now names the owning request.
  telemetry::TraceContextScope trace(request.trace_id);
  // Root of the request's span tree: every span opened below (executor,
  // txn, commit, disk) parent-links under it, so /trace?id= exports the
  // whole request as one nested flame.
  TELEM_SPAN("net.request");
  conn->inflight_trace_id.store(request.trace_id, std::memory_order_relaxed);
  conn->inflight_type.store(static_cast<std::uint8_t>(request.type),
                            std::memory_order_relaxed);
  conn->inflight_stage.store(
      static_cast<std::uint8_t>(RequestStage::kExecute),
      std::memory_order_relaxed);

  const telemetry::IoTally io_before = telemetry::ThreadIoTally();
  Reply reply;
  const std::uint64_t timeout_ns = options_.request_timeout_ms * 1'000'000;
  if (timeout_ns > 0 && dequeue_ns - request.received_ns > timeout_ns) {
    request_timeouts_->Increment();
    reply = ErrorReply(Status::Unavailable(
        "request timed out waiting for a worker (server overloaded)"));
  } else {
    reply = Dispatch(conn, request);
  }

  const std::uint64_t execute_done_ns = telemetry::TraceNowNs();
  const std::uint64_t execute_ns = execute_done_ns - dequeue_ns;
  stage_execute_us_->Observe(execute_ns / 1000);
  const telemetry::IoTally io_after = telemetry::ThreadIoTally();
  const telemetry::IoTally io = telemetry::IoDelta(io_before, io_after);

  // Framing is the response's cost, not the database's: its own stage.
  conn->inflight_stage.store(
      static_cast<std::uint8_t>(RequestStage::kSerialize),
      std::memory_order_relaxed);
  const std::string response =
      EncodeFrame(reply.type, request.trace_id, request.seq, reply.payload);
  const std::uint64_t serialized_ns = telemetry::TraceNowNs();
  stage_serialize_us_->Observe((serialized_ns - execute_done_ns) / 1000);

  PendingFlush pf;
  pf.received_ns = request.received_ns;
  pf.appended_ns = serialized_ns;
  pf.trace_id = request.trace_id;
  pf.seq = request.seq;
  pf.type = request.type;
  pf.queue_us = (dequeue_ns - request.received_ns) / 1000;
  pf.execute_us = execute_ns / 1000;
  pf.serialize_us = (serialized_ns - execute_done_ns) / 1000;
  pf.tracks_read = io.tracks_read;
  pf.tracks_written = io.tracks_written;

  bool appended = false;
  {
    MutexLock lock(conn->mu);
    if (!conn->dead) {
      conn->outbox += response;
      conn->outbox_appended += response.size();
      pf.outbox_target = conn->outbox_appended;
      conn->awaiting_flush.push_back(pf);
      appended = true;
    }
  }
  conn->inflight_stage.store(
      static_cast<std::uint8_t>(appended ? RequestStage::kFlush
                                         : RequestStage::kIdle),
      std::memory_order_relaxed);
}

Server::Reply Server::Dispatch(Connection* conn, const Request& request) {
  const bool logged_in = conn->logged_in.load(std::memory_order_relaxed);
  const SessionId conn_session =
      conn->session.load(std::memory_order_relaxed);

  // Everything below Login requires a bound session.
  if (request.type != MsgType::kLogin && !logged_in) {
    if (request.type == MsgType::kExecuteOpal ||
        request.type == MsgType::kStdmQuery ||
        request.type == MsgType::kBegin || request.type == MsgType::kCommit ||
        request.type == MsgType::kAbort ||
        request.type == MsgType::kSetTimeDial ||
        request.type == MsgType::kExplain ||
        request.type == MsgType::kLogout) {
      return ErrorReply(
          Status::TransactionState("not logged in: send Login first"));
    }
  }

  // Login and Logout sit outside the owner binding: Login has no session
  // yet, and Logout destroys the Session inside the call — a binding's
  // release would touch freed memory.
  if (request.type == MsgType::kLogin) {
    if (logged_in) {
      return ErrorReply(
          Status::TransactionState("connection already logged in"));
    }
    std::uint32_t user = 0;
    if (request.payload.size() != 4 || !ReadU32(request.payload, 0, &user)) {
      return ErrorReply(
          Status::InvalidArgument("Login payload must be a u32 user id"));
    }
    auto logged = executor_->Login(static_cast<UserId>(user));
    if (!logged.ok()) return ErrorReply(logged.status());
    conn->session.store(logged.value(), std::memory_order_relaxed);
    conn->logged_in.store(true, std::memory_order_relaxed);
    std::string payload;
    AppendU64(&payload, logged.value());
    return Reply{MsgType::kOk, std::move(payload)};
  }
  if (request.type == MsgType::kLogout) {
    Status s = executor_->Logout(conn_session);
    conn->logged_in.store(false, std::memory_order_relaxed);
    conn->session.store(0, std::memory_order_relaxed);
    if (!s.ok()) return ErrorReply(s);
    return Reply{MsgType::kOk, ""};
  }

  txn::Session* session =
      logged_in ? executor_->session(conn_session) : nullptr;
  SessionOwnerBinding owner(session);

  switch (request.type) {
    case MsgType::kStats: {
      // A monitoring endpoint: needs no login and touches no session.
      const std::uint8_t format =
          request.payload.empty()
              ? kStatsText
              : static_cast<std::uint8_t>(request.payload[0]);
      if (format == kStatsStatusz) return Reply{MsgType::kOk, StatusJson()};
      const telemetry::Snapshot snapshot =
          telemetry::MetricsRegistry::Global().Snapshot();
      switch (format) {
        case kStatsJson:
          return Reply{MsgType::kOk, telemetry::ToJson(snapshot)};
        case kStatsProm:
          return Reply{MsgType::kOk, telemetry::ToPrometheus(snapshot)};
        default:
          return Reply{MsgType::kOk, telemetry::ToText(snapshot)};
      }
    }

    case MsgType::kExecuteOpal:
    case MsgType::kStdmQuery:
      return DispatchQuery(session, request);

    case MsgType::kExplain:
      if (request.payload.empty()) {
        return ErrorReply(Status::InvalidArgument(
            "Explain payload must carry an analyze byte and a query"));
      }
      return DispatchQuery(session, request);

    case MsgType::kBegin: {
      Status s = session->Begin();
      if (!s.ok()) return ErrorReply(s);
      return Reply{MsgType::kOk, ""};
    }

    case MsgType::kCommit: {
      // 1:1 with Session::Commit — the transaction ends either way; the
      // client decides when to Begin the next one. A conflict travels
      // back as an error frame, never a disconnect.
      Status s = session->Commit();
      if (!s.ok()) return ErrorReply(s);
      std::string payload;
      AppendU64(&payload, executor_->transactions().Now());
      return Reply{MsgType::kOk, std::move(payload)};
    }

    case MsgType::kAbort: {
      Status s = session->Abort();
      if (!s.ok()) return ErrorReply(s);
      return Reply{MsgType::kOk, ""};
    }

    case MsgType::kSetTimeDial: {
      if (request.payload.empty()) {
        return ErrorReply(Status::InvalidArgument(
            "SetTimeDial payload must carry a mode byte"));
      }
      const auto mode = static_cast<std::uint8_t>(request.payload[0]);
      if (mode == kDialClear && request.payload.size() == 1) {
        session->ClearTimeDial();
      } else if (mode == kDialSafeTime && request.payload.size() == 1) {
        session->SetTimeDialToSafeTime();
      } else if (mode == kDialExplicit && request.payload.size() == 9) {
        std::uint64_t time = 0;
        ReadU64(request.payload, 1, &time);
        session->SetTimeDial(time);
      } else {
        return ErrorReply(
            Status::InvalidArgument("malformed SetTimeDial payload"));
      }
      return Reply{MsgType::kOk, ""};
    }

    default: {
      // A well-framed but unknown type: semantic error, connection keeps
      // going — a newer client against an older server degrades politely.
      protocol_errors_->Increment();
      char hex[8];
      std::snprintf(hex, sizeof(hex), "0x%02x",
                    static_cast<unsigned>(request.type));
      return Reply{MsgType::kProtocolError,
                   std::string("unknown message type ") + hex};
    }
  }
}

Server::Reply Server::DispatchQuery(txn::Session* session,
                                    const Request& request) {
  const auto run = [&]() -> Result<std::string> {
    switch (request.type) {
      case MsgType::kExecuteOpal:
        return executor_->ExecuteToString(session->id(), request.payload);
      case MsgType::kStdmQuery:
        return executor_->ExecuteStdm(session->id(), request.payload);
      default:
        return executor_->ExplainStdm(
            session->id(), std::string_view(request.payload).substr(1),
            request.payload[0] != 0);
    }
  };
  const auto reply = [this](Result<std::string> result) {
    if (!result.ok()) return ErrorReply(result.status());
    return Reply{MsgType::kOk, std::move(result).value()};
  };

  // Pinning moves a fresh transaction's start up to SafeTime; a dial
  // already fixes an immutable view.
  const txn::SnapshotPin pin(session, executor_->transactions().SafeTime());
  if (pin.pinned() || session->DialSet()) read_path_requests_->Increment();
  return reply(run());
}

// --- Status page ---------------------------------------------------------------

std::string Server::StatusJson() const {
  std::ostringstream out;
  out << "{\"uptime_s\":" << (telemetry::TraceNowNs() - start_ns_) / 1e9;
  out << ",\"build\":{\"compiler\":\"" << telemetry::JsonEscape(__VERSION__)
      << "\",\"mode\":\""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\"}";
  out << ",\"options\":{\"port\":" << port_
      << ",\"workers\":" << options_.workers
      << ",\"max_connections\":" << options_.max_connections
      << ",\"max_pipeline\":" << options_.max_pipeline
      << ",\"request_timeout_ms\":" << options_.request_timeout_ms
      << ",\"slow_request_us\":" << options_.slow_request_us << "}";
  out << ",\"counters\":{\"connections\":" << connections_gauge_->value()
      << ",\"accepted\":" << accepted_->value()
      << ",\"rejected\":" << rejected_->value()
      << ",\"requests\":" << requests_->value()
      << ",\"request_errors\":" << request_errors_->value()
      << ",\"protocol_errors\":" << protocol_errors_->value()
      << ",\"backpressure_stalls\":" << backpressure_stalls_->value()
      << ",\"request_timeouts\":" << request_timeouts_->value()
      << ",\"slow_requests\":" << slow_requests_->value()
      << ",\"read_path_requests\":" << read_path_requests_->value() << "}";

  const auto hist_json = [&out](const char* name,
                                const telemetry::Histogram* hist) {
    const telemetry::HistogramSnapshot snap = hist->Snapshot();
    out << "\"" << name << "\":{\"count\":" << snap.count
        << ",\"sum_us\":" << snap.sum << ",\"p50\":" << snap.p50()
        << ",\"p95\":" << snap.p95() << ",\"p99\":" << snap.p99() << "}";
  };
  out << ",\"stages\":{";
  hist_json("queue_us", stage_queue_us_);
  out << ",";
  hist_json("execute_us", stage_execute_us_);
  out << ",";
  hist_json("serialize_us", stage_serialize_us_);
  out << ",";
  hist_json("flush_us", stage_flush_us_);
  out << "},";
  hist_json("request_latency_us", request_latency_us_);

  out << ",\"connections\":[";
  {
    bool first = true;
    MutexLock table(conn_table_mu_);
    for (const auto& [id, conn] : connections_) {
      std::size_t pending = 0;
      std::size_t outbox_bytes = 0;
      std::size_t in_flush = 0;
      bool dead = false;
      {
        MutexLock lock(conn->mu);
        pending = conn->pending.size();
        outbox_bytes = conn->outbox.size();
        in_flush = conn->awaiting_flush.size();
        dead = conn->dead;
      }
      if (dead) continue;
      if (!first) out << ",";
      first = false;
      const auto stage = static_cast<RequestStage>(
          conn->inflight_stage.load(std::memory_order_relaxed));
      out << "{\"id\":" << conn->id << ",\"session\":"
          << conn->session.load(std::memory_order_relaxed)
          << ",\"logged_in\":"
          << (conn->logged_in.load(std::memory_order_relaxed) ? "true"
                                                              : "false")
          << ",\"bytes_in\":"
          << conn->bytes_in.load(std::memory_order_relaxed)
          << ",\"bytes_out\":"
          << conn->bytes_out.load(std::memory_order_relaxed)
          << ",\"pending\":" << pending
          << ",\"outbox_bytes\":" << outbox_bytes
          << ",\"awaiting_flush\":" << in_flush << ",\"inflight\":{";
      out << "\"stage\":\"" << RequestStageName(stage) << "\"";
      if (stage != RequestStage::kIdle) {
        out << ",\"type\":\""
            << MsgTypeName(static_cast<MsgType>(
                   conn->inflight_type.load(std::memory_order_relaxed)))
            << "\",\"trace_id\":"
            << conn->inflight_trace_id.load(std::memory_order_relaxed);
      }
      out << "}}";
    }
  }
  out << "]";

  out << ",\"conflict_hotspots\":[";
  {
    bool first = true;
    for (const auto& [oid, count] :
         executor_->transactions().ConflictHotspots()) {
      if (!first) out << ",";
      first = false;
      out << "{\"oid\":" << oid << ",\"conflicts\":" << count << "}";
    }
  }
  out << "]";

  // The lock-order validator's view (DESIGN.md §13): whether this build
  // validates at all, the observed rank->rank acquisition edges, and
  // whether the observed graph is still a DAG. In release builds the
  // section reports validated=false with an empty edge set.
  {
    std::string cycle;
    const bool acyclic = lock_order::GraphIsAcyclic(&cycle);
    out << ",\"lock_order\":{\"validated\":"
        << (GS_LOCK_ORDER_VALIDATION ? "true" : "false")
        << ",\"acquisitions\":" << lock_order::AcquisitionCount()
        << ",\"violations\":" << lock_order::ViolationCount()
        << ",\"acyclic\":" << (acyclic ? "true" : "false");
    if (!acyclic) {
      out << ",\"cycle\":\"" << telemetry::JsonEscape(cycle) << "\"";
    }
    out << ",\"edges\":[";
    bool first = true;
    for (const lock_order::Edge& edge : lock_order::AcquisitionEdges()) {
      if (!first) out << ",";
      first = false;
      out << "{\"holder\":\"" << LockRankName(edge.holder)
          << "\",\"acquired\":\"" << LockRankName(edge.acquired)
          << "\",\"count\":" << edge.count << "}";
    }
    out << "]}";
  }

  // Recent-rate sparklines from the Observatory ring (empty object until
  // the sampler has two samples). Queried without any server lock held —
  // the Observatory has its own.
  out << ",\"recent_rates\":"
      << telemetry::Observatory::Global().SparklineJson(
             {"net.", "txn.", "disk.", "storage."});

  // Optional subsystem sections (SetStatusSection) — e.g. "tiers" from
  // the temporal track store when gemstone_serve enables it.
  for (const auto& [key, fn] : status_sections_) {
    out << ",\"" << key << "\":" << fn();
  }
  out << "}";
  return out.str();
}

void Server::SetStatusSection(const std::string& key,
                              std::function<std::string()> fn) {
  status_sections_[key] = std::move(fn);
}

}  // namespace gemstone::net
