#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace incsr::net {

namespace internal {

namespace {

/// Serving adapter over one SimRankService (primary or replica).
class SingleBackend final : public ServingBackend {
 public:
  explicit SingleBackend(service::SimRankService* service)
      : service_(service) {}

  Status Submit(const graph::EdgeUpdate& update) override {
    return service_->Submit(update);
  }
  Status Flush() override { return service_->Flush(); }
  Result<double> Score(graph::NodeId a, graph::NodeId b) const override {
    return service_->Score(a, b);
  }
  Result<std::vector<core::ScoredPair>> TopKFor(
      graph::NodeId node, std::size_t k) const override {
    return service_->TopKFor(node, k);
  }
  std::vector<core::ScoredPair> TopKPairs(std::size_t k) const override {
    return service_->TopKPairs(k);
  }
  void FillStats(wire::StatsResponse* out) const override {
    out->stats = service_->stats();
    const auto snapshot = service_->Snapshot();
    out->num_nodes = snapshot->graph.num_nodes();
    out->num_edges = snapshot->graph.num_edges();
    out->is_replica = service_->is_replica();
  }
  service::SimRankService* ReplicationSource() const override {
    return service_->is_replica() ? nullptr : service_;
  }

 private:
  service::SimRankService* const service_;
};

/// Serving adapter over the component-sharded façade. The wire stats
/// carry the field-wise aggregate (ShardedStats::total); per-shard detail
/// stays an in-process concern.
class ShardedBackend final : public ServingBackend {
 public:
  explicit ShardedBackend(shard::ShardedSimRankService* service)
      : service_(service) {}

  Status Submit(const graph::EdgeUpdate& update) override {
    return service_->Submit(update);
  }
  Status Flush() override { return service_->Flush(); }
  Result<double> Score(graph::NodeId a, graph::NodeId b) const override {
    return service_->Score(a, b);
  }
  Result<std::vector<core::ScoredPair>> TopKFor(
      graph::NodeId node, std::size_t k) const override {
    return service_->TopKFor(node, k);
  }
  std::vector<core::ScoredPair> TopKPairs(std::size_t k) const override {
    return service_->TopKPairs(k);
  }
  void FillStats(wire::StatsResponse* out) const override {
    out->stats = service_->stats().total;
    out->num_nodes = service_->num_nodes();
    out->num_edges = service_->num_edges();
    out->is_replica = false;
  }
  service::SimRankService* ReplicationSource() const override {
    return nullptr;
  }

 private:
  shard::ShardedSimRankService* const service_;
};

}  // namespace

ReplicationHub::~ReplicationHub() {
  if (wakeup_read >= 0) ::close(wakeup_read);
  if (wakeup_write >= 0) ::close(wakeup_write);
}

Status ReplicationHub::OpenPipe() {
  int fds[2];
  if (::pipe(fds) < 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  wakeup_read = fds[0];
  wakeup_write = fds[1];
  INCSR_RETURN_IF_ERROR(SetNonBlocking(wakeup_read, true));
  INCSR_RETURN_IF_ERROR(SetNonBlocking(wakeup_write, true));
  return Status::OK();
}

void ReplicationHub::OnApplied(std::uint64_t seq,
                               const std::vector<graph::EdgeUpdate>& batch) {
  wire::ReplicaBatchMessage message;
  message.seq = seq;
  message.updates = batch;
  std::string body;
  message.EncodeBody(&body);
  const std::string frame =
      wire::EncodeFrame(wire::MessageTag::kReplicaBatch, body);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    log.Append(seq, std::move(message.updates));
    for (int fd : subscribers) {
      pending[fd] += frame;
      ++batches_streamed;
      wake = true;
    }
  }
  // Wake even with no subscribers? No: the log append needs no loop work.
  if (wake) {
    const char byte = 1;
    // A full pipe is fine — the loop is already guaranteed to wake.
    (void)!::write(wakeup_write, &byte, 1);
  }
}

}  // namespace internal

// ---- Construction ----------------------------------------------------------

Result<std::unique_ptr<IncSrServer>> IncSrServer::Serve(
    service::SimRankService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  auto backend = std::make_unique<internal::SingleBackend>(service);
  service::SimRankService* source = backend->ReplicationSource();
  return Start(std::move(backend), source, options);
}

Result<std::unique_ptr<IncSrServer>> IncSrServer::Serve(
    shard::ShardedSimRankService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  return Start(std::make_unique<internal::ShardedBackend>(service), nullptr,
               options);
}

Result<std::unique_ptr<IncSrServer>> IncSrServer::Start(
    std::unique_ptr<internal::ServingBackend> backend,
    service::SimRankService* replication_source, const ServerOptions& options) {
  std::unique_ptr<IncSrServer> server(
      new IncSrServer(std::move(backend), options));
  auto listener = ListenOn(options.host, options.port, options.listen_backlog);
  if (!listener.ok()) return listener.status();
  auto port = LocalPort(*listener);
  if (!port.ok()) return port.status();
  server->listener_ = std::move(*listener);
  server->port_ = *port;

  // The hub (and its wakeup pipe) exists on every server; the replication
  // log and listener only matter on primaries.
  server->hub_ = std::make_shared<internal::ReplicationHub>(
      std::max<std::size_t>(1, options.replication_backlog));
  INCSR_RETURN_IF_ERROR(server->hub_->OpenPipe());
  if (replication_source != nullptr) {
    server->replication_source_ = replication_source;
    // The closure copies the shared_ptr: an invocation in flight during
    // server teardown still references live hub state.
    std::shared_ptr<internal::ReplicationHub> hub = server->hub_;
    // History published before this server attached is not in its log; a
    // seeded floor makes a behind-the-floor subscribe answer kInvalid
    // ("aged out") instead of accepting it and then streaming a sequence
    // gap the replica can never bridge. Holding hub->mu across
    // registration and seeding blocks OnApplied (which appends under the
    // same mutex), so the floor is in place before the first retained
    // batch; the registration epoch itself may still be re-delivered
    // after the swap, which Append drops as a duplicate.
    std::lock_guard<std::mutex> hub_lock(hub->mu);
    const std::uint64_t registration_epoch =
        replication_source->SetAppliedBatchListener(
            [hub](std::uint64_t seq,
                  const std::vector<graph::EdgeUpdate>& batch) {
              hub->OnApplied(seq, batch);
            });
    hub->log.SeedFloor(registration_epoch);
  }
  server->thread_ = std::thread(&IncSrServer::Loop, server.get());
  return server;
}

IncSrServer::IncSrServer(std::unique_ptr<internal::ServingBackend> backend,
                         const ServerOptions& options)
    : options_(options), backend_(std::move(backend)) {}

IncSrServer::~IncSrServer() { Stop(); }

void IncSrServer::Stop() {
  if (stopped_.exchange(true)) return;
  if (replication_source_ != nullptr) {
    replication_source_->SetAppliedBatchListener(nullptr);
  }
  stopping_.store(true, std::memory_order_release);
  // hub_ is null when Start() failed before creating it (bad listen
  // address, port in use) and the half-built server is being destroyed.
  if (hub_ != nullptr) {
    const char byte = 1;
    (void)!::write(hub_->wakeup_write, &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  // Release the port only after the loop (which polls this fd) is gone —
  // a successor server can then bind it immediately (restart on the same
  // endpoint).
  listener_.Close();
}

ServerStats IncSrServer::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_closed =
      connections_closed_.load(std::memory_order_relaxed);
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  stats.active_subscribers =
      active_subscribers_.load(std::memory_order_relaxed);
  if (hub_ != nullptr) {
    std::lock_guard<std::mutex> lock(hub_->mu);
    stats.batches_streamed = hub_->batches_streamed;
  }
  return stats;
}

// ---- Event loop ------------------------------------------------------------

void IncSrServer::Loop() {
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({listener_.fd(), POLLIN, 0});
    pfds.push_back({hub_->wakeup_read, POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), /*timeout=*/1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable for the loop
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (pfds[1].revents != 0) DrainWakeupPipe();
    FlushPendingStreams();
    if (pfds[0].revents != 0) AcceptConnections();
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      const int fd = pfds[i].fd;
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed by an earlier event
      Connection& conn = it->second;
      bool alive = true;
      if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (pfds[i].revents & POLLIN) == 0) {
        alive = false;
      }
      if (alive && (pfds[i].revents & POLLIN) != 0) {
        alive = HandleReadable(&conn);
      }
      if (alive && !conn.out.empty()) alive = HandleWritable(&conn);
      if (alive && conn.out.size() > options_.max_outbound_buffer) {
        alive = false;  // slow consumer: drop, let it reconnect and catch up
      }
      if (!alive) CloseConnection(fd);
    }
  }
  // Final courtesy flush of already-encoded responses, then tear down.
  for (auto& [fd, conn] : connections_) {
    if (!conn.out.empty()) (void)HandleWritable(&conn);
  }
  std::vector<int> open;
  open.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open.push_back(fd);
  for (int fd : open) CloseConnection(fd);
}

void IncSrServer::AcceptConnections() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: drained. Anything else: transient (ECONNABORTED and
      // friends) — retry on the next poll round either way.
      return;
    }
    if (!SetNonBlocking(fd, true).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Connection conn;
    conn.socket = Socket(fd);
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.store(connections_.size(),
                              std::memory_order_relaxed);
  }
}

void IncSrServer::DrainWakeupPipe() {
  char buffer[256];
  while (::read(hub_->wakeup_read, buffer, sizeof buffer) > 0) {
  }
}

void IncSrServer::FlushPendingStreams() {
  std::map<int, std::string> pending;
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    pending.swap(hub_->pending);
  }
  for (auto& [fd, frames] : pending) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    it->second.out += frames;
  }
}

void IncSrServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (it->second.subscriber) {
    std::lock_guard<std::mutex> lock(hub_->mu);
    hub_->subscribers.erase(std::remove(hub_->subscribers.begin(),
                                        hub_->subscribers.end(), fd),
                            hub_->subscribers.end());
    hub_->pending.erase(fd);
    active_subscribers_.store(hub_->subscribers.size(),
                              std::memory_order_relaxed);
  }
  connections_.erase(it);  // Socket closes the fd
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  active_connections_.store(connections_.size(), std::memory_order_relaxed);
}

// ---- Frame I/O -------------------------------------------------------------

bool IncSrServer::HandleReadable(Connection* conn) {
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->socket.fd(), buffer, sizeof buffer, 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer closed: dispatch what was buffered (submits still count),
      // then drop the connection — nobody reads the responses.
      (void)ProcessInput(conn);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  return ProcessInput(conn);
}

bool IncSrServer::ProcessInput(Connection* conn) {
  std::size_t offset = 0;
  bool alive = true;
  while (alive && conn->in.size() - offset >= wire::kFramePrefixBytes) {
    std::uint8_t prefix[wire::kFramePrefixBytes];
    std::memcpy(prefix, conn->in.data() + offset, sizeof prefix);
    auto length = wire::ParseFrameLength(prefix, options_.max_frame_payload);
    if (!length.ok()) {
      // The stream is unframeable from here on: close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      alive = false;
      break;
    }
    if (conn->in.size() - offset - wire::kFramePrefixBytes < *length) break;
    const std::string_view payload(
        conn->in.data() + offset + wire::kFramePrefixBytes, *length);
    offset += wire::kFramePrefixBytes + *length;
    auto frame = wire::ParseFramePayload(payload);
    if (!frame.ok()) {
      // Framing held, content didn't (bad version / unknown tag): answer
      // and keep going.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, wire::RpcStatus::kInvalid, frame.status().message());
      continue;
    }
    DispatchFrame(conn, frame->tag, frame->body);
  }
  conn->in.erase(0, offset);
  return alive;
}

bool IncSrServer::HandleWritable(Connection* conn) {
  std::size_t sent = 0;
  while (sent < conn->out.size()) {
    const ssize_t n = ::send(conn->socket.fd(), conn->out.data() + sent,
                             conn->out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  conn->out.erase(0, sent);
  return true;
}

template <typename Message>
void IncSrServer::Reply(Connection* conn, wire::MessageTag tag,
                        const Message& message) {
  std::string body;
  message.EncodeBody(&body);
  conn->out += wire::EncodeFrame(tag, body);
}

void IncSrServer::SendError(Connection* conn, wire::RpcStatus status,
                            const std::string& message) {
  wire::ErrorResponse error;
  error.status = status;
  error.message = message;
  Reply(conn, wire::MessageTag::kErrorResponse, error);
}

// ---- Dispatch --------------------------------------------------------------

void IncSrServer::DispatchFrame(Connection* conn, wire::MessageTag tag,
                                std::string_view body) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  // One span per RPC: decode + backend call + response encode (the write
  // back to the socket is the event loop's, not this frame's).
  TRACE_SCOPE_ARG(kRpc, static_cast<std::uint8_t>(tag));
  switch (tag) {
    case wire::MessageTag::kPingRequest: {
      if (!body.empty()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::RpcStatus::kInvalid, "ping carries no body");
        return;
      }
      conn->out += wire::EncodeFrame(wire::MessageTag::kPingResponse, {});
      return;
    }
    case wire::MessageTag::kSubmitRequest:
      HandleSubmit(conn, body);
      return;
    case wire::MessageTag::kScoreRequest: {
      wire::ScoreRequest request;
      if (!wire::ScoreRequest::DecodeBody(body, &request)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::RpcStatus::kInvalid, "bad ScoreRequest body");
        return;
      }
      wire::ScoreResponse response;
      auto score = backend_->Score(request.a, request.b);
      if (score.ok()) {
        response.score = *score;
      } else {
        response.status = wire::ToRpcStatus(score.status());
      }
      Reply(conn, wire::MessageTag::kScoreResponse, response);
      return;
    }
    case wire::MessageTag::kTopKForRequest: {
      wire::TopKForRequest request;
      if (!wire::TopKForRequest::DecodeBody(body, &request)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::RpcStatus::kInvalid, "bad TopKForRequest body");
        return;
      }
      wire::TopKResponse response;
      auto entries = backend_->TopKFor(request.node, request.k);
      if (entries.ok()) {
        response.entries = std::move(*entries);
      } else {
        response.status = wire::ToRpcStatus(entries.status());
      }
      Reply(conn, wire::MessageTag::kTopKResponse, response);
      return;
    }
    case wire::MessageTag::kTopKPairsRequest: {
      wire::TopKPairsRequest request;
      if (!wire::TopKPairsRequest::DecodeBody(body, &request)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::RpcStatus::kInvalid,
                  "bad TopKPairsRequest body");
        return;
      }
      wire::TopKResponse response;
      response.entries = backend_->TopKPairs(request.k);
      Reply(conn, wire::MessageTag::kTopKResponse, response);
      return;
    }
    case wire::MessageTag::kSuggestRequest: {
      wire::SuggestRequest request;
      if (!wire::SuggestRequest::DecodeBody(body, &request)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::RpcStatus::kInvalid, "bad SuggestRequest body");
        return;
      }
      wire::SuggestResponse response;
      response.suggestions.reserve(request.nodes.size());
      for (const graph::NodeId node : request.nodes) {
        wire::SuggestResponse::NodeSuggestions suggestion;
        suggestion.node = node;
        auto entries = backend_->TopKFor(node, request.k);
        if (entries.ok()) {
          suggestion.found = true;
          suggestion.entries = std::move(*entries);
        } else {
          response.status = wire::RpcStatus::kInvalid;
        }
        response.suggestions.push_back(std::move(suggestion));
      }
      Reply(conn, wire::MessageTag::kSuggestResponse, response);
      return;
    }
    case wire::MessageTag::kStatsRequest: {
      wire::StatsResponse response;
      backend_->FillStats(&response);
      Reply(conn, wire::MessageTag::kStatsResponse, response);
      return;
    }
    case wire::MessageTag::kFlushRequest: {
      // Blocks the loop until the backend's queue drains — acceptable:
      // the applier makes progress independently, so this terminates.
      wire::FlushResponse response;
      response.status = wire::ToRpcStatus(backend_->Flush());
      Reply(conn, wire::MessageTag::kFlushResponse, response);
      return;
    }
    case wire::MessageTag::kSubscribeRequest:
      HandleSubscribe(conn, body);
      return;
    default: {
      // A known tag that is not a request (responses, kReplicaBatch) has
      // no business arriving at a server.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, wire::RpcStatus::kInvalid,
                std::string("unexpected tag ") + wire::MessageTagName(tag));
      return;
    }
  }
}

void IncSrServer::HandleSubmit(Connection* conn, std::string_view body) {
  wire::SubmitRequest request;
  if (!wire::SubmitRequest::DecodeBody(body, &request)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, wire::RpcStatus::kInvalid, "bad SubmitRequest body");
    return;
  }
  wire::SubmitResponse response;
  for (std::size_t i = 0; i < request.updates.size(); ++i) {
    const Status status = backend_->Submit(request.updates[i]);
    if (status.ok()) {
      ++response.accepted;
      continue;
    }
    // First rejection ends the batch (matching SubmitBatch semantics);
    // the remainder counts as rejected so the client can resubmit it.
    response.status = wire::ToRpcStatus(status);
    response.rejected =
        static_cast<std::uint32_t>(request.updates.size() - i);
    break;
  }
  Reply(conn, wire::MessageTag::kSubmitResponse, response);
}

void IncSrServer::HandleSubscribe(Connection* conn, std::string_view body) {
  wire::SubscribeRequest request;
  if (!wire::SubscribeRequest::DecodeBody(body, &request)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, wire::RpcStatus::kInvalid, "bad SubscribeRequest body");
    return;
  }
  wire::SubscribeResponse response;
  if (replication_source_ == nullptr) {
    response.status = wire::RpcStatus::kNotSupported;
    Reply(conn, wire::MessageTag::kSubscribeResponse, response);
    return;
  }
  // Snapshot the backlog and register the subscriber under one lock: a
  // batch applied concurrently lands either in the snapshot (appended
  // before) or in this fd's pending queue (appended after) — never in
  // neither, never in both.
  std::vector<wire::ReplicaBatchMessage> backlog;
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    if (!hub_->log.CollectFrom(request.from_seq, &backlog)) {
      response.status = wire::RpcStatus::kInvalid;
      Reply(conn, wire::MessageTag::kSubscribeResponse, response);
      return;
    }
    response.next_seq = request.from_seq + 1;
    if (!conn->subscriber) {
      conn->subscriber = true;
      hub_->subscribers.push_back(conn->socket.fd());
      active_subscribers_.store(hub_->subscribers.size(),
                                std::memory_order_relaxed);
    }
    Reply(conn, wire::MessageTag::kSubscribeResponse, response);
    for (const wire::ReplicaBatchMessage& message : backlog) {
      std::string batch_body;
      message.EncodeBody(&batch_body);
      conn->out +=
          wire::EncodeFrame(wire::MessageTag::kReplicaBatch, batch_body);
      ++hub_->batches_streamed;
    }
  }
}

}  // namespace incsr::net
