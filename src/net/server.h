// IncSrServer — the network front-end of the serving tier: a single
// poll()-based event-loop thread that speaks the net/wire.h framed binary
// protocol over TCP and dispatches onto an in-process serving backend
// (service::SimRankService or shard::ShardedSimRankService).
//
//   - Ingest: kSubmitRequest batches feed the backend's bounded queue;
//     reject-mode backpressure answers kOverloaded instead of blocking
//     the connection, block-mode intentionally stalls the submitting
//     RPC (and, this being a single-threaded loop, other connections)
//     until queue space frees — the applier keeps draining regardless,
//     so the stall is bounded and deadlock-free.
//   - Queries (Score / TopKFor / TopKPairs / Suggest / Stats) are served
//     off the backend's pinned epoch snapshots and never wait on writes.
//   - Replication: on a primary (single-instance, non-replica) backend
//     the server registers the service's applied-batch listener, retains
//     the stream in a bounded ReplicationLog, and fans it out to
//     kSubscribeRequest connections — catch-up from the backlog first,
//     then live batches, sequenced per subscriber with no gap between
//     the two (registration and backlog snapshot are atomic).
//
// Error policy mirrors the protocol-hardening contract: an undecodable
// length prefix (oversized / undersized) means the byte stream is
// unframeable, so the connection closes; a well-framed payload with a bad
// version, unknown tag, or undecodable body gets a kErrorResponse and the
// connection lives on.
#ifndef INCSR_NET_SERVER_H_
#define INCSR_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/dynamic_simrank.h"
#include "graph/update_stream.h"
#include "net/replication.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/simrank_service.h"
#include "shard/sharded_service.h"

namespace incsr::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port; read it via port()
  int listen_backlog = 64;
  std::size_t max_frame_payload = wire::kMaxFramePayload;
  /// Applied batches retained for replica catch-up (primary servers).
  std::size_t replication_backlog = 4096;
  /// A connection whose outbound buffer exceeds this is dropped — a
  /// subscriber too slow to keep up reconnects and catches up from the
  /// backlog instead of growing the primary's memory without bound.
  std::size_t max_outbound_buffer = 64u * 1024u * 1024u;
};

/// Cumulative serving-tier counters (all monotone except the actives).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_served = 0;
  /// Frames that violated the protocol: bad length prefix (closes the
  /// connection) or bad version/tag/body (answered with kErrorResponse).
  std::uint64_t protocol_errors = 0;
  /// Replica batches fanned out across all subscribers: live batches
  /// plus the backlog catch-up frames queued when a replica subscribes.
  std::uint64_t batches_streamed = 0;
  std::size_t active_connections = 0;
  std::size_t active_subscribers = 0;
};

namespace internal {

/// Uniform serving surface over the single-instance and sharded services;
/// the server dispatches every RPC through it.
class ServingBackend {
 public:
  virtual ~ServingBackend() = default;
  virtual Status Submit(const graph::EdgeUpdate& update) = 0;
  virtual Status Flush() = 0;
  virtual Result<double> Score(graph::NodeId a, graph::NodeId b) const = 0;
  virtual Result<std::vector<core::ScoredPair>> TopKFor(
      graph::NodeId node, std::size_t k) const = 0;
  virtual std::vector<core::ScoredPair> TopKPairs(std::size_t k) const = 0;
  virtual void FillStats(wire::StatsResponse* out) const = 0;
  /// Service whose applied stream replicas may subscribe to; nullptr when
  /// this backend has no replication surface (sharded, replica).
  virtual service::SimRankService* ReplicationSource() const = 0;
};

/// Applied-stream fan-out state shared between the service's applier
/// thread (producer) and the server's event loop (consumer). Held by
/// shared_ptr from both the server and the registered listener closure,
/// so an in-flight listener invocation stays valid even while the server
/// is tearing down. Owns the loop's wakeup pipe.
struct ReplicationHub {
  explicit ReplicationHub(std::size_t backlog_capacity)
      : log(backlog_capacity) {}
  ~ReplicationHub();

  Status OpenPipe();
  /// Applier-thread entry: retains the batch in the log, queues the
  /// encoded frame for every live subscriber, and wakes the loop.
  void OnApplied(std::uint64_t seq,
                 const std::vector<graph::EdgeUpdate>& batch);

  std::mutex mu;
  ReplicationLog log;
  std::vector<int> subscribers;                   ///< subscriber conn fds
  std::map<int, std::string> pending;             ///< fd → queued frames
  std::uint64_t batches_streamed = 0;
  int wakeup_read = -1;
  int wakeup_write = -1;
};

}  // namespace internal

/// Binary-RPC server: one background event-loop thread per instance.
class IncSrServer {
 public:
  /// Serves a single-instance service. A non-replica service also gets
  /// the replication surface (kSubscribeRequest) wired up.
  static Result<std::unique_ptr<IncSrServer>> Serve(
      service::SimRankService* service, const ServerOptions& options = {});

  /// Serves a sharded service (no replication surface — per-shard epochs
  /// are independent sequences; kSubscribeRequest answers kNotSupported).
  static Result<std::unique_ptr<IncSrServer>> Serve(
      shard::ShardedSimRankService* service,
      const ServerOptions& options = {});

  ~IncSrServer();
  IncSrServer(const IncSrServer&) = delete;
  IncSrServer& operator=(const IncSrServer&) = delete;

  /// Port actually bound (resolves port 0).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Stops accepting, makes one final flush attempt on pending responses,
  /// closes every connection, and joins the loop thread. Idempotent. The
  /// backend is untouched — draining its queue is the caller's shutdown
  /// step (service Stop()), not the server's.
  void Stop();

  ServerStats stats() const;

 private:
  static Result<std::unique_ptr<IncSrServer>> Start(
      std::unique_ptr<internal::ServingBackend> backend,
      service::SimRankService* replication_source,
      const ServerOptions& options);

  IncSrServer(std::unique_ptr<internal::ServingBackend> backend,
              const ServerOptions& options);

  /// Per-connection state; single-threaded (event loop only).
  struct Connection {
    Socket socket;
    std::string in;   ///< bytes received, not yet framed
    std::string out;  ///< frames encoded, not yet sent
    bool subscriber = false;
  };

  void Loop();
  void AcceptConnections();
  /// Drains readable bytes and dispatches complete frames; false → close.
  bool HandleReadable(Connection* conn);
  /// Frames and dispatches buffered input; false → unframeable, close.
  bool ProcessInput(Connection* conn);
  /// Flushes as much of `out` as the socket takes; false → close.
  bool HandleWritable(Connection* conn);
  /// One well-framed payload (version+tag already validated).
  void DispatchFrame(Connection* conn, wire::MessageTag tag,
                     std::string_view body);
  void HandleSubmit(Connection* conn, std::string_view body);
  void HandleSubscribe(Connection* conn, std::string_view body);
  void SendError(Connection* conn, wire::RpcStatus status,
                 const std::string& message);
  void DrainWakeupPipe();
  /// Moves hub-queued replica frames into subscriber outbound buffers.
  void FlushPendingStreams();
  void CloseConnection(int fd);

  template <typename Message>
  void Reply(Connection* conn, wire::MessageTag tag, const Message& message);

  const ServerOptions options_;
  std::unique_ptr<internal::ServingBackend> backend_;
  /// Set on primary servers; the registered listener holds a second
  /// reference (see ReplicationHub).
  std::shared_ptr<internal::ReplicationHub> hub_;
  /// Whose listener we registered (to clear it on Stop); null otherwise.
  service::SimRankService* replication_source_ = nullptr;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::map<int, Connection> connections_;  // loop thread only

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::size_t> active_connections_{0};
  std::atomic<std::size_t> active_subscribers_{0};

  std::thread thread_;
};

}  // namespace incsr::net

#endif  // INCSR_NET_SERVER_H_
