// Poll-based async serving front end for core::QueryEngine.
//
// One poll(2) thread owns all sockets: it accepts connections, reassembles
// length-prefixed frames from per-connection read buffers, and flushes
// per-connection write buffers — no thread per connection, no blocking I/O.
// Query frames are admitted straight into the engine via SubmitAsync, so
// the engine's admission semantics ARE the wire semantics:
//
//   * shed-on-overload: a full submission queue resolves immediately as an
//     error frame carrying kOverloaded — the client gets a fast explicit
//     rejection, never a hung connection;
//   * deadline propagation: the query frame's deadline_ms field becomes
//     SubmitOptions::deadline, so a query that expires in queue or between
//     pipeline stages comes back kDeadlineExceeded without burning the
//     remaining stages;
//   * drain-on-stop: frames against a stopped engine answer kUnavailable.
//
// Completion callbacks run on engine worker threads; they serialize the
// response there (the expensive part — VO bytes) and hand the framed bytes
// to the poll thread through a self-pipe-woken outbox, keeping the poll
// thread's work strictly O(bytes moved).
//
// Owner updates (kInsert/kDelete) run on a dedicated update thread — they
// serialize against each other anyway (engine writer lock) and a clone +
// re-sign must never stall the serving loop. The server only accepts them
// when an owner key was provided (EnableUpdates); a public-facing server
// without the key answers kBadRequest.
//
// Untrusted input discipline: every inbound frame goes through the
// hardened wire decoders (net/wire.h). A malformed frame header poisons
// the stream (framing is lost), so the connection is answered with one
// kCorrupted error frame and closed; a well-framed but malformed payload
// only fails that request.

#ifndef IMAGEPROOF_NET_SERVER_H_
#define IMAGEPROOF_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/query_engine.h"
#include "net/socket.h"
#include "net/wire.h"

namespace imageproof::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
  size_t max_connections = 64;
  // Serve every query with ServeOptions::settle_exact_topk: all claimed
  // top-k scores are provably exact rather than lower bounds. Shard servers
  // behind a coordinator (shard/coordinator.h RemoteShardBackend) set this —
  // the authenticated cross-shard merge is only sound over exact scores.
  // Changes VO bytes for every query this server answers.
  bool settle_exact_topk = false;
};

class NetServer {
 public:
  // Borrows the engine; it must outlive Stop(). The engine's workers and
  // queue capacity define the serving capacity; a full queue sheds.
  explicit NetServer(core::QueryEngine* engine, ServerOptions options = {});
  ~NetServer();  // calls Stop()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Enables kInsert/kDelete frames, re-signing with `owner_key` (borrowed;
  // must outlive Stop()). Call before Start().
  void EnableUpdates(const crypto::RsaPrivateKey* owner_key);

  // Asynchronous producer of composite (sharded) responses for version-2
  // queries carrying kFrameFlagComposite — typically
  // shard::Coordinator::QueryAsync. The handler MUST NOT block the calling
  // thread (it runs on the poll thread): hand the work to its own executor
  // and invoke `done` exactly once from any thread with the serialized
  // composite bytes or an error status. Call before Start(). Without a
  // handler, composite queries answer kBadRequest.
  using CompositeHandler = std::function<void(
      std::vector<std::vector<float>> features, size_t k, bool compress_vo,
      uint32_t deadline_ms, std::function<void(Result<Bytes>)> done)>;
  void EnableComposite(CompositeHandler handler);

  // Binds + listens, then spawns the poll and update threads. On success
  // port() is the live port.
  Status Start();

  // Stops accepting, closes every connection, joins the threads. Responses
  // still in flight inside the engine are dropped (the peer sees a closed
  // connection — indistinguishable from a crash, which is the point: the
  // client's only trust anchor is verification, not server goodbyes).
  // Idempotent.
  void Stop();

  // Graceful shutdown, the SIGTERM path: stop accepting connections,
  // answer every further query/update frame with a kUnavailable
  // ("server draining") error frame, let responses already inside the
  // engine or the update queue complete and flush to their peers, then
  // Stop(). Returns once drained or after `timeout` (whichever first —
  // on timeout the remaining in-flight responses are dropped exactly as
  // in Stop()). Clients never see a torn reply from a drain: a response
  // either flushes whole or the connection closes at a frame boundary.
  // Idempotent; safe to race with Stop().
  void Drain(std::chrono::milliseconds timeout = std::chrono::seconds(5));

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  uint16_t port() const { return port_; }

  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  // over max_connections
    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t protocol_errors = 0;  // corrupt frames / payloads received
    uint64_t drains = 0;            // Drain() calls that began draining
    uint64_t frames_rejected_draining = 0;  // work refused while draining
    uint64_t conns_reset_by_fault = 0;      // net.conn.reset firings
  };
  Counters counters() const;

 private:
  struct Conn {
    uint64_t id = 0;
    Socket sock;
    Bytes read_buf;
    Bytes write_buf;  // framed bytes awaiting send
    size_t write_off = 0;
    bool close_after_flush = false;
  };

  // Completion-side state shared with engine-worker callbacks. Outlives
  // the server object itself (callbacks hold a shared_ptr), so a response
  // completing after Stop() is dropped instead of touching freed state.
  struct Outbox {
    std::mutex mu;
    std::deque<std::pair<uint64_t, Bytes>> ready;  // conn id -> framed bytes
    int wake_fd = -1;  // write end of the poll thread's self-pipe
    bool closed = false;

    // Called from any thread; wakes the poll loop. Drops silently once
    // closed.
    void Push(uint64_t conn_id, Bytes frame);
  };

  struct UpdateTask {
    uint64_t conn_id = 0;
    bool is_insert = false;
    InsertRequest insert;
    DeleteRequest del;
  };

  void PollLoop();
  void UpdateLoop();
  void AcceptNew();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void DispatchFrame(Conn* conn, const FrameHeader& header,
                     const Bytes& payload);
  void HandleQuery(Conn* conn, const FrameHeader& header, const Bytes& payload);
  // Appends a frame to the connection's write buffer (poll thread only).
  void SendFrame(Conn* conn, FrameType type, const Bytes& payload);
  void SendError(Conn* conn, WireError code, const std::string& message);
  void DrainOutbox();
  void CloseConn(uint64_t id);
  // Poll thread, while draining: signals Drain() once no response is
  // pending in the engine/update queue/outbox and every write buffer has
  // flushed.
  void MaybeFinishDrain();

  core::QueryEngine* engine_;
  ServerOptions options_;
  const crypto::RsaPrivateKey* owner_key_ = nullptr;
  CompositeHandler composite_handler_;

  Socket listen_sock_;
  uint16_t port_ = 0;
  int pipe_rd_ = -1;  // self-pipe read end (poll thread)
  std::shared_ptr<Outbox> outbox_;

  std::thread poll_thread_;
  std::thread update_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  // Responses owed to peers: incremented at admission (query handed to the
  // engine, update queued), decremented when the framed reply reaches a
  // connection write buffer. Drain completion requires zero.
  std::atomic<uint64_t> pending_replies_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool drained_ = false;  // guarded by drain_mu_
  bool started_ = false;
  std::mutex lifecycle_mu_;  // guards Start/Stop transitions

  std::map<uint64_t, std::unique_ptr<Conn>> conns_;  // poll thread only
  uint64_t next_conn_id_ = 1;

  std::mutex update_mu_;
  std::condition_variable update_cv_;
  std::deque<UpdateTask> update_queue_;

  // Counters are written by the poll/update threads, read from anywhere.
  obs::Counter connections_accepted_;
  obs::Counter connections_rejected_;
  obs::Counter frames_in_;
  obs::Counter frames_out_;
  obs::Counter bytes_in_;
  obs::Counter bytes_out_;
  obs::Counter protocol_errors_;
  obs::Counter drains_;
  obs::Counter frames_rejected_draining_;
  obs::Counter conns_reset_by_fault_;
};

}  // namespace imageproof::net

#endif  // IMAGEPROOF_NET_SERVER_H_
