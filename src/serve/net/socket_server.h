// The network front door of serve::EstimatorServer: listeners + sharded
// event loops + per-connection framing, turning the in-process line
// protocol into a real byte-stream service on TCP and unix-domain sockets.
//
//   SocketServer net(&server);                  // config from LC_SERVE_* env
//   LC_CHECK(net.Start().ok());
//   ... serve until told otherwise ...
//   net.Shutdown();      // answers everything accepted, then closes
//   server.Shutdown();
//
// The transport is sharded across LC_SERVE_LOOPS event-loop threads
// (default: min(hardware concurrency, 4)); each loop owns a disjoint set
// of fds, so the single-owner invariant of event_loop.h holds per loop and
// the read/write path needs no new locking. Accept distribution:
//
//   - TCP endpoints bind one SO_REUSEPORT listener PER loop to the same
//     address; the kernel spreads incoming connections across the loops.
//   - Unix-domain endpoints (no SO_REUSEPORT semantics) keep one listener
//     on loop 0, which round-robins accepted fds to the other loops via
//     EventLoop::Post — the connection object is created and registered on
//     its owning loop, never touched by loop 0 again.
//
// A Connection stays pinned to exactly one loop for life. Request lines
// are dispatched through EstimatorServer::HandleLineAsync (now called
// concurrently from every loop), so a batching-window reply never blocks
// any loop — the lane completion posts the response back to the owning
// loop and that loop keeps multiplexing its other connections.
//
// Shutdown drains all loops concurrently, with rendezvous barriers making
// the unix handoff safe: (1) every loop closes its listeners (no new
// connections, no new handoffs), (2) a barrier flushes handoff fds already
// posted to peer loops, (3) every loop harvests the request bytes the
// kernel already accepted on its connections and keeps running until each
// claimed line has its response on the wire (the server answers normally
// while up, or with typed Unavailable rejections once it is stopping).
// The caller returns only after EVERY loop has drained; a drain that
// exceeds the configured deadline force-closes the stragglers on all
// loops — a wedged client cannot park shutdown forever.

#ifndef LC_SERVE_NET_SOCKET_SERVER_H_
#define LC_SERVE_NET_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/net/connection.h"
#include "serve/net/event_loop.h"
#include "serve/net/listener.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace lc {
namespace serve {

class EstimatorServer;

namespace net {

/// Transport tuning. Defaults come from the LC_SERVE_* environment knobs.
struct SocketServerConfig {
  /// Endpoint specs to bind ("tcp:127.0.0.1:9753", "unix:/tmp/lc.sock");
  /// LC_SERVE_LISTEN is a comma-separated list. Start() fails when empty.
  std::vector<std::string> listen;
  /// Event-loop shard count (LC_SERVE_LOOPS; 0 = auto, resolving to
  /// min(hardware concurrency, 4)). TCP endpoints bind one SO_REUSEPORT
  /// listener per loop; unix endpoints accept on loop 0 and hand fds off
  /// round-robin. 1 reproduces the pre-sharding single-loop server.
  int loops = 0;
  /// Most connections accepted per listener readiness event
  /// (LC_SERVE_ACCEPT_BATCH, default 16). Bounds how long an accept flood
  /// can starve a loop's connection handlers; the level-triggered poller
  /// re-reports the listener while the backlog is non-empty, so nothing
  /// is lost when the batch cap is hit.
  int accept_batch = 16;
  /// Longest accepted request line in bytes (LC_SERVE_MAX_LINE, default
  /// 65536). Longer lines get one ERR and are discarded to the newline.
  size_t max_line = 1 << 16;
  /// Close connections quiet for this long that owe no responses
  /// (LC_SERVE_IDLE_TIMEOUT_MS, default 60000; 0 disables reaping).
  int64_t idle_timeout_ms = 60000;
  /// Period of the serve::Stats log line (LC_SERVE_STATS_INTERVAL_MS,
  /// default 10000; 0 disables). Emitted by loop 0 only.
  int64_t stats_interval_ms = 10000;
  /// Per-connection unsent-output bound before reads pause
  /// (LC_SERVE_WRITE_BUFFER, default 1 MiB).
  size_t write_high_water = 1 << 20;
  /// listen(2) backlog (per listener).
  int backlog = 128;
  /// Shutdown drain deadline before stragglers are force-closed
  /// (LC_SERVE_DRAIN_TIMEOUT_MS, default 30000). One deadline for the
  /// whole concurrent multi-loop drain, not one per loop.
  int64_t drain_timeout_ms = 30000;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Mainly
  /// for tests that need to provoke write backpressure deterministically.
  int so_sndbuf = 0;

  static SocketServerConfig FromEnv();
};

class SocketServer {
 public:
  /// Borrows `server`, which must outlive this object. Call Start() to go
  /// live; the destructor runs Shutdown().
  explicit SocketServer(EstimatorServer* server,
                        SocketServerConfig config = SocketServerConfig::FromEnv());
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds every configured endpoint (one listener per loop for TCP, one
  /// total for unix) and starts the loop threads. On any bind failure
  /// nothing is left running and the error names the endpoint.
  Status Start();

  /// Stops accepting on every loop, answers every accepted request line,
  /// flushes, closes every connection, and joins all loop threads (see
  /// the drain protocol in the header comment). Idempotent. The
  /// EstimatorServer should still be alive (its lanes complete the
  /// in-flight requests); calling after server shutdown also works — every
  /// drained line is then answered with the typed shutdown rejection.
  void Shutdown() LC_EXCLUDES(drain_mu_);

  /// Actual bound endpoints, one per configured spec (ephemeral TCP ports
  /// resolved; the per-loop SO_REUSEPORT listeners share it). Valid after
  /// a successful Start().
  std::vector<Endpoint> endpoints() const;

  /// Resolved shard count. Valid after a successful Start().
  int loops() const { return loops_; }

  /// Snapshot of the transport counters (aggregated across loops).
  struct NetStats {
    uint64_t accepted = 0;
    uint64_t closed = 0;
    uint64_t reaped_idle = 0;
    uint64_t lines_in = 0;
    uint64_t responses_out = 0;
    uint64_t oversize_lines = 0;
    uint64_t read_pauses = 0;
    uint64_t write_syscalls = 0;  // sendmsg gather-writes issued.
    uint64_t handoffs = 0;  // Unix fds posted from loop 0 to a peer loop.
    uint64_t open = 0;  // accepted - closed at snapshot time.
    // Lifetime connections owned per loop (index = loop id). Sums to
    // `accepted`; the unix round-robin distribution test asserts on it.
    std::vector<uint64_t> loop_conns;
  };
  NetStats net_stats() const;

 private:
  // One event-loop shard: the loop, its thread, its listeners, and the
  // connections pinned to it. Everything except `conns` (an atomic read
  // by net_stats) is touched only by this shard's loop thread once it
  // runs (or by Start/Shutdown while it provably is not running).
  struct LoopShard {
    int index = 0;
    std::shared_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<Listener>> listeners LC_LOOP_AFFINE(loop);
    std::unordered_map<int, std::shared_ptr<Connection>>
        connections LC_LOOP_AFFINE(loop);
    std::thread thread;  // Written by Start/Shutdown only.
    // Set by this shard's drain task; gates the drained-rendezvous mark
    // so a shard is never reported drained before it began draining.
    bool drain_started LC_LOOP_AFFINE(loop) = false;
    std::atomic<uint64_t> conns{0};  // Lifetime connections owned.
  };

  void OnListenerReadable(LoopShard* shard, Listener* listener);
  // Wraps `fd` in a Connection owned by `shard`; runs on its loop thread.
  void AdoptFd(LoopShard* shard, int fd);
  // fd exhaustion: unwatch the listener (a level-triggered poller would
  // spin on it) and re-arm via a backoff timer. Owning loop thread only.
  void PauseAccepting(LoopShard* shard, Listener* listener);
  void ResumeAccepting(LoopShard* shard, Listener* listener);
  void ArmIdleTimer(LoopShard* shard);  // Per loop: each reaps its own.
  void ArmStatsTimer();                 // Loop 0 only: one line, not N.
  // Posts a no-op to every loop and waits until all ran it: everything
  // posted to any loop before the barrier has executed once it returns.
  void RendezvousAllLoops();
  void MarkLoopDrainedIfDone(LoopShard* shard)
      LC_EXCLUDES(drain_mu_) LC_ON_LOOP;

  EstimatorServer* const server_;
  const SocketServerConfig config_;
  int loops_ = 1;  // Resolved from config_.loops at Start().
  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::vector<Endpoint> resolved_;  // One per configured spec.
  // Round-robin cursor for the unix accept handoff, owned by loop 0's
  // accept path.
  size_t next_handoff_ LC_LOOP_AFFINE(shards_[0]) = 0;
  NetCounters counters_;

  // Owner-thread state: Start and Shutdown run on the thread that owns
  // this object (Start refuses to run twice, Shutdown is idempotent from
  // that same owner).
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;

  // The shutdown rendezvous: loop threads mark themselves drained, the
  // owner blocks until every mark landed (or the drain deadline passed).
  Mutex drain_mu_;
  CondVar drain_cv_;
  std::vector<bool> loop_drained_ LC_GUARDED_BY(drain_mu_);
  size_t undrained_loops_ LC_GUARDED_BY(drain_mu_) = 0;
};

}  // namespace net
}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_NET_SOCKET_SERVER_H_
