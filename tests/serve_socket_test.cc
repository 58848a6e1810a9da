// Protocol torture tests for the socket transport (serve/net): a real
// client on the other end of a TCP or unix-domain byte stream, exercising
// everything the in-process tests cannot see:
//  - framing over the wire: single-byte dribbles and pipelined bursts must
//    reassemble into exactly the same request lines, answered in order;
//  - bit-match: estimates served over a socket are byte-for-byte the
//    estimates of a direct EstimateAll over the same queries;
//  - hostile streams: mid-line disconnects, oversize lines (one ERR, then
//    resync), all without disturbing other connections;
//  - ADMIN verbs over the wire during a live copy-train-swap retrain;
//  - shutdown drain: every request line the kernel accepted is answered
//    (or typed-rejected) and flushed before the connection closes, even
//    with a retrain in flight;
//  - lifetime seams: a lane completion that outlives the transport (its
//    connection force-closed at the drain deadline, its queue entry
//    resolved by EstimatorServer::Shutdown afterwards) must not touch the
//    destroyed event loop;
//  - fd exhaustion: an accept that hits EMFILE pauses the listener (no
//    level-triggered spin) and recovers once descriptors free up;
//  - idle reaping and write backpressure (a client that will not read its
//    responses pauses its own reads instead of growing server memory);
//  - Stats coherence with traffic arriving concurrently from Submit
//    callers and socket connections (the received == Σ buckets invariant);
//  - multi-loop sharding (the MultiLoop* and UnixHandoff* tests force
//    LC_SERVE_LOOPS=4): bit-match and ordered pipelining with connections
//    spread across 4 event loops, the unix accept-and-hand-off round-robin
//    actually distributing, concurrent per-loop drain at shutdown, and the
//    stats invariant staying exact with N loops feeding the server at once.
//
// Runs under TSan in CI (the ci.yml tsan job), both at LC_SERVE_LOOPS=1
// and LC_SERVE_LOOPS=4: the event loops, the lane completions crossing
// into connection slots, the unix fd handoff, and the counters are the
// synchronization under test. The whole legacy suite also honors
// LC_SERVE_LOOPS via NetConfig, so the 4-loop CI run re-exercises every
// single-loop scenario on the sharded transport.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "serve/net/socket_server.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/str.h"
#include "workload/generator.h"

namespace lc {
namespace {

using serve::net::Endpoint;
using serve::net::SocketServer;
using serve::net::SocketServerConfig;

// ---------------------------------------------------------------------------
// A minimal blocking line client: the other side of the protocol.

class LineClient {
 public:
  static LineClient Connect(const Endpoint& endpoint) {
    int fd = -1;
    if (endpoint.kind == Endpoint::Kind::kTcp) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      EXPECT_GE(fd, 0);
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(endpoint.port));
      EXPECT_EQ(inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr), 1);
      EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)),
                0)
          << strerror(errno);
    } else {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      EXPECT_GE(fd, 0);
      sockaddr_un addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, endpoint.path.c_str(),
                   sizeof(addr.sun_path) - 1);
      EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)),
                0)
          << strerror(errno);
    }
    // A stuck server must fail the test, not hang it.
    timeval timeout;
    timeout.tv_sec = 30;
    timeout.tv_usec = 0;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return LineClient(fd);
  }

  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient() { Close(); }
  LineClient(LineClient&& other) noexcept : fd_(other.fd_) {
    buffer_.swap(other.buffer_);
    other.fd_ = -1;
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void SendAll(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << strerror(errno);
      sent += static_cast<size_t>(n);
    }
  }

  /// One response line (newline stripped); false on EOF or timeout.
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::vector<std::string> ReadLines(size_t count) {
    std::vector<std::string> lines;
    std::string line;
    while (lines.size() < count && ReadLine(&line)) {
      lines.push_back(line);
    }
    return lines;
  }

  /// Reads until the server closes; returns every line seen.
  std::vector<std::string> ReadUntilEof() {
    std::vector<std::string> lines;
    std::string line;
    while (ReadLine(&line)) lines.push_back(line);
    return lines;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  std::string buffer_;
};

bool WaitFor(const std::function<bool()>& done, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

std::string UnixPath(const char* tag) {
  return "/tmp/lc_sock_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

SocketServerConfig NetConfig(std::vector<std::string> listen) {
  SocketServerConfig config;
  config.listen = std::move(listen);
  config.idle_timeout_ms = 0;   // Tests that reap opt in explicitly.
  config.stats_interval_ms = 0; // Tests that log opt in explicitly.
  config.drain_timeout_ms = 20000;
  // Honor the loop-count knob so CI can run this whole suite with the
  // transport sharded across 4 loops.
  config.loops = static_cast<int>(GetEnvInt("LC_SERVE_LOOPS", 1));
  return config;
}

double ParseEstimate(const std::string& line) {
  EXPECT_TRUE(StartsWith(line, "EST ")) << line;
  std::string_view text = std::string_view(line).substr(4);
  text = text.substr(0, text.find(' '));
  double value = 0.0;
  EXPECT_TRUE(ParseDouble(text, &value).ok()) << line;
  return value;
}

// ---------------------------------------------------------------------------
// Shared fixture: one trained model for the whole suite.

ImdbConfig SmallImdb() {
  ImdbConfig config;
  config.seed = 91;
  config.num_titles = 1500;
  config.num_companies = 250;
  config.num_persons = 1000;
  config.num_keywords = 300;
  return config;
}

class ServeSocketTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(GenerateImdb(SmallImdb()));
    executor_ = new Executor(db_);
    samples_ = new SampleSet(db_, 32, 5);

    GeneratorConfig gen_config;
    gen_config.seed = 17;
    QueryGenerator generator(db_, gen_config);
    workload_ = new Workload(
        generator.GenerateLabeled(*executor_, *samples_, 80, "socket-test"));

    MscnConfig config;
    config.hidden_units = 16;
    config.epochs = 2;
    config.batch_size = 32;
    config.seed = 7;
    featurizer_ = new Featurizer(db_, config.variant, samples_->sample_size());
    Trainer trainer(featurizer_, config);
    std::vector<const LabeledQuery*> pointers;
    for (const LabeledQuery& query : workload_->queries) {
      pointers.push_back(&query);
    }
    model_ = new MscnModel(trainer.Train(pointers, {}, nullptr));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete featurizer_;
    delete workload_;
    delete samples_;
    delete executor_;
    delete db_;
    model_ = nullptr;
    featurizer_ = nullptr;
    workload_ = nullptr;
    samples_ = nullptr;
    executor_ = nullptr;
    db_ = nullptr;
  }

  static std::vector<const LabeledQuery*> QueryPointers(size_t count) {
    std::vector<const LabeledQuery*> pointers;
    for (size_t i = 0; i < count && i < workload_->queries.size(); ++i) {
      pointers.push_back(&workload_->queries[i]);
    }
    return pointers;
  }

  static Database* db_;
  static Executor* executor_;
  static SampleSet* samples_;
  static Workload* workload_;
  static Featurizer* featurizer_;
  static MscnModel* model_;
};

Database* ServeSocketTest::db_ = nullptr;
Executor* ServeSocketTest::executor_ = nullptr;
SampleSet* ServeSocketTest::samples_ = nullptr;
Workload* ServeSocketTest::workload_ = nullptr;
Featurizer* ServeSocketTest::featurizer_ = nullptr;
MscnModel* ServeSocketTest::model_ = nullptr;

// ---------------------------------------------------------------------------

TEST_F(ServeSocketTest, TcpAndUnixServeBitIdenticalToDirectEstimateAll) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  const std::string unix_path = UnixPath("both");
  SocketServer net(&server,
                   NetConfig({"tcp:127.0.0.1:0", "unix:" + unix_path}));
  ASSERT_TRUE(net.Start().ok());
  const std::vector<Endpoint> endpoints = net.endpoints();
  ASSERT_EQ(endpoints.size(), 2u);
  ASSERT_GT(endpoints[0].port, 0);  // Ephemeral port resolved.

  const size_t kCount = 24;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 8);

  for (const Endpoint& endpoint : endpoints) {
    LineClient client = LineClient::Connect(endpoint);
    for (size_t i = 0; i < kCount; ++i) {
      client.SendAll(pointers[i]->query.Serialize() + "\n");
      std::string line;
      ASSERT_TRUE(client.ReadLine(&line)) << endpoint.ToString();
      EXPECT_EQ(ParseEstimate(line), direct[i])
          << "socket path diverged from EstimateAll at query " << i
          << " over " << endpoint.ToString();
    }
  }

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, SingleByteDribbleAndPipelinedBurstAnswerInOrder) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.window_us = 100;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net_server(&server, [] {
    SocketServerConfig net_config = NetConfig({"tcp:127.0.0.1:0"});
    net_config.stats_interval_ms = 50;  // Exercise the periodic stats line.
    return net_config;
  }());
  ASSERT_TRUE(net_server.Start().ok());
  LineClient client = LineClient::Connect(net_server.endpoints()[0]);

  const size_t kDistinct = 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kDistinct);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 8);

  // Dribble: the request arrives one byte at a time, CRLF-terminated.
  const std::string dribbled = pointers[0]->query.Serialize() + "\r\n";
  for (char byte : dribbled) {
    client.SendAll(std::string_view(&byte, 1));
  }
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(ParseEstimate(line), direct[0]);

  // Pipelined burst: 32 requests in ONE write. Cache hits complete inline
  // while misses wait out the batching window on a lane, so responses can
  // FINISH out of order — the wire order must still match request order.
  const size_t kBurst = 32;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += pointers[i % kDistinct]->query.Serialize() + "\n";
  }
  client.SendAll(burst);
  const std::vector<std::string> responses = client.ReadLines(kBurst);
  ASSERT_EQ(responses.size(), kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(ParseEstimate(responses[i]), direct[i % kDistinct])
        << "pipelined response " << i << " out of order";
  }

  // Let the stats timer fire at least once while the connection is live.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_GE(net_server.net_stats().lines_in, kBurst + 1);

  net_server.Shutdown();
  server.Shutdown();
}

// The gather-write contract: a pipelined burst whose responses are all
// ready together goes to the wire in O(1) sendmsg calls, not one per
// response. Cache-warmed requests complete inline on the loop thread while
// the burst is still being framed, so the whole batch is ready when the
// single post-read flush runs — the syscall delta across the burst is the
// observable proof of both the iovec gather and the flush coalescing.
TEST_F(ServeSocketTest, GatherWriteFlushesPipelinedBurstInFewSyscalls) {
  MscnEstimator estimator(featurizer_, model_, "MSCN",
                          /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net(&server, NetConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());
  LineClient client = LineClient::Connect(net.endpoints()[0]);

  // Warm the estimator cache so every burst line is an admission cache hit
  // (completes inline during the read drain, never waits on a lane).
  const size_t kDistinct = 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kDistinct);
  for (size_t i = 0; i < kDistinct; ++i) {
    client.SendAll(pointers[i]->query.Serialize() + "\n");
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
  }

  const SocketServer::NetStats before = net.net_stats();
  const size_t kBurst = 64;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += pointers[i % kDistinct]->query.Serialize() + "\n";
  }
  client.SendAll(burst);
  const std::vector<std::string> responses = client.ReadLines(kBurst);
  ASSERT_EQ(responses.size(), kBurst);

  // Every response received implies every sendmsg already happened.
  const SocketServer::NetStats after = net.net_stats();
  EXPECT_EQ(after.responses_out - before.responses_out, kBurst);
  const uint64_t syscalls = after.write_syscalls - before.write_syscalls;
  EXPECT_GE(syscalls, 1u);
  // One flush per read(2) chunk of the burst plus slack; without the
  // gather this would be ~kBurst.
  EXPECT_LE(syscalls, 6u) << "gather-write regressed: " << syscalls
                          << " syscalls for " << kBurst << " responses";

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, MidLineDisconnectLeavesServerServing) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 1;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net(&server, NetConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());
  const Endpoint endpoint = net.endpoints()[0];

  {
    // Half a request line, then a hard disconnect: the partial line is
    // abandoned, never answered, never counted.
    LineClient victim = LineClient::Connect(endpoint);
    victim.SendAll("T:0,1|J:0|P");
    ASSERT_TRUE(WaitFor([&] { return net.net_stats().accepted >= 1; }));
    victim.Close();
  }
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().closed >= 1; }));
  EXPECT_EQ(net.net_stats().lines_in, 0u);

  // The server keeps serving new connections as if nothing happened.
  LineClient client = LineClient::Connect(endpoint);
  const LabeledQuery* query = QueryPointers(1)[0];
  client.SendAll(query->query.Serialize() + "\n");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(StartsWith(line, "EST ")) << line;

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, OversizeLineDrawsOneErrThenConnectionRecovers) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 1;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServerConfig net_config = NetConfig({"tcp:127.0.0.1:0"});
  net_config.max_line = 64;
  SocketServer net(&server, net_config);
  ASSERT_TRUE(net.Start().ok());
  LineClient client = LineClient::Connect(net.endpoints()[0]);

  const LabeledQuery* query = QueryPointers(1)[0];
  // One 200-byte monster (spanning several dribbled sends), then a valid
  // request on the SAME connection: exactly one ERR, then a normal EST.
  const std::string monster(200, 'x');
  client.SendAll(monster.substr(0, 50));
  client.SendAll(monster.substr(50));
  std::string tail = "\n";
  tail += query->query.Serialize();
  tail += '\n';
  client.SendAll(tail);

  const std::vector<std::string> responses = client.ReadLines(2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(StartsWith(responses[0], "ERR InvalidArgument")) << responses[0];
  EXPECT_NE(responses[0].find("exceeds"), std::string::npos) << responses[0];
  EXPECT_TRUE(StartsWith(responses[1], "EST ")) << responses[1];
  EXPECT_EQ(net.net_stats().oversize_lines, 1u);

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, AdminVerbsOverSocketDuringLiveCopyTrainSwap) {
  MscnModel base = *model_;  // Private copy: the retrain swaps models.
  MscnEstimator estimator(featurizer_, &base, "MSCN", /*cache_capacity=*/128);
  MscnConfig train_config;
  train_config.hidden_units = 16;
  train_config.epochs = 1;
  train_config.batch_size = 32;
  train_config.seed = 7;
  Trainer trainer(featurizer_, train_config);

  const size_t kCount = 24;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  std::vector<double> before(kCount);
  {
    MscnEstimator direct(featurizer_, &base, "direct", /*cache_capacity=*/0);
    before = direct.EstimateAll(pointers, 8);
  }

  serve::ServerConfig config;
  config.lanes = 2;
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  std::atomic<size_t> traffic{0};
  server.set_retrain_fn([&] {
    // Hold the retrain window open until requests demonstrably flowed
    // through it over the socket.
    while (traffic.load(std::memory_order_acquire) < 5) {
      std::this_thread::yield();
    }
    auto fresh = trainer.TrainClone(*estimator.model_snapshot(), pointers, {},
                                    1, nullptr);
    estimator.SwapModel(std::move(fresh));
    return Status::OK();
  });

  SocketServer net(&server, NetConfig({"unix:" + UnixPath("retrain")}));
  ASSERT_TRUE(net.Start().ok());
  LineClient client = LineClient::Connect(net.endpoints()[0]);

  // Kick the retrain over the wire, interleaved with live traffic.
  client.SendAll("ADMIN RETRAIN\n");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(StartsWith(line, "OK")) << line;

  std::vector<double> observed;
  std::vector<size_t> picks;
  size_t i = 0;
  while (server.retrain_in_flight()) {
    const size_t pick = i++ % kCount;
    client.SendAll(pointers[pick]->query.Serialize() + "\n");
    ASSERT_TRUE(client.ReadLine(&line));
    ASSERT_TRUE(StartsWith(line, "EST ")) << line;
    observed.push_back(ParseEstimate(line));
    picks.push_back(pick);
    traffic.fetch_add(1, std::memory_order_release);
  }
  EXPECT_GT(observed.size(), 0u);

  std::vector<double> after(kCount);
  {
    MscnEstimator direct(featurizer_, estimator.model_snapshot(), "direct",
                         /*cache_capacity=*/0);
    after = direct.EstimateAll(pointers, 8);
  }
  // Every response served mid-retrain belongs wholly to one published
  // model.
  for (size_t j = 0; j < observed.size(); ++j) {
    EXPECT_TRUE(observed[j] == before[picks[j]] ||
                observed[j] == after[picks[j]])
        << "socket request " << j << " observed a torn model: " << observed[j];
  }

  // STATS over the wire answers one OK line, and a second RETRAIN after
  // completion works too (the single-flight gate reopened).
  client.SendAll("ADMIN STATS\n");
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(StartsWith(line, "OK ")) << line;
  EXPECT_NE(line.find("swaps=1"), std::string::npos) << line;

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, ShutdownDrainsEveryAcceptedPipelinedLine) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 2;
  config.queue_capacity = 256;
  config.window_us = 100;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net(&server, NetConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());
  LineClient client = LineClient::Connect(net.endpoints()[0]);

  // Fire a pipelined burst and shut the transport down as soon as every
  // line has been framed server-side — the drain contract says each one
  // still gets its response (estimate or typed rejection), then EOF.
  const size_t kBurst = 64;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(8);
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += pointers[i % pointers.size()]->query.Serialize() + "\n";
  }
  client.SendAll(burst);
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().lines_in >= kBurst; }));

  net.Shutdown();

  const std::vector<std::string> responses = client.ReadUntilEof();
  ASSERT_EQ(responses.size(), kBurst)
      << "shutdown dropped accepted request lines";
  for (const std::string& response : responses) {
    EXPECT_TRUE(StartsWith(response, "EST ") ||
                StartsWith(response, "ERR Unavailable"))
        << response;
  }
  EXPECT_EQ(net.net_stats().open, 0u);

  server.Shutdown();
}

TEST_F(ServeSocketTest, ShutdownDuringRetrainStillDrains) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);

  // A retrain hook gated on a promise: the transport shuts down while the
  // retrain is provably still in flight.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.set_retrain_fn([released] {
    released.wait();
    return Status::OK();
  });

  SocketServer net(&server, NetConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());
  LineClient client = LineClient::Connect(net.endpoints()[0]);

  const std::vector<const LabeledQuery*> pointers = QueryPointers(4);
  std::string burst = "ADMIN RETRAIN\n";
  for (const LabeledQuery* pointer : pointers) {
    burst += pointer->query.Serialize() + "\n";
  }
  client.SendAll(burst);
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().lines_in >= 5; }));
  ASSERT_TRUE(WaitFor([&] { return server.retrain_in_flight(); }));

  std::thread shutdown_thread([&] { net.Shutdown(); });
  // The socket drain must complete without waiting for the retrain.
  const std::vector<std::string> responses = client.ReadUntilEof();
  shutdown_thread.join();
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(StartsWith(responses[0], "OK")) << responses[0];
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_TRUE(StartsWith(responses[i], "EST ") ||
                StartsWith(responses[i], "ERR Unavailable"))
        << responses[i];
  }
  EXPECT_TRUE(server.retrain_in_flight());

  release.set_value();
  server.Shutdown();  // Joins the retrain thread.
  EXPECT_FALSE(server.retrain_in_flight());
}

TEST_F(ServeSocketTest, LateLaneCompletionAfterTransportShutdownIsDropped) {
  // Regression: a connection force-closed at the drain deadline leaves its
  // queue entry holding a completion into the (now torn down) transport.
  // When EstimatorServer::Shutdown later resolves that entry, the
  // completion must drop its flush instead of posting to the destroyed
  // event loop (a use-after-free under ASan/TSan before the weak-loop fix).
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 0;  // Requests queue; only server.Shutdown() resolves them.
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServerConfig net_config = NetConfig({"tcp:127.0.0.1:0"});
  net_config.drain_timeout_ms = 100;  // Force-close quickly: the slot can
                                      // never become ready without lanes.
  SocketServer net(&server, net_config);
  ASSERT_TRUE(net.Start().ok());

  LineClient client = LineClient::Connect(net.endpoints()[0]);
  client.SendAll(QueryPointers(1)[0]->query.Serialize() + "\n");
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().lines_in >= 1; }));

  net.Shutdown();  // Drain deadline passes; the connection is force-closed.
  std::string line;
  EXPECT_FALSE(client.ReadLine(&line)) << "unexpected response: " << line;
  EXPECT_EQ(net.net_stats().open, 0u);

  // Resolves the still-queued entry via its done() callback, which now
  // runs against a transport whose loop is gone.
  server.Shutdown();
}

TEST_F(ServeSocketTest, FdExhaustionPausesAcceptsAndRecovers) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 1;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net(&server, NetConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());

  // Clamp the fd table so the client's own socket fits but the server-side
  // accept does not: the probe fd is the lowest free slot, the client
  // connect consumes it, and the accept needs one more.
  rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  const int probe = ::dup(0);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit tight = old_limit;
  tight.rlim_cur = static_cast<rlim_t>(probe + 1);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

  // The kernel completes the handshake into the backlog regardless of
  // accept, so connect and send succeed; the request bytes wait in the
  // socket buffer until the listener resumes.
  LineClient client = LineClient::Connect(net.endpoints()[0]);
  client.SendAll(QueryPointers(1)[0]->query.Serialize() + "\n");

  // Give the loop a beat to hit EMFILE and pause; the connection cannot
  // have been accepted — there is no descriptor for it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(net.net_stats().accepted, 0u);

  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  // The backoff timer re-arms the listener and the pending connection is
  // served as if nothing happened.
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().accepted >= 1; }));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(StartsWith(line, "EST ")) << line;

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, IdleConnectionsAreReaped) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 1;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServerConfig net_config = NetConfig({"tcp:127.0.0.1:0"});
  net_config.idle_timeout_ms = 50;
  SocketServer net(&server, net_config);
  ASSERT_TRUE(net.Start().ok());

  LineClient idle = LineClient::Connect(net.endpoints()[0]);
  // The reaper closes the quiet connection: the client observes EOF.
  std::string line;
  EXPECT_FALSE(idle.ReadLine(&line));
  EXPECT_TRUE(WaitFor([&] { return net.net_stats().reaped_idle >= 1; }));

  // A live connection with traffic is not reaped mid-conversation, and new
  // connections keep working after the reap.
  LineClient active = LineClient::Connect(net.endpoints()[0]);
  const LabeledQuery* query = QueryPointers(1)[0];
  for (int round = 0; round < 3; ++round) {
    active.SendAll(query->query.Serialize() + "\n");
    ASSERT_TRUE(active.ReadLine(&line));
    EXPECT_TRUE(StartsWith(line, "EST ")) << line;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, WriteBackpressurePausesReadsWithoutLosingResponses) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.queue_capacity = 2048;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServerConfig net_config = NetConfig({"tcp:127.0.0.1:0"});
  // A tiny kernel send buffer plus a low high-water mark make the pause
  // deterministic: the client refuses to read, the kernel buffer fills,
  // the userspace buffer crosses high water, reads stop.
  net_config.so_sndbuf = 4096;
  net_config.write_high_water = 2048;
  SocketServer net(&server, net_config);
  ASSERT_TRUE(net.Start().ok());

  const size_t kDistinct = 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kDistinct);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 8);

  // Warm the cache so the blast below completes inline on the loop thread
  // (maximum pressure on the writer, no batching-window pacing).
  {
    LineClient warm = LineClient::Connect(net.endpoints()[0]);
    for (size_t i = 0; i < kDistinct; ++i) {
      warm.SendAll(pointers[i]->query.Serialize() + "\n");
      std::string line;
      ASSERT_TRUE(warm.ReadLine(&line));
    }
  }

  LineClient blaster = LineClient::Connect(net.endpoints()[0]);
  const size_t kBlast = 1500;
  std::string blast;
  for (size_t i = 0; i < kBlast; ++i) {
    blast += pointers[i % kDistinct]->query.Serialize() + "\n";
  }
  // Write from a helper thread: with the server's reads paused the blast
  // itself can block once the kernel buffers fill, and that is exactly the
  // point — the main thread must stay free to observe the pause and then
  // drain the responses (which releases the writer).
  std::thread writer([&] { blaster.SendAll(blast); });
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().read_pauses > 0; }))
      << "backpressure never engaged (read_pauses stayed 0)";

  // Now read everything: the pause must release and every response must
  // arrive, in order, with the right bits.
  const std::vector<std::string> responses = blaster.ReadLines(kBlast);
  writer.join();
  ASSERT_EQ(responses.size(), kBlast);
  for (size_t i = 0; i < kBlast; ++i) {
    ASSERT_EQ(ParseEstimate(responses[i]), direct[i % kDistinct])
        << "response " << i << " wrong or out of order under backpressure";
  }

  net.Shutdown();
  server.Shutdown();
}

// The Stats coherence satellite: with traffic arriving concurrently from
// in-process Submit callers and socket connections — including malformed
// query lines and malformed ADMIN verbs — every received request lands in
// exactly one outcome bucket. Regression for the double-count bug where a
// bad admin verb bumped both admin_requests and rejected_malformed.
TEST_F(ServeSocketTest, StatsStayCoherentUnderMixedSubmitAndSocketTraffic) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.queue_capacity = 4096;  // Overload shedding off: determinism.
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net(&server, NetConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());
  const Endpoint endpoint = net.endpoints()[0];

  const std::vector<const LabeledQuery*> pointers = QueryPointers(8);
  const size_t kPerThread = 60;
  const size_t kSubmitThreads = 2;
  const size_t kSocketThreads = 2;

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kSubmitThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        switch (i % 3) {
          case 0:
            (void)server.Submit(pointers[(t + i) % pointers.size()]
                                    ->query.Serialize());
            break;
          case 1:
            (void)server.Submit("garbage");  // rejected_malformed.
            break;
          case 2:
            (void)server.HandleLine("ADMIN BOGUS");  // admin only.
            break;
        }
      }
    });
  }
  for (size_t t = 0; t < kSocketThreads; ++t) {
    threads.emplace_back([&, t] {
      LineClient client = LineClient::Connect(endpoint);
      std::string line;
      for (size_t i = 0; i < kPerThread; ++i) {
        switch (i % 4) {
          case 0:
            client.SendAll(pointers[(t + i) % pointers.size()]
                               ->query.Serialize() +
                           "\n");
            break;
          case 1:
            client.SendAll("T:1x|J:|P:\n");  // rejected_malformed.
            break;
          case 2:
            client.SendAll("ADMIN STATS\n");  // admin.
            break;
          case 3:
            client.SendAll("ADMIN \n");  // Malformed verb: admin ONLY.
            break;
        }
        ASSERT_TRUE(client.ReadLine(&line));
        ASSERT_FALSE(line.empty());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const serve::Stats stats = server.GetStats();
  const uint64_t kTotal = (kSubmitThreads + kSocketThreads) * kPerThread;
  EXPECT_EQ(stats.received, kTotal);
  EXPECT_EQ(stats.received,
            stats.served + stats.rejected_malformed +
                stats.rejected_overload + stats.rejected_shutdown +
                stats.admin_requests);
  // Exact bucket accounting (nothing double-counted): each submit thread
  // sent 20 admin lines, each socket thread 30 (15 STATS + 15 bad verbs).
  EXPECT_EQ(stats.admin_requests, kSubmitThreads * 20 + kSocketThreads * 30);
  EXPECT_EQ(stats.rejected_malformed,
            kSubmitThreads * 20 + kSocketThreads * 15);

  net.Shutdown();
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Multi-loop sharding (the PR 8 tentpole): every test below forces
// LC_SERVE_LOOPS=4 regardless of the ambient env, over tcp (SO_REUSEPORT
// kernel distribution) and unix (loop-0 accept + round-robin handoff).

SocketServerConfig FourLoopConfig(std::vector<std::string> listen) {
  SocketServerConfig config = NetConfig(std::move(listen));
  config.loops = 4;
  return config;
}

TEST_F(ServeSocketTest, MultiLoopServesBitIdenticalOverTcpAndUnix) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  const std::string unix_path = UnixPath("mloop_both");
  SocketServer net(&server,
                   FourLoopConfig({"tcp:127.0.0.1:0", "unix:" + unix_path}));
  ASSERT_TRUE(net.Start().ok());
  ASSERT_EQ(net.loops(), 4);
  const std::vector<Endpoint> endpoints = net.endpoints();
  ASSERT_EQ(endpoints.size(), 2u);  // One resolved endpoint per SPEC, not
  ASSERT_GT(endpoints[0].port, 0);  // one per SO_REUSEPORT listener.

  const size_t kCount = 24;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kCount);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 8);

  // Several connections per transport so more than one loop owns traffic.
  for (const Endpoint& endpoint : endpoints) {
    for (int round = 0; round < 4; ++round) {
      LineClient client = LineClient::Connect(endpoint);
      for (size_t i = 0; i < kCount; ++i) {
        client.SendAll(pointers[i]->query.Serialize() + "\n");
        std::string line;
        ASSERT_TRUE(client.ReadLine(&line)) << endpoint.ToString();
        EXPECT_EQ(ParseEstimate(line), direct[i])
            << "sharded socket path diverged from EstimateAll at query "
            << i << " over " << endpoint.ToString();
      }
    }
  }

  const SocketServer::NetStats stats = net.net_stats();
  ASSERT_EQ(stats.loop_conns.size(), 4u);
  uint64_t sum = 0;
  for (uint64_t per_loop : stats.loop_conns) sum += per_loop;
  EXPECT_EQ(sum, stats.accepted) << "per-loop ownership lost a connection";

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, MultiLoopPipelinedBurstsAcross64Connections) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.queue_capacity = 4096;  // No overload shedding: determinism.
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  SocketServer net(&server, FourLoopConfig({"tcp:127.0.0.1:0"}));
  ASSERT_TRUE(net.Start().ok());
  const Endpoint endpoint = net.endpoints()[0];

  const size_t kDistinct = 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(kDistinct);
  const std::vector<double> direct = estimator.EstimateAll(pointers, 8);

  // 64 concurrent connections, each with its own pipelined burst in ONE
  // write; the kernel spreads them over the 4 SO_REUSEPORT listeners.
  // Responses must come back in order and bit-exact PER CONNECTION no
  // matter which loop owns it.
  const size_t kConns = 64;
  const size_t kBurst = 16;
  std::vector<LineClient> clients;
  clients.reserve(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    clients.push_back(LineClient::Connect(endpoint));
  }
  for (size_t c = 0; c < kConns; ++c) {
    std::string burst;
    for (size_t i = 0; i < kBurst; ++i) {
      burst += pointers[(c + i) % kDistinct]->query.Serialize() + "\n";
    }
    clients[c].SendAll(burst);
  }
  for (size_t c = 0; c < kConns; ++c) {
    const std::vector<std::string> responses = clients[c].ReadLines(kBurst);
    ASSERT_EQ(responses.size(), kBurst) << "connection " << c;
    for (size_t i = 0; i < kBurst; ++i) {
      ASSERT_EQ(ParseEstimate(responses[i]), direct[(c + i) % kDistinct])
          << "connection " << c << " response " << i
          << " wrong or out of order";
    }
  }

  const SocketServer::NetStats stats = net.net_stats();
  EXPECT_EQ(stats.accepted, kConns);
  EXPECT_EQ(stats.lines_in, kConns * kBurst);
  uint64_t sum = 0;
  for (uint64_t per_loop : stats.loop_conns) sum += per_loop;
  EXPECT_EQ(sum, kConns);

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, MultiLoopDrainShutdownWithInflightPipelinesOnEveryLoop) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/0);
  serve::ServerConfig config;
  config.lanes = 2;
  config.queue_capacity = 1024;
  config.window_us = 100;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  const std::string unix_path = UnixPath("mloop_drain");
  SocketServer net(&server, FourLoopConfig({"unix:" + unix_path}));
  ASSERT_TRUE(net.Start().ok());
  const Endpoint endpoint = net.endpoints()[0];

  // 16 unix connections round-robin onto 4 loops → every loop owns 4, and
  // each carries an unanswered pipelined burst when Shutdown fires. The
  // concurrent per-loop drain must answer (or typed-reject) all of them.
  const size_t kConns = 16;
  const size_t kBurst = 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(8);
  std::vector<LineClient> clients;
  clients.reserve(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    clients.push_back(LineClient::Connect(endpoint));
  }
  for (size_t c = 0; c < kConns; ++c) {
    std::string burst;
    for (size_t i = 0; i < kBurst; ++i) {
      burst += pointers[(c + i) % pointers.size()]->query.Serialize() + "\n";
    }
    clients[c].SendAll(burst);
  }
  ASSERT_TRUE(
      WaitFor([&] { return net.net_stats().lines_in >= kConns * kBurst; }));

  // Every loop must own in-flight connections at this point.
  {
    const SocketServer::NetStats stats = net.net_stats();
    ASSERT_EQ(stats.loop_conns.size(), 4u);
    int loops_with_conns = 0;
    for (uint64_t per_loop : stats.loop_conns) {
      if (per_loop > 0) ++loops_with_conns;
    }
    EXPECT_GE(loops_with_conns, 2)
        << "unix handoff left the drain single-loop";
  }

  net.Shutdown();

  for (size_t c = 0; c < kConns; ++c) {
    const std::vector<std::string> responses = clients[c].ReadUntilEof();
    ASSERT_EQ(responses.size(), kBurst)
        << "multi-loop shutdown dropped accepted lines on connection " << c;
    for (const std::string& response : responses) {
      EXPECT_TRUE(StartsWith(response, "EST ") ||
                  StartsWith(response, "ERR Unavailable"))
          << response;
    }
  }
  EXPECT_EQ(net.net_stats().open, 0u);

  // The serve::Stats invariant holds exactly after the concurrent drain.
  const serve::Stats stats = server.GetStats();
  EXPECT_EQ(stats.received, kConns * kBurst);
  EXPECT_EQ(stats.received,
            stats.served + stats.rejected_malformed +
                stats.rejected_overload + stats.rejected_shutdown +
                stats.admin_requests);

  server.Shutdown();
}

TEST_F(ServeSocketTest, UnixHandoffRoundRobinDistributesAcrossLoops) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 1;
  config.window_us = 0;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  const std::string unix_path = UnixPath("mloop_rr");
  SocketServer net(&server, FourLoopConfig({"unix:" + unix_path}));
  ASSERT_TRUE(net.Start().ok());
  const Endpoint endpoint = net.endpoints()[0];

  // 8 connections, each proven live with one served request: the loop-0
  // accept path deals them round-robin, so with 4 loops the ownership is
  // exactly 2 per loop, and 6 of the 8 fds crossed threads (loop 0 keeps
  // its own turn in the rotation without a handoff).
  const size_t kConns = 8;
  const std::vector<const LabeledQuery*> pointers = QueryPointers(1);
  std::vector<LineClient> clients;
  clients.reserve(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    clients.push_back(LineClient::Connect(endpoint));
    clients[c].SendAll(pointers[0]->query.Serialize() + "\n");
    std::string line;
    ASSERT_TRUE(clients[c].ReadLine(&line)) << "connection " << c;
    EXPECT_TRUE(StartsWith(line, "EST ")) << line;
  }
  ASSERT_TRUE(WaitFor([&] { return net.net_stats().accepted >= kConns; }));

  const SocketServer::NetStats stats = net.net_stats();
  ASSERT_EQ(stats.loop_conns.size(), 4u);
  int loops_with_conns = 0;
  for (size_t i = 0; i < stats.loop_conns.size(); ++i) {
    if (stats.loop_conns[i] > 0) ++loops_with_conns;
    EXPECT_EQ(stats.loop_conns[i], kConns / 4)
        << "round-robin skew on loop " << i;
  }
  EXPECT_GE(loops_with_conns, 2);
  EXPECT_EQ(stats.handoffs, kConns - kConns / 4)
      << "handoff count disagrees with the rotation";

  net.Shutdown();
  server.Shutdown();
}

TEST_F(ServeSocketTest, MultiLoopStatsCoherenceUnderConcurrentTraffic) {
  MscnEstimator estimator(featurizer_, model_, "MSCN", /*cache_capacity=*/64);
  serve::ServerConfig config;
  config.lanes = 2;
  config.queue_capacity = 4096;  // Overload shedding off: determinism.
  config.window_us = 50;
  serve::EstimatorServer server(&estimator, &db_->schema(), samples_, config);
  const std::string unix_path = UnixPath("mloop_stats");
  SocketServer net(&server,
                   FourLoopConfig({"tcp:127.0.0.1:0", "unix:" + unix_path}));
  ASSERT_TRUE(net.Start().ok());
  const std::vector<Endpoint> endpoints = net.endpoints();

  // Requests now reach EstimatorServer::HandleLineAsync concurrently from
  // 4 loop threads AND in-process Submit callers; every received line must
  // still land in exactly one outcome bucket.
  const std::vector<const LabeledQuery*> pointers = QueryPointers(8);
  const size_t kPerThread = 60;
  const size_t kSubmitThreads = 2;
  const size_t kSocketThreads = 4;  // 2 per transport, fds over all loops.

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kSubmitThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        if (i % 2 == 0) {
          (void)server.Submit(
              pointers[(t + i) % pointers.size()]->query.Serialize());
        } else {
          (void)server.Submit("garbage");  // rejected_malformed.
        }
      }
    });
  }
  for (size_t t = 0; t < kSocketThreads; ++t) {
    threads.emplace_back([&, t] {
      LineClient client = LineClient::Connect(endpoints[t % 2]);
      std::string line;
      for (size_t i = 0; i < kPerThread; ++i) {
        switch (i % 3) {
          case 0:
            client.SendAll(
                pointers[(t + i) % pointers.size()]->query.Serialize() +
                "\n");
            break;
          case 1:
            client.SendAll("T:1x|J:|P:\n");  // rejected_malformed.
            break;
          case 2:
            client.SendAll("ADMIN STATS\n");  // admin.
            break;
        }
        ASSERT_TRUE(client.ReadLine(&line));
        ASSERT_FALSE(line.empty());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const serve::Stats stats = server.GetStats();
  const uint64_t kTotal = (kSubmitThreads + kSocketThreads) * kPerThread;
  EXPECT_EQ(stats.received, kTotal);
  EXPECT_EQ(stats.received,
            stats.served + stats.rejected_malformed +
                stats.rejected_overload + stats.rejected_shutdown +
                stats.admin_requests);
  EXPECT_EQ(stats.admin_requests, kSocketThreads * 20);
  EXPECT_EQ(stats.rejected_malformed,
            kSubmitThreads * 30 + kSocketThreads * 20);

  net.Shutdown();
  server.Shutdown();
}

}  // namespace
}  // namespace lc
