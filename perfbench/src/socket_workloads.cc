// The two networked workloads. Both run an EstimatorServer behind a
// SocketServer on a unix socket with the default configuration, and load
// it from this process over kConnections connections, one client thread
// each. 90% of requests come from a hot set of query templates that fits
// in the result cache; the other 10% are queries never sent before.
//
//  serve_hot_socket     closed loop, kWindow requests pipelined per
//                       connection: the server at saturation. Transport,
//                       parsing and admission-time cache hits dominate.
//  retrain_swap_socket  open loop at the fixed rate kOpenLoopRate, below
//                       serve_hot_socket's capacity, while connection 0
//                       sends ADMIN RETRAIN back to back. The driver's
//                       hook clone-trains and swaps, so every swap stales
//                       the hot set's cache entries. Latency counts from
//                       each request's due time.
//
// Every response is checked against a direct, cache-free EstimateAll over
// the same query under a model the server published during the run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>

#include <unistd.h>

#include "core/mscn_estimator.h"
#include "line_client.h"
#include "serve/net/socket_server.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr size_t kHotTemplates = 512;
constexpr double kMissShare = 0.10;
// Requests in flight per connection in the closed loop.
constexpr size_t kWindow = 4;
// Requests per second across all connections in the open loop.
constexpr double kOpenLoopRate = 8000.0;
// Upper bound on requests per second the never-seen stream is sized for;
// a run that outruns it fails rather than repeating queries.
constexpr double kMaxRequestsPerSecond = 200000.0;
// Requests the traced run replays through the stage functions.
constexpr size_t kReplayRequests = 2000;

enum class Load { kClosedLoop, kOpenLoopRetrain };

struct Traffic {
  std::vector<lc::Query> hot;
  std::vector<std::string> hot_text;
  // Never-seen queries as request text (the stream is large, so only the
  // text is kept), a disjoint slice per connection.
  std::vector<std::vector<std::string>> fresh_text;
};

Traffic MakeTraffic(const lc::Database& db, uint64_t seed,
                    size_t fresh_per_connection) {
  Traffic traffic;
  traffic.hot = DistinctQueries(db, seed, /*min_joins=*/0, /*max_joins=*/2,
                                kHotTemplates);
  std::unordered_set<size_t> seen;
  for (const lc::Query& query : traffic.hot) {
    traffic.hot_text.push_back(query.Serialize());
    seen.insert(std::hash<std::string>()(query.CanonicalKey()));
  }
  // Distinct by a hash of the canonical key: a collision only drops a
  // query that was new.
  lc::GeneratorConfig config;
  config.seed = seed ^ 0xf2e5ULL;
  config.skip_empty = false;
  lc::QueryGenerator generator(&db, config);
  traffic.fresh_text.resize(kConnections);
  for (size_t i = 0; i < kConnections * fresh_per_connection;) {
    const lc::Query query = generator.Generate();
    if (seen.insert(std::hash<std::string>()(query.CanonicalKey())).second) {
      traffic.fresh_text[i++ % kConnections].push_back(query.Serialize());
    }
  }
  return traffic;
}

// Expected estimates of the hot templates under every model published so
// far. The retrain hook adds a model's table before the swap that
// publishes it, so a client that meets an unknown value refreshes its copy
// once before counting a mismatch.
class HotExpectations {
 public:
  void Add(std::vector<double> table) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(
        std::make_shared<const std::vector<double>>(std::move(table)));
  }
  void CopyTo(std::vector<std::shared_ptr<const std::vector<double>>>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    *out = tables_;
  }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<const std::vector<double>>> tables_;
};

// One request: a hot template (index >= 0) or the connection's n-th
// never-seen query.
struct Pick {
  int32_t hot = -1;
  uint32_t fresh = 0;
};

// The seeded request mix of one connection.
class RequestSource {
 public:
  RequestSource(const Traffic* traffic, int conn, uint64_t seed)
      : traffic_(traffic),
        conn_(static_cast<size_t>(conn)),
        rng_(seed * 1000003ULL + static_cast<uint64_t>(conn) + 1) {}

  const std::string& Next(Pick* pick) {
    const std::vector<std::string>& fresh = traffic_->fresh_text[conn_];
    if (rng_.Bernoulli(kMissShare)) {
      if (next_fresh_ < fresh.size()) {
        pick->hot = -1;
        pick->fresh = static_cast<uint32_t>(next_fresh_);
        return fresh[next_fresh_++];
      }
      exhausted_ = true;
    }
    pick->hot = static_cast<int32_t>(
        rng_.UniformInt(0, static_cast<int64_t>(kHotTemplates) - 1));
    return traffic_->hot_text[static_cast<size_t>(pick->hot)];
  }
  size_t fresh_used() const { return next_fresh_; }
  bool exhausted() const { return exhausted_; }

 private:
  const Traffic* traffic_;
  size_t conn_;
  lc::Rng rng_;
  size_t next_fresh_ = 0;
  bool exhausted_ = false;
};

struct InFlight {
  Pick pick;
  bool admin = false;
  int64_t due_ns = 0;
};

// One client connection and everything it observed. Hot answers are
// checked as they arrive; answers to never-seen queries are kept and
// checked after the run.
struct Conn {
  Conn(const Traffic* traffic, HotExpectations* expected, int index,
       uint64_t seed)
      : index(index), source(traffic, index, seed), expected(expected) {}

  int index;
  LineClient client;
  RequestSource source;
  HotExpectations* expected;
  std::vector<std::shared_ptr<const std::vector<double>>> tables;
  std::deque<InFlight> inflight;
  std::vector<std::pair<uint32_t, double>> fresh_answers;
  LatencyWindows latency;            // Of the current phase.
  std::vector<double> lag_us;        // Open loop: send time - due time.
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t hot_mismatches = 0;
  uint64_t errors = 0;
  std::string first_error;
  lc::Status io;

  void Queue(std::string* out, int64_t due) {
    InFlight f;
    const std::string& text = source.Next(&f.pick);
    out->append(text);
    out->push_back('\n');
    f.due_ns = due;
    inflight.push_back(f);
    ++sent;
  }

  bool HotMatches(size_t hot, double value) const {
    for (const auto& table : tables) {
      if ((*table)[hot] == value) return true;
    }
    return false;
  }

  void Consume(const std::string& line, int64_t now, ThreadTrace* trace) {
    const InFlight f = inflight.front();
    inflight.pop_front();
    if (f.admin) {
      if (line != "OK retrain started") Error(line);
      return;
    }
    double value = 0.0;
    if (!ParseEstimate(line, &value)) {
      Error(line);
      return;
    }
    ++answered;
    if (f.pick.hot < 0) {
      fresh_answers.emplace_back(f.pick.fresh, value);
    } else if (!HotMatches(static_cast<size_t>(f.pick.hot), value)) {
      expected->CopyTo(&tables);
      if (!HotMatches(static_cast<size_t>(f.pick.hot), value)) {
        ++hot_mismatches;
      }
    }
    latency.Add(now, static_cast<double>(now - f.due_ns) * 1e-3);
    if (trace != nullptr) {
      trace->Record("request", f.due_ns, now,
                    (static_cast<uint64_t>(index) << 40) | answered);
    }
  }

  void Error(const std::string& line) {
    if (errors++ == 0) first_error = line;
  }
};

// Retrains are chained back to back: the next ADMIN RETRAIN goes out only
// once the hook finished and the server cleared its in-flight flag, so no
// request is ever refused as "already in flight".
struct RetrainChain {
  const lc::serve::EstimatorServer* server = nullptr;
  std::atomic<uint64_t> requested{0};
  std::atomic<uint64_t> completed{0};

  bool Ready() const {
    return completed.load() == requested.load() && !server->retrain_in_flight();
  }
};

// Sends `texts` over `client` with `window` requests in flight and returns
// the response lines in order.
lc::Status Exchange(LineClient* client, const std::vector<std::string>& texts,
                    size_t window, std::vector<std::string>* responses) {
  size_t sent = 0;
  while (responses->size() < texts.size()) {
    std::string out;
    while (sent < texts.size() && sent - responses->size() < window) {
      out += texts[sent++];
      out += '\n';
    }
    if (!out.empty()) {
      lc::Status status = client->Send(out);
      if (!status.ok()) return status;
    }
    lc::Status status = client->ReadLines(responses);
    if (!status.ok()) return status;
  }
  return lc::Status::OK();
}

void ClosedLoop(Conn* conn, int64_t deadline, ThreadTrace* trace) {
  std::string out;
  std::vector<std::string> lines;
  int64_t now = NowNs();
  for (size_t i = 0; i < kWindow; ++i) conn->Queue(&out, now);
  conn->io = conn->client.Send(out);
  while (conn->io.ok() && !conn->inflight.empty()) {
    lines.clear();
    conn->io = conn->client.ReadLines(&lines);
    now = NowNs();
    for (const std::string& line : lines) conn->Consume(line, now, trace);
    if (now < deadline && !lines.empty()) {
      out.clear();
      for (size_t i = 0; i < lines.size(); ++i) {
        conn->Queue(&out, now);
      }
      if (conn->io.ok()) conn->io = conn->client.Send(out);
    }
  }
}

void OpenLoop(Conn* conn, int64_t start, int64_t deadline,
              RetrainChain* chain, ThreadTrace* trace) {
  const double interval_ns = 1e9 * kConnections / kOpenLoopRate;
  // Stagger the connections' schedules across one interval.
  const double offset_ns = interval_ns * conn->index / kConnections;
  const auto due = [&](uint64_t k) {
    return start + static_cast<int64_t>(offset_ns + interval_ns *
                                                         static_cast<double>(k));
  };
  uint64_t k = 0;
  std::string out;
  std::vector<std::string> lines;
  while (conn->io.ok()) {
    int64_t now = NowNs();
    out.clear();
    for (; due(k) <= now && due(k) < deadline; ++k) {
      conn->Queue(&out, due(k));
      conn->lag_us.push_back(static_cast<double>(now - due(k)) * 1e-3);
    }
    if (chain != nullptr && now < deadline && chain->Ready()) {
      out += "ADMIN RETRAIN\n";
      InFlight admin;
      admin.admin = true;
      conn->inflight.push_back(admin);
      ++conn->sent;
      chain->requested.fetch_add(1);
    }
    if (!out.empty()) conn->io = conn->client.Send(out);
    const bool sending = due(k) < deadline;
    if (!sending && conn->inflight.empty()) break;
    lines.clear();
    if (conn->io.ok()) {
      conn->io = conn->client.ReadLines(
          &lines, sending ? std::max<int64_t>(0, due(k) - NowNs()) : -1);
    }
    now = NowNs();
    for (const std::string& line : lines) conn->Consume(line, now, trace);
  }
}

std::vector<const lc::LabeledQuery*> Pointers(
    const std::vector<lc::LabeledQuery>& labeled) {
  std::vector<const lc::LabeledQuery*> pointers;
  pointers.reserve(labeled.size());
  for (const lc::LabeledQuery& query : labeled) pointers.push_back(&query);
  return pointers;
}

// Parses and labels request texts for the estimator, as the server does.
std::vector<lc::LabeledQuery> LabelAll(const std::vector<std::string>& texts,
                                       size_t count,
                                       const lc::SampleSet& samples) {
  std::vector<lc::LabeledQuery> labeled(count);
  lc::ParallelFor(lc::ThreadPool::Global(), 0, count, 64, [&](size_t i) {
    labeled[i] = lc::LabelQuery(lc::Query::Deserialize(texts[i]).value(),
                                nullptr, samples);
  });
  return labeled;
}

// Cache-free estimates of `queries` under `model`, scored inline.
std::vector<double> Expected(const Setup& setup,
                             std::shared_ptr<lc::MscnModel> model,
                             const std::vector<lc::LabeledQuery>& queries) {
  lc::MscnEstimator direct(setup.featurizer.get(), std::move(model), "direct",
                           0);
  return direct.EstimateAll(Pointers(queries), 64, nullptr);
}

WorkloadResult RunSocket(const Setup& setup, const RunOptions& options,
                         Tracer* tracer, Load load) {
  const bool retrain = load == Load::kOpenLoopRetrain;
  const lc::SampleSet& samples = *setup.samples;
  const double rate_cap = retrain ? kOpenLoopRate : kMaxRequestsPerSecond;
  const Traffic traffic = MakeTraffic(
      *setup.db, options.seed,
      static_cast<size_t>(std::ceil(options.seconds * rate_cap * kMissShare /
                                    kConnections)) + 256);

  Progress("request stream ready");
  WorkloadResult result;
  lc::MscnEstimator estimator(setup.featurizer.get(), setup.model, "MSCN",
                              kEstimatorCacheEntries);
  std::vector<lc::LabeledQuery> hot_labeled = LabelAll(
      traffic.hot_text, traffic.hot_text.size(), samples);
  HotExpectations hot_expected;
  hot_expected.Add(Expected(setup, setup.model, hot_labeled));

  // Retrain bookkeeping; outlives the server, whose retrain thread uses it.
  std::mutex published_mu;
  std::vector<std::shared_ptr<lc::MscnModel>> published{setup.model};
  std::vector<double> train_clone_s;
  std::vector<double> swap_us;
  RetrainChain chain;

  lc::serve::EstimatorServer server(&estimator, &setup.db->schema(), &samples,
                                    lc::serve::ServerConfig{});
  chain.server = &server;
  if (retrain) {
    server.set_retrain_fn([&]() -> lc::Status {
      ThreadTrace trace(tracer);
      ScopedSpan span(&trace, "retrain");
      const int64_t t0 = NowNs();
      std::shared_ptr<lc::MscnModel> fresh;
      {
        ScopedSpan train(&trace, "core.train_clone");
        fresh = Retrain(setup);
      }
      const int64_t t1 = NowNs();
      // The gate's expectations for the new model exist before any answer
      // can come from it; computing them is not part of the retrain.
      hot_expected.Add(Expected(setup, fresh, hot_labeled));
      const int64_t t2 = NowNs();
      {
        ScopedSpan swap(&trace, "core.swap");
        estimator.SwapModel(fresh);
      }
      const int64_t t3 = NowNs();
      {
        std::lock_guard<std::mutex> lock(published_mu);
        published.push_back(fresh);
        train_clone_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        swap_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
      }
      chain.completed.fetch_add(1);
      return lc::Status::OK();
    });
  }

  const std::string path = options.work_dir + "/" +
                           (retrain ? "retrain" : "hot") + "-" +
                           std::to_string(::getpid()) + ".sock";
  lc::serve::net::SocketServerConfig net_config;
  net_config.listen = {"unix:" + path};
  lc::serve::net::SocketServer net(&server, net_config);
  const lc::Status started = net.Start();
  if (!started.ok()) {
    result.gate_failures.push_back("socket server: " + started.ToString());
    return result;
  }

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(
        std::make_unique<Conn>(&traffic, &hot_expected, c, options.seed));
    hot_expected.CopyTo(&conns.back()->tables);
    const lc::Status status = conns.back()->client.Connect(path);
    if (!status.ok()) {
      result.gate_failures.push_back("connect: " + status.ToString());
      return result;
    }
  }

  // Warm-up: every hot template once, so the timed phase starts with the
  // hot set cached.
  std::vector<std::string> warm;
  lc::Status warm_status =
      Exchange(&conns[0]->client, traffic.hot_text, 32, &warm);
  result.attempted += traffic.hot_text.size();
  for (const std::string& line : warm) {
    double value = 0.0;
    if (!ParseEstimate(line, &value)) ++result.failed;
  }
  if (!warm_status.ok()) {
    result.gate_failures.push_back("warm-up: " + warm_status.ToString());
  }

  const lc::serve::Stats stats_before = server.GetStats();
  const lc::serve::net::SocketServer::NetStats net_before = net.net_stats();
  const lc::CacheCounters cache_before = estimator.cache_counters();

  // One timed phase: every connection's thread runs its loop until the
  // deadline, then drains its in-flight requests.
  const auto phase = [&](double seconds, Tracer* phase_tracer) {
    const int64_t start = NowNs();
    for (auto& conn : conns) {
      conn->latency = LatencyWindows(start, seconds);
      conn->lag_us.clear();
    }
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (auto& conn : conns) {
      threads.emplace_back([&, c = conn.get()] {
        ThreadTrace trace(phase_tracer);
        if (retrain) {
          OpenLoop(c, start, deadline, c->index == 0 ? &chain : nullptr,
                   &trace);
        } else {
          ClosedLoop(c, deadline, &trace);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    LatencyWindows latency(start, seconds);
    for (const auto& conn : conns) latency.Merge(conn->latency);
    return latency;
  };

  const double untraced_seconds =
      tracer != nullptr ? options.seconds / 2 : options.seconds;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t wall0 = NowNs();
  result.latency = phase(untraced_seconds, nullptr);
  result.wall_s = static_cast<double>(NowNs() - wall0) * 1e-9;
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  result.requests = result.latency.count();
  std::vector<double> lag_us;
  for (const auto& conn : conns) {
    lag_us.insert(lag_us.end(), conn->lag_us.begin(), conn->lag_us.end());
  }
  if (tracer != nullptr) {
    result.traced_p50_us =
        SummarizeLatency(phase(options.seconds / 2, tracer)).p50;
    for (const auto& conn : conns) {
      lag_us.insert(lag_us.end(), conn->lag_us.begin(), conn->lag_us.end());
    }
  }
  // The last retrain finishes before anything is checked or scored.
  while (server.retrain_in_flight()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const lc::serve::Stats stats_after = server.GetStats();
  const lc::serve::net::SocketServer::NetStats net_after = net.net_stats();
  const lc::CacheCounters cache_after = estimator.cache_counters();

  Progress("timed phase done");
  // Accuracy through the socket, under the model served at the end.
  std::vector<std::string> eval_text;
  for (const lc::LabeledQuery& labeled : setup.eval.queries) {
    eval_text.push_back(labeled.query.Serialize());
  }
  std::vector<std::string> eval_lines;
  const lc::Status eval_status =
      Exchange(&conns[0]->client, eval_text, 32, &eval_lines);
  result.attempted += eval_text.size();
  std::vector<double> eval_estimates;
  for (const std::string& line : eval_lines) {
    double value = 0.0;
    if (ParseEstimate(line, &value)) {
      eval_estimates.push_back(value);
    } else {
      ++result.failed;
    }
  }
  if (eval_status.ok() && eval_estimates.size() == eval_text.size()) {
    result.qerror =
        SummarizeQErrors(eval_estimates, Cardinalities(setup.eval));
  } else {
    result.gate_failures.push_back("evaluation set not fully answered: " +
                                   eval_status.ToString());
  }

  // Gate: every answer equals a cache-free EstimateAll of its query under
  // one of the models published during the run. Hot answers were checked
  // on arrival; answers to never-seen queries are checked here.
  uint64_t mismatches = 0;
  for (const auto& conn : conns) {
    result.attempted += conn->sent;
    result.failed += conn->errors;
    mismatches += conn->hot_mismatches;
    if (conn->errors > 0) {
      result.gate_failures.push_back(
          lc::Format("connection %d: %llu error responses, first: %s",
                     conn->index,
                     static_cast<unsigned long long>(conn->errors),
                     conn->first_error.c_str()));
    }
    if (!conn->io.ok()) {
      result.gate_failures.push_back(lc::Format(
          "connection %d: %s", conn->index, conn->io.ToString().c_str()));
    }
    if (conn->source.exhausted()) {
      result.gate_failures.push_back(
          "never-seen query stream exhausted: raise the rate cap");
    }
    const std::vector<lc::LabeledQuery> labeled =
        LabelAll(traffic.fresh_text[static_cast<size_t>(conn->index)],
                 conn->source.fresh_used(), samples);
    std::vector<std::vector<double>> expected;
    for (const auto& model : published) {
      lc::MscnEstimator direct(setup.featurizer.get(), model, "direct", 0);
      expected.push_back(direct.EstimateAll(Pointers(labeled), 64));
    }
    for (const auto& [fresh, value] : conn->fresh_answers) {
      bool match = false;
      for (size_t m = 0; m < expected.size() && !match; ++m) {
        match = value == expected[m][fresh];
      }
      if (!match) ++mismatches;
    }
  }
  if (mismatches > 0) {
    result.failed += mismatches;
    result.gate_failures.push_back(
        std::to_string(mismatches) +
        " responses differ from EstimateAll under every published model");
  }
  Progress("outputs checked");
  if (retrain) {
    if (stats_after.model_swaps != stats_after.retrains_started ||
        stats_after.model_swaps != chain.requested.load()) {
      result.gate_failures.push_back(lc::Format(
          "model_swaps=%llu but retrains started=%llu, requested=%llu",
          static_cast<unsigned long long>(stats_after.model_swaps),
          static_cast<unsigned long long>(stats_after.retrains_started),
          static_cast<unsigned long long>(chain.requested.load())));
    }
    if (train_clone_s.empty()) {
      result.gate_failures.push_back("no retrain completed");
    }
  }

  if (tracer != nullptr) {
    // Stage replay: the server's stages are out of the driver's reach, so
    // a sample of the same request mix goes through the stage functions
    // one span per call.
    const std::shared_ptr<lc::MscnModel> model = estimator.model_snapshot();
    std::vector<lc::LabeledQuery> replay_misses;
    replay_misses.reserve(kReplayRequests);
    {
      ThreadTrace trace(tracer);
      RequestSource source(&traffic, 0, options.seed ^ 0x7e91a7ULL);
      lc::Tape tape;
      std::vector<double> estimates;
      for (size_t i = 0; i < kReplayRequests; ++i) {
        Pick pick;
        const std::string& line = source.Next(&pick);
        ScopedSpan root(&trace, "replay", i + 1);
        lc::Query query;
        std::string key;
        {
          ScopedSpan span(&trace, "serve.parse");
          lc::StatusOr<std::string> text = lc::serve::ParseRequestLine(line);
          query = lc::Query::Deserialize(*text).value();
          (void)query.Validate(setup.db->schema());
          key = query.CanonicalKey();
        }
        lc::serve::Response response;
        {
          ScopedSpan span(&trace, "core.probe");
          response.cache_hit = estimator.ProbeCache(key, &response.estimate);
        }
        if (pick.hot < 0) {
          {
            ScopedSpan span(&trace, "workload.annotate");
            replay_misses.push_back(lc::LabelQuery(query, nullptr, samples));
          }
          lc::MscnBatch batch;
          {
            ScopedSpan span(&trace, "core.featurize");
            batch = setup.featurizer->MakeBatch({&replay_misses.back()},
                                                nullptr);
          }
          ScopedSpan span(&trace, "nn.forward");
          estimates.clear();
          model->Predict(batch, &tape, &estimates);
        }
        ScopedSpan span(&trace, "serve.format");
        (void)lc::serve::FormatResponse(response);
      }
      // The lanes' step: EstimateBatch over the replayed misses in batches
      // of the server's mean batch size, cache off.
      lc::MscnEstimator lane(setup.featurizer.get(), model, "lane", 0);
      const size_t batch_size = std::max<size_t>(
          1, static_cast<size_t>(std::lround(stats_after.batch_size.mean())));
      const std::vector<const lc::LabeledQuery*> misses =
          Pointers(replay_misses);
      std::vector<uint8_t> hits;
      for (size_t begin = 0; begin < misses.size(); begin += batch_size) {
        const std::vector<const lc::LabeledQuery*> batch(
            misses.begin() + static_cast<ptrdiff_t>(begin),
            misses.begin() + static_cast<ptrdiff_t>(
                                 std::min(misses.size(), begin + batch_size)));
        ScopedSpan span(&trace, "core.estimate_batch");
        lane.EstimateBatch(batch, &tape, &estimates, &hits);
      }
    }

    const auto totals = SelfTimes(tracer->spans());
    const auto total = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    const uint64_t lookups = cache_after.lookups() - cache_before.lookups();
    const uint64_t hits = cache_after.hits - cache_before.hits;
    const uint64_t queries =
        (stats_after.received - stats_after.admin_requests) -
        (stats_before.received - stats_before.admin_requests);
    const uint64_t admission_hits =
        stats_after.admission_cache_hits - stats_before.admission_cache_hits;
    const uint64_t responses = net_after.responses_out - net_before.responses_out;
    auto& layers = result.layers;
    layers["workload.subplans_per_query"] = 0.0;
    layers["workload.annotate_us_per_plan"] =
        total("workload.annotate").MeanUs();
    layers["core.estimate_batch_us"] = total("core.estimate_batch").MeanUs();
    layers["core.featurize_us_per_plan"] = total("core.featurize").MeanUs();
    layers["nn.forward_us_per_batch"] = total("nn.forward").MeanUs();
    layers["core.cache_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
    layers["core.probe_us"] = total("core.probe").MeanUs();
    layers["core.cache_invalidations"] = static_cast<double>(
        cache_after.invalidations - cache_before.invalidations);
    layers["serve.parse_us"] = total("serve.parse").MeanUs();
    layers["serve.format_us"] = total("serve.format").MeanUs();
    layers["serve.admission_hit_ratio"] =
        queries == 0 ? 0.0
                     : static_cast<double>(admission_hits) /
                           static_cast<double>(queries);
    layers["serve.queue_wait_us_mean"] = stats_after.queue_wait_us.mean();
    layers["serve.batch_size_mean"] = stats_after.batch_size.mean();
    layers["serve.model_batches"] = static_cast<double>(
        stats_after.model_batches - stats_before.model_batches);
    layers["serve.rejected_overload"] =
        static_cast<double>(stats_after.rejected_overload);
    layers["serve.net.lines_in"] =
        static_cast<double>(net_after.lines_in - net_before.lines_in);
    layers["serve.net.write_syscalls_per_response"] =
        responses == 0 ? 0.0
                       : static_cast<double>(net_after.write_syscalls -
                                             net_before.write_syscalls) /
                             static_cast<double>(responses);
    layers["serve.net.read_pauses"] =
        static_cast<double>(net_after.read_pauses - net_before.read_pauses);
    layers["serve.model_swaps"] = static_cast<double>(stats_after.model_swaps);
    if (!train_clone_s.empty()) {
      layers["core.train_clone_s"] = Median(train_clone_s);
      layers["core.swap_us"] = Median(swap_us);
    }
    if (!lag_us.empty()) {
      layers["driver.gen_lag_p99_us"] = lc::Quantile(lag_us, 0.99);
    }
    layers["share.cache_hit"] = layers["serve.admission_hit_ratio"];
    layers["share.forward"] = 1.0 - layers["serve.admission_hit_ratio"];
    // Whatever of the end-to-end latency the replayed stages do not
    // explain: transport, framing, queueing and the batching window.
    const double mean_latency =
        result.requests == 0 ? 0.0 : lc::Mean(result.latency.All());
    layers["share.outside_stages"] =
        mean_latency <= 0.0
            ? 0.0
            : std::max(0.0, 1.0 - total("replay").MeanUs() / mean_latency);
  }

  net.Shutdown();
  server.Shutdown();
  return result;
}

}  // namespace

WorkloadResult RunServeHotSocket(const Setup& setup, const RunOptions& options,
                                 Tracer* tracer) {
  return RunSocket(setup, options, tracer, Load::kClosedLoop);
}

WorkloadResult RunRetrainSwapSocket(const Setup& setup,
                                    const RunOptions& options,
                                    Tracer* tracer) {
  return RunSocket(setup, options, tracer, Load::kOpenLoopRetrain);
}

}  // namespace perfbench
